import math
from dataclasses import replace

import numpy as np
import pytest

from cvqubits.analytic import (
    AtomXState,
    WeightTable,
    negativity_closed_form,
    xstate_series,
)
from cvqubits.fieldprep import (
    CouplingParam,
    SqueezeParam,
    TruncationPolicy,
    binom_ladder,
    binom_row,
    inject,
    squeezed_state,
)
from cvqubits.jcdynamics import AtomState, reduce_atoms_direct
from cvqubits.sweep import default_verify_config, preset_config


def x_state(a, b, c, d, e):
    return AtomXState(a, b, c, d, e, s=0.0, r=0.0, lambda_t=0.0, initial="gg", n_max=1)


# ------------------------------------------------------------- weight table


def entry(table, n, m, k, l):
    """K[n][m][k][l] assembled from the table's stored ladder and prefactor."""
    rn, rm = table.ladder[n, n::-1], table.ladder[m, m::-1]
    return float(table.prefactor[n + m] * rn[k] * rm[k] * rn[l] * rm[l])


def test_weight_table_entry_formula():
    table = WeightTable(0.65, 0.25, 10)
    th, ch = math.tanh(0.65), math.cosh(0.65)
    theta = 2.0 * math.acos(0.25)
    cos_h, sin_h = math.cos(theta / 2.0), math.sin(theta / 2.0)

    def c(n, k):
        return math.sqrt(math.comb(n, k)) * cos_h**k * sin_h ** (n - k)

    for n, m, k, l in [(0, 0, 0, 0), (3, 2, 1, 0), (5, 5, 2, 4), (10, 9, 0, 3)]:
        expect = th ** (n + m) / ch**2 * c(n, k) * c(m, k) * c(n, l) * c(m, l)
        assert entry(table, n, m, k, l) == pytest.approx(expect, rel=1e-12)


def test_weight_table_diagonal_total_is_kept_mass():
    # same-level weights summed over both splittings: the field trace
    for s in (0.3, 0.65, 1.0):
        for n_max in (4, 9, 20):
            table = WeightTable(s, 0.7, n_max)
            total = math.fsum(
                table.prefactor[2 * n] * float(np.sum(table.ladder[n, n::-1] ** 2)) ** 2
                for n in range(n_max + 1)
            )
            tail = math.tanh(s) ** (2 * (n_max + 1))
            assert total == pytest.approx(1.0 - tail, abs=1e-14)


def test_weight_table_no_light_at_zero_squeezing():
    table = WeightTable(0.0, 0.5, 5)
    assert entry(table, 0, 0, 0, 0) == pytest.approx(1.0)
    assert entry(table, 3, 2, 0, 0) == 0.0
    assert table.prefactor[0] == pytest.approx(1.0)
    assert not np.any(table.prefactor[1:])


def test_weight_table_bounds():
    table = WeightTable(0.5, 0.5, 4)
    # one rung-ordered row per level up to n_max + 1, row n holding n + 1 splittings
    assert table.ladder.shape == (4 + 2, 4 + 2)
    assert np.array_equal(table.ladder != 0, np.tri(4 + 2, dtype=bool))
    assert table.prefactor.size == 2 * 4 + 3
    with pytest.raises(ValueError):
        WeightTable(0.5, 0.5, -1)


def test_weight_table_matches_injected_field_elements():
    # vacuum-vacuum population and the first same-ladder coherence, read
    # straight off the injected density matrix
    s, r, n_max = 0.6, 0.35, 12
    policy = TruncationPolicy(n_max=n_max)
    field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r),
                   s=SqueezeParam(s), policy=policy)
    table = WeightTable(s, r, n_max)
    dim = n_max + 1

    vac = math.fsum(entry(table, n, n, n, n) for n in range(dim))
    assert field.rho.matrix[0, 0].real == pytest.approx(vac, abs=1e-14)

    # every branch losing (k, k) photons reaches this coherence, one level
    # pair (n+1+k, n+k) each
    for n in (0, 3, 7):
        got = field.rho.matrix[(n + 1) * dim + (n + 1), n * dim + n].real
        expect = math.fsum(
            entry(table, n + 1 + k, n + k, k, k) for k in range(dim - n - 1)
        )
        assert got == pytest.approx(expect, abs=1e-14)


# ----------------------------------------------------------- X-state builder


def test_xstate_zero_time_is_initial_state():
    for s, r in [(0.3, 0.0), (0.65, 0.7)]:
        g = xstate_series(s, r, 0.0, 15, "gg")
        assert g.a == g.b == g.c == 0.0
        assert g.e_coh == 0.0
        assert g.d == pytest.approx(1.0 - math.tanh(s) ** 32, abs=1e-14)
        e = xstate_series(s, r, 0.0, 15, "ee")
        assert e.b == e.c == e.d == 0.0
        assert e.a == pytest.approx(1.0 - math.tanh(s) ** 32, abs=1e-14)


def test_xstate_gg_dark_without_light():
    # no squeezing, atoms in |g,g>: nothing ever happens
    for lt in (0.0, 1.7, 11.0):
        x = xstate_series(0.0, 0.3, lt, 6, "gg")
        assert x.a == x.b == x.c == 0.0
        assert x.d == pytest.approx(1.0)
        assert x.e_coh == 0.0
        assert negativity_closed_form(x) == 0.0


@pytest.mark.parametrize("lt", [0.4, 1.1, 2.8, 11.0])
def test_xstate_ee_vacuum_factorizes(lt):
    # no squeezing, full transmission: each atom does independent vacuum
    # Rabi flopping, so the joint state is a product of (cos^2, sin^2)
    x = xstate_series(0.0, 0.0, lt, 6, "ee")
    c2, s2 = math.cos(lt) ** 2, math.sin(lt) ** 2
    assert x.a == pytest.approx(c2 * c2, abs=1e-14)
    assert x.b == pytest.approx(c2 * s2, abs=1e-14)
    assert x.c == pytest.approx(s2 * c2, abs=1e-14)
    assert x.d == pytest.approx(s2 * s2, abs=1e-14)
    assert x.e_coh == 0.0
    assert negativity_closed_form(x) == 0.0


def test_xstate_cross_populations_match_exactly():
    # both cavities see the same field and coupling, so the two single-flip
    # populations coincide by construction
    for initial in ("gg", "ee"):
        x = xstate_series(0.9, 0.4, 7.3, 25, initial)
        assert x.b == x.c
        assert x.initial == initial


def test_xstate_trace_matches_kept_mass():
    for initial in ("gg", "ee"):
        x = xstate_series(0.65, 0.25, 11.0, 20, initial)
        assert x.trace() == pytest.approx(1.0 - math.tanh(0.65) ** 42, abs=1e-13)


def test_xstate_matrix_layout():
    x = xstate_series(0.65, 0.0, 11.0, 20, "gg")
    m = x.to_matrix()
    assert m[0, 0] == x.a and m[3, 3] == x.d
    assert m[0, 3] == m[3, 0] == x.e_coh
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 2


def test_xstate_rejects_degenerate_cutoff():
    with pytest.raises(ValueError):
        xstate_series(0.65, 0.0, 1.0, 0, "gg")


def test_xstate_refuses_a_squeezing_whose_cosh_squared_overflows():
    # this used to end in a bare OverflowError: math range error
    for lts in (1.0, [0.0, 1.0]):
        with pytest.raises(ValueError, match="squeezing parameter 800.0 overflows cosh"):
            xstate_series(800.0, 0.0, lts, 5, "gg")


def test_xstate_and_weight_table_take_only_a_whole_cutoff():
    # 2.9 used to be floored to 2 without a word
    for bad in (2.9, math.nan):
        with pytest.raises(ValueError, match="n_max must be a whole number"):
            xstate_series(0.65, 0.25, [1.0], bad, "gg")
        with pytest.raises(ValueError, match="n_max must be a whole number"):
            WeightTable(0.65, 0.25, bad)
    x = xstate_series(0.65, 0.25, [1.0], 3.0, "gg")
    assert x.n_max == 3 and np.array_equal(x.a, xstate_series(0.65, 0.25, [1.0], 3, "gg").a)


@pytest.mark.parametrize("r", [0.0, 0.25, 0.7, 1.0])
def test_weight_table_reads_the_corner_of_a_given_ladder(r):
    # one ladder at the top cutoff serves every smaller one, bit for bit and without a copy
    top = binom_ladder(43, CouplingParam(r))
    for n_max in (1, 4, 20, 42):
        table = WeightTable(0.65, r, n_max, top)
        assert np.shares_memory(table.ladder, top)
        assert np.array_equal(table.ladder, WeightTable(0.65, r, n_max).ladder)
        for initial in ("gg", "ee"):
            shared = xstate_series(0.65, r, [0.0, 3.3, 11.0], n_max, initial, top)
            alone = xstate_series(0.65, r, [0.0, 3.3, 11.0], n_max, initial)
            for name in ("a", "b", "c", "d", "e_coh"):
                assert np.array_equal(getattr(shared, name), getattr(alone, name))


def test_weight_table_refuses_a_ladder_too_small_for_the_cutoff():
    ladder = binom_ladder(10, CouplingParam(0.25))  # levels 0..10 serve n_max up to 9
    xstate_series(0.65, 0.25, [1.0], 9, "gg", ladder)
    for short in (ladder, ladder[:10], ladder[:, :10]):
        n_max = 10 if short is ladder else 9
        with pytest.raises(ValueError, match="too small for n_max"):
            xstate_series(0.65, 0.25, [1.0], n_max, "gg", short)
        with pytest.raises(ValueError, match="too small for n_max"):
            WeightTable(0.65, 0.25, n_max, short)


def test_weight_table_refuses_a_ladder_that_is_not_two_dimensional():
    # a 1-D ladder is long enough for the size check, and has no [1, 0] entry
    for flat in (np.zeros(50), binom_ladder(10, CouplingParam(0.25)).ravel(), np.zeros((2, 12, 12))):
        with pytest.raises(ValueError, match="ladder must be a 2-D array"):
            WeightTable(0.65, 0.25, 5, flat)
        with pytest.raises(ValueError, match="ladder must be a 2-D array"):
            xstate_series(0.65, 0.25, [1.0], 5, "gg", flat)


def test_weight_table_refuses_a_ladder_that_is_not_an_ndarray():
    # a nested list passes a dimension count, and has no .shape to read
    ladder = binom_ladder(10, CouplingParam(0.25))
    for other in (ladder.tolist(), tuple(map(tuple, ladder.tolist()))):
        with pytest.raises(ValueError, match=r"ladder must be a 2-D array, got a (list|tuple)"):
            WeightTable(0.65, 0.25, 5, other)
        with pytest.raises(ValueError, match=r"ladder must be a 2-D array, got a (list|tuple)"):
            xstate_series(0.65, 0.25, [1.0], 5, "gg", other)


def test_weight_table_refuses_a_ladder_built_for_another_r():
    for other in (0.0, 0.7, 1.0, math.nextafter(0.25, 1.0)):
        ladder = binom_ladder(10, CouplingParam(other))
        with pytest.raises(ValueError, match="not built for r = 0.25"):
            xstate_series(0.65, 0.25, [1.0], 5, "ee", ladder)
        with pytest.raises(ValueError, match="not built for r = 0.25"):
            WeightTable(0.65, 0.25, 5, ladder)
    # -0.0 and 0.0 are one reflection, and one ladder serves both
    zero = binom_ladder(10, CouplingParam(0.0))
    assert np.array_equal(xstate_series(0.65, -0.0, [1.0], 5, "ee", zero).e_coh,
                          xstate_series(0.65, -0.0, [1.0], 5, "ee").e_coh)


@pytest.mark.parametrize("initial", ["gg", "ee"])
@pytest.mark.parametrize("s,r,lt", [(0.4, 0.3, 3.7), (0.65, 0.0, 11.0), (0.5, 0.9, 8.2)])
def test_xstate_matches_dense_reduction(initial, s, r, lt):
    # same truncation on both sides, so agreement is down at roundoff
    n_max = 14
    policy = TruncationPolicy(n_max=n_max)
    field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r),
                   s=SqueezeParam(s), policy=policy)
    rho = reduce_atoms_direct(AtomState(initial), field, lt).matrix
    x = xstate_series(s, r, lt, n_max, initial)
    assert abs(rho[0, 0].real - x.a) < 1e-13
    assert abs(rho[1, 1].real - x.b) < 1e-13
    assert abs(rho[2, 2].real - x.c) < 1e-13
    assert abs(rho[3, 3].real - x.d) < 1e-13
    assert abs(rho[0, 3].real - x.e_coh) < 1e-13
    assert abs(rho[0, 3].imag) < 1e-13


def reference_xstate(s, r, lambda_t, n_max, initial):
    """The ladder sums one interaction time at a time, as first written.

    Kept as the reference that the time-broadcast series is held against.
    """
    sq = SqueezeParam(s)
    cp = CouplingParam(r)
    lt = float(lambda_t)
    table = WeightTable(sq, cp, n_max)
    shift = 0 if initial == "gg" else 1

    flip = np.empty(n_max + 1)
    stay = np.empty(n_max + 1)
    for n in range(n_max + 1):
        row_sq = table.ladder[n, n::-1] ** 2
        rabi = lt * np.sqrt(n - np.arange(n + 1) + shift)
        flip[n] = float(row_sq @ np.sin(rabi) ** 2)
        stay[n] = float(row_sq @ np.cos(rabi) ** 2)

    w_same = table.prefactor[:: 2][: n_max + 1]
    if initial == "gg":
        a = math.fsum(w_same * flip * flip)
        b = math.fsum(w_same * flip * stay)
        d = math.fsum(w_same * stay * stay)
    else:
        a = math.fsum(w_same * stay * stay)
        b = math.fsum(w_same * stay * flip)
        d = math.fsum(w_same * flip * flip)

    corner_terms = []
    for n in range(n_max):
        k = np.arange(n + 1)
        cross = table.ladder[n + 1, n + 1 : 0 : -1] * table.ladder[n, n::-1]
        j = (n - k + shift).astype(float)
        if initial == "gg":
            amp = float(cross @ (np.sin(lt * np.sqrt(j + 1.0)) * np.cos(lt * np.sqrt(j))))
        else:
            amp = float(cross @ (np.cos(lt * np.sqrt(j + 1.0)) * np.sin(lt * np.sqrt(j))))
        corner_terms.append(table.prefactor[2 * n + 1] * amp * amp)
    e_coh = -math.fsum(corner_terms)

    return AtomXState(a=a, b=b, c=b, d=d, e_coh=e_coh, s=sq.s, r=cp.r, lambda_t=lt,
                      initial=initial, n_max=n_max, tail_weight=sq.tanh ** (2 * (n_max + 1)))


SERIES_TOL = 4 * np.finfo(float).eps  # elements are <= 1


@pytest.mark.parametrize("lambda_ts", [(11.0,), (0.0, 0.4, 1.1, 2.8, 5.0, 11.0, 15.0)])
@pytest.mark.parametrize("initial", ["gg", "ee"])
@pytest.mark.parametrize("r", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("s", [0.0, 0.3, 1.2])  # s = 1.2 needs n_max > 20: log-space rows
def test_xstate_series_matches_pointwise_reference(s, r, initial, lambda_ts):
    n_max, tail = TruncationPolicy().resolve(SqueezeParam(s))
    series = xstate_series(s, r, lambda_ts, n_max, initial)
    assert series.a.shape == series.lambda_t.shape == (len(lambda_ts),)
    for i, lt in enumerate(lambda_ts):
        ref = reference_xstate(s, r, lt, n_max, initial)
        for name in ("a", "b", "c", "d", "e_coh"):
            assert abs(getattr(series, name)[i] - getattr(ref, name)) <= SERIES_TOL, (name, lt)
        fixed = (series.s, series.r, series.lambda_t[i], series.initial, series.n_max)
        assert fixed == (s, r, lt, initial, n_max)
        assert series.tail_weight == tail == ref.tail_weight


def reference_xstate_series(s, r, lambda_ts, n_max, initial):
    """The series with one array operation per ladder level, as first written.

    Kept as the reference that the rung-ordered matrix products are held
    against; its rows come from binom_row, one call per level.
    """
    sq, cp = SqueezeParam(s), CouplingParam(r)
    lts = np.asarray(lambda_ts, dtype=float)
    rows = [binom_row(n, cp) for n in range(n_max + 2)]
    prefactor = sq.tanh ** np.arange(2 * n_max + 3, dtype=float) / sq.cosh**2
    shift = 0 if initial == "gg" else 1

    flip = np.empty((n_max + 1, lts.size))
    stay = np.empty((n_max + 1, lts.size))
    for n in range(n_max + 1):
        row_sq = rows[n] ** 2
        rabi = np.sqrt(n - np.arange(n + 1) + shift)[:, None] * lts
        flip[n] = row_sq @ np.sin(rabi) ** 2
        stay[n] = row_sq @ np.cos(rabi) ** 2

    def level_sums(terms):
        return [math.fsum(column) for column in terms.T.tolist()]

    w_same = prefactor[:: 2][: n_max + 1, None]
    if initial == "gg":
        a = level_sums(w_same * flip * flip)
        b = level_sums(w_same * flip * stay)
        d = level_sums(w_same * stay * stay)
    else:
        a = level_sums(w_same * stay * stay)
        b = level_sums(w_same * stay * flip)
        d = level_sums(w_same * flip * flip)

    corner = np.empty((n_max, lts.size))
    for n in range(n_max):
        k = np.arange(n + 1)
        cross = rows[n + 1][: n + 1] * rows[n][k]
        j = (n - k + shift).astype(float)[:, None]
        if initial == "gg":
            amp = cross @ (np.sin(np.sqrt(j + 1.0) * lts) * np.cos(np.sqrt(j) * lts))
        else:
            amp = cross @ (np.cos(np.sqrt(j + 1.0) * lts) * np.sin(np.sqrt(j) * lts))
        corner[n] = prefactor[2 * n + 1] * amp * amp
    e_coh = [-total for total in level_sums(corner)]

    tail = sq.tanh ** (2 * (n_max + 1))
    return [
        AtomXState(a=ai, b=bi, c=bi, d=di, e_coh=ei, s=sq.s, r=cp.r, lambda_t=lt,
                   initial=initial, n_max=n_max, tail_weight=tail)
        for ai, bi, di, ei, lt in zip(a, b, d, e_coh, lts.tolist())
    ]


@pytest.mark.parametrize("preset", ["fig2", "fig3"])
def test_xstate_series_matches_per_level_reference_on_presets(preset):
    # every series of the standard grids (fig2 reaches n_max 314): the
    # printed 12-digit measures are identical, the elements agree to roundoff
    config = preset_config(preset)
    policy, lts = config.policy(), config.lt_values()
    for s in config.s_values:
        n_max, _ = policy.resolve(SqueezeParam(s))
        for r in config.r_values:
            for initial in config.initials:
                got = xstate_series(s, r, lts, n_max, initial)
                ref = reference_xstate_series(s, r, lts, n_max, initial)
                measures = negativity_closed_form(got).tolist()
                assert len(ref) == len(lts)
                for i, y in enumerate(ref):
                    for name in ("a", "b", "c", "d", "e_coh"):
                        assert abs(getattr(got, name)[i] - getattr(y, name)) <= SERIES_TOL
                    assert (format(measures[i], ".12g")
                            == format(negativity_closed_form(y), ".12g")), (s, r, y.lambda_t)
                    assert (got.lambda_t[i], got.tail_weight) == (y.lambda_t, y.tail_weight)


def test_xstate_single_point_is_the_one_element_series():
    # a number gives the one-time series' entries, bit for bit, as plain floats; the
    # grid reaches n_max 1, the ladder's log branch (n_max > 20), and r = 0 and r = 1
    for s, r, n_max in [(0.0, 0.0, 1), (0.3, 1.0, 6), (0.65, 0.25, 20), (1.2, 0.7, 63), (2.0, 0.99, 60)]:
        for initial in ("gg", "ee"):
            for lt in (0.0, 1.7, 3.3, 11.0):
                series = xstate_series(s, r, [lt], n_max, initial)
                for number in (lt, np.float64(lt), np.array(lt)):
                    x = xstate_series(s, r, number, n_max, initial)
                    for name in ("a", "b", "c", "d", "e_coh", "lambda_t"):
                        got, want = getattr(x, name), getattr(series, name)[0]
                        assert type(got) is float and got.hex() == want.hex(), (s, r, n_max, lt, name)
                    fixed = (x.s, x.r, x.initial, x.n_max, x.tail_weight)
                    assert fixed == (series.s, series.r, series.initial, series.n_max, series.tail_weight)


def test_xstate_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        xstate_series(0.65, 0.0, [[1.0, 2.0]], 10, "gg")
    with pytest.raises(ValueError):
        xstate_series(0.65, 0.0, [1.0], 10, "eg")
    empty = xstate_series(0.65, 0.0, [], 10, "gg")
    assert empty.a.shape == empty.e_coh.shape == empty.lambda_t.shape == (0,)


# ------------------------------------------------------------ closed measure


def test_measure_on_werner_family():
    # p |Phi+><Phi+| + (1-p)/4 I: entangled above p = 1/3 with measure (3p-1)/2
    for p in (0.0, 1.0 / 3.0, 0.5, 1.0):
        x = x_state(p / 2 + (1 - p) / 4, (1 - p) / 4, (1 - p) / 4, p / 2 + (1 - p) / 4, p / 2)
        assert negativity_closed_form(x) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-15)


def test_measure_bell_state_is_maximal():
    assert negativity_closed_form(x_state(0.5, 0.0, 0.0, 0.5, 0.5)) == pytest.approx(1.0)


def test_measure_clamps_separable_states():
    assert negativity_closed_form(x_state(0.25, 0.25, 0.25, 0.25, 0.0)) == 0.0
    assert negativity_closed_form(x_state(0.1, 0.4, 0.4, 0.1, 0.05)) == 0.0


def scalar_measure(b, c, e_coh):
    """The closed form one point at a time, as first written with math.sqrt."""
    raw = math.sqrt((b - c) ** 2 + 4.0 * e_coh**2) - b - c
    return max(0.0, raw)


@pytest.mark.parametrize("grid", ["fig2", "fig3", "verify"])
def test_series_measure_equals_the_scalar_closed_form(grid):
    # every point of the standard grids, bit for bit, and +0.0 wherever it is zero
    config = default_verify_config() if grid == "verify" else preset_config(grid)
    policy, lts = config.policy(), config.lt_values()
    zeros = 0
    for s in config.s_values:
        n_max, _ = policy.resolve(SqueezeParam(s))
        for r in config.r_values:
            for initial in config.initials:
                series = xstate_series(s, r, lts, n_max, initial)
                got = negativity_closed_form(series).tolist()
                parts = zip(series.b.tolist(), series.c.tolist(), series.e_coh.tolist())
                for i, (measure, (b, c, e_coh)) in enumerate(zip(got, parts)):
                    assert measure.hex() == scalar_measure(b, c, e_coh).hex(), (s, r, initial, i)
                    zeros += measure == 0.0
    assert zeros > 0  # the clamp was reached


def test_measure_keeps_nan_and_signs_zero_positive():
    assert math.isnan(negativity_closed_form(x_state(0.5, math.nan, math.nan, 0.5, 0.1)))
    series = AtomXState(a=np.array([0.5, 0.5, 1.0]), b=np.array([0.0, math.nan, 0.0]),
                        c=np.array([0.0, math.nan, 0.0]), d=np.array([0.5, 0.5, 0.0]),
                        e_coh=np.array([0.5, 0.1, -0.0]), s=0.0, r=0.0,
                        lambda_t=np.zeros(3), initial="gg", n_max=1)
    got = negativity_closed_form(series)
    assert got[0] == 1.0 and math.isnan(got[1]) and got[2] == 0.0
    assert not np.signbit(got[2])


def test_series_matrix_stacks_the_point_matrices():
    lts = [0.0, 3.3, 11.0]
    series = xstate_series(0.65, 0.25, lts, 20, "ee")
    stack = series.to_matrix()
    assert stack.shape == (3, 4, 4)
    for i, lt in enumerate(lts):
        point = replace(series, **{name: float(getattr(series, name)[i])
                                   for name in ("a", "b", "c", "d", "e_coh", "lambda_t")})
        assert np.array_equal(stack[i], point.to_matrix())
        # a number's matrix is the one-time series' stack, bit for bit
        one = xstate_series(0.65, 0.25, lt, 20, "ee").to_matrix()
        assert one.shape == (4, 4)
        assert np.array_equal(one, xstate_series(0.65, 0.25, [lt], 20, "ee").to_matrix()[0])
    assert np.array_equal(series.trace(), np.real(np.trace(stack, axis1=1, axis2=2)))
