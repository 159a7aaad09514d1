import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cvqubits.fieldprep import (
    N_MAX_FLOOR,
    CavityFieldState,
    CouplingParam,
    SqueezeParam,
    TruncationPolicy,
    binom_ladder,
    binom_row,
    inject,
    inject_oracle,
    squeezed_state,
)
from cvqubits.fieldprep import _splitter_columns
from cvqubits.tensorops import StateVector, TruncatedFockSpace

S_GRID = [0.0, 0.3, 0.65, 1.0]
# Headroom above the cutoff of the dense beam-splitter reference below;
# inject_oracle needs none, because the splitter keeps each pair's total.
ORACLE_PAD = 2
R_GRID = [0.0, 0.25, 0.5, 0.7, 0.99, 1.0]


# ------------------------------------------------------------------- params


def test_squeeze_param_rejects_bad_values():
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SqueezeParam(bad)


@pytest.mark.parametrize("s", [355.5, 356.0, 800.0])
def test_squeeze_param_refuses_an_overflowing_cosh_squared(s):
    # squeezed_state(800) used to end in a bare OverflowError: math range error
    try:
        math.cosh(s) ** 2
    except OverflowError:
        for build in (SqueezeParam, lambda s: squeezed_state(s, TruncationPolicy(n_max=5))):
            with pytest.raises(ValueError, match=f"squeezing parameter {s} overflows cosh"):
                build(s)
    else:
        assert squeezed_state(s, TruncationPolicy(n_max=5)).tail_weight > 0.0


def test_coupling_param_theta_consistency():
    c = CouplingParam(0.25)
    assert c.theta == pytest.approx(2.0 * math.acos(0.25))
    # theta is read off r, never given or set
    with pytest.raises(AttributeError):
        c.theta = 1.0
    with pytest.raises(ValueError):
        CouplingParam(1.5)


def test_coupling_param_exact_endpoints():
    assert CouplingParam(1.0).sin_half == 0.0
    assert CouplingParam(0.0).cos_half == 0.0
    assert CouplingParam(0.0).sin_half == 1.0


# --------------------------------------------------------------- truncation


def test_truncation_policy_tail_bound():
    for s in (0.3, 0.65, 1.0, 2.0):
        for tol in (1e-8, 1e-10, 1e-12):
            n_max, tail = TruncationPolicy(tail_tol=tol).resolve(SqueezeParam(s))
            th2 = math.tanh(s) ** 2
            assert tail == pytest.approx(th2 ** (n_max + 1))
            assert tail <= tol
            if n_max > N_MAX_FLOOR:
                # one level fewer would have left too much outside
                assert th2 ** n_max > tol


def test_truncation_policy_floor_and_override():
    n_max, tail = TruncationPolicy().resolve(SqueezeParam(0.0))
    assert n_max == N_MAX_FLOOR
    assert tail == 0.0
    n_max, tail = TruncationPolicy(n_max=7).resolve(SqueezeParam(1.0))
    assert n_max == 7
    assert tail == pytest.approx(math.tanh(1.0) ** 16)


def test_truncation_policy_takes_only_a_whole_cutoff():
    # 2.7 used to be floored to 2 without a word
    for bad in (2.7, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="n_max must be a whole number"):
            TruncationPolicy(n_max=bad)
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        TruncationPolicy(n_max=0)
    assert TruncationPolicy(n_max=3.0).n_max == 3 and type(TruncationPolicy(n_max=np.int64(3)).n_max) is int


def test_truncation_policy_refuses_a_tail_tol_it_cannot_resolve():
    # an infinite tail_tol used to build, and resolve then died converting inf to an int
    for bad in (math.inf, math.nan, 0.0, -1e-10, None):
        with pytest.raises(ValueError, match="tail_tol must be finite and > 0"):
            TruncationPolicy(tail_tol=bad)
    # an explicit cutoff still wins over any tail_tol
    assert TruncationPolicy(tail_tol=math.inf, n_max=5).resolve(0.5)[0] == 5


# ------------------------------------------------------------ squeezed state


@pytest.mark.parametrize("s", S_GRID)
def test_squeezed_state_geometric_ladder(s):
    psi = squeezed_state(SqueezeParam(s))
    dim = psi.space.factor_dims[0]
    amp = psi.amplitudes.reshape(dim, dim)
    # only the twin-photon diagonal is populated
    off = amp - np.diag(np.diag(amp))
    assert np.max(np.abs(off)) == 0.0
    d = np.real(np.diag(amp))
    assert d[0] == pytest.approx(1.0 / math.cosh(s))
    for n in range(dim - 1):
        if d[n] != 0.0:
            assert d[n + 1] / d[n] == pytest.approx(math.tanh(s), abs=1e-15)
    psi.validate(tol=1e-12)


def test_squeezed_state_vacuum_limit():
    psi = squeezed_state(SqueezeParam(0.0))
    assert psi.amplitudes[0] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1
    assert psi.tail_weight == 0.0


def test_squeezed_state_norm_matches_tail():
    psi = squeezed_state(SqueezeParam(1.0), TruncationPolicy(tail_tol=1e-6))
    assert psi.norm_sq() == pytest.approx(1.0 - psi.tail_weight, abs=1e-15)


# ---------------------------------------------------------- binomial ladder


def direct_binom(n, k, c, s_):
    """sqrt(C(n, k)) c^k s^(n-k) as a plain product; well-conditioned to n = 40."""
    return math.sqrt(math.comb(n, k)) * c**k * s_ ** (n - k)


@pytest.mark.parametrize("theta", [0.0, 0.42, np.pi / 2, 2.2, np.pi])
def test_binom_rows_are_normalized(theta):
    coupling = CouplingParam(math.cos(theta / 2.0))
    for n in range(0, 41, 5):
        row = binom_row(n, coupling)
        assert np.dot(row, row) == pytest.approx(1.0, abs=1e-13)


def test_binom_row_log_path_matches_exact():
    # n > 20 goes through the log-factorial branch; compare against the
    # straightforward product, which is still well-conditioned there
    coupling = CouplingParam(math.cos(1.234 / 2.0))
    c, s_ = coupling.cos_half, coupling.sin_half
    for n in (21, 25, 40):
        row = binom_row(n, coupling)
        for k in (0, 3, n // 2, n):
            assert row[k] == pytest.approx(direct_binom(n, k, c, s_), rel=1e-13)


def test_binom_row_range_errors():
    with pytest.raises(ValueError):
        binom_row(-1, CouplingParam(0.5))
    with pytest.raises(ValueError):
        binom_row(3, 1.5)  # a bare reflection outside [0, 1]


@pytest.mark.parametrize("r", [0.0, 0.25, 0.7, 0.99, 1.0])
def test_binom_ladder_rows_are_binom_rows(r):
    # both branches (exact to n = 20, log-space above) and both one-splitting
    # edges (r = 0, r = 1), bit for bit
    ladder = binom_ladder(320, CouplingParam(r))
    assert ladder.shape == (321, 321)
    for n in range(321):
        assert np.array_equal(ladder[n, n::-1], binom_row(n, CouplingParam(r))), n
        assert not np.any(ladder[n, n + 1 :]), n


def test_binom_ladder_range_errors():
    assert np.array_equal(binom_ladder(0, 0.3), [[1.0]])
    with pytest.raises(ValueError):
        binom_ladder(-1, CouplingParam(0.5))
    with pytest.raises(ValueError):
        binom_ladder(3, 1.5)


def test_binom_row_matches_scalar():
    coupling = CouplingParam(0.7)
    c, s_ = coupling.cos_half, coupling.sin_half
    row = binom_row(12, coupling)
    for k in range(13):
        assert row[k] == pytest.approx(direct_binom(12, k, c, s_), abs=1e-15)


# ------------------------------------------------------------- injection


def pair_state(amps, s=0.0):
    """Two-mode state sum_n amps[n] |n, n> as a StateVector."""
    dim = len(amps)
    vec = np.zeros(dim * dim, dtype=complex)
    for n, a in enumerate(amps):
        vec[n * dim + n] = a
    return StateVector(TruncatedFockSpace((dim, dim)), vec)


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("r", R_GRID)
def test_inject_matches_oracle(s, r):
    psi = squeezed_state(SqueezeParam(s))
    fast = inject(psi, CouplingParam(r))
    slow = inject_oracle(psi, CouplingParam(r))
    assert np.max(np.abs(fast.rho.matrix - slow.rho.matrix)) < 1e-12


def reference_inject_oracle(psi, coupling):
    """The beam-splitter route with the full bs @ amp @ bs.T, as first written.

    Kept as the reference that inject_oracle's occupied-column product is
    held against.
    """
    dim = psi.space.factor_dims[0]
    big = dim + ORACLE_PAD
    a = np.diag(np.sqrt(np.arange(1.0, big)), 1)
    cav = np.kron(np.eye(big), a)  # cavity is the fast factor of a pair
    ext = np.kron(a, np.eye(big))
    bs = expm(0.5 * coupling.theta * (cav @ ext.T - cav.T @ ext))
    amp = np.zeros((big * big, big * big), dtype=complex)
    occupied = np.arange(dim) * big
    amp[np.ix_(occupied, occupied)] = psi.amplitudes.reshape(dim, dim)
    amp = bs @ amp @ bs.T
    four = amp.reshape(big, big, big, big).transpose(0, 2, 1, 3)
    flat = np.ascontiguousarray(four[:dim, :dim, :dim, :dim]).reshape(dim * dim, dim * dim)
    return flat.T @ flat.conj()


@pytest.mark.parametrize("source", ["squeezed", "random"])
@pytest.mark.parametrize("r", [0.0, 0.5, 0.99])
def test_inject_oracle_matches_full_product_reference(source, r):
    if source == "squeezed":
        psi = squeezed_state(SqueezeParam(0.65), TruncationPolicy(n_max=6))
    else:  # any two-mode input, not only the photon-number-correlated one
        rng = np.random.default_rng(31)
        vec = rng.normal(size=25) + 1j * rng.normal(size=25)
        psi = StateVector(TruncatedFockSpace((5, 5)), vec / np.linalg.norm(vec))
    got = inject_oracle(psi, CouplingParam(r)).rho.matrix
    ref = reference_inject_oracle(psi, CouplingParam(r))
    assert np.max(np.abs(got - ref)) < 1e-13


def reference_splitter_columns(coupling, dim):
    """reach[n, e] = <e, n - e| U |n, 0> by one eigh of each whole, symmetrised total-n block.

    Kept as the reference that the one-eigh-per-block splitter table is held against.
    ``scipy.linalg.expm`` of the same blocks differs from the table by up to
    1.45e-14 over the grid below, past its 1e-14 bound, so the reference keeps eigh.
    """
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    reach = np.zeros((dim, dim))
    for n in range(dim):
        i = np.arange(n + 1)[:, None]
        j = i.T
        block = a[j, i] * a[n - i, n - j] - a[i, j] * a[n - j, n - i]
        h = 1j * block
        w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
        reach[n, : n + 1] = ((v * np.exp(-0.5j * coupling.theta * w)) @ v.conj().T)[:, n].real
    return reach


@pytest.mark.parametrize("dim", [1, 2, 10, 29, 43])
@pytest.mark.parametrize("r", [0.0, 0.25, 0.7, 0.99, 1.0])
def test_splitter_columns_match_the_exponential(dim, r):
    # each row is one column of a unitary, so it has unit norm, and no
    # photon leaves through a port it never entered (e <= n)
    got = _splitter_columns(CouplingParam(r), dim)
    assert np.max(np.abs(got - reference_splitter_columns(CouplingParam(r), dim))) <= 1e-14
    assert np.max(np.abs(np.linalg.norm(got, axis=1) - 1.0)) <= 1e-14
    assert not np.any(np.triu(got, 1))


def test_oracle_at_full_reflection_holds_only_the_vacuum_entry():
    # at r = 1 the splitter is exp(0) = I exactly, so every photon stays in
    # the external ports and no roundoff links cavity pairs into blocks
    assert np.array_equal(_splitter_columns(CouplingParam(1.0), 43), np.eye(43))
    psi = squeezed_state(SqueezeParam(1.0))
    field = inject_oracle(psi, CouplingParam(1.0))
    assert len(field.blocks) == 1 and field.blocks.flat.size == 1
    m = field.rho.matrix
    assert np.count_nonzero(m) == 1
    assert m[0, 0] == pytest.approx(1.0 - psi.tail_weight, abs=1e-14)


def test_an_empty_field_builds_and_reads_zero():
    # no blocks at all: the packed buffer is empty and every entry is 0, and
    # an all-zero input reaches no cavity pair through the oracle
    field = CavityFieldState((), None, None, 2, 0.0)
    assert len(field.blocks) == 0 and field.blocks.flat.size == 0
    assert field.rho.matrix.shape == (9, 9) and not np.any(field.rho.matrix)
    rows, cols = np.divmod(np.arange(81), 9)
    assert not np.any(field.entries(rows, cols))
    psi = StateVector(TruncatedFockSpace((4, 4)), np.zeros(16))
    empty = inject_oracle(psi, CouplingParam(0.4))
    assert empty.n_max == 3 and not np.any(empty.rho.matrix)


def random_pair_state(seed, dim=5, sparsity=0.0):
    """A random two-mode input: it correlates every level with every other.

    With ``sparsity`` above 0, about that share of the amplitudes is zero
    (never all of them), which leaves the field in several disjoint blocks.
    """
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim * dim) + 1j * rng.normal(size=dim * dim)
    if sparsity:
        vec[rng.random(dim * dim) < sparsity] = 0.0
        vec[rng.integers(dim * dim)] += 1.0
    return StateVector(TruncatedFockSpace((dim, dim)), vec / np.linalg.norm(vec))


def off_twin_state():
    """|0, 2> + |3, 1> + |4, 4> (normalized): breaks nA = nB but leaves separate blocks."""
    vec = np.zeros(25, dtype=complex)
    vec[[0 * 5 + 2, 3 * 5 + 1, 4 * 5 + 4]] = [0.6, 0.48j, -0.64]
    return StateVector(TruncatedFockSpace((5, 5)), vec)


@pytest.mark.parametrize("source", ["squeezed", "random", "off-twin"])
@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_inject_oracle_blocks_match_full_product_reference(source, r):
    # the endpoints keep every photon (r = 0) or none (r = 1) in the cavity,
    # so a wrong column of the exponential or a dropped block shows at once
    if source == "squeezed":
        psi = squeezed_state(SqueezeParam(1.0), TruncationPolicy(n_max=6))
    else:
        psi = random_pair_state(7) if source == "random" else off_twin_state()
    got = inject_oracle(psi, CouplingParam(r)).rho.matrix
    ref = reference_inject_oracle(psi, CouplingParam(r))
    assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize(
    "psi",
    [StateVector(TruncatedFockSpace((2, 2)), [0.0, 1.0, 0.0, 0.0]), random_pair_state(3)],
    ids=["one-photon", "random"],
)
def test_oracle_takes_any_two_mode_input_without_s(psi):
    # |0, 1> and a random input carry no squeezing: the oracle takes them
    # without s= and records s and policy as given; inject reads only the
    # twin levels, so it refuses both inputs, with or without s=
    field = inject_oracle(psi, CouplingParam(0.5))
    assert field.s is None and field.policy is None
    assert field.rho.trace().real == pytest.approx(psi.norm_sq(), abs=1e-13)
    ref = reference_inject_oracle(psi, CouplingParam(0.5))
    assert np.max(np.abs(field.rho.matrix - ref)) < 1e-13
    policy = TruncationPolicy(n_max=4)
    given = inject_oracle(psi, CouplingParam(0.5), s=0.2, policy=policy)
    assert given.s == SqueezeParam(0.2) and given.policy is policy
    assert np.array_equal(given.rho.matrix, field.rho.matrix)
    with pytest.raises(ValueError, match="squeezing parameter"):
        inject_oracle(psi, CouplingParam(0.5), s=-1.0)
    for kwargs in ({}, {"s": SqueezeParam(0.2)}):
        with pytest.raises(ValueError, match="inject_oracle"):
            inject(psi, CouplingParam(0.5), **kwargs)


def phased_twin_state(phase=0.7, s=0.65, n_max=4):
    """A squeezed vacuum with amplitude e^{i phase n} on |n, n>: twin levels only, not real."""
    psi = squeezed_state(SqueezeParam(s), TruncationPolicy(n_max=n_max))
    dim = n_max + 1
    twins = np.zeros(dim * dim, dtype=complex)
    twins[:: dim + 1] = np.exp(1j * phase * np.arange(dim))
    return StateVector(psi.space, psi.amplitudes * twins, psi.tail_weight)


@pytest.mark.parametrize("source", ["off-twin", "phased-twin"])
def test_inject_refuses_an_input_it_cannot_read(source):
    # inject used to read only the real parts of the twin amplitudes: at
    # r = 0.3 it returned a field of trace 0.41, 0.30 from the oracle's, for
    # the off-twin input, and one 0.23 from the oracle's for the phased one
    psi = off_twin_state() if source == "off-twin" else phased_twin_state()
    with pytest.raises(ValueError, match="inject_oracle"):
        inject(psi, CouplingParam(0.3), s=SqueezeParam(0.65))
    field = inject_oracle(psi, CouplingParam(0.3))
    assert field.rho.trace().real == pytest.approx(psi.norm_sq(), abs=1e-13)
    ref = reference_inject_oracle(psi, CouplingParam(0.3))
    assert np.max(np.abs(field.rho.matrix - ref)) < 1e-13


def test_field_blocks_are_checked_and_packed():
    # blocks given as separate arrays are packed into one buffer, and read
    # back the same, as are copies; indices must be distinct, in range and
    # match their matrix
    field = inject(squeezed_state(SqueezeParam(0.65), TruncationPolicy(n_max=5)), CouplingParam(0.3))
    loose = replace(field, blocks=tuple((list(idx), m.copy()) for idx, m in field.blocks))
    assert np.array_equal(loose.blocks.flat, field.blocks.flat)
    assert np.array_equal(loose.rho.matrix, field.rho.matrix)
    rows, cols = np.divmod(np.arange(36**2), 36)
    assert np.array_equal(loose.entries(rows, cols), field.rho.matrix.real.reshape(-1))
    for twin in (copy.deepcopy(field), pickle.loads(pickle.dumps(field))):
        assert np.array_equal(twin.entries(rows, cols), loose.entries(rows, cols))
    for bad in (
        ((np.arange(3), np.eye(2)),),  # matrix of the wrong size
        ((np.arange(3), np.eye(3)), (np.arange(2, 4), np.eye(2))),  # index 2 twice
        ((np.array([0, 36**2]), np.eye(2)),),  # past the last pair
        ((np.array([-1, 0]), np.eye(2)),),
    ):
        with pytest.raises(ValueError, match="block"):
            replace(field, blocks=bad)


def test_entries_refuse_bad_indices():
    # lists read as arrays; a negative index used to wrap to the field's last
    # entries, and an index past the last pair or a mismatched shape raised
    # from deep inside numpy, or not at all
    field = inject(squeezed_state(SqueezeParam(0.65), TruncationPolicy(n_max=3)), CouplingParam(0.3))
    assert np.array_equal(field.entries([[0, 5], [15, 15]], [[0, 5], [15, 10]]),
                          field.entries(np.array([[0, 5], [15, 15]]), np.array([[0, 5], [15, 10]])))
    assert field.entries([], []).shape == (0,)
    for rows, cols, knob in (
        ([-1], [0], "rows"),
        ([0], [-1], "cols"),
        ([16], [0], "rows"),
        ([0], [0, 16], "cols"),
    ):
        with pytest.raises(ValueError, match=rf"{knob} must lie in \[0, 16\)"):
            field.entries(np.array(rows), np.array(cols))
    for rows, cols in (([0, 1], [0]), ([[0, 1]], [0, 1]), (np.arange(4).reshape(2, 2), np.arange(4))):
        with pytest.raises(ValueError, match="cols of shape .* does not match rows of shape"):
            field.entries(rows, cols)


def diagonal_free_inject_blocks(psi, coupling):
    """inject's sector blocks through per-entry index gathers, as first written.

    Kept as the reference that the diagonal-view blocks are held against,
    byte for byte: the same products in the same order, then the same
    Gram product into a buffer of the same layout.
    """
    dim = psi.space.factor_dims[0]
    n_max = dim - 1
    d = np.zeros(2 * dim)
    d[:dim] = psi.amplitudes.reshape(dim, dim).diagonal().real
    ladder = np.zeros((2 * dim, dim))
    ladder[:dim] = binom_ladder(n_max, coupling)
    amp = d[:, None] * ladder
    out = []
    for delta in range(-n_max, dim):
        na = np.arange(max(0, delta), dim + min(0, delta))
        k = np.arange(max(0, -delta), dim - na[0])[:, None]
        n = na + k
        block = amp[n, na] * ladder[n, na - delta]
        out.append((na * (dim + 1) - delta, np.matmul(block.T, block)))
    return out


def negative_twin_state():
    """Real twin amplitudes of either sign, some zero, on 30 levels (the ladder's log branch)."""
    rng = np.random.default_rng(5)
    amps = rng.normal(size=30)
    amps[[3, 17]] = 0.0
    return pair_state(amps / np.linalg.norm(amps))


@pytest.mark.parametrize("source", ["n_max 1", "s 0.65", "log branch", "negative twins"])
@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_inject_blocks_equal_the_per_entry_gathers_byte_for_byte(source, r):
    psi = {
        "n_max 1": lambda: squeezed_state(SqueezeParam(0.65), TruncationPolicy(n_max=1)),
        "s 0.65": lambda: squeezed_state(SqueezeParam(0.65)),
        "log branch": lambda: squeezed_state(SqueezeParam(1.0)),  # n_max 42
        "negative twins": negative_twin_state,
    }[source]()
    got = inject(psi, CouplingParam(r)).blocks
    ref = diagonal_free_inject_blocks(psi, CouplingParam(r))
    assert len(got) == len(ref)
    for (idx, block), (ref_idx, ref_block) in zip(got, ref):
        assert np.array_equal(idx, ref_idx)
        assert block.tobytes() == ref_block.tobytes()


def test_inject_refuses_a_ladder_it_cannot_read():
    psi = squeezed_state(SqueezeParam(0.65), TruncationPolicy(n_max=9))
    ladder = binom_ladder(9, CouplingParam(0.25))  # levels 0..9 serve n_max up to 9
    inject(psi, CouplingParam(0.25), ladder=ladder)
    for other in (ladder.tolist(), tuple(map(tuple, ladder.tolist()))):
        with pytest.raises(ValueError, match=r"ladder must be a 2-D array, got a (list|tuple)"):
            inject(psi, CouplingParam(0.25), ladder=other)
    for flat in (np.zeros(200), ladder.ravel(), np.zeros((2, 12, 12))):
        with pytest.raises(ValueError, match="ladder must be a 2-D array, got shape"):
            inject(psi, CouplingParam(0.25), ladder=flat)
    for short in (ladder[:9], ladder[:, :9], binom_ladder(8, CouplingParam(0.25))):
        with pytest.raises(ValueError, match="too small for n_max 9"):
            inject(psi, CouplingParam(0.25), ladder=short)
    for r in (0.0, 0.7, 1.0, math.nextafter(0.25, 1.0)):
        with pytest.raises(ValueError, match="not built for r = 0.25"):
            inject(psi, CouplingParam(0.25), ladder=binom_ladder(9, CouplingParam(r)))


@pytest.mark.parametrize("r", [-0.0, 0.0, 0.25, 0.99, 1.0])
@pytest.mark.parametrize("s", [0.3, 1.0])
def test_inject_reads_the_corner_of_a_given_ladder(s, r):
    # one ladder at a larger cutoff gives the field bit for bit; one built
    # for -0.0 serves 0.0 and the other way round, as they are one reflection
    psi = squeezed_state(SqueezeParam(s))
    alone = inject(psi, CouplingParam(r))
    for built in (r, -r) if r == 0.0 else (r,):
        shared = inject(psi, CouplingParam(r), ladder=binom_ladder(43, CouplingParam(built)))
        assert shared.blocks.flat.tobytes() == alone.blocks.flat.tobytes()
        for (idx, _), (ref_idx, _) in zip(shared.blocks, alone.blocks):
            assert np.array_equal(idx, ref_idx)


def reference_inject(psi, coupling):
    """The number expansion through one (n+1)^2-square branch matrix, as first written.

    Kept as the reference that inject's per-sector Gram blocks are held
    against.
    """
    dim = psi.space.factor_dims[0]
    d = psi.amplitudes.reshape(dim, dim).diagonal().real.copy()
    rows = np.zeros((dim, dim))
    for n in range(dim):
        rows[n, : n + 1] = binom_row(n, coupling)
    branches = np.zeros((dim * dim, dim * dim))
    for k in range(dim):
        for l in range(dim):
            ns = np.arange(max(k, l), dim)
            branches[k * dim + l, (ns - k) * dim + (ns - l)] = d[ns] * rows[ns, k] * rows[ns, l]
    return (branches.T @ branches).astype(complex)


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("r", [0.0, 0.25, 0.99, 1.0])
def test_inject_matches_branch_gram_reference(s, r):
    psi = squeezed_state(SqueezeParam(s))
    got = inject(psi, CouplingParam(r)).rho.matrix
    ref = reference_inject(psi, CouplingParam(r))
    assert np.max(np.abs(got - ref)) < 1e-13
    # the sectors are exact: an entry the branches never reach stays exactly 0
    assert np.array_equal(got != 0, ref != 0)


def test_inject_full_reflection_leaves_vacuum():
    psi = squeezed_state(SqueezeParam(0.8))
    field = inject(psi, CouplingParam(1.0))
    m = field.rho.matrix
    assert m[0, 0].real == pytest.approx(psi.norm_sq(), abs=1e-14)
    m00 = m.copy()
    m00[0, 0] = 0.0
    assert np.max(np.abs(m00)) < 1e-15


def test_inject_full_transmission_is_pure_transfer():
    psi = squeezed_state(SqueezeParam(0.8))
    field = inject(psi, CouplingParam(0.0))
    np.testing.assert_allclose(
        field.rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()), atol=1e-14
    )


@pytest.mark.parametrize("r", [0.0, 0.3, 0.8, 1.0])
def test_inject_single_photon_transmission(r):
    # one twin photon: each side keeps it with probability 1 - r^2
    psi = pair_state([0.0, 1.0, 0.0])
    field = inject(psi, CouplingParam(r), s=SqueezeParam(0.0))
    p = np.real(np.diag(field.rho.matrix)).reshape(3, 3)
    t = 1.0 - r * r
    assert p[1, 1] == pytest.approx(t * t, abs=1e-14)
    assert p[1, 0] == pytest.approx(t * r * r, abs=1e-14)
    assert p[0, 1] == pytest.approx(r * r * t, abs=1e-14)
    assert p[0, 0] == pytest.approx(r ** 4, abs=1e-14)


@pytest.mark.parametrize("s", [0.3, 0.65])
@pytest.mark.parametrize("r", [0.0, 0.5, 0.99])
def test_inject_output_is_a_state(s, r):
    field = inject(squeezed_state(SqueezeParam(s)), CouplingParam(r))
    field.rho.validate(trace_tol=1e-12)
    assert field.n_max == field.rho.space.factor_dims[0] - 1
    assert field.tail_weight == pytest.approx(field.rho.tail_weight)


def test_inject_keeps_trace_across_couplings():
    # the beam splitter moves photons, never probability
    psi = squeezed_state(SqueezeParam(0.65))
    traces = [inject(psi, CouplingParam(r)).rho.trace().real for r in R_GRID]
    for tr in traces:
        assert tr == pytest.approx(psi.norm_sq(), abs=1e-13)


def test_inject_rejects_non_square_input():
    vec = np.zeros(6, dtype=complex)
    vec[0] = 1.0
    psi = StateVector(TruncatedFockSpace((2, 3)), vec)
    with pytest.raises(ValueError):
        inject(psi, CouplingParam(0.5))
