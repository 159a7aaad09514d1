import math
import re
import sys
import tracemalloc
from dataclasses import replace
from functools import cache

import numpy as np
import pytest

from cvqubits import analytic, jcdynamics
from cvqubits.entanglement import negativity_general
from cvqubits.fieldprep import (
    CavityFieldState,
    CouplingParam,
    SqueezeParam,
    TruncationPolicy,
    inject,
    inject_oracle,
    squeezed_state,
)
from cvqubits.jcdynamics import (
    ATOM_BASIS,
    EVOLVE_PAD,
    SERIES_CHUNK,
    AtomState,
    EvolvedState,
    evolve,
    jc_unitary,
    jc_unitary_oracle,
    reduce_atoms,
    reduce_atoms_direct,
    reduce_atoms_series,
    total_excitation,
)
from test_tensorops import needs_vmrss, run_fresh

LT_GRID = [0.1, 1.0, 5.0, 11.0, 15.0]
# starts at lambda_t = 0, where the off-diagonal bands vanish, and crosses
# a chunk boundary of the dense series
SERIES_LTS = np.concatenate([[0.0, 0.0], np.linspace(0.4, 14.0, SERIES_CHUNK + 1)])


def small_field(s=0.3, r=0.25, n_max=6):
    policy = TruncationPolicy(n_max=n_max)
    psi = squeezed_state(SqueezeParam(s), policy)
    return inject(psi, CouplingParam(r), s=SqueezeParam(s), policy=policy)


# ------------------------------------------------------------------- params


def test_jc_params_rejects_bad_times():
    field = small_field()
    for bad in (-0.5, float("nan"), float("inf")):
        for build in (jc_unitary, jc_unitary_oracle):
            with pytest.raises(ValueError, match="lambda_t must be finite and >= 0"):
                build(bad, 6)
        with pytest.raises(ValueError, match="lambda_t must be finite and >= 0"):
            reduce_atoms_direct(AtomState("gg"), field, bad)


def test_atom_state_labels_and_vectors():
    assert ATOM_BASIS == ("ee", "eg", "ge", "gg")
    gg = AtomState("gg")
    assert gg.label == "gg"
    np.testing.assert_allclose(gg.vector, [0, 0, 0, 1])

    bell = AtomState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    assert bell.label is None
    assert bell.vector @ bell.vector.conj() == pytest.approx(1.0)

    with pytest.raises(ValueError):
        AtomState("xx")
    with pytest.raises(ValueError):
        AtomState(np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    with pytest.raises(ValueError):
        AtomState(np.array([1.0, 0.0, 0.0]))  # not four amplitudes


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_atom_state_refuses_amplitudes_that_are_not_finite(bad):
    # a NaN norm deviation compares False against any bound; it must still fail
    with pytest.raises(ValueError, match="normalized"):
        AtomState([bad, 0.0, 0.0, 0.0])


def test_atom_state_copies_its_amplitudes():
    # a later write to the caller's array must not reach the checked state
    chi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    atoms = AtomState(chi)
    chi[0] = 5.0
    np.testing.assert_array_equal(atoms.vector, [0.0, 1.0, 0.0, 0.0])


# ------------------------------------------------------------- pair unitary


def test_jc_unitary_zero_time_is_identity():
    np.testing.assert_allclose(jc_unitary(0.0, 8), np.eye(16), atol=1e-15)


def test_jc_unitary_ground_vacuum_is_fixed():
    dim = 6
    u = jc_unitary(2.3, dim)
    col = u[:, dim + 0]  # |g, 0>
    expect = np.zeros(2 * dim)
    expect[dim] = 1.0
    np.testing.assert_allclose(col, expect, atol=1e-15)


@pytest.mark.parametrize("lt", LT_GRID)
def test_jc_unitary_vacuum_rabi_doublet(lt):
    dim = 6
    u = jc_unitary(lt, dim)
    col = u[:, 0]  # |e, 0>
    assert col[0] == pytest.approx(np.cos(lt))
    assert col[dim + 1] == pytest.approx(-1j * np.sin(lt))
    assert np.count_nonzero(np.abs(col) > 1e-15) <= 2


def test_jc_unitary_rejects_tiny_space():
    with pytest.raises(ValueError):
        jc_unitary(1.0, 1)


@pytest.mark.parametrize("build", [jc_unitary, jc_unitary_oracle])
def test_jc_unitary_takes_only_a_whole_field_dim(build):
    # 2.5 used to die in np.arange/np.zeros with a TypeError
    with pytest.raises(ValueError, match="field_dim must be a whole number, got 2.5"):
        build(1.0, 2.5)
    with pytest.raises(ValueError, match="field_dim must be >= 2, got 1"):
        build(1.0, 1)
    assert np.array_equal(build(1.0, 3.0), build(1.0, 3)) and build(1.0, np.int64(3)).shape == (6, 6)


@pytest.mark.parametrize("dim", [5, 15, 31])
@pytest.mark.parametrize("lt", LT_GRID)
def test_jc_unitary_matches_exponential(lt, dim):
    got = jc_unitary(lt, dim)
    ref = jc_unitary_oracle(lt, dim)
    # the truncated generator cannot rotate the top excited level, the
    # closed form can: blank that single column on both sides
    got, ref = got.copy(), ref.copy()
    got[:, dim - 1] = ref[:, dim - 1] = 0.0
    assert np.max(np.abs(got - ref)) < 1e-11


@pytest.mark.parametrize("t", [0.0, 1.0, 7.5, 20.0])
def test_jc_unitary_oracle_is_unitary_for_long_times(t):
    # every block, the top excited level's zero block among them, is
    # exponentiated whole, so the oracle stays unitary on every column
    u = jc_unitary_oracle(t, 3)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(6), atol=1e-11)


@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
def test_series_reject_bad_times(bad):
    lts = [0.0, 1.0, bad, 2.0]
    with pytest.raises(ValueError, match="lambda_t must be finite and >= 0"):
        reduce_atoms_series(AtomState("gg"), small_field(), lts)


@pytest.mark.parametrize("engine", ["analytic", "oracle"])
@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_both_engines_refuse_the_same_times(engine, bad):
    # one check serves both engines: neither gives numbers at a time the other refuses,
    # whether the time comes alone or inside a series
    message = re.escape(f"lambda_t must be finite and >= 0, got {bad}")
    for lts in (bad, [0.0, 1.0, bad, 2.0]):
        with pytest.raises(ValueError, match=message):
            if engine == "analytic":
                analytic.xstate_series(0.65, 0.25, lts, 9, "gg")
            elif np.ndim(lts) == 0:
                reduce_atoms_direct(AtomState("gg"), small_field(), lts)
            else:
                reduce_atoms_series(AtomState("gg"), small_field(), lts)


@pytest.mark.parametrize("lt", LT_GRID)
def test_jc_unitary_columns_are_orthonormal(lt):
    dim = 9
    u = jc_unitary(lt, dim)
    g = u.conj().T @ u
    # all columns except the uncoupled top excited level
    keep = [i for i in range(2 * dim) if i != dim - 1]
    np.testing.assert_allclose(g[np.ix_(keep, keep)], np.eye(2 * dim - 1), atol=1e-13)


# ------------------------------------------------------------------- evolve


def test_evolve_zero_time_returns_input_state():
    field = small_field()
    out = evolve(AtomState("eg"), field, 0.0)
    assert isinstance(out, EvolvedState)
    atoms = reduce_atoms(out)
    np.testing.assert_allclose(atoms.matrix, AtomState("eg").density(), atol=1e-14)


def test_evolve_factor_layout():
    field = small_field(n_max=4)
    out = evolve(AtomState("gg"), field, 1.0)
    fdim = field.rho.space.factor_dims[0] + 2
    assert out.rho.space.factor_dims == (2, 2, fdim, fdim)


def reference_evolve(atoms, field, lt, method):
    """The composite transit through the literal kron(u, u), as first written.

    Kept as the reference that the factor-wise evolve is held against.
    """
    build = jc_unitary if method == "closed_form" else jc_unitary_oracle
    fdim = field.rho.space.factor_dims[0]
    big = fdim + EVOLVE_PAD
    padded = np.zeros((big, big, big, big), dtype=complex)
    padded[:fdim, :fdim, :fdim, :fdim] = field.rho.matrix.reshape(fdim, fdim, fdim, fdim)
    rho0 = np.kron(atoms.density(), padded.reshape(big * big, big * big))
    d = rho0.shape[0]

    def swap(m, dims):  # (a, b, c, d) -> (a, c, b, d) on rows and columns
        return m.reshape(dims + dims).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d, d)

    u_both = np.kron(build(lt, big), build(lt, big))
    evolved = u_both @ swap(rho0, (2, 2, big, big)) @ u_both.conj().T
    return swap(evolved, (2, big, 2, big))


@pytest.mark.parametrize("method", ["closed_form", "hamiltonian"])
@pytest.mark.parametrize("initial", ["gg", "ee", "eg", "bell"])
def test_evolve_matches_literal_kron_reference(method, initial):
    bell = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)
    atoms = AtomState(bell if initial == "bell" else initial)
    field = small_field(s=0.5, r=0.3, n_max=5)
    for lt in (0.7, 11.0):
        got = evolve(atoms, field, lt, method=method).rho.matrix
        ref = reference_evolve(atoms, field, lt, method)
        assert np.max(np.abs(got - ref)) < 1e-13


def test_evolve_holds_two_composite_copies():
    # the output plus one pair tensor at a time; the one-einsum form held a
    # third copy in its intermediates
    field = small_field(s=0.5, r=0.3, n_max=8)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = evolve(AtomState("gg"), field, 3.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * out.rho.matrix.nbytes


def test_composite_at_s065_holds_little_beyond_its_output():
    # the referee's largest composite (2116-dim, 0.15 % nonzero): evolve
    # builds it block by block into the output alone, and validate walks its
    # nonzero pattern instead of making full-size copies
    policy = TruncationPolicy()
    field = inject(squeezed_state(SqueezeParam(0.65), policy), CouplingParam(0.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = evolve(AtomState("gg"), field, 11.0)
        evolve_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out.rho.validate(herm_tol=1e-10, psd_floor=-1e-10, trace_tol=1e-10)
        validate_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.rho.matrix.shape == (2116, 2116)
    assert evolve_peak <= 1.25 * out.rho.matrix.nbytes
    assert validate_peak <= 0.25 * out.rho.matrix.nbytes


def ix_evolve(atoms, field, lt, method):
    """evolve with each share added over its whole index grid, zeros too, as first written.

    Kept as the reference that evolve's nonzero-only adds are held against,
    word for word.  Also returns the mask of the entries some share's grid
    reaches.
    """
    build = jc_unitary if method == "closed_form" else jc_unitary_oracle
    fdim = field.n_max + 1
    big = fdim + EVOLVE_PAD
    u = build(lt, big)
    link = u != 0
    occupied = np.flatnonzero(atoms.vector)
    rho_atoms = atoms.density()[np.ix_(occupied, occupied)]
    out = np.zeros((4 * big * big,) * 2, dtype=complex)
    reached = np.zeros(out.shape, dtype=bool)
    for idx, block in field.blocks:
        f_a, f_b = np.divmod(idx, fdim)
        in_a = ((occupied[:, None] // 2) * big + f_a).reshape(-1)
        in_b = ((occupied[:, None] % 2) * big + f_b).reshape(-1)
        n_a, n_b = np.nonzero(link[:, in_a] @ link[:, in_b].T)
        w = u[n_a][:, in_a] * u[n_b][:, in_b]
        part = w @ np.kron(rho_atoms, block) @ w.conj().T
        at = np.ravel_multi_index((n_a // big, n_b // big, n_a % big, n_b % big), (2, 2, big, big))
        out[np.ix_(at, at)] += part
        reached[np.ix_(at, at)] = True
    return out, reached


# the referee's two composite fields, and a field built by the oracle
BIT_FIELDS = {
    "referee s 0.65": lambda: inject(squeezed_state(SqueezeParam(0.65)), CouplingParam(0.0)),
    "referee s 0.3": lambda: inject(squeezed_state(SqueezeParam(0.3)), CouplingParam(0.25)),
    "oracle r 0.7": lambda: inject_oracle(squeezed_state(SqueezeParam(0.4), TruncationPolicy(n_max=6)), CouplingParam(0.7)),
}


@pytest.mark.parametrize("method", ["closed_form", "hamiltonian"])
@pytest.mark.parametrize("source", sorted(BIT_FIELDS))
def test_evolve_adds_only_nonzeros_bit_for_bit(source, method):
    # skipping a share's +-0 entries cannot change a sum that starts at +0.0,
    # and a NaN would still be added; entries no share reaches stay +0.0
    field = BIT_FIELDS[source]()
    for initial in ["gg", "ee", "eg", 0.5 * np.array([1, 1j, -1, 1j])]:
        atoms = AtomState(initial)
        for lt in (0.0, 1.0, 5.0, 11.0):
            got = evolve(atoms, field, lt, method=method).rho.matrix
            ref, reached = ix_evolve(atoms, field, lt, method)
            words = got.view(np.uint64)
            assert np.array_equal(words, ref.view(np.uint64)), (initial, lt)
            # every word with a bit set lies where some share's grid reaches
            assert np.count_nonzero(words) == np.count_nonzero(got[reached].view(np.uint64)), (initial, lt)
            del got, words, ref, reached  # one composite pair at a time


EVOLVE_FOOTPRINT = """
from cvqubits.fieldprep import CouplingParam, SqueezeParam, TruncationPolicy, inject, squeezed_state
from cvqubits.jcdynamics import AtomState, evolve, reduce_atoms, total_excitation

field = inject(squeezed_state(SqueezeParam(0.65), TruncationPolicy()), CouplingParam(0.0))
before = rss_bytes()
out = evolve(AtomState("gg"), field, 11.0)
out.rho.validate(herm_tol=1e-10, psd_floor=-1e-10, trace_tol=1e-10)
total_excitation(out.rho)
reduce_atoms(out)
print(rss_bytes() - before, out.rho.matrix.nbytes, out.rho.matrix.shape[0])
"""


@needs_vmrss
def test_composite_at_s065_backs_little_of_its_output():
    # the referee's composite (72 MB, 6561 nonzeros in 81 rows): evolve writes
    # only the nonzeros into a mapping that backs only written pages, and the
    # checks' reads of the rest map no memory.  About 5 MB; an np.zeros output
    # written over each share's whole index grid grows about 74 MB
    grown, nbytes, dim = run_fresh(EVOLVE_FOOTPRINT)
    assert dim == 2116
    assert grown < nbytes / 4


def test_evolve_methods_agree():
    field = small_field(s=0.4, r=0.3, n_max=5)
    a = evolve(AtomState("gg"), field, 7.0, method="closed_form")
    b = evolve(AtomState("gg"), field, 7.0, method="hamiltonian")
    assert np.max(np.abs(a.rho.matrix - b.rho.matrix)) < 1e-11
    with pytest.raises(ValueError):
        evolve(AtomState("gg"), field, 7.0, method="trotter")


@pytest.mark.parametrize("initial", ["gg", "ee", "eg"])
@pytest.mark.parametrize("lt", [0.7, 5.0, 11.0])
def test_evolve_conserves_excitation(initial, lt):
    field = small_field(s=0.5, r=0.1, n_max=8)
    before = evolve(AtomState(initial), field, 0.0)
    after = evolve(AtomState(initial), field, lt)
    assert total_excitation(after.rho) == pytest.approx(total_excitation(before.rho), abs=1e-9)
    assert after.rho.trace().real == pytest.approx(before.rho.trace().real, abs=1e-12)


def test_total_excitation_needs_atom_field_layout():
    field = small_field()
    with pytest.raises(ValueError):
        total_excitation(field.rho)


# ---------------------------------------------------------- reduced dynamics


@pytest.mark.parametrize("initial", ["gg", "ee"])
@pytest.mark.parametrize("lt", [0.9, 11.0])
def test_reduced_state_is_x_shaped(initial, lt):
    field = small_field(s=0.5, r=0.25, n_max=8)
    rho = reduce_atoms(evolve(AtomState(initial), field, lt)).matrix
    off = [rho[0, 1], rho[0, 2], rho[1, 2], rho[1, 3], rho[2, 3], rho[0, 3].imag]
    assert np.max(np.abs(off)) < 1e-9
    # corner stays but is generally nonzero
    assert abs(rho[0, 3]) < 1.0


@pytest.mark.parametrize("method", ["closed_form", "hamiltonian"])
@pytest.mark.parametrize("initial", ["gg", "ee", "ge"])
def test_direct_reduction_matches_composite(method, initial):
    field = small_field(s=0.45, r=0.3, n_max=7)
    lt = 6.3
    via_composite = reduce_atoms(evolve(AtomState(initial), field, lt, method=method))
    direct = reduce_atoms_direct(AtomState(initial), field, lt)
    assert np.max(np.abs(via_composite.matrix - direct.matrix)) < 1e-12
    assert direct.space.factor_dims == (2, 2)
    assert direct.tail_weight == pytest.approx(field.tail_weight)


def test_direct_reduction_handles_entangled_atoms():
    field = small_field(s=0.45, r=0.0, n_max=7)
    bell = AtomState(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
    for lt in (0.0, 2.2, 9.7):
        via_composite = reduce_atoms(evolve(bell, field, lt))
        direct = reduce_atoms_direct(bell, field, lt)
        assert np.max(np.abs(via_composite.matrix - direct.matrix)) < 1e-12


def test_direct_reduction_complex_superposition():
    field = small_field(s=0.3, r=0.5, n_max=6)
    chi = np.array([0.5, 0.5j, -0.5, 0.5j])
    atoms = AtomState(chi)
    via_composite = reduce_atoms(evolve(atoms, field, 4.4))
    direct = reduce_atoms_direct(atoms, field, 4.4)
    assert np.max(np.abs(via_composite.matrix - direct.matrix)) < 1e-12


def regroup(field):
    """The whole dense field regrouped to (nA, mA) x (nB, mB), for the reference below."""
    fdim = field.rho.space.factor_dims[0]
    return np.ascontiguousarray(
        field.rho.matrix.reshape(fdim, fdim, fdim, fdim).transpose(0, 2, 1, 3)
    ).reshape(fdim * fdim, fdim * fdim)


def reference_reduce_atoms_direct(atoms, r2, lt):
    """The pair-by-pair contraction through the regrouped field ``r2``, as first written.

    Multiplies the field, regrouped once by :func:`regroup`, by the dense
    field-traced pair propagators.  Kept as the reference that the
    diagonal-by-diagonal reduce_atoms_direct is held against.  Each
    propagator, and each left product with the field, is formed once per
    call: the same operands give the same bits.
    """
    fdim = math.isqrt(len(r2))
    big = fdim + EVOLVE_PAD
    u4 = jc_unitary(lt, big).reshape(2, big, 2, big)

    @cache
    def channel(col_a, col_b):
        m = np.einsum("ipn,jpm->ijnm", u4[:, :, col_a, :], u4[:, :, col_b, :].conj())
        return np.ascontiguousarray(m[:, :, :fdim, :fdim]).reshape(4, fdim * fdim)

    @cache
    def left(col_a, col_b):
        return channel(col_a, col_b) @ r2

    chi = atoms.vector.reshape(2, 2)
    occupied = [(ia, ib) for ia in range(2) for ib in range(2) if chi[ia, ib] != 0.0]
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    for ket_a, ket_b in occupied:
        for bra_a, bra_b in occupied:
            weight = chi[ket_a, ket_b] * np.conj(chi[bra_a, bra_b])
            block = left(ket_a, bra_a) @ channel(ket_b, bra_b).T
            out += weight * block.reshape(2, 2, 2, 2)
    return out.transpose(0, 2, 1, 3).reshape(4, 4)


REDUCE_ATOMS = {
    "gg": "gg",
    "ee": "ee",
    "ge": "ge",
    "bell": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "superposition": np.array([0.5, 0.5j, -0.5, 0.5j]),
}


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("r", [0.0, 0.25, 0.99, 1.0])
def test_direct_reduction_matches_regrouped_reference(s, r):
    policy = TruncationPolicy()
    field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r))
    r2 = regroup(field)
    for atoms in REDUCE_ATOMS.values():
        for lt in (0.0, 2.2, 11.0):
            got = reduce_atoms_direct(AtomState(atoms), field, lt).matrix
            ref = reference_reduce_atoms_direct(AtomState(atoms), r2, lt)
            assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("s", [0.3, 0.65])
@pytest.mark.parametrize("name", ["gg", "ee", "bell", "superposition"])
def test_series_matches_regrouped_reference(s, name):
    policy = TruncationPolicy()
    field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(0.25))
    atoms = AtomState(REDUCE_ATOMS[name])
    stack = reduce_atoms_series(atoms, field, SERIES_LTS)
    assert stack.shape == (len(SERIES_LTS), 4, 4)
    r2 = regroup(field)
    for lt, got in zip(SERIES_LTS, stack):
        assert np.max(np.abs(got - reference_reduce_atoms_direct(atoms, r2, lt))) < 1e-13


@pytest.mark.parametrize("name", ["gg", "ee", "ge", "bell", "superposition"])
def test_direct_reduction_of_a_field_that_breaks_photon_difference(name):
    # a random mixed two-mode field couples every (nA - nB) sector to every
    # other, so no diagonal pair of the propagators may be skipped
    fdim = 5
    rng = np.random.default_rng(17)
    g = rng.normal(size=(fdim**2, fdim**2)) + 1j * rng.normal(size=(fdim**2, fdim**2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    template = small_field(n_max=fdim - 1)
    field = replace(template, blocks=((np.arange(fdim**2), rho),))
    atoms = AtomState(REDUCE_ATOMS[name])
    for lt in (0.0, 0.9, 6.3):
        via_composite = reduce_atoms(evolve(atoms, field, lt)).matrix
        direct = reduce_atoms_direct(atoms, field, lt).matrix
        assert np.max(np.abs(via_composite - direct)) < 1e-12


@pytest.mark.parametrize("name", ["gg", "ee", "ge", "bell", "superposition"])
def test_series_of_a_field_that_breaks_photon_difference(name):
    # every diagonal pair of the propagators meets a nonzero field slice
    fdim = 5
    rng = np.random.default_rng(17)
    g = rng.normal(size=(fdim**2, fdim**2)) + 1j * rng.normal(size=(fdim**2, fdim**2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    template = small_field(n_max=fdim - 1)
    field = replace(template, blocks=((np.arange(fdim**2), rho),))
    atoms = AtomState(REDUCE_ATOMS[name])
    stack = reduce_atoms_series(atoms, field, SERIES_LTS)
    r2 = regroup(field)
    for lt, got in zip(SERIES_LTS, stack):
        assert np.max(np.abs(got - reference_reduce_atoms_direct(atoms, r2, lt))) < 1e-13


def test_series_gather_each_field_slice_once_per_field(monkeypatch):
    # an (s, r) group's gg and ee series meet the same nine (dA, dB) slices:
    # the ee series reuses what the gg one gathered, and every series on a
    # reused field equals, bit for bit, one on a fresh field
    def fresh():
        return inject(squeezed_state(SqueezeParam(0.65), TruncationPolicy()), CouplingParam(0.25))

    names = ("gg", "ee", "superposition")
    alone = [reduce_atoms_series(AtomState(REDUCE_ATOMS[name]), fresh(), SERIES_LTS) for name in names]
    gathers = []
    entries = CavityFieldState.entries

    def counted(self, rows, cols):
        gathers.append(np.shape(rows))
        return entries(self, rows, cols)

    monkeypatch.setattr(CavityFieldState, "entries", counted)
    field = fresh()
    shared = [reduce_atoms_series(AtomState(REDUCE_ATOMS[name]), field, SERIES_LTS) for name in names[:2]]
    assert len(gathers) == 9
    shared.append(reduce_atoms_series(AtomState(REDUCE_ATOMS[names[2]]), field, SERIES_LTS))
    assert len(gathers) == 25  # a superposition meets every (dA, dB) with |dA|, |dB| <= 2
    for name, got, ref in zip(names, shared, alone):
        assert got.tobytes() == ref.tobytes(), name
    part = field.field_slice(0, 0)
    assert part is field.field_slice(0, 0) and not part.flags.writeable
    assert field.field_slice(1, 0) is None  # no twin-photon block reaches dA != dB


def test_series_builds_no_dense_unitary(monkeypatch):
    # the series reads the transit's amplitudes directly: with the dense
    # unitary refused it still runs, and gives the same stacks
    field = inject(squeezed_state(SqueezeParam(0.65), TruncationPolicy()), CouplingParam(0.25))
    names = ("gg", "ee", "superposition")
    before = [reduce_atoms_series(AtomState(REDUCE_ATOMS[name]), field, SERIES_LTS) for name in names]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the series built a dense unitary")

    monkeypatch.setattr(jcdynamics, "jc_unitary", refuse)
    with pytest.raises(AssertionError, match="dense unitary"):
        jcdynamics.jc_unitary(1.0, 4)  # the patch is live
    for name, stack in zip(names, before):
        assert np.array_equal(reduce_atoms_series(AtomState(REDUCE_ATOMS[name]), field, SERIES_LTS), stack)


def test_dense_route_borrows_nothing_from_the_closed_form(monkeypatch):
    # the oracle's field, its series and its measure need neither the
    # splitting ladder nor any closed form: with every one of them raising,
    # in every module of the package, they give the same stack.  The
    # composite through the Hamiltonian exponential and its validate verdict
    # need the transit's closed-form amplitudes neither
    psi = squeezed_state(SqueezeParam(0.65), TruncationPolicy(n_max=9))
    atoms = AtomState(REDUCE_ATOMS["superposition"])

    def dense_route():
        stack = reduce_atoms_series(atoms, inject_oracle(psi, CouplingParam(0.25)), SERIES_LTS)
        return stack, negativity_general(stack).measure

    def composite():
        rho = evolve(atoms, inject_oracle(psi, CouplingParam(0.25)), 6.3, method="hamiltonian").rho
        try:
            rho.validate()
        except ValueError as err:
            return rho.matrix, str(err)
        return rho.matrix, None

    before, before_composite = dense_route(), composite()

    def refuse(*_args, **_kwargs):
        raise AssertionError("the dense route reached the closed form")

    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "cvqubits"]
    for name in ("binom_ladder", "binom_row", *analytic.__all__):
        for module in package:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="closed form"):
        inject(psi, CouplingParam(0.25))  # the patch is live
    after = dense_route()
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])

    monkeypatch.setattr(jcdynamics, "_jc_amplitudes", refuse)
    with pytest.raises(AssertionError, match="closed form"):
        jcdynamics.jc_unitary(1.0, 4)  # the patch is live
    after_composite = composite()
    assert np.array_equal(before_composite[0], after_composite[0])
    assert before_composite[1] == after_composite[1] is None
