"""Resonant atom-field dynamics and the dense evolution oracle.

One two-level atom crosses each cavity; each (atom, cavity) pair evolves
under the resonant excitation-exchange unitary, built either in closed form
per photon level or by exponentiating the interaction Hamiltonian block by
block, the blocks found in its own nonzero pattern (so the closed form
lends the exponential nothing).  The only parameter is lambda*t, the
product of coupling and transit time.

This module is the slow, assumption-free reference path.  The transit
only swaps |e, n-1> and |g, n> inside one photon-number doublet, so each
row of the pair unitary holds at most two nonzeros: `evolve` +
`reduce_atoms` forms the full composite from the field's blocks, one
product per block.  `reduce_atoms_series` contracts the field indices
pair by pair -- the same algebra without the composite -- for a whole
vector of times, each cavity's field-traced propagator living on a few
diagonals of the field's photon indices, so a time costs O(field_dim^2).
`reduce_atoms_direct` is its one-time case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fieldprep import CavityFieldState, _times, _whole
from .tensorops import DensityOperator, TruncatedFockSpace, _zeros, partial_trace
from .tensorops import _component_labels, _components_by_size

__all__ = [
    "AtomState",
    "EvolvedState",
    "jc_unitary",
    "jc_unitary_oracle",
    "evolve",
    "reduce_atoms",
    "reduce_atoms_direct",
    "reduce_atoms_series",
    "total_excitation",
]

# Spare field levels above the cutoff, so an initially excited atom can
# always deposit its quantum without hitting the wall; the populated
# sectors then evolve exactly unitarily.
EVOLVE_PAD = 2
# Times per batch of reduce_atoms_series: its amplitudes and propagator
# diagonals take under 1 kB per field level per time (about 37 kB at n_max
# 42), so a chunk bounds them whatever the number of times.
SERIES_CHUNK = 8

ATOM_BASIS = ("ee", "eg", "ge", "gg")  # per-atom ordering: |e> = 0, |g> = 1


class AtomState:
    """Initial joint state of the two atoms.

    Either one of the four basis labels or any normalized two-qubit pure
    state as 4 amplitudes, in the basis (|e,e>, |e,g>, |g,e>, |g,g>).  The
    amplitudes are copied, so a later change to the caller's array cannot
    reach the checked state.
    """

    def __init__(self, state) -> None:
        if isinstance(state, str):
            if state not in ATOM_BASIS:
                raise ValueError(f"unknown atom label {state!r}, expected one of {ATOM_BASIS}")
            vec = np.zeros(4, dtype=complex)
            vec[ATOM_BASIS.index(state)] = 1.0
            self.label: str | None = state
        else:
            vec = np.array(state, dtype=complex).reshape(-1)
            if vec.size != 4:
                raise ValueError(f"expected 4 amplitudes, got {vec.size}")
            if not abs(float(np.real(np.vdot(vec, vec))) - 1.0) <= 1e-10:
                raise ValueError("atom state must be normalized")
            self.label = None
        self.vector = vec

    def density(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def __repr__(self) -> str:
        return f"AtomState({self.label or self.vector!r})"


@dataclass(frozen=True)
class EvolvedState:
    """Composite state after the transit, factors (atom A, atom B, field A, field B)."""

    rho: DensityOperator


def _jc_amplitudes(times: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transit's amplitudes per photon level n < dim at each time, each (T, dim).

    Per photon level the excited/ground doublet rotates at the Rabi angle
    lambda*t*sqrt(n).  Returns ``excited[t, n]`` = <e, n|U|e, n>,
    ``ground[t, n]`` = <g, n|U|g, n> and ``exchange[t, n]`` =
    <e, n-1|U|g, n> = <g, n|U|e, n-1>, which is 0 at n = 0: there is no
    |e, -1>.  Every other element of U is zero.
    """
    n = np.arange(dim, dtype=float)
    lt = times[:, None]
    root = np.sqrt(n[1:])
    exchange = np.zeros((len(times), dim), dtype=complex)
    # |e, n-1> <-> |g, n> at sqrt(n) * sin(lt sqrt(n)) / sqrt(n), both ways
    exchange[:, 1:] = -1j * (root * (np.sin(lt * root) / root))
    return np.cos(lt * np.sqrt(n + 1.0)), np.cos(lt * np.sqrt(n)), exchange


def jc_unitary(lt: float, field_dim: int) -> np.ndarray:
    """Pair transit unitary at time lambda*t = ``lt``, (2 field_dim, 2 field_dim).

    On (atom x field), atom index slow, basis (|e>, |g>), with the
    amplitudes of :func:`_jc_amplitudes` scattered into it.  Exactly
    unitary except at the top field level, where the outgoing quantum has
    nowhere to go; keep populated levels below the top (see EVOLVE_PAD).
    """
    times = _times([lt])
    dim = _whole(field_dim, "field_dim", 2)
    excited, ground, exchange = (amp[0] for amp in _jc_amplitudes(times, dim))
    level = np.arange(dim)
    u = np.zeros((2 * dim, 2 * dim), dtype=complex)
    u[level, level] = excited
    u[dim + level, dim + level] = ground
    u[level[:-1], dim + level[1:]] = exchange[1:]
    u[dim + level[1:], level[:-1]] = exchange[1:]
    return u


def jc_unitary_oracle(lt: float, field_dim: int) -> np.ndarray:
    """Same unitary as (v exp(-i lt w)) v^T, one stacked real ``eigh`` per size of the generator's blocks."""
    lt = float(_times([lt])[0])
    dim = _whole(field_dim, "field_dim", 2)
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    h = np.zeros((2 * dim, 2 * dim))
    h[:dim, dim:] = lower
    h[dim:, :dim] = lower.T
    u = np.zeros_like(h, dtype=complex)
    for idx in _components_by_size(_component_labels(*np.nonzero(h), 2 * dim)):
        rows, cols = idx[:, :, None], idx[:, None, :]
        w, v = np.linalg.eigh(h[rows, cols])
        u[rows, cols] = (v * np.exp(-1j * lt * w)[:, None, :]) @ v.swapaxes(-1, -2)
    return u


def evolve(atoms: AtomState, field: CavityFieldState, lt: float, method: str = "closed_form") -> EvolvedState:
    """Full composite evolution; factors ordered (atom A, atom B, field A, field B).

    Read from the field's blocks and the atoms' occupied basis states, never
    from ``field.rho``: a block over field indices idx enters on the rows
    (occupied atoms) x idx as kron(rho_atoms, block).  In pair order (atom
    A, field A, atom B, field B) its share of U R U^dagger, U = kron(u, u),
    is one product w R w^dagger, w being U's columns over the block's rows
    on the rows they reach, whose nonzero entries are added into a zero
    output.  Only the output is composite-sized (72 MB at s = 0.65, 0.15 %
    of it nonzero); it comes from :func:`~cvqubits.tensorops._zeros`, a
    private mapping that backs only the pages written, so it holds about
    4 MB there.  For the reduced atom state at large cutoffs use
    :func:`reduce_atoms_direct`.
    """
    build = {"closed_form": jc_unitary, "hamiltonian": jc_unitary_oracle}.get(method)
    if build is None:
        raise ValueError(f"unknown method {method!r}")

    fdim = field.n_max + 1
    big = fdim + EVOLVE_PAD
    u = build(lt, big)
    link = u != 0

    occupied = np.flatnonzero(atoms.vector)
    rho_atoms = atoms.density()[np.ix_(occupied, occupied)]
    out = _zeros((4 * big * big,) * 2)
    for idx, block in field.blocks:
        # the block's rows in pair order, atoms slow as in kron(rho_atoms, block)
        f_a, f_b = np.divmod(idx, fdim)
        in_a = ((occupied[:, None] // 2) * big + f_a).reshape(-1)
        in_b = ((occupied[:, None] % 2) * big + f_b).reshape(-1)
        # the rows U reaches from them, and U's entries there
        n_a, n_b = np.nonzero(link[:, in_a] @ link[:, in_b].T)
        w = u[n_a][:, in_a] * u[n_b][:, in_b]
        part = w @ np.kron(rho_atoms, block) @ w.conj().T
        # pair order (aA fA, aB fB) -> (aA, aB, fA, fB)
        at = np.ravel_multi_index((n_a // big, n_b // big, n_a % big, n_b % big), (2, 2, big, big))
        r, c = np.nonzero(part)  # skipping a zero cannot change a sum that starts at +0.0
        out[at[r], at[c]] += part[r, c]

    space = TruncatedFockSpace((2, 2, big, big))
    return EvolvedState(DensityOperator(space, out, field.tail_weight))


def reduce_atoms(state: EvolvedState) -> DensityOperator:
    """Trace the two field factors out of a composite evolved state."""
    return partial_trace(state.rho, keep={0, 1})


def _pair_band(amps: tuple[np.ndarray, ...], col: int, col_dag: int, field_dim: int) -> dict[int, np.ndarray]:
    """Field-traced pair propagator between two atom input columns, by diagonal.

    ``amps`` are the (excited, ground, exchange) arrays of
    :func:`_jc_amplitudes` over T times and at least field_dim + 1 levels.
    The propagator is C[t, i, n, j, m] = sum_p u[t, i, p, col, n] *
    conj(u[t, j, p, col_dag, m]) over field inputs n, m below
    ``field_dim``.  An atom that enters as c and leaves as i moves the field
    by the one shift i - c (|e> = 0, |g> = 1): it stays, it leaves a photon
    (e -> g) or it takes one (g -> e).  So u[t, i, p, c, n] sits on the
    single diagonal p = n + i - c, and the sum over p is the one product at
    n - m = d = (j - col_dag) - (i - col).  Returns, for each such d, the
    (T, 4, field_dim - |d|) array of C[t, i, n, j, n - d] over
    n = max(0, d) .. field_dim + min(0, d) - 1, with (i, j) flattened.
    """
    excited, ground, exchange = amps
    # diag[c][i][t, n] = u[t, i, n + i - c, c, n] over n < field_dim
    diag = (
        (excited[:, :field_dim], exchange[:, 1 : field_dim + 1]),
        (exchange[:, :field_dim], ground[:, :field_dim]),
    )
    band: dict[int, np.ndarray] = {}
    for i in range(2):
        for j in range(2):
            d = (j - col_dag) - (i - col)
            lo, hi = max(0, d), field_dim + min(0, d)
            if d not in band:
                band[d] = np.zeros((len(excited), 4, hi - lo), dtype=complex)
            ket, bra = diag[col][i], diag[col_dag][j]
            band[d][:, 2 * i + j] += ket[:, lo:hi] * bra[:, lo - d : hi - d].conj()
    return band


def reduce_atoms_series(atoms: AtomState, field: CavityFieldState, lts) -> np.ndarray:
    """Reduced two-atom states after the transit at each time, stacked (T, 4, 4).

    Identical algebra to evolve + reduce_atoms (the tests pin the two paths
    together), contracted one cavity at a time.  Each cavity's propagator,
    traced over the outgoing field, lives on a few diagonals n - m of the
    incoming field's indices, formed by :func:`_pair_band` from the
    transit's amplitudes; a diagonal holds exact zeros where the amplitudes
    vanish (the exchange at lambda_t = 0, say).  Each pair of diagonals
    (dA, dB) meets only the field_dim x field_dim slice
    rho[(nA, nB), (nA - dA, nB - dB)], which
    :meth:`CavityFieldState.field_slice` gathers from the field's blocks
    once per field, so every series on one field shares it; a slice of
    only zeros is skipped, as every dA != dB is for an injected
    twin-photon field.  Any field is handled, whether or not it conserves
    nA - nB.  The times go SERIES_CHUNK at a time, so the working
    memory does not grow with their number.  Rows are in the basis
    (|e,e>, |e,g>, |g,e>, |g,g>).
    """
    times = _times(lts)
    fdim = field.n_max + 1

    chi = atoms.vector.reshape(2, 2)
    occupied = [(int(ia), int(ib)) for ia in range(2) for ib in range(2) if chi[ia, ib] != 0.0]
    pairs = [(ket, bra) for ket in occupied for bra in occupied]
    cols = sorted({(ket[side], bra[side]) for ket, bra in pairs for side in (0, 1)})

    stack = np.empty((len(times), 4, 4), dtype=complex)
    for start in range(0, len(times), SERIES_CHUNK):
        chunk = times[start : start + SERIES_CHUNK]
        amps = _jc_amplitudes(chunk, fdim + 1)
        bands = {col: _pair_band(amps, *col, fdim) for col in cols}

        # [t, i, j, k, l]: A ket, A bra, B ket, B bra
        out = np.zeros((len(chunk), 2, 2, 2, 2), dtype=complex)
        for (ket_a, ket_b), (bra_a, bra_b) in pairs:
            weight = chi[ket_a, ket_b] * np.conj(chi[bra_a, bra_b])
            for d_a, va in bands[ket_a, bra_a].items():
                for d_b, vb in bands[ket_b, bra_b].items():
                    part = field.field_slice(d_a, d_b)
                    if part is None:
                        continue
                    left = va.reshape(-1, va.shape[2]) @ part
                    block = left.reshape(len(chunk), 4, -1) @ vb.transpose(0, 2, 1)
                    out += weight * block.reshape(-1, 2, 2, 2, 2)
        # regroup (i,j,k,l) -> rows (i,k), cols (j,l)
        stack[start : start + len(chunk)] = out.transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    return stack


def reduce_atoms_direct(atoms: AtomState, field: CavityFieldState, lt: float) -> DensityOperator:
    """Reduced two-atom state after the transit at one time, without the composite.

    The one-time case of :func:`reduce_atoms_series`.
    """
    rho4 = reduce_atoms_series(atoms, field, [lt])[0]
    return DensityOperator(TruncatedFockSpace((2, 2)), rho4, field.tail_weight)


def total_excitation(rho: DensityOperator) -> float:
    """Expected atom excitations plus photon numbers, (2,2,F,F) factors.

    The transit unitary commutes with this total, so it is the conserved
    charge the validity suite tracks.
    """
    dims = rho.space.factor_dims
    if len(dims) != 4 or dims[0] != 2 or dims[1] != 2:
        raise ValueError(f"expected factors (2, 2, F, F), got {dims}")
    diag = np.real(np.diag(rho.matrix)).reshape(dims)
    excited = np.array([1.0, 0.0])  # |e> carries the quantum
    weight = np.add.outer(np.add.outer(excited, excited), np.add.outer(np.arange(dims[2]), np.arange(dims[3])))
    return float(np.sum(diag * weight))
