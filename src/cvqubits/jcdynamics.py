"""Resonant atom-field dynamics and the dense evolution oracle.

One two-level atom crosses each cavity; each (atom, cavity) pair evolves
under the resonant excitation-exchange unitary, built either in closed form
per photon level or by exponentiating the block interaction Hamiltonian.
The only parameter is the product of coupling and transit time, lambda*t.

This module is the slow, assumption-free reference path: `evolve` +
`reduce_atoms` materializes the full composite state, while
`reduce_atoms_direct` contracts the field indices pair by pair -- the same
algebra without the composite.  Because the transit conserves excitation,
each cavity's field-traced propagator lives on a few diagonals of the
field's photon indices; `reduce_atoms_direct` reads those diagonals from
the unitary's exact zeros and touches only the matching field slices, so
a grid point costs O(field_dim^2), cheap enough for the verification grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldprep import CavityFieldState
from .tensorops import (
    DensityOperator,
    StateVector,
    TruncatedFockSpace,
    mat_exp,
    partial_trace,
)

__all__ = [
    "AtomState",
    "JCParams",
    "EvolvedState",
    "jc_unitary",
    "jc_unitary_oracle",
    "evolve",
    "reduce_atoms",
    "reduce_atoms_direct",
    "total_excitation",
]

# Spare field levels above the cutoff, so an initially excited atom can
# always deposit its quantum without hitting the wall; the populated
# sectors then evolve exactly unitarily.
EVOLVE_PAD = 2

ATOM_BASIS = ("ee", "eg", "ge", "gg")  # per-atom ordering: |e> = 0, |g> = 1


class AtomState:
    """Initial joint state of the two atoms.

    Either one of the four basis labels or any normalized two-qubit pure
    state (a 4-amplitude array or a StateVector with factors (2, 2)), in
    the basis (|e,e>, |e,g>, |g,e>, |g,g>).
    """

    def __init__(self, state) -> None:
        if isinstance(state, str):
            if state not in ATOM_BASIS:
                raise ValueError(f"unknown atom label {state!r}, expected one of {ATOM_BASIS}")
            vec = np.zeros(4, dtype=complex)
            vec[ATOM_BASIS.index(state)] = 1.0
            self.label: str | None = state
        else:
            if isinstance(state, StateVector):
                if state.space.factor_dims != (2, 2):
                    raise ValueError(f"expected a two-qubit state, got factors {state.space.factor_dims}")
                vec = state.amplitudes.copy()
            else:
                vec = np.asarray(state, dtype=complex).reshape(-1)
            if vec.size != 4:
                raise ValueError(f"expected 4 amplitudes, got {vec.size}")
            if abs(float(np.real(np.vdot(vec, vec))) - 1.0) > 1e-10:
                raise ValueError("atom state must be normalized")
            self.label = None
        self.vector = vec

    def density(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())

    def __repr__(self) -> str:
        return f"AtomState({self.label or self.vector!r})"


@dataclass(frozen=True)
class JCParams:
    """Dimensionless interaction time lambda*t; nothing else enters."""

    lambda_t: float

    def __post_init__(self) -> None:
        lt = float(self.lambda_t)
        if not math.isfinite(lt) or lt < 0.0:
            raise ValueError(f"lambda_t must be finite and >= 0, got {self.lambda_t}")
        object.__setattr__(self, "lambda_t", lt)


@dataclass(frozen=True)
class EvolvedState:
    """Composite state after the transit, factors (atom A, atom B, field A, field B)."""

    rho: DensityOperator


def _lt(params) -> float:
    return params.lambda_t if isinstance(params, JCParams) else JCParams(params).lambda_t


def jc_unitary(params, field_dim: int) -> np.ndarray:
    """Pair transit unitary on (atom x field), atom index slow, basis (|e>, |g>).

    Per photon level the excited/ground doublet rotates at the Rabi angle
    lambda*t*sqrt(n).  Exactly unitary except at the top field level, where
    the outgoing quantum has nowhere to go; keep populated levels below the
    top (see EVOLVE_PAD).
    """
    lt = _lt(params)
    if field_dim < 2:
        raise ValueError(f"field_dim must be >= 2, got {field_dim}")
    dim = field_dim
    n = np.arange(dim, dtype=float)
    lower = np.diag(np.sqrt(n[1:]), 1)
    # sin(lt sqrt(n))/sqrt(n) with its n=0 limit spelled out, so the 0/0
    # never reaches the arithmetic (the annihilator kills that column anyway)
    sinc = np.empty(dim)
    sinc[0] = lt
    sinc[1:] = np.sin(lt * np.sqrt(n[1:])) / np.sqrt(n[1:])
    sinc_up = np.sin(lt * np.sqrt(n + 1.0)) / np.sqrt(n + 1.0)

    u = np.zeros((2 * dim, 2 * dim), dtype=complex)
    u[:dim, :dim] = np.diag(np.cos(lt * np.sqrt(n + 1.0)))
    u[dim:, dim:] = np.diag(np.cos(lt * np.sqrt(n)))
    u[:dim, dim:] = -1j * (lower @ np.diag(sinc))
    u[dim:, :dim] = -1j * (lower.T @ np.diag(sinc_up))
    return u


def jc_unitary_oracle(params, field_dim: int) -> np.ndarray:
    """Same unitary by exponentiating the block interaction Hamiltonian."""
    lt = _lt(params)
    if field_dim < 2:
        raise ValueError(f"field_dim must be >= 2, got {field_dim}")
    dim = field_dim
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    h[:dim, dim:] = lower
    h[dim:, :dim] = lower.T
    return mat_exp(h, scale=-1j * lt)


def _swap_middle_factors(m: np.ndarray, dims: tuple[int, int, int, int]) -> np.ndarray:
    """Regroup a four-factor operator (a, b, c, d) -> (a, c, b, d), rows and columns.

    Factors (aA, aB, fA, fB) become pair order (aA, fA, aB, fB); the same
    call with the pair-order dims (2, f, 2, f) undoes it.
    """
    d = m.shape[0]
    return m.reshape(dims + dims).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(d, d)


def evolve(atoms: AtomState, field: CavityFieldState, params, method: str = "closed_form") -> EvolvedState:
    """Full composite evolution; factors ordered (atom A, atom B, field A, field B).

    Dense and explicit: memory grows like field_dim**4, fine at moderate
    cutoffs.  The pair unitary acts on each (atom, cavity) factor in turn, never
    as kron(u, u).  For the reduced atom state at large cutoffs use
    :func:`reduce_atoms_direct` instead.
    """
    if method == "closed_form":
        build = jc_unitary
    elif method == "hamiltonian":
        build = jc_unitary_oracle
    else:
        raise ValueError(f"unknown method {method!r}")

    fdim = field.rho.space.factor_dims[0]
    if field.rho.space.factor_dims != (fdim, fdim):
        raise ValueError(f"field must have two equal factors, got {field.rho.space.factor_dims}")
    big = fdim + EVOLVE_PAD
    padded = np.zeros((big, big, big, big), dtype=complex)
    padded[:fdim, :fdim, :fdim, :fdim] = field.rho.matrix.reshape(fdim, fdim, fdim, fdim)

    rho0 = np.kron(atoms.density(), padded.reshape(big * big, big * big))
    pair = _swap_middle_factors(rho0, (2, 2, big, big)).reshape(4 * (2 * big,))
    del rho0  # 72 MB at s = 0.65: free it before the products below
    u = build(params, big)
    # kron(u, u) @ rho0 @ kron(u, u)^dagger, one pair factor at a time: each
    # product contracts the leading index and puts the new one last, so four
    # of them restore the order with only two pair tensors alive at once
    for factor in (u, u, u.conj(), u.conj()):
        pair = pair.reshape(2 * big, -1).T @ factor.T
    out = _swap_middle_factors(pair.reshape(4 * big * big, -1), (2, big, 2, big))

    space = TruncatedFockSpace((2, 2, big, big))
    return EvolvedState(DensityOperator(space, out, field.tail_weight))


def reduce_atoms(state: EvolvedState) -> DensityOperator:
    """Trace the two field factors out of a composite evolved state."""
    return partial_trace(state.rho, keep={0, 1})


def _pair_band(u4: np.ndarray, col: int, col_dag: int, field_dim: int) -> dict[int, np.ndarray]:
    """Field-traced pair propagator between two atom input columns, by diagonal.

    The propagator is C[i, n, j, m] = sum_p u[i, p, col, n] * conj(u[j, p, col_dag, m])
    over field inputs n, m below ``field_dim``.  Returns, for each diagonal
    d = n - m that its exact nonzero pattern populates, the (2, 2, field_dim - |d|)
    array of C[i, n, j, n - d] over n = max(0, d) .. field_dim + min(0, d) - 1.
    """
    c = np.tensordot(u4[:, :, col, :field_dim], u4[:, :, col_dag, :field_dim].conj(), axes=(1, 1))
    c = c.transpose(0, 2, 1, 3)  # (i, j, n, m)
    n, m = np.nonzero(np.any(c != 0, axis=(0, 1)))
    return {int(d): np.diagonal(c, offset=-d, axis1=2, axis2=3) for d in np.unique(n - m)}


def reduce_atoms_direct(atoms: AtomState, field: CavityFieldState, params) -> DensityOperator:
    """Reduced two-atom state after the transit, without the composite.

    Identical algebra to evolve + reduce_atoms (the tests pin the two paths
    together), contracted one cavity at a time.  Each cavity's propagator,
    traced over the outgoing field, lives on a few diagonals n - m of the
    incoming field's indices -- the transit conserves excitation -- and the
    diagonals are read from the unitary's exact zeros, never from the
    field.  Each pair of diagonals (dA, dB) then meets only the
    field_dim x field_dim slice rho[(nA, nB), (nA - dA, nB - dB)], read
    straight from the field matrix, so a point costs O(field_dim^2) and no
    copy of the field is made.  Any field is handled, whether or not it
    conserves nA - nB.
    """
    fdim = field.rho.space.factor_dims[0]
    big = fdim + EVOLVE_PAD
    u4 = jc_unitary(params, big).reshape(2, big, 2, big)
    rho = field.rho.matrix

    chi = atoms.vector.reshape(2, 2)
    occupied = [(int(ia), int(ib)) for ia in range(2) for ib in range(2) if chi[ia, ib] != 0.0]
    bands: dict[tuple[int, int], dict[int, np.ndarray]] = {}

    def band(col: int, col_dag: int) -> dict[int, np.ndarray]:
        if (col, col_dag) not in bands:
            bands[col, col_dag] = _pair_band(u4, col, col_dag, fdim)
        return bands[col, col_dag]

    def field_slice(d_a: int, d_b: int) -> np.ndarray:
        # S[nA, nB] = rho[(nA, nB), (nA - dA, nB - dB)] over the in-range nA, nB
        na = np.arange(max(0, d_a), fdim + min(0, d_a))
        nb = np.arange(max(0, d_b), fdim + min(0, d_b))
        rows = na[:, None] * fdim + nb
        return rho[rows, rows - (d_a * fdim + d_b)]

    out = np.zeros((2, 2, 2, 2), dtype=complex)  # [i, j, k, l]: A ket, A bra, B ket, B bra
    for ket_a, ket_b in occupied:
        for bra_a, bra_b in occupied:
            weight = chi[ket_a, ket_b] * np.conj(chi[bra_a, bra_b])
            for d_a, va in band(ket_a, bra_a).items():
                for d_b, vb in band(ket_b, bra_b).items():
                    block = va.reshape(4, -1) @ field_slice(d_a, d_b) @ vb.reshape(4, -1).T
                    out += weight * block.reshape(2, 2, 2, 2)

    # regroup (i,j,k,l) -> rows (i,k), cols (j,l)
    rho4 = out.transpose(0, 2, 1, 3).reshape(4, 4)
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
    weight = (
        excited[:, None, None, None]
        + excited[None, :, None, None]
        + np.arange(dims[2])[None, None, :, None]
        + np.arange(dims[3])[None, None, None, :]
    )
    return float(np.sum(diag * weight))
