"""Closed-form photon-number sums for the reduced two-atom state.

With both atoms starting in a basis state, tracing the field away leaves an
X-shaped 4x4 matrix: four populations and one real corner coherence between
|e,e> and |g,g>.  Every element is a rapidly converging sum over the photon
ladder, evaluated here directly -- that is what makes wide parameter sweeps
cheap.  The dense evolution in `jcdynamics` is the referee: each formula is
held against it in the test suite rather than trusted.

Truncation convention: the sums describe exactly the cutoff field state of
`fieldprep.inject` (populations over levels n <= n_max, the corner over
level pairs (n, n+1) that both fit), so the two engines agree to roundoff
at any cutoff, and the distance to the untruncated limit is bounded by the
recorded tail weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fieldprep import CouplingParam, SqueezeParam, binom_row

__all__ = [
    "AtomXState",
    "WeightTable",
    "xstate_series",
    "xstate_gg",
    "xstate_ee",
    "negativity_closed_form",
]


@dataclass(frozen=True)
class AtomXState:
    """Reduced two-atom state in X form at one interaction time.

    Populations a, b, c, d on (|e,e>, |e,g>, |g,e>, |g,g>) and the real
    corner coherence e_coh = <e,e|rho|g,g>, plus the parameters that
    produced them.
    """

    a: float
    b: float
    c: float
    d: float
    e_coh: float
    s: float
    r: float
    lambda_t: float
    initial: str
    n_max: int
    tail_weight: float = 0.0

    def trace(self) -> float:
        return self.a + self.b + self.c + self.d

    def to_matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.a, self.b, self.c, self.d
        m[0, 3] = m[3, 0] = self.e_coh
        return m


class WeightTable:
    """Photon-ladder weights of the injected field.

    The four-index table K[n][m][k][l] factorizes into per-level splitting
    rows and a scalar prefactor (tanh s)^(n+m)/cosh^2 s:
    K[n][m][k][l] = prefactor[n+m] * rows[n][k] rows[m][k] rows[n][l] rows[m][l].
    Only the rows and the prefactor are stored.  Rows run one level past
    n_max because the corner coherence couples neighbouring levels.
    """

    def __init__(self, s, r, n_max: int) -> None:
        self.s = s if isinstance(s, SqueezeParam) else SqueezeParam(s)
        self.coupling = r if isinstance(r, CouplingParam) else CouplingParam(r)
        n_max = int(n_max)
        if n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {n_max}")
        self.n_max = n_max
        self.rows = [binom_row(n, self.coupling) for n in range(n_max + 2)]
        powers = self.s.tanh ** np.arange(2 * n_max + 3, dtype=float)
        self.prefactor = powers / self.s.cosh**2


def xstate_series(s, r, lambda_ts, n_max: int, initial: str) -> list[AtomXState]:
    """Reduced atom states at every interaction time in ``lambda_ts``.

    One weight table serves the whole series; the Rabi angles carry the
    time axis, so each ladder level costs one array operation for all
    times.  Each element is an exactly rounded sum over the levels.
    """
    sq = s if isinstance(s, SqueezeParam) else SqueezeParam(s)
    cp = r if isinstance(r, CouplingParam) else CouplingParam(r)
    lts = np.asarray(lambda_ts, dtype=float)
    if lts.ndim != 1:
        raise ValueError(f"lambda_ts must be one-dimensional, got shape {lts.shape}")
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if initial not in ("gg", "ee"):
        raise ValueError(f"initial must be 'gg' or 'ee', got {initial!r}")
    table = WeightTable(sq, cp, n_max)
    # an excited atom rides the ladder one rung higher than a ground one
    shift = 0 if initial == "gg" else 1

    # per-level exchange (flip) and survival (stay) probabilities of one
    # atom; rows are levels, columns are times
    flip = np.empty((n_max + 1, lts.size))
    stay = np.empty((n_max + 1, lts.size))
    for n in range(n_max + 1):
        row_sq = table.rows[n] ** 2
        rabi = np.sqrt(n - np.arange(n + 1) + shift)[:, None] * lts
        flip[n] = row_sq @ np.sin(rabi) ** 2
        stay[n] = row_sq @ np.cos(rabi) ** 2

    w_same = table.prefactor[:: 2][: n_max + 1, None]  # (tanh s)^(2n)/cosh^2 s
    if initial == "gg":
        a = _level_sums(w_same * flip * flip)
        b = _level_sums(w_same * flip * stay)
        d = _level_sums(w_same * stay * stay)
    else:
        a = _level_sums(w_same * stay * stay)
        b = _level_sums(w_same * stay * flip)
        d = _level_sums(w_same * flip * flip)

    # corner coherence: couples neighbouring levels, so it only exists for
    # pairs (n, n+1) that both fit under the cutoff
    corner = np.empty((n_max, lts.size))
    for n in range(n_max):
        k = np.arange(n + 1)
        cross = table.rows[n + 1][: n + 1] * table.rows[n][k]
        j = (n - k + shift).astype(float)[:, None]
        if initial == "gg":
            amp = cross @ (np.sin(np.sqrt(j + 1.0) * lts) * np.cos(np.sqrt(j) * lts))
        else:
            amp = cross @ (np.cos(np.sqrt(j + 1.0) * lts) * np.sin(np.sqrt(j) * lts))
        corner[n] = table.prefactor[2 * n + 1] * amp * amp
    # each cavity contributes one emission amplitude carrying -i; their
    # product makes the physical corner the negative of the bare sum
    e_coh = [-total for total in _level_sums(corner)]

    tail = sq.tanh ** (2 * (n_max + 1))
    return [
        # c = b: identical cavities and couplings on both sides
        AtomXState(a=ai, b=bi, c=bi, d=di, e_coh=ei, s=sq.s, r=cp.r, lambda_t=lt,
                   initial=initial, n_max=n_max, tail_weight=tail)
        for ai, bi, di, ei, lt in zip(a, b, d, e_coh, lts.tolist())
    ]


def _level_sums(terms: np.ndarray) -> list[float]:
    """Exactly rounded sum over the level axis (rows) for every time (column)."""
    return [math.fsum(column) for column in terms.T.tolist()]


def xstate_gg(s, r, lambda_t, n_max: int) -> AtomXState:
    """Reduced atom state for both atoms starting in the ground state."""
    return xstate_series(s, r, (lambda_t,), n_max, "gg")[0]


def xstate_ee(s, r, lambda_t, n_max: int) -> AtomXState:
    """Reduced atom state for both atoms starting excited.

    Same ladder sums as the ground-state case with the roles of exchange
    and survival swapped and every Rabi angle shifted one rung up -- the
    extra quantum each atom brings in.  The dense oracle, not the
    transcription, is the ground truth the tests enforce.
    """
    return xstate_series(s, r, (lambda_t,), n_max, "ee")[0]


def negativity_closed_form(x: AtomXState) -> float:
    """Entanglement measure of an X state: max(0, sqrt((b-c)^2+4e^2)-b-c).

    This is -2 times the only partial-transpose eigenvalue of the X form
    that can turn negative; clamped at zero because a positive partial
    transpose means no entanglement, not a negative amount.
    """
    raw = math.sqrt((x.b - x.c) ** 2 + 4.0 * x.e_coh**2) - x.b - x.c
    return max(0.0, raw)
