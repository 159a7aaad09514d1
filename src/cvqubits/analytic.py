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

from .fieldprep import _as_coupling, _as_squeeze, _ladder_corner, _times, _whole

__all__ = [
    "AtomXState",
    "WeightTable",
    "xstate_series",
    "negativity_closed_form",
]

# the basis-state preparations the closed forms cover
INITIALS = ("gg", "ee")


@dataclass(frozen=True)
class AtomXState:
    """Reduced two-atom state in X form, at one interaction time or a series of them.

    Populations a, b, c, d on (|e,e>, |e,g>, |g,e>, |g,g>) and the real
    corner coherence e_coh = <e,e|rho|g,g>, plus the parameters that
    produced them.  The elements and lambda_t are floats at one time, or
    (T,) arrays over a series.
    """

    a: float | np.ndarray
    b: float | np.ndarray
    c: float | np.ndarray
    d: float | np.ndarray
    e_coh: float | np.ndarray
    s: float
    r: float
    lambda_t: float | np.ndarray
    initial: str
    n_max: int
    tail_weight: float = 0.0

    def trace(self):
        return self.a + self.b + self.c + self.d

    def to_matrix(self) -> np.ndarray:
        """The 4x4 density matrix, or the (T, 4, 4) stack of a series."""
        m = np.zeros(np.shape(self.a) + (4, 4), dtype=complex)
        m[..., 0, 0], m[..., 1, 1], m[..., 2, 2], m[..., 3, 3] = self.a, self.b, self.c, self.d
        m[..., 0, 3] = m[..., 3, 0] = self.e_coh
        return m


class WeightTable:
    """Photon-ladder weights of the injected field.

    The four-index table K[n][m][k][l] factorizes into per-level splitting
    rows and a scalar prefactor (tanh s)^(n+m)/cosh^2 s:
    K[n][m][k][l] = prefactor[n+m] * rows[n][k] rows[m][k] rows[n][l] rows[m][l].
    Only the prefactor and the rows are stored, the rows once, as the
    rung-ordered triangle ``ladder[n, j] = rows[n][n - j]`` of
    :func:`fieldprep.binom_ladder`, so ``rows[n]`` is ``ladder[n, n::-1]``.
    Rows run one level past n_max because the corner coherence couples
    neighbouring levels.

    A caller that walks many cutoffs at one r may pass a ``ladder`` built
    once at its top cutoff: its top-left (n_max+2)-square corner is then
    the table's ladder, bit for bit, with nothing copied.  A ladder that is
    not a 2-D ndarray (a nested list included), is too small for n_max, or
    was built for another r is refused.
    """

    def __init__(self, s, r, n_max: int, ladder=None) -> None:
        self.s = _as_squeeze(s)
        self.coupling = cp = _as_coupling(r)
        self.n_max = n_max = _whole(n_max, "n_max", 0)
        self.ladder = _ladder_corner(ladder, cp, n_max, n_max + 2)
        powers = self.s.tanh ** np.arange(2 * n_max + 3, dtype=float)
        self.prefactor = powers / self.s.cosh**2


def xstate_series(s, r, lambda_ts, n_max: int, initial: str, ladder=None) -> AtomXState:
    """Reduced atom state at one interaction time, or at each time of a series.

    A number gives floats, bit for bit those of the one-time series, and a
    1-D sequence (T,) arrays; each time must be finite and >= 0.

    One weight table serves the whole series.  Its splitting ladder is
    built here, or read off the top-left corner of a ``ladder`` that
    ``fieldprep.binom_ladder`` built for the same r at a cutoff of at
    least n_max + 1 (see :class:`WeightTable`), with the same result bit
    for bit.  A Rabi angle depends only on the rung j of the table's
    ladder, so each ladder sum -- exchange, survival and the corner
    amplitude, for every level and time at once -- is one product of a
    (level x rung) weight matrix with a (rung x time) trig table.  Each
    element is then an exactly rounded sum over levels.
    """
    sq = _as_squeeze(s)
    cp = _as_coupling(r)
    one_time = np.ndim(lambda_ts) == 0
    lts = _times(np.atleast_1d(lambda_ts))
    n_max = _whole(n_max, "n_max", 1)
    if initial not in INITIALS:
        raise ValueError(f"initial must be one of {INITIALS}, got {initial!r}")
    table = WeightTable(sq, cp, n_max, ladder)
    ladder = table.ladder
    levels = n_max + 1
    # an excited atom rides the ladder one rung higher than a ground one
    shift = 0 if initial == "gg" else 1
    # Rabi angle sqrt(m) * lambda_t on every rung m the sums reach; rows
    # are rungs, columns are times
    angle = np.sqrt(np.arange(n_max + 2))[:, None] * lts
    sin_t, cos_t = np.sin(angle), np.cos(angle)
    del angle

    # per-level exchange (flip) and survival (stay) probabilities of one
    # atom; rows are levels, columns are times.  At most one ladder-sized
    # product lives next to the ladder, as sweep's memory estimate assumes
    weights = np.square(ladder[:levels, :levels])
    flip = weights @ np.square(sin_t[shift : shift + levels])
    stay = weights @ np.square(cos_t[shift : shift + levels])
    del weights

    w_same = table.prefactor[:: 2][:levels, None]  # (tanh s)^(2n)/cosh^2 s
    # an atom ends excited by flipping from |g> or by staying in |e>
    excited, ground = (flip, stay) if initial == "gg" else (stay, flip)
    a = _level_sums(w_same * excited * excited)
    b = _level_sums(w_same * excited * ground)
    d = _level_sums(w_same * ground * ground)
    del flip, stay, excited, ground

    # corner coherence: couples neighbouring levels, so it only exists for
    # pairs (n, n+1) that both fit under the cutoff; on rung j the pair
    # weighs ladder[n+1, j+1] ladder[n, j], and the atoms' amplitudes meet
    # rungs j + shift + 1 and j + shift
    cross = ladder[1:levels, 1:levels] * ladder[:n_max, :n_max]
    upper, lower = (sin_t, cos_t) if initial == "gg" else (cos_t, sin_t)
    amp = cross @ (upper[shift + 1 : shift + levels] * lower[shift : shift + n_max])
    del cross
    corner = table.prefactor[1 : 2 * n_max : 2, None] * amp * amp
    # each cavity contributes one emission amplitude carrying -i; their
    # product makes the physical corner the negative of the bare sum
    e_coh = -_level_sums(corner)

    if one_time:
        a, b, d, e_coh, lts = (float(v[0]) for v in (a, b, d, e_coh, lts))
    # c = b: identical cavities and couplings on both sides
    return AtomXState(a=a, b=b, c=b, d=d, e_coh=e_coh, s=sq.s, r=cp.r, lambda_t=lts,
                      initial=initial, n_max=n_max, tail_weight=sq.tanh ** (2 * (n_max + 1)))


def _level_sums(terms: np.ndarray) -> np.ndarray:
    """Exactly rounded sum over the level axis (rows) for every time (column)."""
    return np.array([math.fsum(column) for column in terms.T.tolist()], dtype=float)


def negativity_closed_form(x: AtomXState):
    """Entanglement measure of an X state: max(0, sqrt((b-c)^2+4e^2)-b-c).

    This is -2 times the only partial-transpose eigenvalue of the X form
    that can turn negative; clamped at zero because a positive partial
    transpose means no entanglement, not a negative amount.  Element-wise
    over a series; a NaN stays NaN, and a zero is always +0.0.
    """
    raw = np.sqrt(np.square(x.b - x.c) + 4.0 * np.square(x.e_coh)) - x.b - x.c
    return np.maximum(raw, 0.0) + 0.0
