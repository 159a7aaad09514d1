"""Squeezed-light preparation and lossy injection into the cavity pair.

The two halves of an external two-mode squeezed vacuum each pass through a
beam splitter into one cavity; the reflected output ports are traced away,
leaving the (generally mixed) joint cavity field.  :func:`inject` builds
that field directly from its photon-number expansion, while
:func:`inject_oracle` exponentiates the beam-splitter generator on the
photon-number blocks the input reaches and traces the reflected ports out
block by block -- the two must agree element-wise, which is this module's
core self-check.  Both return the field as its disjoint diagonal blocks
(:class:`CavityFieldState`), never as a dense (n_max + 1)^2-square matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .tensorops import DensityOperator, StateVector, TruncatedFockSpace, _component_labels

__all__ = [
    "SqueezeParam",
    "CouplingParam",
    "TruncationPolicy",
    "CavityFieldState",
    "squeezed_state",
    "binom_row",
    "binom_ladder",
    "inject",
    "inject_oracle",
]

# Keep a few photon levels even at tiny squeezing so multi-photon terms stay
# exercised.
N_MAX_FLOOR = 4


def _whole(value, knob: str, low: int, error=ValueError) -> int:
    """``value`` as an int; ``error``, naming ``knob``, if it is not whole or is below ``low``."""
    if not (math.isfinite(value) and value == int(value)):
        raise error(f"{knob} must be a whole number, got {value}")
    if value < low:
        raise error(f"{knob} must be >= {low}, got {value}")
    return int(value)


def _times(lts) -> np.ndarray:
    """The times of a series as a 1-D float array, each checked finite and >= 0."""
    times = np.asarray(lts, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"expected a 1-D vector of times, got shape {times.shape}")
    bad = ~np.isfinite(times) | (times < 0.0)
    if bad.any():
        raise ValueError(f"lambda_t must be finite and >= 0, got {times[bad][0]}")
    return times


@dataclass(frozen=True)
class SqueezeParam:
    """Dimensionless squeezing strength of the external source."""

    s: float

    def __post_init__(self) -> None:
        s = float(self.s)
        if not math.isfinite(s) or s < 0.0:
            raise ValueError(f"squeezing parameter must be finite and >= 0, got {self.s}")
        try:
            math.cosh(s) ** 2  # the weight table divides by it
        except OverflowError:
            raise ValueError(f"squeezing parameter {self.s} overflows cosh(s)**2") from None
        object.__setattr__(self, "s", s)

    @property
    def tanh(self) -> float:
        return math.tanh(self.s)

    @property
    def cosh(self) -> float:
        return math.cosh(self.s)


@dataclass(frozen=True)
class CouplingParam:
    """Beam-splitter reflection coefficient r = cos(theta/2), given as r alone.

    r = 0 transmits the external field into the cavity completely (pure
    injection); r = 1 reflects everything and the cavity stays in vacuum.
    The mixing angle ``theta`` is read off r.
    """

    r: float

    def __post_init__(self) -> None:
        r = float(self.r)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"reflection coefficient must lie in [0, 1], got {self.r}")
        object.__setattr__(self, "r", r)

    @property
    def theta(self) -> float:
        return 2.0 * math.acos(self.r)

    # Half-angle cosine/sine straight from r: exact at both endpoints,
    # where going through theta would leave ~1e-16 dust.
    @property
    def cos_half(self) -> float:
        return self.r

    @property
    def sin_half(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.r * self.r))


@dataclass(frozen=True)
class TruncationPolicy:
    """Photon-number cutoff: fixed, or derived from a tail-weight bound.

    With only ``tail_tol`` given, the cutoff is the smallest n_max whose
    discarded weight (tanh s)^(2(n_max+1)) stays below the bound, floored at
    ``N_MAX_FLOOR``.  An explicit ``n_max`` wins over ``tail_tol``; it is
    the only way to a cutoff once tanh s rounds to 1 (s above about 19).
    """

    tail_tol: float | None = 1e-10
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.n_max is not None:
            object.__setattr__(self, "n_max", _whole(self.n_max, "n_max", 1))
        else:
            if self.tail_tol is None or not (0.0 < float(self.tail_tol) < math.inf):
                raise ValueError(f"tail_tol must be finite and > 0, got {self.tail_tol}")
            object.__setattr__(self, "tail_tol", float(self.tail_tol))

    def resolve(self, s) -> tuple[int, float]:
        """Return (n_max, exact discarded weight) for squeezing ``s``."""
        s = _as_squeeze(s)
        th = s.tanh
        if self.n_max is not None:
            n = self.n_max
        elif th == 0.0:
            n = N_MAX_FLOOR
        elif th == 1.0:
            raise ValueError(
                f"tanh({s.s}) rounds to 1, so no cutoff meets tail_tol; give n_max explicitly"
            )
        else:
            n = max(N_MAX_FLOOR, math.ceil(math.log(self.tail_tol) / (2.0 * math.log(th))) - 1)
        return n, th ** (2 * (n + 1))


class _Blocks(tuple):
    """(indices, matrix) pairs whose matrices lie back to back in one buffer, ``flat``."""

    def __new__(cls, pairs=(), flat: np.ndarray | None = None):
        self = super().__new__(cls, pairs)
        self.flat = flat  # copies and pickles restore it from the instance dict
        return self


def _square_views(sizes, dtype) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer and a square view of it per size, back to back."""
    sizes = np.asarray(sizes, dtype=np.intp)  # an empty list would come in as float64
    ends = np.cumsum(sizes * sizes)
    flat = np.empty(int(ends[-1]) if ends.size else 0, dtype)
    return flat, [flat[e - k * k : e].reshape(k, k) for k, e in zip(sizes.tolist(), ends.tolist())]


@dataclass(frozen=True)
class CavityFieldState:
    """Joint two-cavity field, with the ``s``/``policy`` its caller gave (or None).

    The field is held as disjoint diagonal blocks: pairs of (flat indices
    nA * (n_max + 1) + nB, square matrix over those indices), every matrix
    a view into one flat buffer.  Entries that no single block holds are
    zero.  Photons leak out of each cavity separately, so an injected
    twin-photon field never couples two values of nA - nB, and its blocks
    are those sectors: about (n_max + 1)^3 / 1.5 numbers instead of
    (n_max + 1)^4.  ``rho`` is the dense view, built on first access, for
    checks that compare whole matrices; no route of the package reads it.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]
    s: SqueezeParam | None
    policy: TruncationPolicy | None
    n_max: int
    tail_weight: float

    def __post_init__(self) -> None:
        dim2 = (self.n_max + 1) ** 2
        indices = [np.asarray(idx, dtype=np.intp).reshape(-1) for idx, _ in self.blocks]
        sizes = [idx.size for idx in indices]
        if any(np.shape(m) != (k, k) for k, (_, m) in zip(sizes, self.blocks)):
            raise ValueError("each block needs a square matrix over its indices")
        if isinstance(self.blocks, _Blocks):
            flat = self.blocks.flat
        else:  # pack the matrices into one buffer
            matrices = [np.asarray(m) for _, m in self.blocks]
            flat, views = _square_views(sizes, np.result_type(float, *matrices))
            for view, m in zip(views, matrices):
                view[...] = m
            object.__setattr__(self, "blocks", _Blocks(zip(indices, views), flat))

        # where each flat index sits: its block, its place in that block, and
        # where its row starts in the buffer
        every = np.concatenate(indices) if indices else np.zeros(0, dtype=np.intp)
        if every.size and (every.min() < 0 or every.max() >= dim2 or np.bincount(every).max() > 1):
            raise ValueError(f"block indices must be distinct and lie in [0, {dim2})")
        sizes = np.array(sizes, dtype=np.intp)
        place = np.arange(every.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        label = np.full(dim2, -1, dtype=np.intp)
        label[every] = np.repeat(np.arange(sizes.size), sizes)
        pos = np.zeros(dim2, dtype=np.intp)
        pos[every] = place
        row_start = np.zeros(dim2, dtype=np.intp)
        row_start[every] = np.repeat(np.cumsum(sizes**2) - sizes**2, sizes) + place * np.repeat(sizes, sizes)
        object.__setattr__(self, "_gather", (flat, label, pos, row_start))
        object.__setattr__(self, "_slices", {})

    def entries(self, rows, cols) -> np.ndarray:
        """The field's entries at (rows, cols), read from the blocks in one gather.

        ``rows`` and ``cols`` are flat indices in [0, (n_max + 1)^2), of one
        shape; entries in no common block are 0.  The result has the blocks'
        dtype.
        """
        flat, label, pos, row_start = self._gather
        rows, cols = (_flat_indices(v, knob, label.size) for v, knob in ((rows, "rows"), (cols, "cols")))
        if rows.shape != cols.shape:
            raise ValueError(f"cols of shape {cols.shape} does not match rows of shape {rows.shape}")
        inside = (label[rows] == label[cols]) & (label[rows] >= 0)
        out = np.zeros(rows.shape, dtype=flat.dtype)
        out[inside] = flat[row_start[rows[inside]] + pos[cols[inside]]]
        return out

    def field_slice(self, d_a: int, d_b: int) -> np.ndarray | None:
        """S[nA, nB] = rho[(nA, nB), (nA - d_a, nB - d_b)] over the in-range nA, nB.

        None where the slice holds only zeros (no block of the field reaches
        it, say).  Gathered through :meth:`entries` on first use and kept,
        read-only, as long as the field.
        """
        if (d_a, d_b) not in self._slices:
            dim = self.n_max + 1
            na = np.arange(max(0, d_a), dim + min(0, d_a))
            nb = np.arange(max(0, d_b), dim + min(0, d_b))
            rows = na[:, None] * dim + nb
            got = self.entries(rows, rows - (d_a * dim + d_b))
            got.flags.writeable = False
            self._slices[d_a, d_b] = got if got.any() else None
        return self._slices[d_a, d_b]

    @cached_property
    def rho(self) -> DensityOperator:
        """The dense field, (n_max + 1)^2 square, built from the blocks on first access."""
        dim = self.n_max + 1
        m = np.zeros((dim * dim, dim * dim), dtype=complex)
        for idx, block in self.blocks:
            m[np.ix_(idx, idx)] = block
        return DensityOperator(TruncatedFockSpace((dim, dim)), m, self.tail_weight)


def _flat_indices(value, knob: str, size: int) -> np.ndarray:
    """``value`` as an intp array; ``ValueError``, naming ``knob``, if any index is outside [0, size)."""
    value = np.asarray(value, dtype=np.intp)
    if value.size and (value.min() < 0 or value.max() >= size):
        raise ValueError(f"{knob} must lie in [0, {size}), got {value.min()} to {value.max()}")
    return value


def _as_squeeze(s) -> SqueezeParam:
    return s if isinstance(s, SqueezeParam) else SqueezeParam(s)


def _as_coupling(r) -> CouplingParam:
    return r if isinstance(r, CouplingParam) else CouplingParam(r)


def squeezed_state(s, policy: TruncationPolicy | None = None) -> StateVector:
    """Two-mode squeezed vacuum, photon numbers locked across the modes.

    Amplitude (tanh s)^n / cosh s on |n, n>, zero elsewhere; the geometric
    tail beyond the cutoff is recorded in ``tail_weight``, never
    renormalized away.
    """
    s = _as_squeeze(s)
    policy = policy if policy is not None else TruncationPolicy()
    n_max, tail = policy.resolve(s)
    dim = n_max + 1
    amps = np.zeros(dim * dim, dtype=complex)
    c = 1.0 / s.cosh
    for n in range(dim):
        amps[n * dim + n] = c
        c *= s.tanh
    return StateVector(TruncatedFockSpace((dim, dim)), amps, tail)


_EXACT_LIMIT = 20  # plain comb/sqrt/pow is exact and cheap this far
# C(n, k) for n, k <= _EXACT_LIMIT (0 for k > n), all exact in float64
_EXACT_COMB = np.array(
    [[math.comb(n, k) for k in range(_EXACT_LIMIT + 1)] for n in range(_EXACT_LIMIT + 1)],
    dtype=float,
)
_EXACT_COMB.flags.writeable = False


def _log_factorials(size: int) -> np.ndarray:
    """log(k!) for k = 0..size-1, summed in order.

    Raw factorials overflow doubles near k = 171, while sweeps can push the
    cutoff past 300.
    """
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, size)))))


def binom_row(n: int, coupling) -> np.ndarray:
    """All splitting amplitudes of one photon-number level: row[k], k=0..n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    coupling = _as_coupling(coupling)
    c, s_ = coupling.cos_half, coupling.sin_half
    k = np.arange(n + 1)
    if n <= _EXACT_LIMIT:
        comb = np.array([math.comb(n, int(kk)) for kk in k], dtype=float)
        return np.sqrt(comb) * c**k * s_ ** (n - k)
    out = np.zeros(n + 1)
    if c == 0.0:
        out[0] = s_**n
        return out
    if s_ == 0.0:
        out[n] = c**n
        return out
    lf = _log_factorials(n + 1)
    logs = 0.5 * (lf[n] - lf[k] - lf[n - k]) + k * math.log(c) + (n - k) * math.log(s_)
    return np.exp(logs)


def _toeplitz(v: np.ndarray) -> np.ndarray:
    """Read-only view T[n, j] = v[n - j] for j <= n (0 above the diagonal), no copy."""
    padded = np.concatenate((np.zeros(v.size - 1), v))
    return sliding_window_view(padded, v.size)[:, ::-1]


def binom_ladder(n_top: int, coupling) -> np.ndarray:
    """Splitting amplitudes of levels 0..n_top by rung: L[n, j] = binom_row(n)[n - j].

    j = n - k counts the photons a level keeps after k leave through the
    reflected port, so a Rabi angle depends on j alone.  Entries with
    j > n are 0.  Built in one vectorised pass with the same expressions,
    in the same order, as :func:`binom_row`, so row n reversed is
    bit-identical to ``binom_row(n, coupling)``.
    """
    if n_top < 0:
        raise ValueError(f"need n_top >= 0, got {n_top}")
    coupling = _as_coupling(coupling)
    c, s_ = coupling.cos_half, coupling.sin_half
    size = n_top + 1
    rungs = np.arange(size)
    above = np.tri(size, k=-1, dtype=bool).T  # j > n
    if c == 0.0 or s_ == 0.0:
        # one splitting per level: every photon kept (c = 0) or lost (s = 0)
        ladder = np.zeros((size, size))
        if c == 0.0:
            np.fill_diagonal(ladder, s_**rungs)
        else:
            ladder[:, 0] = c**rungs
    else:
        # 0.5 (lf[n] - lf[k] - lf[j]) + k log c + j log s, with k = n - j
        # read off Toeplitz views rather than (size x size) index arrays
        lf = _log_factorials(size)
        ladder = np.subtract(lf[:, None], _toeplitz(lf))
        ladder -= lf
        ladder *= 0.5
        ladder += _toeplitz(rungs * math.log(c))
        ladder += rungs * math.log(s_)
        ladder[above] = -np.inf
        np.exp(ladder, out=ladder)
    # levels up to _EXACT_LIMIT take the exact branch, as in binom_row
    top = min(size, _EXACT_LIMIT + 1)
    n, j = rungs[:top, None], rungs[:top]
    k = np.maximum(n - j, 0)
    exact = np.sqrt(_EXACT_COMB[n, k]) * c**k * s_**j
    exact[above[:top, :top]] = 0.0
    ladder[:top, :top] = exact
    return ladder


def _ladder_corner(ladder, coupling: CouplingParam, n_max: int, rungs: int) -> np.ndarray:
    """The top-left ``rungs``-square corner of a caller's :func:`binom_ladder`, as a view.

    A ladder is bit for bit the corner of any larger one for the same r.
    One that is not a 2-D ndarray, has fewer than ``rungs`` (or 2) rungs,
    or was built for another r is refused, naming the cutoff ``n_max``.
    """
    if not isinstance(ladder, np.ndarray):
        raise ValueError(f"ladder must be a 2-D array, got a {type(ladder).__name__}")
    if ladder.ndim != 2:
        raise ValueError(f"ladder must be a 2-D array, got shape {ladder.shape}")
    if min(ladder.shape) < max(rungs, 2):
        raise ValueError(f"ladder of shape {ladder.shape} is too small for n_max {n_max}")
    # level 1 takes binom_ladder's exact branch: its entries are r and sqrt(1 - r^2) exactly
    if ladder[1, 0] != coupling.cos_half or ladder[1, 1] != coupling.sin_half:
        raise ValueError(f"ladder was not built for r = {coupling.r}")
    return ladder[:rungs, :rungs]


def _diagonals(a: np.ndarray) -> np.ndarray:
    """Read-only view D[k, j] = a[j + k, j] of a (2 dim x dim) array, (dim x dim), no copy."""
    dim = a.shape[1]
    row, col = a.strides
    return as_strided(a, shape=(dim, dim), strides=(row, row + col), writeable=False)


def _check_two_mode(psi: StateVector) -> int:
    dims = psi.space.factor_dims
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError(f"expected a square two-mode input state, got factors {dims}")
    return dims[0]


def inject(psi: StateVector, coupling, *, s=None, policy=None, ladder=None) -> CavityFieldState:
    """Joint cavity field after the beam splitters, from the number expansion.

    Conditioning on (k, l) photons escaping through the two reflected ports
    leaves one pure branch per outcome; the field is the unnormalized sum of
    those branch projectors.  A twin pair |n, n> that loses (k, l) photons
    lands on |n - k, n - l>, so every branch lies in the sector
    delta = nA - nB = l - k.  Per sector the branches form a (k x nA) block
    B[k, nA] = d[n] * row[n][k] * row[n][k + delta] with n = nA + k, read
    from the rung-ordered :func:`binom_ladder` as d[n] * L[n, nA] * L[n, nB];
    the field's block over the sector's (nA, nA - delta) is the real B^T B,
    and nothing couples two sectors.  Both factors of B are plain slices of
    diagonal views, D[k, j] = a[j + k, j], of the amplitudes and the ladder,
    so no block gathers its entries one by one.  Only real amplitudes on
    the twin levels |n, n> enter, so any other input is refused:
    :func:`inject_oracle` takes it.  ``s`` (checked as a
    :class:`SqueezeParam`) and ``policy`` are recorded on the field as
    given, None by default; no route reads them.  A ``ladder`` that
    :func:`binom_ladder` built for the same r at a cutoff of at least n_max
    is read instead of building one, with the same field bit for bit.
    """
    coupling = _as_coupling(coupling)
    dim = _check_two_mode(psi)
    n_max = dim - 1
    if ladder is not None:
        ladder = _ladder_corner(ladder, coupling, n_max, dim)
    amps = psi.amplitudes.reshape(dim, dim)
    twins = amps.diagonal()
    if np.count_nonzero(amps) != np.count_nonzero(twins) or np.any(twins.imag != 0.0):
        raise ValueError(
            "inject reads only real amplitudes on the twin levels |n, n>, and this input has "
            "others; use inject_oracle, which takes any two-mode input"
        )
    s = _as_squeeze(s) if s is not None else None
    # levels zero-padded to twice the size, so n = nA + k needs no
    # clipping: every level past the cutoff carries a zero amplitude
    d = np.zeros(2 * dim)
    d[:dim] = twins.real
    padded = np.zeros((2 * dim, dim))
    padded[:dim] = binom_ladder(n_max, coupling) if ladder is None else ladder
    amp = d[:, None] * padded  # amp[n, j] = d[n] * row[n][n - j]
    # amp[nA + k, nA] = on_a[k, nA] and L[nA + k, nA - delta] = on_b[k + delta, nA - delta]
    on_a, on_b = _diagonals(amp), _diagonals(padded)

    deltas = range(-n_max, dim)
    flat, views = _square_views([dim - abs(delta) for delta in deltas], float)
    indices = []
    for delta, view in zip(deltas, views):
        lo, hi = max(0, delta), dim + min(0, delta)  # nA; nB = nA - delta stays in range
        k0 = max(0, -delta)  # l = k + delta >= 0
        block = on_a[k0 : dim - lo, lo:hi] * on_b[k0 + delta : dim - lo + delta, lo - delta : hi - delta]
        np.matmul(block.T, block, out=view)
        indices.append(np.arange(lo, hi) * (dim + 1) - delta)  # flat index of |nA, nA - delta>

    return CavityFieldState(_Blocks(zip(indices, views), flat), s, policy, n_max, psi.tail_weight)


def _splitter_columns(coupling: CouplingParam, dim: int) -> np.ndarray:
    """reach[n, e] = <e, n - e| U |n, 0> for n < dim: the splitter's column of input level n.

    Each (external, cavity) mode pair passes U = exp[(theta/2)(c f+ - c+ f)].
    The ladder operator only lowers by one, so the generator keeps each
    pair's total n = e + c, and the pair states with total n form one
    invariant block.  The generator is built there one total at a time,
    from the same entries of ``a`` that kron(a.T, a) - kron(a, a.T) holds;
    as the Hermitian i G it is one connected tridiagonal block, so one
    ``eigh`` per total gives the exponential at scale -i theta/2, of which
    only the |n, 0> column is formed.  Entries with e > n are 0.
    """
    if coupling.theta == 0.0:  # exp(0) = I, exactly
        return np.eye(dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    scale = -0.5j * coupling.theta
    reach = np.zeros((dim, dim))
    for n in range(dim):
        i = np.arange(n + 1)[:, None]  # row |i, n - i>, column |j, n - j>
        j = i.T
        # kron(a.T, a) - kron(a, a.T) between those pair states
        block = a[j, i] * a[n - i, n - j] - a[i, j] * a[n - j, n - i]
        w, v = np.linalg.eigh(1j * block)
        reach[n, : n + 1] = ((v * np.exp(scale * w)) @ v[n].conj()).real
    return reach


def inject_oracle(psi: StateVector, coupling, *, s=None, policy=None) -> CavityFieldState:
    """Same cavity field through the explicit beam-splitter unitary.

    Each (external, cavity) mode pair passes exp[(theta/2)(c f+ - c+ f)],
    which keeps each pair's total n = e + c, so input level n meets only
    the |n, 0> column of the total-n block (:func:`_splitter_columns`,
    one ``eigh`` of the generator per total).  The
    (externals x cavities) amplitude matrix is formed from those columns as
    a list of its nonzero entries.  Columns linked through shared nonzero
    rows form one block, and the externals are traced out with one Gram
    product per block, which is the field's block over those cavity pairs,
    so an input that correlates any levels stays exact.  Any two-mode
    input is taken, and ``s``/``policy`` are recorded as in :func:`inject`.
    Borrows nothing from :func:`inject`'s closed form: the splitter comes
    from diagonalising its generator, not from the binomial amplitudes.
    """
    coupling = _as_coupling(coupling)
    dim = _check_two_mode(psi)
    s = _as_squeeze(s) if s is not None else None
    reach = _splitter_columns(coupling, dim)

    # amplitude of (externals eA, eB) x (cavities n_A - eA, n_B - eB), one
    # (level x level) slab per nonzero input amplitude; no two slabs share an entry
    amps = psi.amplitudes.reshape(dim, dim)
    na, nb = np.nonzero(amps)
    slabs = amps[na, nb][:, None, None] * reach[na][:, :, None] * reach[nb][:, None, :]
    k, ea, eb = np.nonzero(slabs)
    vals = slabs[k, ea, eb]
    rows = ea * dim + eb
    cols = (na[k] - ea) * dim + (nb[k] - eb)

    # cavity pairs are nodes 0..dim^2 - 1, external pairs the dim^2 after
    # them.  Ordered by block, each block's nodes come out ascending: its
    # cavities (the field's indices) first, then its externals, so a node's
    # place among its block's cavities or externals is one subtraction
    pairs = dim * dim
    label = _component_labels(cols, rows + pairs, 2 * pairs)
    used = np.zeros(2 * pairs, dtype=bool)
    used[cols] = used[rows + pairs] = True
    nodes = np.flatnonzero(used)
    nodes = nodes[np.argsort(label[nodes], kind="stable")]
    starts = np.flatnonzero(np.diff(label[nodes], prepend=-1))
    sizes = np.diff(starts, append=nodes.size)
    owner = np.repeat(np.arange(starts.size), sizes)  # the block of each ordered node
    n_cav = np.bincount(owner[nodes < pairs], minlength=starts.size)
    n_ext = sizes - n_cav
    place = np.empty(2 * pairs, dtype=np.intp)  # column (cavity) or row (external) in its block
    place[nodes] = np.arange(nodes.size) - np.repeat(starts, sizes) - (nodes >= pairs) * n_cav[owner]
    block = np.empty(2 * pairs, dtype=np.intp)
    block[nodes] = owner

    # every block's (externals x cavities) amplitude matrix, back to back in one buffer
    ends = np.cumsum(n_ext * n_cav)
    b = block[cols]
    subs = np.zeros(int(ends[-1]) if ends.size else 0, dtype=complex)
    subs[ends[b] - n_ext[b] * n_cav[b] + place[rows + pairs] * n_cav[b] + place[cols]] = vals
    flat, views = _square_views(n_cav, complex)
    for view, e, n in zip(views, ends.tolist(), n_ext.tolist()):
        sub = subs[e - n * len(view) : e].reshape(n, len(view))
        np.matmul(sub.T, sub.conj(), out=view)
    cavs = [nodes[a : a + c] for a, c in zip(starts.tolist(), n_cav.tolist())]

    return CavityFieldState(_Blocks(zip(cavs, views), flat), s, policy, dim - 1, psi.tail_weight)
