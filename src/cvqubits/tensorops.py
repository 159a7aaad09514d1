"""Dense complex linear algebra over labeled tensor-product spaces.

States are plain numpy arrays wrapped together with their factor structure
(:class:`TruncatedFockSpace`), so partial traces and transposes are
requested by factor index instead of by hand-rolled stride arithmetic.
Every operation is a pure function of its inputs; nothing here mutates its
arguments, and results are bit-reproducible for a fixed summation order.
The positivity check of :meth:`DensityOperator.validate` splits a state
into the connected components of its nonzero pattern, and solves all
components of one size in one stacked eigensolve; the dense transit
oracle, :func:`~cvqubits.jcdynamics.jc_unitary_oracle`, exponentiates its
generator through the same grouping, :func:`_components_by_size`.

The two composite-sized outputs, :func:`kron`'s here and
:func:`~cvqubits.jcdynamics.evolve`'s, come from :func:`_zeros`: a private
anonymous mapping, whose pages the kernel backs only once they are
written, so a sparse composite holds memory for the pages it writes.  A
read of an unwritten page maps the kernel's shared zero page.  The mapping
is private because a shared one is shared memory, which backs a page on a
read too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedFockSpace",
    "StateVector",
    "DensityOperator",
    "kron",
    "partial_trace",
]

# Hermiticity tolerance for freshly constructed operators.
HERM_TOL_BUILT = 1e-12
PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class TruncatedFockSpace:
    """Dimension bookkeeping for a tensor product of truncated factors.

    A qubit factor has dimension 2; a field mode truncated at photon number
    N has dimension N + 1.  Factor order is significant and fixed at
    construction.
    """

    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims:
            raise ValueError("a space needs at least one factor")
        if any(d < 1 for d in dims):
            raise ValueError(f"every factor dimension must be >= 1, got {dims}")
        object.__setattr__(self, "factor_dims", dims)

    @property
    def total_dim(self) -> int:
        out = 1
        for d in self.factor_dims:
            out *= d
        return out


@dataclass(frozen=True)
class StateVector:
    """Dense pure state on a :class:`TruncatedFockSpace`.

    ``tail_weight`` records the probability mass lost to truncation; the
    amplitudes are deliberately *not* renormalized, so the squared norm of a
    truncated state is ``1 - tail_weight``.
    """

    space: TruncatedFockSpace
    amplitudes: np.ndarray
    tail_weight: float = 0.0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amp.size != self.space.total_dim:
            raise ValueError(
                f"amplitude count {amp.size} does not match total dimension "
                f"{self.space.total_dim}"
            )
        object.__setattr__(self, "amplitudes", amp)

    def norm_sq(self) -> float:
        return float(np.real(np.vdot(self.amplitudes, self.amplitudes)))

    def density(self) -> "DensityOperator":
        m = np.outer(self.amplitudes, self.amplitudes.conj())
        return DensityOperator(self.space, m, self.tail_weight)

    def validate(self, tol: float = 1e-10) -> None:
        """Raise ValueError unless the norm matches the declared deficit."""
        dev = abs(self.norm_sq() - (1.0 - self.tail_weight))
        if not dev <= tol:
            raise ValueError(f"norm deficit off by {dev:.3e}")


@dataclass(frozen=True)
class DensityOperator:
    """Dense mixed state on a :class:`TruncatedFockSpace`.

    Construction checks only shape; the (expensive) Hermiticity, trace and
    positivity invariants are checked on demand via :meth:`validate` --
    an eigensolve per constructed state would dominate sweep runtimes.
    """

    space: TruncatedFockSpace
    matrix: np.ndarray
    tail_weight: float = 0.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d = self.space.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {d}")
        object.__setattr__(self, "matrix", m)

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def validate(
        self,
        herm_tol: float = HERM_TOL_BUILT,
        psd_floor: float = PSD_FLOOR,
        trace_tol: float = 1e-12,
    ) -> None:
        """Raise ValueError on any violated state invariant.

        Hermiticity within ``herm_tol``, smallest eigenvalue above
        ``psd_floor``, and real trace inside
        ``[1 - tail_weight - trace_tol, 1 + trace_tol]``.
        """
        problem = _violations(self.matrix[None], self.tail_weight, herm_tol, psd_floor, trace_tol)[0]
        if problem is not None:
            raise ValueError(problem)


def _violations(stack, tail_weight, herm_tol, psd_floor, trace_tol) -> list[str | None]:
    """Per matrix of a (T, d, d) stack, the first invariant of ``validate`` it breaks, or None.

    Checked in the order Hermiticity, trace, smallest eigenvalue, over the
    stack's union nonzero pattern only, in chunks of about 2^16 entries (a
    NaN counts as nonzero; a pair of zero entries deviates by 0).  The
    eigenvalues come by the connected components of the Hermitian part's
    pattern over the matrices passing the first two checks, each formed as
    (m^dagger + m) / 2 inside its component, with its indices ascending.
    All components of one size go to one stacked ``eigvalsh``, which runs
    the same LAPACK routine on each matrix, so every eigenvalue is the one
    a separate call per component gives, to the bit.
    """
    nonzero = np.flatnonzero(np.any(stack, axis=0))
    size, dim = stack.shape[:2]
    dev, herm = np.zeros(size), np.zeros((size, nonzero.size), dtype=bool)
    step = max(1, 2**16 // size)
    for i in range(0, nonzero.size, step):
        r, c = np.divmod(nonzero[i : i + step], dim)
        m, adj = stack[:, r, c], stack[:, c, r].conj()
        dev = np.maximum(dev, np.abs(m - adj).max(axis=1))
        herm[:, i : i + step] = (adj + m) * 0.5 != 0
    tr = np.trace(stack, axis1=1, axis2=2)
    lo, hi = 1.0 - tail_weight - trace_tol, 1.0 + trace_tol
    passed = (dev <= herm_tol) & (np.abs(tr.imag) <= trace_tol) & (lo <= tr.real) & (tr.real <= hi)
    wmin = np.full(size, np.inf)
    if passed.any():
        sub = stack if passed.all() else stack[passed]  # no second copy of a lone large operator
        label = _component_labels(*np.divmod(nonzero[herm[passed].any(axis=0)], dim), dim)
        low = np.full(len(sub), np.inf)
        for idx in _components_by_size(label):
            blocks = sub[:, idx[:, :, None], idx[:, None, :]]  # (matrices, components, k, k)
            w = np.linalg.eigvalsh((blocks.conj().swapaxes(-1, -2) + blocks) * 0.5)[..., 0]
            np.minimum(low, w.min(axis=1), out=low)
        wmin[passed] = low

    def first(d, t, w):
        if not d <= herm_tol:  # a NaN entry fails here too
            return f"not Hermitian: max deviation {d:.3e}"
        if abs(t.imag) > trace_tol:
            return f"trace has imaginary part {t.imag:.3e}"
        if not lo <= t.real <= hi:
            return f"trace {t.real!r} outside [{lo!r}, {hi!r}]"
        return f"negative eigenvalue {w:.3e}" if w < psd_floor else None

    return [first(d, t, w) for d, t, w in zip(dev.tolist(), tr.tolist(), wmin.tolist())]


def _zeros(shape) -> np.ndarray:
    """Complex zeros of ``shape`` in a fresh private anonymous mapping.

    A page is backed only once it is written, and reads of unwritten pages
    cost no memory.  ``MAP_PRIVATE`` matters: Python's default anonymous
    ``mmap`` is ``MAP_SHARED``, which backs every page it reads.  The
    array's base holds the mapping; pickling or copying the array gives an
    ordinary array.
    """
    import mmap  # here, so that importing the package does not load it

    count = int(np.prod(shape))
    buf = mmap.mmap(-1, count * np.dtype(complex).itemsize, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=complex, count=count).reshape(shape)


def kron(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Tensor product of two density operators.

    The first argument supplies the slow (leftmost) indices; the result's
    factor list is the concatenation of the inputs' factor lists.

    Only the blocks under nonzero entries of ``a`` are written, each the
    same product ``np.kron`` forms, bit for bit; a zero entry of ``a``
    leaves its block at exact +0.0 (never -0.0, nor a NaN from ``b``).
    The rest of the output is never touched, and the output comes from
    :func:`_zeros`, so a basis-state atom factor backs only the pages of one
    block of the composite.
    """
    if not (isinstance(a, DensityOperator) and isinstance(b, DensityOperator)):
        raise TypeError("kron needs two DensityOperators")
    space = TruncatedFockSpace(a.space.factor_dims + b.space.factor_dims)
    tail = 1.0 - (1.0 - a.tail_weight) * (1.0 - b.tail_weight)
    (ra, ca), (rb, cb) = a.matrix.shape, b.matrix.shape
    out = _zeros((ra * rb, ca * cb))
    # (ra, rb, ca, cb) view of the output: entry a[i, k] scales block (i, :, k, :)
    a4 = a.matrix[:, None, :, None]
    np.multiply(a4, b.matrix[None, :, None, :], out=out.reshape(ra, rb, ca, cb), where=a4 != 0)
    return DensityOperator(space, out, tail)


def partial_trace(rho: DensityOperator, keep) -> DensityOperator:
    """Trace out every factor whose index is not in ``keep``.

    ``keep`` is any iterable of factor indices; the result's factors appear
    in ascending index order.  Trace is preserved exactly up to roundoff.
    """
    dims = rho.space.factor_dims
    nf = len(dims)
    kept = sorted({int(i) for i in keep})
    if not kept:
        raise ValueError("keep set must not be empty")
    if kept[0] < 0 or kept[-1] >= nf:
        raise IndexError(f"factor index out of range for {nf} factors: {kept}")
    if len(kept) == nf:
        return rho

    # factor i's row index is i, its column index nf + i; a traced factor's
    # column reuses its row index, which contracts it
    col = [nf + i if i in kept else i for i in range(nf)]
    reduced = np.einsum(rho.matrix.reshape(dims + dims), list(range(nf)) + col, kept + [nf + i for i in kept])
    kdims = tuple(dims[i] for i in kept)
    space = TruncatedFockSpace(kdims)
    return DensityOperator(space, reduced.reshape(space.total_dim, space.total_dim), rho.tail_weight)


def _transpose_factor(m: np.ndarray, dims: tuple[int, ...], factor: int) -> np.ndarray:
    """Partial transpose of one factor, for each matrix of a stack (..., d, d) too."""
    nf, lead = len(dims), m.ndim - 2
    if not 0 <= factor < nf:
        raise IndexError(f"factor {factor} out of range for {nf} factors")
    perm = list(range(lead + 2 * nf))
    perm[lead + factor], perm[lead + nf + factor] = lead + nf + factor, lead + factor
    return m.reshape(m.shape[:-2] + dims + dims).transpose(perm).reshape(m.shape)


def _component_labels(u: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """Smallest node of each node's connected component, over the edges u[i] -- v[i].

    Each round, every node takes the smallest label among its own and its
    neighbours', and labels are then followed until each names itself;
    rounds repeat until no label moves.
    """
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, u, label[v])
        np.minimum.at(low, v, label[u])
        while not np.array_equal(low, low[low]):
            low = low[low]
        if np.array_equal(low, label):
            return label
        label = low


def _components_by_size(label: np.ndarray) -> list[np.ndarray]:
    """One (components, k) index array per component size k of ``label``, sizes ascending.

    Components of one size follow their labels; each component's indices ascend.
    """
    width = np.bincount(label)[label]  # the size of each index's component
    # by size, then by component, each component's indices ascending
    order = np.argsort(width * len(label) + label, kind="stable")
    # the sizes present from bincount: np.unique's first call imports numpy.ma (about 1.7 MB)
    return [order[width[order] == k].reshape(-1, k) for k in np.flatnonzero(np.bincount(width)).tolist()]
