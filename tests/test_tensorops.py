import copy
import mmap
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from cvqubits.tensorops import (
    DensityOperator,
    StateVector,
    TruncatedFockSpace,
    kron,
    partial_trace,
)
from cvqubits.tensorops import HERM_TOL_BUILT, PSD_FLOOR, _transpose_factor, _violations, _zeros
from cvqubits.tensorops import _component_labels, _components_by_size

RNG = np.random.default_rng(20260815)


def random_density(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


def random_hermitian(dim, rng=RNG):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------- containers


def test_space_dims():
    space = TruncatedFockSpace((2, 2, 5))
    assert space.factor_dims == (2, 2, 5)
    assert space.total_dim == 20


def test_state_vector_norm_and_density():
    space = TruncatedFockSpace((3,))
    psi = StateVector(space, np.array([1.0, 1.0j, 0.0]) / np.sqrt(2))
    assert psi.norm_sq() == pytest.approx(1.0)
    rho = psi.density()
    np.testing.assert_allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    psi.validate()


def test_state_vector_declared_deficit():
    space = TruncatedFockSpace((2,))
    # norm^2 = 0.9 must match 1 - tail_weight
    good = StateVector(space, [np.sqrt(0.9), 0.0], tail_weight=0.1)
    good.validate()
    bad = StateVector(space, [np.sqrt(0.9), 0.0], tail_weight=0.0)
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize(
    "amps,tail",
    [([np.nan, 0.0], 0.0), ([np.inf, 0.0], 0.0), ([1.0, 0.0], np.nan), ([np.sqrt(0.9), 0.0], np.inf)],
    ids=["nan-amplitude", "inf-amplitude", "nan-tail", "inf-tail"],
)
def test_state_vector_validate_refuses_values_that_are_not_finite(amps, tail):
    # NaN compares False against the tolerance; validate must not read that as a pass
    with pytest.raises(ValueError, match="norm deficit"):
        StateVector(TruncatedFockSpace((2,)), amps, tail_weight=tail).validate()


def test_state_vector_shape_mismatch():
    with pytest.raises(ValueError):
        StateVector(TruncatedFockSpace((4,)), np.zeros(3))


def test_density_operator_validate():
    space = TruncatedFockSpace((4,))
    rho = DensityOperator(space, random_density(4))
    rho.validate()

    m = rho.matrix.copy()
    m[0, 1] += 1e-6
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(space, m).validate()

    with pytest.raises(ValueError, match="trace"):
        DensityOperator(space, 2.0 * rho.matrix).validate()

    proj = np.zeros((4, 4), dtype=complex)
    proj[0, 0], proj[1, 1] = 1.5, -0.5
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOperator(space, proj).validate()


def test_density_trace_accepts_truncation_deficit():
    space = TruncatedFockSpace((2,))
    m = np.diag([0.6, 0.3]).astype(complex)  # trace 0.9
    DensityOperator(space, m, tail_weight=0.1).validate()
    with pytest.raises(ValueError):
        DensityOperator(space, m, tail_weight=0.0).validate()


# ---------------------------------------------------------------------- kron


def test_kron_matches_index_loops():
    da, db = 3, 4
    ma, mb = random_density(da), random_density(db)
    a = DensityOperator(TruncatedFockSpace((da,)), ma)
    b = DensityOperator(TruncatedFockSpace((db,)), mb)
    out = kron(a, b)
    assert out.space.factor_dims == (da, db)
    for i in range(da):
        for j in range(db):
            for k in range(da):
                for l in range(db):
                    assert out.matrix[i * db + j, k * db + l] == pytest.approx(ma[i, k] * mb[j, l])


def test_kron_vectors_and_tail_combination():
    pa = StateVector(TruncatedFockSpace((2,)), [np.sqrt(0.8), 0.0], tail_weight=0.2)
    pb = StateVector(TruncatedFockSpace((2,)), [np.sqrt(0.5), 0.0], tail_weight=0.5)
    out = kron(pa.density(), pb.density())
    # survival probabilities multiply
    assert out.tail_weight == pytest.approx(1.0 - 0.8 * 0.5)
    out.validate()


def test_kron_rejects_mixed_kinds():
    psi = StateVector(TruncatedFockSpace((2,)), [1.0, 0.0])
    rho = psi.density()
    with pytest.raises(TypeError):
        kron(psi, rho)
    with pytest.raises(TypeError):
        kron(psi, psi)


def _atom_factors():
    one_entry = np.zeros((4, 4), dtype=complex)
    one_entry[3, 3] = 1.0  # |g,g><g,g|
    superposition = StateVector(TruncatedFockSpace((4,)), 0.5 * np.array([1, 1j, -1, 1j])).density().matrix
    rng = np.random.default_rng(2323)
    sparse = (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))) * (rng.random((4, 4)) < 0.4)
    return {"one-entry": one_entry, "superposition": superposition, "sparse": sparse}


ATOM_FACTORS = _atom_factors()


def _field_factor():
    # negative real and imaginary parts, so 0 * b would carry sign bits
    b = random_density(5, np.random.default_rng(2324))
    assert (b.real < 0).any() and (b.imag < 0).any()
    return b


def _blocks(m, shape_a, shape_b):
    (ra, ca), (rb, cb) = shape_a, shape_b
    return m.reshape(ra, rb, ca, cb).transpose(0, 2, 1, 3)  # [i, k] is block (i, k)


@pytest.mark.parametrize("name", sorted(ATOM_FACTORS))
def test_kron_equals_numpy_kron(name):
    ma, mb = ATOM_FACTORS[name], _field_factor()
    out = kron(DensityOperator(TruncatedFockSpace((4,)), ma), DensityOperator(TruncatedFockSpace((5,)), mb))
    want = np.kron(ma, mb)
    assert out.matrix.dtype == want.dtype and np.array_equal(out.matrix, want)
    # the blocks under nonzero entries of a are numpy's product, bit for bit
    nonzero = ma != 0
    got_blocks, want_blocks = _blocks(out.matrix, ma.shape, mb.shape), _blocks(want, ma.shape, mb.shape)
    assert np.array_equal(got_blocks[nonzero].view(np.uint64), want_blocks[nonzero].view(np.uint64))


@pytest.mark.parametrize("name", ["one-entry", "sparse"])
def test_kron_leaves_positive_zero_blocks_under_zero_entries(name):
    ma, mb = ATOM_FACTORS[name], _field_factor()
    for b in (mb, np.where(np.eye(5, dtype=bool), np.nan, mb)):
        out = kron(DensityOperator(TruncatedFockSpace((4,)), ma), DensityOperator(TruncatedFockSpace((5,)), b))
        zero_blocks = _blocks(out.matrix, ma.shape, b.shape)[ma == 0]
        # exact +0.0: no sign bit and no NaN from b, where np.kron leaves both
        assert not zero_blocks.view(np.uint64).any()


def run_fresh(script):
    """Run ``script`` in a fresh interpreter on this checkout and return the integers it prints.

    The script may call ``rss_bytes()``, the process's resident size read
    from /proc/self/status.  tracemalloc counts allocations, not the pages
    behind them, and no ``mmap`` at all, so footprints are read this way.
    """
    prelude = """
def rss_bytes():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith("VmRSS:"))
"""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", prelude + script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return [int(word) for word in proc.stdout.split()]


needs_vmrss = pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="VmRSS is read from /proc/self/status"
)

KRON_FOOTPRINT = """
from cvqubits.fieldprep import CouplingParam, SqueezeParam, TruncationPolicy, inject, squeezed_state
from cvqubits.jcdynamics import AtomState
from cvqubits.tensorops import DensityOperator, TruncatedFockSpace, kron

field = inject(squeezed_state(SqueezeParam(0.65), TruncationPolicy()), CouplingParam(0.0)).rho
atoms = DensityOperator(TruncatedFockSpace((2, 2)), AtomState("gg").density())
before = rss_bytes()
out = kron(atoms, field)
print(rss_bytes() - before, out.matrix.nbytes, out.matrix.shape[0])
"""


@needs_vmrss
def test_kron_backs_only_the_pages_of_its_written_blocks():
    # |g,g><g,g| (x) field at s = 0.65 writes one of 16 blocks; the other pages
    # are never touched, so the process grows by much less than the output
    grown, nbytes, dim = run_fresh(KRON_FOOTPRINT)
    assert dim == 4 * 441
    # about 5 MB for the one block's pages (13 MB from np.zeros); np.kron's dense write adds about 47.5 MB
    assert grown < nbytes / 2


def _owner(a):
    """The object at the end of an array's chain of bases."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    return a


@pytest.mark.parametrize("shape", [(1,), (2116, 2116)])
def test_zeros_are_ordinary_complex_zeros_in_a_private_mapping(shape):
    z = _zeros(shape)
    assert z.shape == shape and z.dtype == np.complex128
    assert z.flags.c_contiguous and z.flags.writeable
    assert isinstance(_owner(z), mmap.mmap)
    assert not z.view(np.uint64).any()  # +0.0 throughout
    z.flat[-1] = 1 - 2j
    for copied in [pickle.loads(pickle.dumps(z, protocol=p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)] + [
        copy.deepcopy(z)
    ]:
        assert type(copied) is np.ndarray and not isinstance(_owner(copied), mmap.mmap)
        assert copied.dtype == z.dtype and np.array_equal(copied, z)


# ------------------------------------------------------------- partial trace


def naive_partial_trace(m, dims, keep):
    """Direct summation over the traced indices, one element at a time."""
    nf = len(dims)
    kept = sorted(keep)
    traced = [i for i in range(nf) if i not in kept]
    kdims = [dims[i] for i in kept]
    out = np.zeros((int(np.prod(kdims)), int(np.prod(kdims))), dtype=complex)
    tens = m.reshape(tuple(dims) + tuple(dims))
    for row in np.ndindex(*kdims):
        for col in np.ndindex(*kdims):
            total = 0.0
            for t in np.ndindex(*(dims[i] for i in traced)):
                idx_r = [0] * nf
                idx_c = [0] * nf
                for pos, i in enumerate(kept):
                    idx_r[i], idx_c[i] = row[pos], col[pos]
                for pos, i in enumerate(traced):
                    idx_r[i] = idx_c[i] = t[pos]
                total += tens[tuple(idx_r) + tuple(idx_c)]
            out[np.ravel_multi_index(row, kdims), np.ravel_multi_index(col, kdims)] = total
    return out


@pytest.mark.parametrize("keep", [{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}])
def test_partial_trace_matches_naive(keep):
    dims = (2, 3, 2)
    rho = DensityOperator(TruncatedFockSpace(dims), random_density(12))
    got = partial_trace(rho, keep)
    np.testing.assert_allclose(got.matrix, naive_partial_trace(rho.matrix, dims, keep), atol=1e-14)
    assert got.trace() == pytest.approx(rho.trace())


def test_partial_trace_of_product_state():
    ma, mb = random_density(3), random_density(4)
    rho = kron(
        DensityOperator(TruncatedFockSpace((3,)), ma),
        DensityOperator(TruncatedFockSpace((4,)), mb),
    )
    np.testing.assert_allclose(partial_trace(rho, {0}).matrix, ma, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, {1}).matrix, mb, atol=1e-14)


def test_partial_trace_keep_everything_and_errors():
    rho = DensityOperator(TruncatedFockSpace((2, 3)), random_density(6))
    assert partial_trace(rho, {0, 1}) is rho
    with pytest.raises(ValueError):
        partial_trace(rho, set())
    with pytest.raises(IndexError):
        partial_trace(rho, {2})


# --------------------------------------------------------- partial transpose


def bell_density():
    psi = np.zeros(4)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi)


def test_partial_transpose_bell_spectrum():
    pt = _transpose_factor(bell_density(), (2, 2), 1)
    w = np.sort(np.linalg.eigvalsh(pt))
    np.testing.assert_allclose(w, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_partial_transpose_is_involution():
    rho = random_density(6)
    again = _transpose_factor(_transpose_factor(rho, (2, 3), 0), (2, 3), 0)
    np.testing.assert_allclose(again, rho)


def test_partial_transpose_elementwise():
    rho = random_density(4)
    pt = _transpose_factor(rho, (2, 2), 0)
    t = rho.reshape(2, 2, 2, 2)
    for i, j, k, l in np.ndindex(2, 2, 2, 2):
        assert pt.reshape(2, 2, 2, 2)[i, j, k, l] == t[k, j, i, l]
    # each matrix of a stack is transposed on its own
    stack = np.stack([rho, random_density(4)])
    pt_stack = _transpose_factor(stack, (2, 2), 0)
    assert np.array_equal(pt_stack[0], pt)
    assert np.array_equal(pt_stack[1], _transpose_factor(stack[1], (2, 2), 0))


def test_partial_transpose_factor_range():
    with pytest.raises(IndexError):
        _transpose_factor(random_density(4), (2, 2), 2)


# ----------------------------------------------------------------- sectors


def permuted_blocks(blocks, rng=RNG):
    """Block-diagonal matrix of ``blocks`` under a random symmetric permutation."""
    dim = sum(len(b) for b in blocks)
    m = np.zeros((dim, dim), dtype=complex)
    at = 0
    for b in blocks:
        m[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    perm = rng.permutation(dim)
    return m[np.ix_(perm, perm)]


def components(m):
    """Index sets of the connected components of m's exact nonzero pattern, smallest index first."""
    groups = _components_by_size(_component_labels(*np.nonzero(m), len(m)))
    return sorted((c for idx in groups for c in idx), key=lambda c: c[0])


def test_components_come_grouped_by_size_then_label():
    # sizes ascend, components of one size follow their smallest index, and
    # each component's indices ascend
    h = permuted_blocks([random_hermitian(d) for d in (1, 3, 2, 5, 1, 4)])
    label = _component_labels(*np.nonzero(h), len(h))
    groups = _components_by_size(label)
    assert [idx.shape for idx in groups] == [(2, 1), (1, 2), (1, 3), (1, 4), (1, 5)]
    for idx in groups:
        assert np.all(np.diff(idx, axis=1) > 0)
        assert np.all(np.diff(label[idx[:, 0]]) > 0)
        assert np.all(label[idx] == idx[:, :1])  # each component is labelled by its smallest index
    assert np.array_equal(np.sort(np.concatenate([idx.ravel() for idx in groups])), np.arange(len(h)))


def test_component_pattern_is_exact():
    # a single 1e-200 link joins two blocks: no threshold may split them
    h = permuted_blocks([random_hermitian(3), random_hermitian(4)], rng=np.random.default_rng(5))
    assert len(components(h)) == 2
    i, j = np.flatnonzero(h[0] != 0)[0], np.flatnonzero(h[0] == 0)[0]
    h[i, j] = h[j, i] = 1e-200
    assert len(components(h)) == 1


def test_sectors_are_the_connected_components_of_one_sided_chains():
    # each chain runs through scrambled indices, and each link is set as
    # m[i, j] only, never m[j, i]: links must count both ways, and a chain's
    # smallest index can sit anywhere along it
    chains = np.split(np.random.default_rng(4).permutation(40), [17, 18, 30])
    m = np.zeros((40, 40))
    for chain in chains:
        m[chain[:-1], chain[1:]] = 1.0
    want = sorted((np.sort(c) for c in chains), key=lambda c: c[0])
    got = components(m)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def test_dense_hermitian_is_one_sector():
    blocks = components(random_hermitian(7))
    assert len(blocks) == 1
    np.testing.assert_array_equal(blocks[0], np.arange(7))


def test_validate_finds_negative_eigenvalue_in_one_block():
    rng = np.random.default_rng(11)
    bad = np.diag([0.6, 0.6, -0.2]).astype(complex)  # one negative level, trace 1
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    parts = [0.5 * random_density(4, rng), 0.5 * (q @ bad @ q.conj().T), 0.0 * random_density(2, rng)]
    m = permuted_blocks(parts, rng)
    m = (m + m.conj().T) / 2.0
    assert len(components(m)) >= 2
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityOperator(TruncatedFockSpace((m.shape[0],)), m).validate()


def reference_smallest_eigenvalues(stack):
    """Smallest eigenvalue of each matrix of a stack, one eigvalsh per component and matrix.

    The components are those of the union pattern of the stack's Hermitian
    parts, each taken with its indices ascending.  Kept as the literal
    per-component loop that _violations' stacked eigensolves are held to,
    bit for bit.
    """
    pattern = np.any((stack.conj().swapaxes(1, 2) + stack) * 0.5 != 0, axis=0)
    count, label = connected_components(csr_matrix(pattern), directed=False)
    out = []
    for m in stack:
        low = np.inf
        for c in range(count):
            b = np.flatnonzero(label == c)
            block = m[np.ix_(b, b)]
            low = min(low, np.linalg.eigvalsh((block.conj().T + block) * 0.5)[0])
        out.append(low)
    return out, count, {int(np.sum(label == c)) for c in range(count)}


def sparse_hermitian_stack(rng, sizes, count):
    """``count`` Hermitian matrices of trace 1, each nonzero only inside blocks of ``sizes``.

    The blocks sit on shuffled indices, and about a quarter of each
    matrix's entries inside them are zero, so the union pattern is what
    joins them.
    """
    dim = int(sum(sizes))
    perm = rng.permutation(dim)
    stack = np.zeros((count, dim, dim), dtype=complex)
    at = 0
    for k in sizes:
        idx = np.ix_(perm[at : at + k], perm[at : at + k])
        at += k
        for m in stack:
            a = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            a[rng.random((k, k)) < 0.25] = 0.0
            m[idx] = a + a.conj().T
    for m in stack:
        m[perm[0], perm[0]] += 1.0 - np.trace(m).real
    return stack


def assert_smallest_eigenvalues_exact(stack, monkeypatch):
    # psd_floor at the reference passes and one ulp above it fails, so the
    # eigenvalue _violations finds is the reference's to the last bit; it
    # takes one eigvalsh per component size
    ref, _, widths = reference_smallest_eigenvalues(stack)
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    for t, w in enumerate(ref):
        calls.clear()
        assert _violations(stack, 0.0, HERM_TOL_BUILT, w, 1e-12)[t] is None
        assert len(calls) == len(widths)
        above = np.nextafter(w, np.inf)
        assert _violations(stack, 0.0, HERM_TOL_BUILT, above, 1e-12)[t] == f"negative eigenvalue {w:.3e}"
    return ref


@pytest.mark.parametrize("seed", range(12))
def test_stacked_eigensolves_match_one_per_component_bit_for_bit(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    sizes = rng.choice([1, 2, 2, 3, 4, 6], size=rng.integers(2, 8))
    assert_smallest_eigenvalues_exact(sparse_hermitian_stack(rng, sizes, int(rng.integers(1, 6))), monkeypatch)


def test_stacked_eigensolves_find_a_negative_eigenvalue_in_one_block_of_one_matrix(monkeypatch):
    # two block-diagonal states over components of sizes 2, 3, 2 and 3; only
    # the second state's last size-3 block has a negative eigenvalue
    rng = np.random.default_rng(41)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    weights = [0.3, 0.2, 0.2, 0.3]
    good = [w * random_density(k, rng) for w, k in zip(weights, [2, 3, 2, 3])]
    bad = good[:3] + [0.3 * (q @ np.diag([0.6, 0.6, -0.2]) @ q.conj().T)]
    stack = np.stack([block_diag(*good), block_diag(*bad)])
    ref = assert_smallest_eigenvalues_exact(stack, monkeypatch)
    assert reference_smallest_eigenvalues(stack)[1:] == (4, {2, 3})
    assert ref[0] > 0.0 and ref[1] < PSD_FLOOR
    assert _violations(stack, 0.0, HERM_TOL_BUILT, PSD_FLOOR, 1e-12) == [None, f"negative eigenvalue {ref[1]:.3e}"]


def test_validate_rejects_nan_off_diagonal():
    m = random_density(4)
    m[0, 2] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(TruncatedFockSpace((4,)), m).validate()
    m[2, 0] = np.nan  # a NaN pair looks Hermitian-symmetric
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(TruncatedFockSpace((4,)), m).validate()


def test_validate_holds_one_extra_copy():
    # a 1024-dim state of 32 blocks, as the injected fields are: one full-size
    # copy (m^dagger, turned into the Hermitian part in place) and row-block
    # temporaries, never the three full-size arrays of m - m^dagger and (m + m^dagger)/2
    blocks = random_density(32, np.random.default_rng(5))
    m = np.kron(np.eye(32), blocks) / 32.0
    before = m.copy()
    rho = DensityOperator(TruncatedFockSpace((1024,)), m)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rho.validate()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m.nbytes
    np.testing.assert_array_equal(rho.matrix, before)
    m[1023, 1000] += 1e-9  # a deviation seen only from the last rows
    with pytest.raises(ValueError, match="Hermitian"):
        DensityOperator(TruncatedFockSpace((1024,)), m).validate()


def test_validate_catches_a_one_sided_entry_between_sectors():
    # the 32-block state of the test above with one entry whose transposed
    # partner is exactly 0, joining the first block to the last: only the
    # entry itself is in the nonzero pattern, and it must still count
    blocks = random_density(32, np.random.default_rng(5))
    m = np.kron(np.eye(32), blocks) / 32.0
    DensityOperator(TruncatedFockSpace((1024,)), m).validate()
    m[0, 1023] = 1e-9
    assert m[1023, 0] == 0.0
    with pytest.raises(ValueError, match="not Hermitian: max deviation 1.000e-09"):
        DensityOperator(TruncatedFockSpace((1024,)), m).validate()

