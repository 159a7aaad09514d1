import math

import numpy as np
import pytest

from cvqubits.entanglement import NEGATIVITY_TOL, EntanglementReport, negativity_general
from cvqubits.tensorops import DensityOperator, TruncatedFockSpace, _transpose_factor, kron

RNG = np.random.default_rng(7)

TWO_QUBITS = TruncatedFockSpace((2, 2))


def qubit_density(rng=RNG):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = a @ a.conj().T
    return DensityOperator(TruncatedFockSpace((2,)), m / np.trace(m))


def bell(phase=1.0):
    psi = np.array([1.0, 0.0, 0.0, phase]) / np.sqrt(2.0)
    return DensityOperator(TWO_QUBITS, np.outer(psi, psi.conj()))


def test_product_state_has_no_entanglement():
    report = negativity_general(kron(qubit_density(), qubit_density()))
    assert report.measure == 0.0
    assert not report.is_entangled
    assert report.min_eigenvalue >= -NEGATIVITY_TOL


def test_bell_state_is_maximal():
    report = negativity_general(bell())
    assert report.measure == pytest.approx(1.0, abs=1e-12)
    assert report.is_entangled
    np.testing.assert_allclose(np.sort(report.pt_eigenvalues), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert report.min_eigenvalue == pytest.approx(-0.5)


def test_report_spectrum_is_ascending_and_traceful():
    report = negativity_general(bell(-1.0))
    assert np.all(np.diff(report.pt_eigenvalues) >= 0)
    assert np.sum(report.pt_eigenvalues) == pytest.approx(1.0, abs=1e-12)


def test_transposing_either_side_gives_same_spectrum():
    # PT spectra of the two sides coincide for any state
    for _ in range(5):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = a @ a.conj().T
        rho = DensityOperator(TWO_QUBITS, m / np.trace(m))
        wa = np.linalg.eigvalsh(_transpose_factor(rho.matrix, (2, 2), 0))
        wb = np.linalg.eigvalsh(_transpose_factor(rho.matrix, (2, 2), 1))
        np.testing.assert_allclose(np.sort(wa), np.sort(wb), atol=1e-12)


def test_separable_mixtures_stay_at_zero():
    for _ in range(10):
        weights = RNG.dirichlet(np.ones(4))
        m = sum(
            w * kron(qubit_density(), qubit_density()).matrix for w in weights
        )
        report = negativity_general(DensityOperator(TWO_QUBITS, m))
        assert report.measure == 0.0
        assert report.min_eigenvalue >= -NEGATIVITY_TOL


def test_measure_bounded_for_random_states():
    for _ in range(10):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = a @ a.conj().T
        report = negativity_general(DensityOperator(TWO_QUBITS, m / np.trace(m)))
        assert 0.0 <= report.measure <= 1.0 + 1e-12


def test_accepts_bare_matrix():
    got = negativity_general(bell().matrix)
    assert isinstance(got, EntanglementReport)
    assert got.measure == pytest.approx(1.0, abs=1e-12)


def test_rejects_non_two_qubit_input():
    rho = DensityOperator(TruncatedFockSpace((4,)), np.eye(4, dtype=complex) / 4.0)
    with pytest.raises(ValueError):
        negativity_general(rho)
    with pytest.raises(ValueError):
        negativity_general(np.eye(3) / 3.0)


def test_mixing_bell_with_noise_decreases_measure():
    noise = np.eye(4, dtype=complex) / 4.0
    last = 1.0
    for p in (0.9, 0.7, 0.5, 0.4):
        m = p * bell().matrix + (1 - p) * noise
        measure = negativity_general(DensityOperator(TWO_QUBITS, m)).measure
        assert measure < last
        last = measure
    # below p = 1/3 the mixture is separable
    m = 0.2 * bell().matrix + 0.8 * noise
    assert negativity_general(DensityOperator(TWO_QUBITS, m)).measure == 0.0


def old_measure(m):
    """The measure of one 4x4 state as first written: a sum over the negative eigenvalues."""
    spectrum = np.linalg.eigvalsh(_transpose_factor(DensityOperator(TWO_QUBITS, m).matrix, (2, 2), 1))
    return max(0.0, -2.0 * float(spectrum[spectrum < 0.0].sum()))


def test_stack_equals_per_matrix_calls_bit_for_bit():
    # random mixed and separable states, a Bell state, and the oracle's own
    # stacks on the standard verify grid's largest cutoff
    from cvqubits.fieldprep import CouplingParam, SqueezeParam, TruncationPolicy, inject, squeezed_state
    from cvqubits.jcdynamics import AtomState, reduce_atoms_series

    states = [bell().matrix, np.eye(4, dtype=complex) / 4.0]
    for _ in range(6):
        a = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = a @ a.conj().T
        states.append(m / np.trace(m))
        states.append(kron(qubit_density(), qubit_density()).matrix)
    psi = squeezed_state(SqueezeParam(1.0), TruncationPolicy())
    for r in (0.0, 0.7):
        field = inject(psi, CouplingParam(r))
        for initial in ("gg", "ee"):
            states.extend(reduce_atoms_series(AtomState(initial), field, np.linspace(0.0, 15.0, 16)))
    got = negativity_general(np.stack(states))
    assert got.measure.shape == got.min_eigenvalue.shape == got.is_entangled.shape == (len(states),)
    for i, m in enumerate(states):
        one = negativity_general(m)
        assert got.pt_eigenvalues[i].tobytes() == one.pt_eigenvalues.tobytes()
        assert float(got.measure[i]).hex() == one.measure.hex() == old_measure(m).hex()
        assert got.min_eigenvalue[i] == one.min_eigenvalue
        assert got.is_entangled[i] == one.is_entangled


def test_zero_measure_is_positive_zero():
    # a spectrum without negative eigenvalues gives -2 * 0.0; the report holds +0.0
    separable = np.eye(4, dtype=complex) / 4.0
    assert math.copysign(1.0, negativity_general(separable).measure) == 1.0
    stack = negativity_general(np.stack([separable, bell().matrix, separable]))
    assert stack.measure[0] == stack.measure[2] == 0.0
    assert not np.signbit(stack.measure).any()


def random_hermitian(rng=RNG):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (a + a.conj().T) / 2.0


def test_negativity_general_spectrum_roundtrip():
    # the report holds the partial transpose's spectrum, ascending, for any
    # Hermitian input, a state or not
    h = random_hermitian()
    w = negativity_general(h).pt_eigenvalues
    assert np.all(np.diff(w) >= 0)
    pt = _transpose_factor(h, (2, 2), 1)
    w_ref, v = np.linalg.eigh(pt)
    np.testing.assert_allclose(w, w_ref, atol=1e-12)
    np.testing.assert_allclose(v @ np.diag(w) @ v.conj().T, pt, atol=1e-12)


def test_negativity_general_rejects_a_misshapen_or_tilted_matrix():
    with pytest.raises(ValueError):
        negativity_general(np.zeros((2, 3)))
    tilted = random_hermitian()
    tilted[0, 1] += 1e-8  # way past the 1e-10 gate
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian: max deviation 1\.000e-08$"):
        negativity_general(tilted)
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_general(np.stack([random_hermitian(), tilted]))


def test_rejects_a_nan_state():
    # LAPACK returns finite eigenvalues for a NaN matrix, which would read as measure 0
    m = np.eye(4, dtype=complex) / 4.0
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_general(m)
    with pytest.raises(ValueError, match="not Hermitian"):
        negativity_general(np.stack([bell().matrix, m]))
