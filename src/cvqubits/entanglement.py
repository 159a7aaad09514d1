"""Partial-transpose entanglement detection for two qubits.

For a 2x2 system a negative eigenvalue of the partially transposed state is
both necessary and sufficient for entanglement, so the verdict here is
exact, and -2 times the sum of negative eigenvalues gives a measure scaled
to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensorops import DensityOperator, _transpose_factor

__all__ = ["EntanglementReport", "negativity_general"]

# below this the smallest eigenvalue is eigensolver noise, not physics
NEGATIVITY_TOL = 1e-10
# largest element-wise deviation from Hermiticity a state may carry into the spectrum
_HERM_TOL = 1e-10


@dataclass(frozen=True)
class EntanglementReport:
    """Verdict plus the raw spectrum, so near-threshold behaviour stays visible."""

    measure: float | np.ndarray
    pt_eigenvalues: np.ndarray  # ascending
    is_entangled: bool | np.ndarray
    min_eigenvalue: float | np.ndarray


def negativity_general(rho) -> EntanglementReport:
    """Measure and verdict from the partial-transpose spectrum.

    Accepts a (2, 2)-factored DensityOperator, a bare 4x4 matrix, or a
    (T, 4, 4) stack of them; for a stack each field of the report holds one
    entry per matrix.  The transpose is taken over the second qubit; which
    qubit is transposed does not change the spectrum.  Raises ValueError
    when any input deviates from Hermiticity by more than 1e-10 in any
    element, or holds a NaN; the spectrum is that of the Hermitian part.
    """
    if isinstance(rho, DensityOperator):
        if rho.space.factor_dims != (2, 2):
            raise ValueError(f"expected a two-qubit state, got factors {rho.space.factor_dims}")
        m = rho.matrix
    else:
        m = np.asarray(rho, dtype=complex)
        if m.ndim not in (2, 3) or m.shape[-2:] != (4, 4):
            raise ValueError(f"expected a 4x4 two-qubit state or a stack of them, got shape {m.shape}")

    pt = _transpose_factor(m, (2, 2), 1)
    adj = pt.conj().swapaxes(-1, -2)
    dev = float(np.max(np.abs(pt - adj), initial=0.0))
    if not dev <= _HERM_TOL:  # a NaN entry fails here too
        raise ValueError(f"matrix is not Hermitian: max deviation {dev:.3e}")
    spectrum = np.linalg.eigvalsh((pt + adj) / 2.0)
    negative = np.where(spectrum < 0.0, spectrum, 0.0).sum(axis=-1)
    # a NaN stays NaN; adding +0.0 turns -2 * 0.0 into +0.0
    measure = np.maximum(-2.0 * negative, 0.0) + 0.0
    lowest = spectrum[..., 0]
    return EntanglementReport(
        measure=measure,
        pt_eigenvalues=spectrum,
        is_entangled=lowest < -NEGATIVITY_TOL,
        min_eigenvalue=lowest,
    )
