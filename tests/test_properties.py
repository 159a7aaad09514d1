"""Property tests over randomly drawn parameters (hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cvqubits.fieldprep import (  # noqa: E402
    CouplingParam,
    SqueezeParam,
    TruncationPolicy,
    inject,
    inject_oracle,
    squeezed_state,
)


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 1.5),
    r=st.floats(0.0, 1.0),
    n_max=st.integers(1, 8),
)
def test_inject_oracle_agrees_with_inject(s, r, n_max):
    psi = squeezed_state(SqueezeParam(s), TruncationPolicy(n_max=n_max))
    slow = inject_oracle(psi, CouplingParam(r))
    fast = inject(psi, CouplingParam(r))
    assert np.max(np.abs(slow.rho.matrix - fast.rho.matrix)) <= 1e-12
    slow.rho.validate()
    assert slow.rho.trace().real == pytest.approx(1.0 - slow.tail_weight, abs=1e-12)
