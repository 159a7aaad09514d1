"""Property tests over randomly drawn parameters (hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cvqubits.analytic import negativity_closed_form, xstate_series  # noqa: E402
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


@settings(max_examples=60, deadline=None)
@given(
    s=st.floats(0.0, 1.5),
    r=st.floats(0.0, 1.0),
    n_max=st.integers(1, 8),
    lts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6),
    initial=st.sampled_from(["gg", "ee"]),
)
def test_series_measure_is_bounded_and_vanishes_without_shared_light(s, r, n_max, lts, initial):
    measure = negativity_closed_form(xstate_series(s, r, lts, n_max, initial))
    assert np.all((measure >= 0.0) & (measure <= 1.0))
    # full reflection (r = 1) or no squeezing (s = 0) leaves nothing to share: exactly +0.0
    for s_, r_ in ((s, 1.0), (0.0, r)):
        for m in negativity_closed_form(xstate_series(s_, r_, lts, n_max, initial)).tolist():
            assert m == 0.0 and math.copysign(1.0, m) == 1.0, (s_, r_)
