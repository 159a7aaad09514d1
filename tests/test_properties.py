"""Property tests over randomly drawn parameters (hypothesis)."""

import math
from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cvqubits.analytic import negativity_closed_form, xstate_series  # noqa: E402
from cvqubits.entanglement import negativity_general  # noqa: E402
from cvqubits.fieldprep import (  # noqa: E402
    CouplingParam,
    SqueezeParam,
    TruncationPolicy,
    inject,
    inject_oracle,
    squeezed_state,
)
from cvqubits.jcdynamics import AtomState, evolve, reduce_atoms, reduce_atoms_series  # noqa: E402
from cvqubits.tensorops import PSD_FLOOR, _violations  # noqa: E402
from test_fieldprep import random_pair_state, reference_inject_oracle  # noqa: E402
from test_jcdynamics import reference_evolve  # noqa: E402


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


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    n_max=st.integers(1, 12),
    lts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6),
    initial=st.sampled_from(["gg", "ee"]),
)
def test_engines_agree_over_drawn_inputs(s, r, n_max, lts, initial):
    # the dense series on the injected field against the closed form, at the
    # same cutoff: every X element and the measure (verify's worst is 7.8e-16)
    field = inject(squeezed_state(SqueezeParam(s), TruncationPolicy(n_max=n_max)), CouplingParam(r))
    dense = reduce_atoms_series(AtomState(initial), field, lts)
    x = xstate_series(s, r, lts, n_max, initial)
    closed = negativity_closed_form(x)
    measure = negativity_general(dense).measure
    ours = np.stack((x.a, x.b, x.c, x.d, x.e_coh, closed), axis=1)
    theirs = np.column_stack((dense[:, [0, 1, 2, 3, 0], [0, 1, 2, 3, 3]].real, measure))
    assert np.max(np.abs(ours - theirs)) <= 1e-12
    # the dense states are physical on their own: trace 1 - tail, equal
    # cross populations, and every invariant verify checks, at its tolerances
    tail = x.tail_weight
    assert field.tail_weight == tail
    assert np.max(np.abs(np.trace(dense, axis1=1, axis2=2) - (1.0 - tail))) <= 1e-12
    assert np.max(np.abs(dense[:, 1, 1] - dense[:, 2, 2])) <= 1e-14
    assert _violations(dense, tail, herm_tol=1e-10, psd_floor=PSD_FLOOR, trace_tol=1e-10) == [None] * len(lts)
    assert np.all((measure >= 0.0) & (measure <= 1.0))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    n_max=st.integers(1, 12),
    lts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=6),
    initial=st.sampled_from(["gg", "ee"]),
)
def test_dense_measure_vanishes_without_shared_light(x, n_max, lts, initial):
    # full reflection (r = 1) or no squeezing (s = 0) leaves nothing to
    # share: the oracle's measure is exactly +0.0, as the closed form's is
    policy = TruncationPolicy(n_max=n_max)
    for s, r in ((x, 1.0), (0.0, x)):
        field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r))
        measure = negativity_general(reduce_atoms_series(AtomState(initial), field, lts)).measure
        for m in measure.tolist():
            assert m == 0.0 and math.copysign(1.0, m) == 1.0, (s, r)


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


@settings(max_examples=80, deadline=None)
@given(
    s=st.floats(0.0, 1.0),
    r=st.floats(0.0, 1.0),
    lt=st.floats(0.0, 20.0),
    initial=st.sampled_from(["gg", "ee"]),
)
def test_measure_stays_under_the_gaussian_bound(s, r, lt, initial):
    # the transits are local channels, which cannot raise the field's
    # negativity: the measure stays under 1/nu - 1, nu the smallest
    # symplectic eigenvalue of the partially transposed lossy squeezed
    # vacuum, and under the two-qubit maximum 1
    nu = (1.0 - r * r) * math.exp(-2.0 * s) + r * r
    n_max, _ = TruncationPolicy().resolve(s)
    measure = negativity_closed_form(xstate_series(s, r, [lt], n_max, initial))[0]
    assert measure <= min(1.0, 1.0 / nu - 1.0) + 1e-9
    # where nu = 1 (full reflection, or no squeezing) the bound is 0, and the measure exactly 0
    for s_, r_ in ((s, 1.0), (0.0, r)):
        n_max, _ = TruncationPolicy().resolve(s_)
        assert negativity_closed_form(xstate_series(s_, r_, [lt], n_max, initial))[0] == 0.0, (s_, r_)


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.0, 1.5),
    r=st.floats(0.0, 1.0),
    n_max=st.integers(1, 8),
    lts=st.lists(st.floats(0.0, 20.0), min_size=1, max_size=3),
    initial=st.sampled_from(["gg", "ee", "eg", "ge"]),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
)
def test_series_on_the_blocks_equals_the_composite_on_the_dense_view(s, r, n_max, lts, initial, seed):
    # the field's blocks against the dense evolution of its dense view: an
    # injected squeezed vacuum, or (with a seed) the oracle's field of a
    # random pair input, whose blocks mix values of nA - nB
    if seed is None:
        field = inject(squeezed_state(SqueezeParam(s), TruncationPolicy(n_max=n_max)), CouplingParam(r))
    else:
        psi = random_pair_state(seed, n_max + 1, sparsity=0.7)
        field = inject_oracle(psi, CouplingParam(r))
    atoms = AtomState(initial)
    stack = reduce_atoms_series(atoms, field, lts)
    for lt, got in zip(lts, stack):
        dense = reduce_atoms(evolve(atoms, field, lt)).matrix
        assert np.max(np.abs(got - dense)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    s=st.floats(0.0, 1.5),
    r=st.floats(0.0, 1.0),
    n_max=st.integers(1, 5),
    lt=st.floats(0.0, 20.0),
    initial=st.sampled_from(["gg", "ee", "eg", "superposition"]),
    seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    one_block=st.booleans(),
)
def test_composite_by_blocks_equals_the_literal_kron_on_the_dense_view(s, r, n_max, lt, initial, seed, one_block):
    # evolve reads the field's blocks; the reference forms kron(u, u) and
    # applies it to the dense view.  The field is an injected squeezed
    # vacuum or (with a seed) the oracle's field of a random pair input,
    # whose blocks mix values of nA - nB, and may be held as one block over
    # every index instead
    if seed is None:
        field = inject(squeezed_state(SqueezeParam(s), TruncationPolicy(n_max=n_max)), CouplingParam(r))
    else:
        psi = random_pair_state(seed, n_max + 1, sparsity=0.7)
        field = inject_oracle(psi, CouplingParam(r))
    if one_block:
        field = replace(field, blocks=((np.arange((n_max + 1) ** 2), field.rho.matrix),))
    atoms = AtomState(np.array([0.5, 0.5j, -0.5, 0.5j]) if initial == "superposition" else initial)
    for method in ("closed_form", "hamiltonian"):
        got = evolve(atoms, field, lt, method=method).rho.matrix
        assert np.max(np.abs(got - reference_evolve(atoms, field, lt, method))) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(
    r=st.floats(0.0, 1.0),
    n_max=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    sparsity=st.floats(0.0, 0.95),
)
def test_oracle_dense_view_equals_the_full_product_reference(r, n_max, seed, sparsity):
    psi = random_pair_state(seed, n_max + 1, sparsity)
    got = inject_oracle(psi, CouplingParam(r)).rho.matrix
    assert np.max(np.abs(got - reference_inject_oracle(psi, CouplingParam(r)))) <= 1e-12
