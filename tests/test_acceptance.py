"""End-to-end acceptance battery.

One test per numbered criterion below; run ``pytest -v tests/test_acceptance.py``
for the checklist (add ``-s`` to see the printed deviation figures).  The
criterion-1 grid is computed once, with both engines, and reused by the
criteria that inspect the same states.
"""

import math
import time

import numpy as np
import pytest

from cvqubits.analytic import negativity_closed_form, xstate_series
from cvqubits.cli import main
from cvqubits.entanglement import negativity_general
from cvqubits.fieldprep import (
    CouplingParam,
    SqueezeParam,
    TruncationPolicy,
    inject,
    inject_oracle,
    squeezed_state,
)
from cvqubits.jcdynamics import AtomState, evolve, reduce_atoms_direct, total_excitation
from cvqubits.sweep import CSV_HEADER, SweepConfig, preset_config, run_sweep
from cvqubits.tensorops import DensityOperator, TruncatedFockSpace

S_SET = [0.3, 0.65, 1.0]
R_SET = [0.0, 0.25, 0.7, 0.99]
LT_SET = [float(k) for k in range(16)]
INITIALS = ["gg", "ee"]

ENGINE_TOL = 1e-8
MEASURE_TOL = 1e-10
INJECT_TOL = 1e-10
GRID_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="module")
def cross_engine_grid():
    """Both engines over s x r x initial x lambda_t; one record per point."""
    t0 = time.perf_counter()
    policy = TruncationPolicy()
    records = []
    for s in S_SET:
        n_max, _ = policy.resolve(SqueezeParam(s))
        psi = squeezed_state(SqueezeParam(s), policy)
        for r in R_SET:
            field = inject(psi, CouplingParam(r), s=SqueezeParam(s), policy=policy)
            for initial in INITIALS:
                for lt in LT_SET:
                    x = xstate_series(s, r, lt, n_max, initial)
                    rho = reduce_atoms_direct(AtomState(initial), field, lt)
                    records.append((s, r, initial, lt, x, rho))
    return records, time.perf_counter() - t0


def test_criterion_1_engines_agree_on_the_full_grid(cross_engine_grid):
    records, elapsed = cross_engine_grid
    assert len(records) == len(S_SET) * len(R_SET) * len(INITIALS) * len(LT_SET)
    worst, where = 0.0, None
    for s, r, initial, lt, x, rho in records:
        dev = float(np.max(np.abs(x.to_matrix() - rho.matrix)))
        dev = max(dev, abs(negativity_closed_form(x) - negativity_general(rho).measure))
        if dev > worst:
            worst, where = dev, (s, r, initial, lt)
    assert worst < ENGINE_TOL, f"worst deviation {worst:.3e} at {where}"
    assert elapsed < GRID_BUDGET_SECONDS, f"grid took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: {len(records)} points, worst deviation "
          f"{worst:.3e} < {ENGINE_TOL:.0e}, computed in {elapsed:.1f}s")


def test_criterion_2_injection_matches_beam_splitter_oracle():
    worst, where = 0.0, None
    for s in [0.0] + S_SET:
        policy = TruncationPolicy()
        psi = squeezed_state(SqueezeParam(s), policy)
        for r in R_SET:
            fast = inject(psi, CouplingParam(r), s=SqueezeParam(s), policy=policy)
            slow = inject_oracle(psi, CouplingParam(r), s=SqueezeParam(s), policy=policy)
            dev = float(np.max(np.abs(fast.rho.matrix - slow.rho.matrix)))
            if dev > worst:
                worst, where = dev, (s, r)
    assert worst < INJECT_TOL, f"worst deviation {worst:.3e} at {where}"
    print(f"\n[criterion 2] PASS: injection vs oracle worst element "
          f"deviation {worst:.3e} < {INJECT_TOL:.0e}")


def test_criterion_3_closed_measure_matches_spectral_measure(cross_engine_grid):
    records, _ = cross_engine_grid
    worst = 0.0
    for _, _, _, _, x, _ in records:
        closed = negativity_closed_form(x)
        spectral = negativity_general(
            DensityOperator(TruncatedFockSpace((2, 2)), x.to_matrix())
        ).measure
        worst = max(worst, abs(closed - spectral))
    assert worst < MEASURE_TOL
    print(f"\n[criterion 3] PASS: closed-form vs eigenvalue measure, "
          f"worst gap {worst:.3e} < {MEASURE_TOL:.0e}")


def test_criterion_4_squeezing_dependence_has_the_right_shape():
    rows = run_sweep(preset_config("fig2"))
    by_r = {}
    for row in rows:
        by_r.setdefault(row.r, []).append(row)
    curve = by_r[0.0]
    s_axis = [row.s for row in curve]
    m_axis = [row.measure for row in curve]
    peak = int(np.argmax(m_axis))

    # interior maximum at moderate squeezing, not a monotone rise
    assert 0.5 <= s_axis[peak] <= 0.8, f"peak at s={s_axis[peak]}"
    assert 0 < peak < len(m_axis) - 1
    assert m_axis[0] < m_axis[peak] and m_axis[-1] < m_axis[peak]
    assert s_axis[-1] == 2.0 and m_axis[-1] < m_axis[peak]

    # more reflection never helps at the reference point
    at_ref = {
        r: next(row.measure for row in series if row.s == 0.65 and row.lambda_t == 11.0)
        for r, series in by_r.items()
    }
    assert at_ref[0.0] >= at_ref[0.25] - 1e-10
    assert at_ref[0.25] >= at_ref[0.7] - 1e-10
    print(f"\n[criterion 4] PASS: peak at s={s_axis[peak]} (measure {m_axis[peak]:.6f}), "
          f"tail value {m_axis[-1]:.6f}; ordering at s=0.65: "
          f"{at_ref[0.0]:.4f} >= {at_ref[0.25]:.4f} >= {at_ref[0.7]:.4f}")


def _analytic_curve(s, r, initial, lts, n_max):
    return [negativity_closed_form(xstate_series(s, r, lt, n_max, initial)) for lt in lts]


def test_criterion_5a_entanglement_survives_strong_reflection():
    n_max, _ = TruncationPolicy().resolve(SqueezeParam(0.65))
    lts = np.linspace(0.0, 15.0, 151)
    curve = _analytic_curve(0.65, 0.99, "gg", lts, n_max)
    best = int(np.argmax(curve))
    assert curve[best] > 1e-4, f"max measure {curve[best]:.3e}"
    print(f"\n[criterion 5a] PASS: r=0.99 still reaches measure "
          f"{curve[best]:.3e} at lambda_t={lts[best]:.1f}")


def test_criterion_5b_excited_preparation_entangles_later():
    n_max, _ = TruncationPolicy().resolve(SqueezeParam(0.65))
    lts = np.linspace(0.0, 15.0, 151)

    def onset(initial):
        curve = _analytic_curve(0.65, 0.0, initial, lts, n_max)
        for lt, m in zip(lts, curve):
            if m > 1e-3:
                return float(lt)
        raise AssertionError(f"{initial} never crossed 1e-3")

    assert onset("ee") > onset("gg")
    print(f"\n[criterion 5b] PASS: onset gg at lambda_t={onset('gg'):.1f}, "
          f"ee later at lambda_t={onset('ee'):.1f}")


def test_criterion_5c_late_time_revival_near_eleven():
    n_max, _ = TruncationPolicy().resolve(SqueezeParam(0.65))
    lts = np.arange(10.0, 12.0 + 1e-9, 0.01)
    curve = _analytic_curve(0.65, 0.0, "gg", lts, n_max)
    peak = int(np.argmax(curve))
    assert 0 < peak < len(curve) - 1, "maximum sits on the window edge"
    assert curve[peak - 1] <= curve[peak] >= curve[peak + 1]
    assert abs(lts[peak] - 11.0) <= 0.5, f"local max at lambda_t={lts[peak]:.2f}"
    print(f"\n[criterion 5c] PASS: local maximum at lambda_t={lts[peak]:.2f}, "
          f"measure {curve[peak]:.6f}")


def test_criterion_6_no_squeezing_means_no_entanglement():
    policy = TruncationPolicy()
    n_max, _ = policy.resolve(SqueezeParam(0.0))
    psi = squeezed_state(SqueezeParam(0.0), policy)
    worst = 0.0
    for r in R_SET:
        field = inject(psi, CouplingParam(r), s=SqueezeParam(0.0), policy=policy)
        for initial in INITIALS:
            for lt in LT_SET:
                worst = max(worst, negativity_closed_form(xstate_series(0.0, r, lt, n_max, initial)))
                worst = max(
                    worst,
                    negativity_general(reduce_atoms_direct(AtomState(initial), field, lt)).measure,
                )
    assert worst < 1e-12
    print(f"\n[criterion 6] PASS: s=0 measure stays below 1e-12 on both engines "
          f"(worst {worst:.3e})")


def test_criterion_7_states_stay_physical_and_conserve_excitation(cross_engine_grid):
    records, _ = cross_engine_grid
    for s, r, initial, lt, _, rho in records:
        rho.validate(herm_tol=1e-10, psd_floor=-1e-10, trace_tol=1e-10)

    worst_drift = 0.0
    checks = [(0.3, 0.25, lt, ini) for lt in (1.0, 5.0, 11.0) for ini in INITIALS]
    checks.append((0.65, 0.0, 11.0, "gg"))
    for s, r, lt, initial in checks:
        policy = TruncationPolicy()
        field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r),
                       s=SqueezeParam(s), policy=policy)
        before = evolve(AtomState(initial), field, 0.0)
        after = evolve(AtomState(initial), field, lt)
        after.rho.validate(herm_tol=1e-10, psd_floor=-1e-10, trace_tol=1e-10)
        worst_drift = max(
            worst_drift, abs(total_excitation(after.rho) - total_excitation(before.rho))
        )
    assert worst_drift < 1e-9
    print(f"\n[criterion 7] PASS: {len(records)} reduced + {len(checks)} composite "
          f"states valid; worst excitation drift {worst_drift:.3e} < 1e-9")


def test_criterion_8_measure_is_stable_under_cutoff_doubling():
    n_max, _ = TruncationPolicy().resolve(SqueezeParam(1.0))
    drift = 0.0
    for initial in ("gg", "ee"):
        base = negativity_closed_form(xstate_series(1.0, 0.0, 11.0, n_max, initial))
        double = negativity_closed_form(xstate_series(1.0, 0.0, 11.0, 2 * n_max, initial))
        drift = max(drift, abs(double - base))
    assert drift < 1e-8
    print(f"\n[criterion 8] PASS: doubling the cutoff ({n_max} -> {2 * n_max}) "
          f"moves the measure by {drift:.3e} < 1e-8")


def test_criterion_9_preset_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "one.csv", tmp_path / "two.csv"
    assert main(["preset", "fig3", "--out", str(first)]) == 0
    assert main(["preset", "fig3", "--out", str(second)]) == 0
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    lines = blob.decode().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 1 * 4 * 2 * 151
    print(f"\n[criterion 9] PASS: two preset runs produced identical "
          f"{len(blob)}-byte files ({len(lines) - 1} rows)")
