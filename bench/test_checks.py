"""The benchmark's output checks count one broken output as one failed operation.

Run with ``PYTHONPATH=src python -m pytest -q bench/test_checks.py``.
"""

import io

import pytest

import checks
import child
from cvqubits import fieldprep
from cvqubits.sweep import preset_config, run_sweep, write_csv


@pytest.fixture(scope="module")
def fig3_csv():
    out = io.StringIO()
    write_csv(run_sweep(preset_config("fig3")), out)
    return out.getvalue()


def test_fig3_measure_raised_past_its_bound_is_one_failure(fig3_csv):
    points = checks.FIG3_POINTS
    picked = [10, 640]
    dense = dict(zip(picked, child.dense_measures([points[i] for i in picked])))
    assert checks.check_sweep(fig3_csv, 0, points, dense) == (1208, 0)

    lines = fig3_csv.splitlines()
    row = next(i for i, p in enumerate(points) if p[1] == 0.99 and p[3] == 5.0)
    fields = lines[row + 1].split(",")
    fields[4] = repr(checks.measure_bound(0.65, 0.99) + 1e-6)
    lines[row + 1] = ",".join(fields)
    assert checks.check_sweep("\n".join(lines) + "\n", 0, points, dense) == (1208, 1)


def _verify_report(fail_at=None) -> str:
    lines = []
    for i, (s, r, initial, lt) in enumerate(checks.VERIFY_POINTS):
        tail = "FAIL engines disagree by 2.000e-07" if i == fail_at else "ok"
        gap = "2.000e-07" if i == fail_at else "3.000e-16"
        lines.append(f"s={s:.12g} r={r:.12g} initial={initial} lambda_t={lt:.12g} "
                     f"n_max=20 disagreement={gap} {tail}")
    n = len(lines)
    verdict = "PASS" if fail_at is None else f"FAIL (1 of {n} points)"
    worst = "3.000e-16" if fail_at is None else "2.000e-07"
    lines.append(f"verification {verdict}: {n} points, worst disagreement {worst}")
    return "\n".join(lines) + "\n"


def test_verify_report_with_one_fail_line_is_one_failure():
    assert checks.check_verify(_verify_report(), 0) == (384, 0)
    assert checks.check_verify(_verify_report(fail_at=200), 3) == (384, 1)
    assert checks.check_verify(_verify_report(), 3) == (384, 384)


def test_referee_field_perturbed_by_1e9_is_one_failure(monkeypatch):
    orders = {"squeezing-outer": [(0.3, 0.25)]}
    composite = [(0.3, 0.25, 5.0, "ee", "hamiltonian")]
    ops = checks.referee_ops(orders, composite)
    records = []
    child.referee(records, orders, composite)
    assert checks.check_referee(records, 0, ops) == (6, 0)

    exact = fieldprep.inject_oracle

    def perturbed(*args, **kwargs):
        field = exact(*args, **kwargs)
        field.rho.matrix[3, 7] += 1e-9
        return field

    monkeypatch.setattr(fieldprep, "inject_oracle", perturbed)
    records = []
    child.referee(records, orders, composite)
    assert checks.check_referee(records, 0, ops) == (6, 1)
