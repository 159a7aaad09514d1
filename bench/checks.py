"""Workload grids and the output checks of the benchmark.

Everything here is plain Python and imports nothing from ``cvqubits``: the
grids are written out from the presets' documented definitions, and each
check rests on physics (the Gaussian negativity bound, limits, thermal
marginals, conservation) rather than on a stored copy of earlier output.
The one program-computed reference, the dense route of the sampled rows,
is produced by a separate process (see ``child.py``) and handed in.

Every check returns ``(attempted, failed)`` for one pass, where an
operation is one grid point (a CSV row or a ``verify`` line) or one
referee comparison.  A pass that exits nonzero fails every operation,
unless failing operations in its output already account for the exit.
"""

from __future__ import annotations

import math
import re

CSV_HEADER = "s,r,lambda_t,initial,measure,n_max,tail_weight,engine,disagreement"

MEASURE_SLACK = 1e-9  # allowed excess over the Gaussian negativity bound
ZERO_TOL = 1e-12  # measure at s = 0 or lambda_t = 0
DENSE_TOL = 1e-8  # sampled rows against the dense route
DISAGREE_TOL = 1e-8  # verify lines and summary
INJECT_TOL = 1e-10  # |inject_oracle - inject| elementwise
MARGINAL_SLACK = 1e-12  # thermal marginal, on top of the tail weight
COMPOSITE_TOL = 1e-10  # reduce_atoms(evolve) against reduce_atoms_direct
DRIFT_TOL = 1e-9  # total_excitation before and after the transit
FIG2_PEAK = (0.5, 0.8)  # the r = 0 curve of fig2 peaks in this s range
DENSE_S_MAX = 1.0  # the dense route's memory grows as (n_max + 1)**4


def _linspace(start: float, stop: float, steps: int) -> list[float]:
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)] if steps > 1 else [start]


def _grid(s_values, r_values, initials, lts) -> list[tuple[float, float, str, float]]:
    """Emission order of the sweep: s, then r, then initial, then time."""
    return [(s, r, ini, lt) for s in s_values for r in r_values for ini in initials for lt in lts]


FIG2_POINTS = _grid([round(0.05 * i, 10) for i in range(41)], [0.0, 0.25, 0.7], ["gg"], [11.0])
FIG3_POINTS = _grid([0.65], [0.0, 0.25, 0.7, 0.99], ["ee", "gg"], _linspace(0.0, 15.0, 151))
VERIFY_POINTS = _grid([0.3, 0.65, 1.0], [0.0, 0.25, 0.7, 0.99], ["gg", "ee"], _linspace(0.0, 15.0, 16))

# referee: injection grid (the tier-1 grid with s = 1.0 lowered to 0.8) and
# the criterion-7 composite points; one of them exponentiates the Hamiltonian
REFEREE_S = [0.0, 0.3, 0.65, 0.8]
REFEREE_R = [0.0, 0.25, 0.7, 0.99]
REFEREE_ORDERS = {
    "reflection-outer": [(s, r) for r in REFEREE_R for s in REFEREE_S],
    "squeezing-outer": [(s, r) for s in REFEREE_S for r in REFEREE_R],
}
COMPOSITE_POINTS = [
    (0.3, 0.25, lt, ini, "hamiltonian" if (lt, ini) == (5.0, "ee") else "closed_form")
    for lt in (1.0, 5.0, 11.0)
    for ini in ("gg", "ee")
] + [(0.65, 0.0, 11.0, "gg", "closed_form")]


def referee_ops(orders=REFEREE_ORDERS, composite=COMPOSITE_POINTS) -> list[tuple]:
    """Keys of every referee operation, in the order the pass makes them."""
    ops = [("inject", order, s, r) for order, pairs in orders.items() for s, r in pairs]
    ops += [("marginal", s, r, cav) for s, r in orders.get("squeezing-outer", []) for cav in "AB"]
    for point in composite:
        ops += [(kind,) + point for kind in ("composite-match", "composite-drift", "composite-valid")]
    return ops


def nu_min(s: float, r: float) -> float:
    """Smallest partially transposed symplectic eigenvalue of the lossy field."""
    return (1.0 - r * r) * math.exp(-2.0 * s) + r * r


def measure_bound(s: float, r: float) -> float:
    """Gaussian negativity of the lossy squeezed field, capped at 1.

    Local channels cannot raise negativity, so no atom measure exceeds it.
    """
    nu = nu_min(s, r)
    return min(1.0, 1.0 / nu - 1.0)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _row_ok(line: str, point, dense: float | None) -> bool:
    fields = line.split(",")
    if len(fields) != 9:
        return False
    s, r, initial, lt = point
    try:
        row_s, row_r, row_lt, row_m = (float(fields[i]) for i in (0, 1, 2, 4))
    except ValueError:
        return False
    if not (_close(row_s, s) and _close(row_r, r) and _close(row_lt, lt) and fields[3] == initial):
        return False
    if fields[7] != "analytic" or not math.isfinite(row_m):
        return False
    if not 0.0 <= row_m <= measure_bound(s, r) + MEASURE_SLACK:
        return False
    if (s == 0.0 or lt == 0.0) and row_m > ZERO_TOL:
        return False
    return dense is None or abs(row_m - dense) <= DENSE_TOL


def check_sweep(text: str, returncode: int, points, dense: dict[int, float], peak=None) -> tuple[int, int]:
    """Check one preset CSV against its grid.

    ``dense`` maps row index to the dense route's measure for the sampled
    rows.  ``peak`` = (r, s_lo, s_hi) asks that the curve at that r peaks
    inside [s_lo, s_hi]; if it does not, the peak row fails.
    """
    attempted = len(points)
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return attempted, attempted
    rows = lines[1:]
    bad = {i for i, point in enumerate(points) if i >= len(rows) or not _row_ok(rows[i], point, dense.get(i))}
    if peak is not None:
        r_peak, lo, hi = peak
        curve = [i for i, p in enumerate(points) if p[1] == r_peak and i not in bad]
        if curve:
            i_max = max(curve, key=lambda i: float(rows[i].split(",")[4]))
            if not lo <= points[i_max][0] <= hi:
                bad.add(i_max)
    failed = len(bad) + max(0, len(rows) - attempted)
    if returncode != 0 and failed == 0:
        failed = attempted
    return attempted, min(failed, attempted)


_VERIFY_LINE = re.compile(
    r"^s=(\S+) r=(\S+) initial=(\S+) lambda_t=(\S+) n_max=(\d+) disagreement=(\S+) (.*)$"
)
_VERIFY_SUMMARY = re.compile(r"^verification PASS: (\d+) points, worst disagreement (\S+)$")


def _verify_line_ok(line: str, point) -> bool:
    m = _VERIFY_LINE.match(line)
    if m is None:
        return False
    s, r, initial, lt = point
    try:
        vals = [float(m.group(i)) for i in (1, 2, 4, 6)]
    except ValueError:
        return False
    return (
        _close(vals[0], s)
        and _close(vals[1], r)
        and m.group(3) == initial
        and _close(vals[2], lt)
        and vals[3] < DISAGREE_TOL
        and m.group(7) == "ok"
    )


def check_verify(text: str, returncode: int, points=VERIFY_POINTS) -> tuple[int, int]:
    """Check one ``verify`` report: a line per grid point ending in ok, then PASS."""
    attempted = len(points)
    lines = [ln for ln in text.splitlines() if ln.startswith("s=")]
    bad = sum(1 for i, p in enumerate(points) if i >= len(lines) or not _verify_line_ok(lines[i], p))
    failed = bad + max(0, len(lines) - attempted)
    summary = [ln for ln in text.splitlines() if ln.startswith("verification ")]
    m = _VERIFY_SUMMARY.match(summary[-1]) if len(summary) == 1 else None
    summary_ok = m is not None and int(m.group(1)) == attempted and float(m.group(2)) < DISAGREE_TOL
    if failed == 0 and (returncode != 0 or not summary_ok):
        failed = attempted
    return attempted, min(failed, attempted)


def thermal(mean: float, n: int) -> float:
    """Photon-number distribution of a thermal state with the given mean."""
    return mean**n / (1.0 + mean) ** (n + 1)


def _referee_op_ok(rec: dict) -> bool:
    op = rec["key"][0]
    if op == "inject":
        return rec["dev"] <= INJECT_TOL
    if op == "marginal":
        _, s, r, _ = rec["key"]
        mean = (1.0 - r * r) * math.sinh(s) ** 2
        tol = rec["tail"] + MARGINAL_SLACK
        return len(rec["p"]) > 0 and all(abs(p - thermal(mean, n)) <= tol for n, p in enumerate(rec["p"]))
    if op == "composite-match":
        return rec["dev"] <= COMPOSITE_TOL
    if op == "composite-drift":
        return rec["drift"] <= DRIFT_TOL
    if op == "composite-valid":
        return rec["error"] is None
    return False


def check_referee(records: list[dict], returncode: int, ops=None) -> tuple[int, int]:
    """Check the referee's comparisons; a missing or duplicated one fails."""
    ops = referee_ops() if ops is None else ops
    by_key: dict[tuple, list[dict]] = {}
    for rec in records:
        by_key.setdefault(tuple(rec["key"]), []).append(rec)
    failed = 0
    for key in ops:
        found = by_key.get(tuple(key), [])
        failed += not (len(found) == 1 and _referee_op_ok(found[0]))
    if returncode != 0 and failed == 0:
        failed = len(ops)
    return len(ops), failed
