"""Benchmark of cvqubits: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload {fig2,fig3,verify,referee} --seed N --seconds S --trace {0,1}

Each pass runs in a fresh interpreter (``child.py``), one at a time, with
the program at its defaults and imported from this checkout's ``src/``.
Passes repeat until the next one would end past ``--seconds``.  An
import-only process follows each pass, and more fill the time left; they
add samples of ``setup_s``.
Every figure is a median over the run's samples, because single
fresh-process samples on a small shared machine spread by tens of
percent.  Every pass's output is checked (``checks.py``); the last line
of standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
passes under the tracer and reports the per-layer metrics instead.
``--seed`` picks the CSV rows that are recomputed through the dense route.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take
DENSE_SAMPLE = 8  # rows per run recomputed through the dense route

# the grid each preset must produce, and fig2's peak check (r, s_lo, s_hi)
SWEEPS = {
    "fig2": (checks.FIG2_POINTS, (0.0,) + checks.FIG2_PEAK),
    "fig3": (checks.FIG3_POINTS, None),
}
WORKLOADS = ("fig2", "fig3", "verify", "referee")
# BLAS and OpenMP thread settings are left to the program's defaults
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Child:
    """Runs ``child.py`` steps against the checkout, never past the deadline."""

    def __init__(self, workload: str, trace: bool, started: float) -> None:
        self.workload = workload
        self.trace = trace
        self.started = started
        self.env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}

    def run(self, mode: str, data: Path | None = None) -> tuple[int, dict, str]:
        result = OUT / f"{self.workload}.{mode}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable]
        if self.trace and mode == "pass":
            cmd += ["-X", "importtime"]
        cmd += [str(HERE / "child.py"), str(ROOT), mode, self.workload, "1" if self.trace else "0", str(result)]
        if data is not None:
            cmd.append(str(data))
        timeout = DEADLINE_S - (time.perf_counter() - self.started)
        if timeout <= 0:
            raise TimeoutError("no time left for another step")
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        payload = json.loads(result.read_text()) if result.is_file() else {}
        return proc.returncode, payload, proc.stderr


def _import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of ``cvqubits`` and ``scipy.linalg`` from ``-X importtime``."""
    found = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("cvqubits", "scipy.linalg"):
            found[m.group(2)] = int(m.group(1)) * 1e-6
    return {"import.cvqubits_s": found.get("cvqubits", 0.0),
            "import.scipy_linalg_s": found.get("scipy.linalg", 0.0)}


def _dense_sample(child: Child, points, seed: int) -> dict[int, float]:
    """Recompute a seeded sample of rows (s <= 1) through the dense route."""
    eligible = [i for i, p in enumerate(points) if p[0] <= checks.DENSE_S_MAX]
    picked = sorted(random.Random(seed).sample(eligible, min(DENSE_SAMPLE, len(eligible))))
    data = OUT / f"{child.workload}.dense-points.json"
    data.write_text(json.dumps([points[i] for i in picked]))
    rc, payload, stderr = child.run("dense", data)
    if rc != 0 or len(payload.get("measures", [])) != len(picked):
        raise RuntimeError(f"dense route failed (exit {rc}): {stderr.strip()[-500:]}")
    return dict(zip(picked, payload["measures"]))


def _check(workload: str, rc: int, payload: dict, output: str, dense) -> tuple[int, int]:
    if workload == "referee":
        return checks.check_referee(payload.get("records", []), rc)
    if workload == "verify":
        return checks.check_verify(output, rc)
    points, peak = SWEEPS[workload]
    return checks.check_sweep(output, rc, points, dense, peak)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    OUT.mkdir(exist_ok=True)
    child = Child(workload, trace, started)
    child.run("import")  # warm-up: byte-compile and fill the file cache once, untimed

    passes = []  # (rc, payload, stderr, output)
    pass_walls = []
    setups = []
    import_walls = []

    def sample_import() -> None:
        t0 = time.perf_counter()
        rc, payload, _ = child.run("import")
        import_walls.append(time.perf_counter() - t0)
        if rc == 0:
            setups.append(payload["setup_s"])

    data = OUT / f"{workload}.out"
    while not pass_walls or time.perf_counter() - started + statistics.median(pass_walls) <= seconds:
        data.unlink(missing_ok=True)
        t0 = time.perf_counter()
        rc, payload, stderr = child.run("pass", data)
        pass_walls.append(time.perf_counter() - t0)
        output = data.read_text() if data.is_file() else ""
        passes.append((rc, payload, stderr, output))
        if rc != 0:
            print(f"pass exited {rc}: {stderr.strip()[-2000:]}", file=sys.stderr)
        if "setup_s" in payload:
            setups.append(payload["setup_s"])
        if not trace:
            sample_import()  # spreads the import samples over the whole run
    while not trace and time.perf_counter() - started + statistics.median(import_walls) <= seconds:
        sample_import()

    dense = _dense_sample(child, SWEEPS[workload][0], seed) if workload in SWEEPS else {}
    attempted = failed = 0
    for rc, payload, _, output in passes:
        a, f = _check(workload, rc, payload, output, dense)
        attempted += a
        failed += f
    ok = [p[1] for p in passes if "run_s" in p[1]]
    if not ok:
        raise RuntimeError(f"no pass completed: {passes[-1][2].strip()[-800:]}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        layers = [{**p["layers"], **_import_times(s), "traced.run_s": p["run_s"]}
                  for _, p, s, _ in passes if "layers" in p]
        metrics = {}
        for m in spec["per_layer"]:
            values = [layer[m["name"]] for layer in layers]
            if m["unit"] != "s":  # counts and sizes repeat exactly from pass to pass
                if len(set(values)) > 1:
                    print(f"warning: {m['name']} differs between traced passes: {values}", file=sys.stderr)
                values = values[:1]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    else:
        samples = {"setup_s": setups, **{name: [p[name] for p in ok] for name in ("run_s", "cpu_s", "peak_rss_mb")}}
        metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"{workload} run_s samples: " + " ".join(f"{p['run_s']:.3f}" for p in ok))
    print(f"{workload}: {len(passes)} passes, {len(setups)} import samples, "
          f"{failed} of {attempted} operations failed, {time.perf_counter() - started:.1f} s")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cvqubits" / "__init__.py").is_file():
        print(f"error: no cvqubits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
