import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import cvqubits

MODULES = ["cvqubits"] + [
    f"cvqubits.{info.name}"
    for info in pkgutil.iter_modules(cvqubits.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []


PUBLIC = {
    "TruncatedFockSpace", "StateVector", "DensityOperator", "kron", "partial_trace",
    "SqueezeParam", "CouplingParam", "TruncationPolicy", "CavityFieldState", "squeezed_state",
    "binom_row", "inject", "inject_oracle",
    "AtomState", "EvolvedState", "jc_unitary", "jc_unitary_oracle", "evolve", "reduce_atoms",
    "reduce_atoms_direct", "reduce_atoms_series", "total_excitation",
    "AtomXState", "WeightTable", "xstate_series", "negativity_closed_form",
    "EntanglementReport", "negativity_general",
    "ConfigError", "VerificationError", "SweepConfig", "SweepRow", "run_sweep", "verify",
    "preset_config", "write_csv",
}
REMOVED = ("xstate_gg", "xstate_ee", "partial_transpose", "eig_hermitian", "mat_exp", "_sectors")


def test_public_surface_is_pinned():
    # growing or shrinking the package's surface means editing this set on
    # purpose; test_every_exported_name_resolves checks that each name resolves
    assert set(cvqubits.__all__) == PUBLIC
    assert not hasattr(cvqubits.AtomXState, "point")


@pytest.mark.parametrize("name", MODULES)
def test_removed_names_stay_gone(name):
    # one analytic call serves a time and a series, and negativity_general checks and
    # solves the partial transpose itself: none of the older entry points is left
    module = importlib.import_module(name)
    assert [n for n in REMOVED if hasattr(module, n)] == []



FOOTPRINT = """
import os, sys
import cvqubits
print(cvqubits.__file__)
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
print(os.environ.get("OPENBLAS_NUM_THREADS"))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 1)
"""


@pytest.mark.parametrize("given, expected", [(None, "1"), ("3", "3")], ids=["unset", "given"])
def test_fresh_import_loads_no_scipy_and_keeps_the_callers_blas_threads(given, expected):
    # pytest has numpy loaded already, so the import is checked in a fresh
    # interpreter: it must not pull in scipy (about 0.3 s), and it sets one
    # BLAS thread only where the caller set none
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    where, scipy_modules, threads_var, threads = proc.stdout.splitlines()
    assert Path(where).parent.parent == src
    assert scipy_modules == "[]"
    assert threads_var == expected
    if given is None:  # no idle OpenBLAS worker beside the calling thread
        assert threads == "1"


@pytest.mark.parametrize("workload", ["fig3", "referee"])
def test_benchmark_runs_traced_against_the_package(workload, tmp_path):
    # the benchmark's tracer wraps package names from outside, and skips a
    # name the package no longer has: a traced pass must still run, and
    # report its layers.  Only the referee reaches the transit exponential
    repo = Path(__file__).resolve().parents[1]
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "bench" / "child.py"), str(repo), "pass", workload, "1",
         str(result), str(tmp_path / f"{workload}.out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text(encoding="utf-8"))["layers"]
    assert isinstance(layers, dict)
    if workload == "fig3":
        assert layers["sweep.points"] > 0 and layers["analytic.weight_table_builds"] > 0
    else:
        assert layers["jcdynamics.evolve_calls"] > 0 and layers["tensorops.eigh_calls"] > 0


def test_benchmark_referee_passes_against_the_package(tmp_path, monkeypatch):
    # the benchmark's referee drives inject, inject_oracle (with their s=/policy=
    # keywords) and the composite evolve: all 85 of its operations must pass
    repo = Path(__file__).resolve().parents[1]
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "bench" / "child.py"), str(repo), "pass", "referee", "0",
         str(result), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.syspath_prepend(str(repo / "bench"))
    checks = importlib.import_module("checks")
    records = json.loads(result.read_text(encoding="utf-8"))["records"]
    assert checks.check_referee(records, 0) == (85, 0)
