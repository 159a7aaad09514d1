import importlib
import json
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



def test_benchmark_runs_traced_against_the_package(tmp_path):
    # the benchmark's tracer wraps package names from outside: a traced
    # fig3 pass must still run, and report its layers
    repo = Path(__file__).resolve().parents[1]
    result = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(repo / "bench" / "child.py"), str(repo), "pass", "fig3", "1",
         str(result), str(tmp_path / "fig3.out")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text(encoding="utf-8"))["layers"]
    assert isinstance(layers, dict)
    assert layers["sweep.points"] > 0 and layers["analytic.weight_table_builds"] > 0


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
