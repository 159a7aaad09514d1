"""One fresh-process step of the benchmark: an import, a pass, or the dense sample.

Usage: python3 child.py ROOT MODE WORKLOAD TRACE RESULT [DATA]

ROOT is the checkout whose ``src/`` holds the package; it is put first on
``sys.path``, so the measured code is that checkout's and never an
installed copy.  MODE is ``import`` (time the import only), ``pass`` (one
pass of WORKLOAD, writing its output to DATA) or ``dense`` (recompute the
sampled rows listed in DATA through the dense route).  TRACE 1 installs
the tracer.  The result goes to RESULT as JSON.

Only ``sys`` and ``time`` are loaded before ``import cvqubits`` is timed,
so the import pays for every module it needs.
"""

import sys
import time


def _import_package(root: str):
    src = root.rstrip("/") + "/src"
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import cvqubits

    setup_s = time.perf_counter() - t0
    if not cvqubits.__file__.startswith(src + "/"):
        raise SystemExit(f"cvqubits was imported from {cvqubits.__file__}, not from {src}")
    return setup_s


def referee(records: list, orders=None, composite=None) -> None:
    """inject_oracle against inject in two walk orders, then composite evolution.

    Appends one record of raw numbers per operation of ``checks.referee_ops``;
    ``checks.check_referee`` judges them.
    """
    import numpy as np

    from checks import COMPOSITE_POINTS, REFEREE_ORDERS
    from cvqubits import fieldprep, jcdynamics, tensorops
    from cvqubits.fieldprep import CouplingParam, SqueezeParam, TruncationPolicy, squeezed_state

    def field_pair(s, r):
        policy = TruncationPolicy()
        psi = squeezed_state(SqueezeParam(s), policy)
        fast = fieldprep.inject(psi, CouplingParam(r), s=SqueezeParam(s), policy=policy)
        slow = fieldprep.inject_oracle(psi, CouplingParam(r), s=SqueezeParam(s), policy=policy)
        return fast, slow

    for order, pairs in (REFEREE_ORDERS if orders is None else orders).items():
        for s, r in pairs:
            fast, slow = field_pair(s, r)
            dev = float(np.max(np.abs(fast.rho.matrix - slow.rho.matrix)))
            records.append({"key": ["inject", order, s, r], "dev": dev})
            if order != "squeezing-outer":
                continue
            dim = fast.n_max + 1
            pops = np.real(np.diag(fast.rho.matrix)).reshape(dim, dim)
            for cav, p in (("A", pops.sum(axis=1)), ("B", pops.sum(axis=0))):
                records.append({"key": ["marginal", s, r, cav], "p": p.tolist(), "tail": fast.tail_weight})

    for s, r, lt, initial, method in COMPOSITE_POINTS if composite is None else composite:
        policy = TruncationPolicy()
        field = fieldprep.inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r),
                                 s=SqueezeParam(s), policy=policy)
        atoms = jcdynamics.AtomState(initial)
        start = tensorops.kron(
            tensorops.DensityOperator(tensorops.TruncatedFockSpace((2, 2)), atoms.density()), field.rho
        )
        after = jcdynamics.evolve(atoms, field, lt, method=method)
        try:
            after.rho.validate(herm_tol=1e-10, psd_floor=-1e-10, trace_tol=1e-10)
            error = None
        except ValueError as err:
            error = str(err)
        drift = abs(jcdynamics.total_excitation(after.rho) - jcdynamics.total_excitation(start))
        reduced = jcdynamics.reduce_atoms(after)
        direct = jcdynamics.reduce_atoms_direct(atoms, field, lt)
        dev = float(np.max(np.abs(reduced.matrix - direct.matrix)))
        point = [s, r, lt, initial, method]
        records.append({"key": ["composite-match"] + point, "dev": dev})
        records.append({"key": ["composite-drift"] + point, "drift": drift})
        records.append({"key": ["composite-valid"] + point, "error": error})


def dense_measures(points: list) -> list:
    """Measure of each (s, r, initial, lambda_t) through inject + reduce_atoms_direct."""
    from cvqubits.entanglement import negativity_general
    from cvqubits.fieldprep import CouplingParam, SqueezeParam, TruncationPolicy, inject, squeezed_state
    from cvqubits.jcdynamics import AtomState, reduce_atoms_direct

    policy = TruncationPolicy()
    out = []
    for s, r, initial, lt in points:
        field = inject(squeezed_state(SqueezeParam(s), policy), CouplingParam(r),
                       s=SqueezeParam(s), policy=policy)
        out.append(negativity_general(reduce_atoms_direct(AtomState(initial), field, lt)).measure)
    return out


def main(argv) -> int:
    root, mode, workload, trace, result_path = argv[:5]
    data_path = argv[5] if len(argv) > 5 else None
    setup_s = _import_package(root)

    import json
    import resource

    result = {"setup_s": setup_s}
    rc = 0
    if mode == "dense":
        with open(data_path, encoding="utf-8") as fh:
            result["measures"] = dense_measures(json.load(fh))
    elif mode == "pass":
        from cvqubits import cli

        tracer = None
        if trace == "1":
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        records: list = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        if workload == "referee":
            referee(records)
        else:
            argv = ["verify"] if workload == "verify" else ["preset", workload]
            rc = cli.main(argv + ["--out", data_path])
        result["run_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["records"] = records
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            with open(data_path + ".spans.json", "w", encoding="utf-8") as fh:
                json.dump(tracer.span_records(), fh)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
