"""Spans and counts around the program's layers, installed from outside.

The tracer replaces a module attribute with a wrapper that records one
span per call: (name, start, end, thread, parent), the parent being the
innermost open span on the same thread.  Each function is wrapped at the
name its caller looks it up by (``cvqubits.sweep.inject``, not only
``cvqubits.fieldprep.inject``), because ``from x import f`` binds a second
name.  The program's source is never edited.  Spans stay in memory until
the pass ends.

Times reported per layer are self times: a span's duration minus the
part its child spans cover, summed over every thread.  On the sweep's
pool threads that wall time includes waiting for the interpreter lock.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref

SPAN_FIELDS = ("name", "start", "end", "thread", "parent")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.table_keys: set[tuple] = set()
        self.points = 0
        self.field_bytes = 0
        self.field_bytes_peak = 0
        self.eigh_dim_max = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper; ``after(args, result)`` sees each call.

        A name the program no longer has is left alone, and its metrics read 0.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = [name, time.perf_counter(), None, threading.get_ident(), stack[-1] if stack else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)

    # ---- counters fed by ``after`` hooks

    def _table_built(self, args, _result) -> None:
        table = args[0]
        self.table_keys.add((table.s.s, table.coupling.r, table.n_max))

    def _swept(self, _args, rows) -> None:
        self.points += len(rows)

    def _field_made(self, _args, field) -> None:
        # bytes of injected fields alive at once, from the arrays' own sizes
        matrix = field.rho.matrix
        with self._lock:
            self.field_bytes += matrix.nbytes
            self.field_bytes_peak = max(self.field_bytes_peak, self.field_bytes)
        weakref.finalize(matrix, self._field_freed, matrix.nbytes)

    def _field_freed(self, nbytes: int) -> None:
        with self._lock:
            self.field_bytes -= nbytes

    def _eigh_sized(self, args, _result) -> None:
        self.eigh_dim_max = max(self.eigh_dim_max, int(args[0].shape[0]))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        import numpy.linalg
        import scipy.linalg

        from cvqubits import analytic, cli, fieldprep, jcdynamics, sweep, tensorops

        self.wrap(cli, "run_sweep", "sweep.run_sweep", after=self._swept)
        self.wrap(cli, "write_csv", "sweep.write_csv")
        self.wrap(cli, "verify", "sweep.verify")
        self.wrap(sweep, "xstate_gg", "analytic.xstate")
        self.wrap(sweep, "xstate_ee", "analytic.xstate")
        self.wrap(sweep, "negativity_closed_form", "analytic.negativity_closed_form")
        self.wrap(sweep, "inject", "fieldprep.inject", after=self._field_made)
        self.wrap(sweep, "reduce_atoms_direct", "jcdynamics.reduce_atoms_direct")
        self.wrap(sweep, "negativity_general", "entanglement.negativity_general")
        self.wrap(analytic.WeightTable, "__init__", "analytic.weight_table", after=self._table_built)
        self.wrap(analytic, "binom_row", "analytic.binom_row")
        # the referee calls these through their own modules
        self.wrap(fieldprep, "inject", "fieldprep.inject", after=self._field_made)
        self.wrap(fieldprep, "inject_oracle", "fieldprep.inject_oracle")
        self.wrap(jcdynamics, "reduce_atoms_direct", "jcdynamics.reduce_atoms_direct")
        self.wrap(jcdynamics, "evolve", "jcdynamics.evolve")
        self.wrap(jcdynamics, "partial_trace", "tensorops.partial_trace")
        self.wrap(fieldprep, "mat_exp", "tensorops.mat_exp")
        self.wrap(jcdynamics, "mat_exp", "tensorops.mat_exp")
        # tensorops reaches these through the library modules
        self.wrap(numpy.linalg, "eigh", "tensorops.eigh", after=self._eigh_sized)
        self.wrap(scipy.linalg, "expm", "tensorops.expm")
        self.wrap(tensorops.DensityOperator, "validate", "tensorops.validate")

    # ---- aggregation

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        n = len(self.spans)
        child_time = [0.0] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for i, (_, start, end, _, parent) in enumerate(self.spans):
            if parent is not None:
                child_time[parent] += end - start
                children[parent].append(i)
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]

        spectral = hits = 0
        for i, span in enumerate(self.spans):
            if span[0] != "tensorops.mat_exp":
                continue
            kinds = {self.spans[c][0] for c in children[i]}
            if "tensorops.expm" not in kinds:
                spectral += 1
                hits += "tensorops.eigh" not in kinds

        def c(name):
            return calls.get(name, 0)

        def t(name):
            return self_s.get(name, 0.0)

        builds = c("analytic.weight_table")
        return {
            "sweep.points": self.points,
            "sweep.run_sweep_self_s": t("sweep.run_sweep"),
            "sweep.write_csv_s": t("sweep.write_csv"),
            "sweep.verify_self_s": t("sweep.verify"),
            "analytic.xstate_calls": c("analytic.xstate"),
            "analytic.xstate_s": t("analytic.xstate"),
            "analytic.weight_table_builds": builds,
            "analytic.weight_table_reuse": len(self.table_keys) / builds if builds else 0.0,
            "analytic.weight_table_s": t("analytic.weight_table"),
            "analytic.binom_row_calls": c("analytic.binom_row"),
            "analytic.binom_row_s": t("analytic.binom_row"),
            "analytic.negativity_closed_form_s": t("analytic.negativity_closed_form"),
            "fieldprep.inject_calls": c("fieldprep.inject"),
            "fieldprep.inject_s": t("fieldprep.inject"),
            "fieldprep.field_mb": self.field_bytes_peak / 2**20,
            "fieldprep.inject_oracle_calls": c("fieldprep.inject_oracle"),
            "fieldprep.inject_oracle_s": t("fieldprep.inject_oracle"),
            "jcdynamics.reduce_atoms_direct_calls": c("jcdynamics.reduce_atoms_direct"),
            "jcdynamics.reduce_atoms_direct_s": t("jcdynamics.reduce_atoms_direct"),
            "jcdynamics.evolve_calls": c("jcdynamics.evolve"),
            "jcdynamics.evolve_s": t("jcdynamics.evolve"),
            "entanglement.negativity_general_calls": c("entanglement.negativity_general"),
            "entanglement.negativity_general_s": t("entanglement.negativity_general"),
            "tensorops.mat_exp_calls": c("tensorops.mat_exp"),
            "tensorops.mat_exp_s": t("tensorops.mat_exp"),
            "tensorops.eigh_calls": c("tensorops.eigh"),
            "tensorops.eigh_s": t("tensorops.eigh"),
            "tensorops.eigh_dim_max": self.eigh_dim_max,
            "tensorops.spectral_hit_ratio": hits / spectral if spectral else 0.0,
            "tensorops.partial_trace_s": t("tensorops.partial_trace"),
            "tensorops.validate_s": t("tensorops.validate"),
        }

    def span_records(self) -> list[dict]:
        return [dict(zip(SPAN_FIELDS, span)) for span in self.spans]
