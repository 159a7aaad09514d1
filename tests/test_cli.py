import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cvqubits.analytic as analytic_mod
import cvqubits.sweep as sweep_mod
from cvqubits.analytic import negativity_closed_form, xstate_series
from cvqubits.cli import main
from cvqubits.entanglement import negativity_general
from cvqubits.fieldprep import CouplingParam, SqueezeParam, TruncationPolicy, binom_ladder, inject, squeezed_state
from cvqubits.jcdynamics import SERIES_CHUNK, AtomState, reduce_atoms_direct, reduce_atoms_series
from cvqubits.tensorops import DensityOperator, TruncatedFockSpace
from cvqubits.sweep import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    DISAGREE_TOL,
    SweepRow,
    default_verify_config,
    preset_config,
    run_sweep,
    worst_disagreement,
)

SMALL = ["--s", "0.3", "--r", "0,0.7", "--lt-stop", "2", "--lt-steps", "2"]
# a repeated r, and -0.0 next to 0.0: three distinct reflections
SIGNED = SweepConfig(s_values=[0.3, 0.65, 1.0, 2.0], r_values=[-0.0, 0.0, 0.25, 1.0, 0.25],
                     lt_stop=15.0, lt_steps=16, initials=("gg", "ee"))


# ----------------------------------------------------------------- sweeping


def test_run_sweep_degenerate_point():
    rows = run_sweep(SweepConfig(s_values=[0.0]))
    assert len(rows) == 1
    row = rows[0]
    assert (row.s, row.r, row.lambda_t, row.initial) == (0.0, 0.0, 0.0, "gg")
    assert row.measure == 0.0
    assert row.n_max == 4
    assert row.engine == "analytic"
    assert row.disagreement is None


def test_run_sweep_emission_order():
    config = SweepConfig(s_values=[0.1, 0.2], r_values=[0.0, 0.5],
                         lt_stop=1.0, lt_steps=2, initials=("gg", "ee"))
    rows = run_sweep(config)
    key = [(r.s, r.r, r.initial, r.lambda_t) for r in rows]
    assert key == sorted(key, key=lambda k: (k[0], k[1], {"gg": 0, "ee": 1}[k[2]], k[3]))
    assert len(rows) == 16


@pytest.mark.parametrize("config", [preset_config("fig2"), SIGNED], ids=["fig2", "signed"])
def test_shared_ladders_change_no_bit(config, monkeypatch):
    # every series of the walk reads its r's one ladder; each must equal,
    # element for element, a series that builds its own
    seen = []

    def recorded(*args):
        seen.append(xstate_series(*args))
        return seen[-1]

    monkeypatch.setattr(sweep_mod, "xstate_series", recorded)
    rows = run_sweep(config)
    steps = config.lt_steps
    assert len(seen) * steps == len(rows)
    for i, x in enumerate(seen):
        group = rows[i * steps : (i + 1) * steps]
        first = group[0]
        alone = xstate_series(first.s, first.r, config.lt_values(), first.n_max, first.initial)
        for name in ("a", "b", "c", "d", "e_coh", "lambda_t"):
            assert np.array_equal(getattr(x, name), getattr(alone, name)), (first, name)
        assert x.tail_weight == alone.tail_weight
        assert [row.measure for row in group] == negativity_closed_form(alone).tolist()


@pytest.mark.parametrize("config,built", [
    (preset_config("fig2"), 3),
    (SIGNED, 3),
    (default_verify_config(), 4),
    (replace(default_verify_config(), engine="oracle"), 0),
], ids=["fig2", "signed", "verify", "oracle"])
def test_walk_builds_one_ladder_per_distinct_r(config, built, monkeypatch):
    # at the walk's top cutoff, whatever the s; the oracle engine alone builds none
    calls = []

    def counted(n_top, coupling):
        calls.append((n_top, coupling.r))
        return binom_ladder(n_top, coupling)

    monkeypatch.setattr(sweep_mod, "binom_ladder", counted)
    monkeypatch.setattr(analytic_mod, "binom_ladder", counted)
    run_sweep(config)
    assert len(calls) == built
    n_top = max(config.policy().resolve(s)[0] for s in config.s_values)
    assert {n for n, _ in calls} <= {n_top + 1}
    assert len({r for _, r in calls}) == built


def test_oracle_rows_equal_the_per_point_dense_route():
    # the walk's series against one reduce_atoms_direct per point, across a
    # chunk boundary and through lambda_t = 0, for both dense engines
    config = SweepConfig(s_values=[0.3, 0.65], r_values=[0.0, 0.7], lt_start=0.0, lt_stop=12.0,
                         lt_steps=SERIES_CHUNK + 3, initials=("gg", "ee"), engine="oracle")
    policy = config.policy()
    lts = config.lt_values()
    measures, gaps = [], []
    for s in config.s_values:
        n_max, _ = policy.resolve(SqueezeParam(s))
        psi = squeezed_state(SqueezeParam(s), policy)
        for r in config.r_values:
            field = inject(psi, CouplingParam(r))
            for initial in config.initials:
                series = xstate_series(s, r, lts, n_max, initial)
                closed = negativity_closed_form(series)
                for i, lt in enumerate(lts.tolist()):
                    x = (series.a[i], series.b[i], series.c[i], series.d[i], series.e_coh[i])
                    rho4 = reduce_atoms_direct(AtomState(initial), field, lt)
                    measure = negativity_general(rho4).measure
                    m = rho4.matrix
                    parts = (m[0, 0].real, m[1, 1].real, m[2, 2].real, m[3, 3].real, m[0, 3].real)
                    deltas = [abs(p - q) for p, q in zip(x, parts)]
                    measures.append(measure)
                    gaps.append(max(deltas + [abs(closed[i] - measure)]))
    assert [row.measure for row in run_sweep(config)] == measures
    assert [row.disagreement for row in run_sweep(replace(config, engine="both"))] == gaps


def test_run_sweep_both_engine_disagreement_column():
    config = SweepConfig(s_values=[0.3], r_values=[0.25], lt_start=2.0,
                         lt_stop=2.0, engine="both")
    rows = run_sweep(config)
    assert rows[0].disagreement is not None
    assert rows[0].disagreement < 1e-10
    assert worst_disagreement(rows) == rows[0].disagreement


def test_sweep_config_refuses_a_count_that_is_not_whole():
    # lt-steps 2.5 used to pass validate and fail in lt_values, and n-max 2.5
    # to be floored to 2; each is refused, naming its knob
    for knob, kwargs in (("lt-steps", {"lt_steps": 2.5}), ("lt-steps", {"lt_steps": math.nan}),
                         ("n-max", {"n_max": 2.5}), ("n-max", {"n_max": math.inf})):
        with pytest.raises(ConfigError, match=f"{knob} must be a whole number"):
            SweepConfig(s_values=[0.3], **kwargs).validate()
    whole = SweepConfig(s_values=[0.3], lt_stop=1.0, lt_steps=3.0, n_max=4.0).validate()
    assert len(whole.lt_values()) == 3 and whole.policy().n_max == 4


def test_sweep_config_validation_errors():
    with pytest.raises(ConfigError):
        SweepConfig().validate()  # no s values
    with pytest.raises(ConfigError):
        SweepConfig(s_values=[0.3], r_values=[1.5]).validate()
    with pytest.raises(ConfigError):
        SweepConfig(s_values=[0.3], lt_steps=0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(s_values=[0.3], lt_start=2.0, lt_stop=1.0).validate()
    with pytest.raises(ConfigError):
        SweepConfig(s_values=[0.3], initials=("gg", "qq")).validate()
    with pytest.raises(ConfigError):
        SweepConfig(s_values=[0.3], engine="magic").validate()
    with pytest.raises(ConfigError):
        SweepConfig(s_values=[-1.0]).validate()
    for bad in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="lt-start"):
            SweepConfig(s_values=[0.3], lt_start=bad, lt_stop=bad).validate()
        with pytest.raises(ConfigError, match="lt-stop"):
            SweepConfig(s_values=[0.3], lt_stop=bad).validate()
        with pytest.raises(ConfigError, match="tail-tol"):
            SweepConfig(s_values=[0.3], tail_tol=bad).validate()
    # tanh(20) rounds to 1: no cutoff from the tail bound, only an explicit one
    with pytest.raises(ConfigError, match="--n-max"):
        SweepConfig(s_values=[0.3, 20.0]).validate()
    for over_budget in (
        SweepConfig(s_values=[3.0], engine="both"),  # field blocks at n_max 2320, ~63 GiB
        SweepConfig(s_values=[5.0]),  # ladder at n_max 126 794, ~240 GiB
        SweepConfig(s_values=[0.3], lt_steps=10**8),  # series arrays, ~110 GiB
        SweepConfig(s_values=[0.5], n_max=20000),  # ladder, ~6 GiB
    ):
        with pytest.raises(ConfigError, match="GiB budget; lower --n-max, raise --tail-tol"):
            over_budget.validate()


@pytest.mark.parametrize("lt_steps", [1, SERIES_CHUNK])
@pytest.mark.parametrize("n_max", [20, 42, 106])
def test_oracle_memory_estimate_covers_measured_peak(n_max, lt_steps):
    # inject, then reduce_atoms_series with the field alive, as one (s, r)
    # group of the walk holds them; one time, and one full chunk of them
    policy = TruncationPolicy(n_max=n_max)
    psi = squeezed_state(SqueezeParam(1.0), policy)
    lts = np.linspace(3.3, 15.0, lt_steps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        field = inject(psi, CouplingParam(0.25))
        for initial in ("gg", "ee", np.array([0.5, 0.5j, -0.5, 0.5j])):
            reduce_atoms_series(AtomState(initial), field, lts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    estimate = sweep_mod._peak_bytes(n_max, lt_steps, "oracle")
    assert peak <= estimate <= 2 * peak


def test_oracle_series_memory_does_not_grow_with_the_times():
    # one s = 1 group of the walk: the field, then one dense series; from
    # 64 to 1024 times only the returned (T, 4, 4) stack may grow
    policy = TruncationPolicy()
    n_max, _ = policy.resolve(SqueezeParam(1.0))
    psi = squeezed_state(SqueezeParam(1.0), policy)
    peaks = {}
    for lt_steps in (64, 1024):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            field = inject(psi, CouplingParam(0.25))
            reduce_atoms_series(AtomState("ee"), field, np.linspace(0.0, 15.0, lt_steps))
            peaks[lt_steps] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        del field
        assert peaks[lt_steps] <= sweep_mod._peak_bytes(n_max, lt_steps, "oracle")
    assert abs(peaks[1024] - peaks[64]) <= 256 * (1024 - 64) + 2**16


@pytest.mark.parametrize("n_max,lt_steps", [(314, 1), (63, 2000)])
def test_analytic_memory_estimate_covers_measured_peak(n_max, lt_steps):
    # fig2's largest cutoff at one time, and a long series at a small one
    lts = np.linspace(0.0, 15.0, lt_steps)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        xstate_series(2.0, 0.25, lts, n_max, "ee")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    estimate = sweep_mod._peak_bytes(n_max, lt_steps, "analytic")
    assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("engine", ["analytic", "oracle", "both"])
def test_walk_memory_estimate_covers_measured_peak(engine):
    # one (s, r, initial) series of 1000 times through the whole walk: the
    # engines' series, the dense measure and the disagreement
    config = SweepConfig(s_values=[0.3], r_values=[0.25], lt_stop=15.0, lt_steps=1000,
                         initials=("ee",), engine=engine)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in sweep_mod._walk(config):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n_max, _ = config.policy().resolve(SqueezeParam(0.3))
    assert peak <= sweep_mod._peak_bytes(n_max, config.lt_steps, engine)


def test_walk_memory_estimate_covers_one_ladder_per_r():
    # ten values of r at fig2's top squeezing: the walk holds ten (n_top+2)-square ladders
    config = SweepConfig(s_values=[1.0, 2.0], r_values=[round(0.1 * i, 10) for i in range(10)],
                         lt_start=11.0, lt_stop=11.0, engine="analytic")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in sweep_mod._walk(config):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    estimate = sweep_mod._peak_bytes(314, config.lt_steps, "analytic", 10)
    assert peak <= estimate <= 2 * peak


def test_budget_counts_one_ladder_per_distinct_r():
    # one r: refused from --n-max 11 581; three: from 8 189, and -0.0 is 0.0
    three = [0.0, 0.25, 0.7]
    for r_values, n_ok in (([0.25], 11580), (three, 8188), ([-0.0, 0.0, 0.25, 0.7, 0.25], 8188)):
        SweepConfig(s_values=[0.5], r_values=r_values, n_max=n_ok).validate()
        with pytest.raises(ConfigError, match="GiB budget; lower --n-max, raise --tail-tol, "
                                              "take fewer --lt-steps or take fewer --r values"):
            SweepConfig(s_values=[0.5], r_values=r_values, n_max=n_ok + 1).validate()
    # s = 3.7 (n_max 9417 at the default tail) fits one r, but not three
    SweepConfig(s_values=[3.7]).validate()
    with pytest.raises(ConfigError, match="fewer --r values"):
        SweepConfig(s_values=[3.7], r_values=three).validate()


def test_budget_counts_the_rows_run_sweep_holds():
    # 10^8 rows, about 30 GiB of SweepRows, where the arrays alone plan for 0.27 GiB
    config = SweepConfig(s_values=[0.002 * i for i in range(1000)], r_values=[0.0, 0.25, 0.7, 0.99],
                         initials=("gg", "ee"), lt_stop=15.0, lt_steps=12500)
    assert sweep_mod._peak_bytes(313, config.lt_steps, "analytic", 4) < sweep_mod.MEMORY_BUDGET
    with pytest.raises(ConfigError, match="take fewer --lt-steps or take fewer --r values, "
                                          "--s values or --initial states"):
        config.validate()


@pytest.mark.parametrize("engine", ["analytic", "both"])
def test_row_bytes_cover_the_rows_run_sweep_holds(engine):
    # 10 000 rows at a small cutoff, so the rows outweigh the series' arrays
    config = SweepConfig(s_values=[0.3], r_values=[0.0, 0.7], lt_stop=15.0, lt_steps=2500,
                         initials=("gg", "ee"), engine=engine, n_max=6)
    run_sweep(replace(config, lt_steps=1))  # first-call allocations stay out of the count
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = run_sweep(config)
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(rows) == 10000
    assert held <= sweep_mod.ROW_BYTES * len(rows)
    assert peak <= sweep_mod._peak_bytes(6, config.lt_steps, engine, 2) + sweep_mod.ROW_BYTES * len(rows)


def test_standard_grids_fit_the_memory_budget():
    for config in (preset_config("fig2"), preset_config("fig3"), default_verify_config()):
        config.validate()


def test_both_engines_at_fig2_top_squeezing_fit_the_memory_budget():
    # s = 2 needs n_max 314: the field's sector blocks take 167 MB, where a
    # dense field took 16 (n+1)^4 B, 147 GiB; the estimate is held against
    # tracemalloc at n_max 106 above
    config = SweepConfig(s_values=[2.0], engine="both")
    assert config.policy().resolve(SqueezeParam(2.0))[0] == 314
    config.validate()


def test_verify_group_holds_no_dense_field():
    # one s = 1 group of the default verify grid, both initials, at n_max 42:
    # a dense field alone would take 16 (n+1)^4 B, 55 MB
    config = replace(default_verify_config(), s_values=[1.0], r_values=[0.25])
    assert config.policy().resolve(SqueezeParam(1.0))[0] == 42
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = [row for group, _ in sweep_mod._walk(config) for row in group]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(rows) == 2 * config.lt_steps
    assert peak < 5 * 2**20


def test_row_formatting_uses_twelve_significant_digits():
    row = SweepRow(s=1.0 / 3.0, r=0.0, lambda_t=2.0, initial="gg",
                   measure=2.0 / 3.0, n_max=9, tail_weight=1.25e-11, engine="analytic")
    line = row.csv_line()
    assert line.split(",")[0] == "0.333333333333"
    assert line.split(",")[4] == "0.666666666667"
    assert line.endswith(",analytic,")  # empty disagreement column


# ------------------------------------------------------------ CLI plumbing


def test_cli_sweep_to_stdout(capsys):
    assert main(["sweep", "--s", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert out[0] == "s,r,lambda_t,initial,measure,n_max,tail_weight,engine,disagreement"
    assert len(out) == 2
    assert out[1].startswith("0,0,0,gg,0,4,0,analytic")


def test_cli_sweep_writes_file_deterministically(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", *SMALL, "--initial", "gg,ee", "--engine", "analytic"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 1 * 2 * 2 * 2


def test_cli_n_max_override(capsys):
    assert main(["sweep", "--s", "0.65", "--n-max", "8", "--lt-start", "3", "--lt-stop", "3"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line.split(",")[5] == "8"


def test_cli_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "rows.csv"
    cfg.write_text(
        "# small sanity grid\n"
        "s = 0.3\n"
        "r = 0, 0.7\n"
        "lt-stop = 2  # hyphenated keys are fine too\n"
        "lt_steps = 3\n"
        f"out = {out}\n"
    )
    # flag overrides the file's lt_steps, everything else comes from the file
    assert main(["sweep", "--config", str(cfg), "--lt-steps", "2"]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 1 * 2 * 1 * 2
    times = {line.split(",")[2] for line in lines[1:]}
    assert times == {"0", "2"}


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("squeeze = 0.3\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    assert "squeeze" in capsys.readouterr().err


def test_cli_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"s = 0.5\xff\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cvqubits: error: ")
    assert str(cfg) in err


def test_cli_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["sweep", "--s", "0.3", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_cli_unwritable_output_is_io_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["sweep", "--s", "0.3", "--out", str(target)]) == 2


def test_cli_flag_mistakes_exit_one(capsys):
    assert main(["sweep", "--s", "abc"]) == 1
    assert main(["sweep", "--s", "0.3", "--bogus", "1"]) == 1
    assert main(["sweep", "--s", "0.3", "--engine", "magic"]) == 1
    assert main(["sweep", "--s", "0.3", "--r", "2.0"]) == 1
    assert main(["preset", "fig9"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("flags,knob", [
    (["--lt-stop", "inf", "--lt-steps", "3"], "lt-stop"),
    (["--lt-start", "nan"], "lt-start"),
    (["--tail-tol", "inf"], "tail-tol"),
])
def test_cli_rejects_non_finite_inputs(flags, knob, capsys):
    assert main(["sweep", "--s", "0.5", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{knob} must be finite" in captured.err


def test_cli_strong_squeezing_needs_an_explicit_cutoff(capsys):
    assert main(["sweep", "--s", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cvqubits: error:")
    assert "--n-max" in captured.err
    assert main(["sweep", "--s", "20", "--n-max", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[5] == "6"


@pytest.mark.parametrize("flags,knob", [
    (["--s", "0.5", "--lt-start", "1e308", "--lt-stop", "1e308"], "--lt-stop"),
    (["--s", "0.5", "--lt-start", "1e308", "--lt-stop", "1e308", "--engine", "both"], "--lt-stop"),
    (["--s", "0.5", "--lt-stop", "1e308", "--lt-steps", "3", "--engine", "oracle"], "--lt-stop"),
    (["--s", "400", "--n-max", "5"], "--s"),
    (["--s", "0.3,800", "--n-max", "5"], "--s"),
])
def test_cli_rejects_overflowing_inputs(flags, knob, capsys):
    # a finite lambda_t whose Rabi angle overflows printed measure 0; an s
    # whose cosh^2 overflows ended in a traceback
    assert main(["sweep", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cvqubits: error:") and knob in captured.err


def test_squeezing_limit_is_where_cosh_squared_overflows():
    for s in (355.5, 356.0, 400.0, 800.0):
        try:
            math.cosh(s) ** 2
            overflows = False
        except OverflowError:
            overflows = True
        config = SweepConfig(s_values=[s], n_max=5, engine="both")
        if overflows:
            with pytest.raises(ConfigError, match="--s"):
                config.validate()
        else:
            assert run_sweep(config)[0].disagreement < DISAGREE_TOL


def test_lt_stop_limit_is_the_largest_rabi_angle():
    # at n_max 5 the padded dense transit reaches level n_max + 3 = 8
    near_max = 1.7e308
    config = SweepConfig(s_values=[0.3], n_max=5, lt_start=1.0, lt_stop=near_max / math.sqrt(8),
                         lt_steps=3, engine="both")
    assert all(row.disagreement < DISAGREE_TOL for row in run_sweep(config))
    with pytest.raises(ConfigError, match="--lt-stop"):
        replace(config, lt_stop=near_max / math.sqrt(7)).validate()


def test_cli_rejects_a_run_over_the_memory_budget(capsys):
    assert main(["sweep", "--s", "3", "--engine", "both"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimated peak memory" in captured.err
    assert "--n-max" in captured.err and "--tail-tol" in captured.err


def test_cli_rejects_an_analytic_ladder_over_the_memory_budget(monkeypatch, capsys):
    # the splitting ladder alone is 8 (n_max+2)^2 B: 3.2 GB at n_max 20 000;
    # a series that starts anyway fails at once instead of allocating it
    assert 8 * (20000 + 2) ** 2 > sweep_mod.MEMORY_BUDGET

    def started(*args, **kwargs):
        raise AssertionError("validate let the run start")

    monkeypatch.setattr(sweep_mod, "binom_ladder", started)
    monkeypatch.setattr(sweep_mod, "xstate_series", started)
    assert main(["sweep", "--s", "0.5", "--n-max", "20000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "estimated peak memory" in captured.err and "--n-max" in captured.err


def test_cli_has_no_threads_setting(tmp_path, capsys):
    assert main(["sweep", "--s", "0.3", "--threads", "2"]) == 1
    assert capsys.readouterr().err.startswith("cvqubits: error:")
    cfg = tmp_path / "old.cfg"
    cfg.write_text("s = 0.3\nthreads = 2\n")
    assert main(["sweep", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cvqubits: error:") and "threads" in err


def test_cli_preset_fig2_grid(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["preset", "fig2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 41 * 3
    first = lines[1].split(",")
    assert first[2] == "11" and first[3] == "gg"


def test_preset_configs_are_wired():
    fig3 = preset_config("fig3")
    assert fig3.s_values == [0.65]
    assert fig3.lt_steps == 151
    assert set(fig3.initials) == {"ee", "gg"}
    with pytest.raises(ConfigError):
        preset_config("fig1")


# ------------------------------------------------------------ verification


def test_cli_verify_clean_grid(capsys):
    assert main(["verify", *SMALL, "--initial", "gg"]) == 0
    out = capsys.readouterr().out
    assert "verification PASS" in out
    assert out.count("\n") == 4 + 1  # one line per point plus the summary


def test_cli_verify_catches_corrupted_engine(capsys, monkeypatch):
    # corrupt the closed-form corner coherence the walk reads
    real = sweep_mod.xstate_series

    def skewed(*args, **kwargs):
        x = real(*args, **kwargs)
        return replace(x, e_coh=x.e_coh + 1e-5)

    monkeypatch.setattr(sweep_mod, "xstate_series", skewed)
    assert main(["verify", *SMALL, "--initial", "gg"]) == 3
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "engines disagree" in captured.out


def test_cli_sweep_both_exits_three_on_disagreement(tmp_path, capsys, monkeypatch):
    # corrupt the closed-form measure only: rows still get written, then the
    # disagreement gate trips
    real = sweep_mod.negativity_closed_form
    monkeypatch.setattr(sweep_mod, "negativity_closed_form", lambda x: real(x) + 1e-4)
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--s", "0.3", "--lt-stop", "1", "--lt-steps", "2",
                 "--engine", "both", "--out", str(out)])
    assert code == 3
    assert out.exists() and len(out.read_text().splitlines()) == 3
    assert "disagree" in capsys.readouterr().err


def test_module_entry_point_smoke():
    # the child finds this checkout's package whether or not PYTHONPATH names it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "cvqubits", "sweep", "--s", "0.3", "--lt-stop", "1", "--lt-steps", "2"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == CSV_HEADER


def spoil_hermiticity(m):
    m[1, 2] += 1e-6


def spoil_trace(m):
    m *= 1.01


def spoil_positivity(m):
    m[2, 2] += m[1, 1] + 0.01
    m[1, 1] = -0.01


@pytest.mark.parametrize("spoil", [spoil_hermiticity, spoil_trace, spoil_positivity])
def test_cli_verify_names_the_one_spoiled_point(spoil, capsys, monkeypatch):
    # spoil one time of the first dense stack; only that point may fail, in
    # DensityOperator.validate's words
    real = sweep_mod.reduce_atoms_series
    expected = []

    def spoiled(atoms, field, lts):
        stack = real(atoms, field, lts)
        if not expected:
            spoil(stack[1])
            try:
                DensityOperator(TruncatedFockSpace((2, 2)), stack[1], field.tail_weight).validate(
                    herm_tol=1e-10, trace_tol=1e-10)
            except ValueError as err:
                expected.append(str(err))
        return stack

    monkeypatch.setattr(sweep_mod, "reduce_atoms_series", spoiled)
    assert main(["verify", *SMALL, "--initial", "gg"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(expected) == 1
    failing = [line for line in lines[:-1] if "FAIL" in line]
    assert len(failing) == 1
    assert failing[0].startswith("s=0.3 r=0 initial=gg lambda_t=2 ")
    assert expected[0] in failing[0]
    assert lines[-1].startswith("verification FAIL (1 of 4 points)")
    if spoil is spoil_hermiticity:  # no measure, so no disagreement: the summary must not hide it
        assert lines[-1].endswith("worst disagreement nan")


def test_oracle_measure_keeps_nan_and_signs_zero_positive(monkeypatch, capsys):
    config = SweepConfig(s_values=[0.0], lt_stop=1.0, lt_steps=3, engine="oracle")
    assert main(["sweep", "--s", "0", "--lt-stop", "1", "--lt-steps", "3", "--engine", "both"]) == 0
    for line in capsys.readouterr().out.splitlines()[1:]:
        assert line.split(",")[4] == "0"
    assert all(math.copysign(1.0, row.measure) == 1.0 for row in run_sweep(config))

    real = sweep_mod.reduce_atoms_series

    def poisoned(atoms, field, lts):
        stack = real(atoms, field, lts)
        stack[1, 3, 3] = np.nan
        return stack

    monkeypatch.setattr(sweep_mod, "reduce_atoms_series", poisoned)
    measures = [row.measure for row in run_sweep(config)]
    assert measures[0] == measures[2] == 0.0 and math.isnan(measures[1])
