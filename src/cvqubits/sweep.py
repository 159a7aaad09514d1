"""Grid evaluation engine behind the command line.

A sweep walks the (s, r, initial, lambda_t) grid in a fixed nesting order,
computes the entanglement measure with the requested engine(s), and emits
one CSV row per point.  The walk is serial and goes one (s, r) group at
a time: both engines evaluate each (s, r, initial) as one series over
all times -- the analytic engine in closed form, the oracle through the
dense reduced-state series, which walks the times in fixed-size chunks
so its working memory does not grow with their number -- and the
oracle's injected field lives only while its group is walked.  Number
formatting and grid generation are deterministic, so rerunning a
configuration reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import INITIALS, negativity_closed_form, xstate_series
from .entanglement import _HERM_TOL, negativity_general
from .fieldprep import (
    CouplingParam, SqueezeParam, TruncationPolicy, _times, _whole, binom_ladder, inject, squeezed_state,
)
from .jcdynamics import EVOLVE_PAD, SERIES_CHUNK, AtomState, reduce_atoms_series
from .tensorops import PSD_FLOOR, _violations

__all__ = [
    "ConfigError",
    "VerificationError",
    "SweepConfig",
    "SweepRow",
    "CSV_HEADER",
    "DISAGREE_TOL",
    "run_sweep",
    "write_csv",
    "verify",
    "preset_config",
    "default_verify_config",
]

ENGINES = ("analytic", "oracle", "both")
CSV_HEADER = "s,r,lambda_t,initial,measure,n_max,tail_weight,engine,disagreement"
DISAGREE_TOL = 1e-8
# Largest peak memory a configuration may plan for; validate() rejects
# anything estimated above it before an array is allocated.
MEMORY_BUDGET = 2 * 2**30
# Bytes run_sweep holds per row until write_csv runs.  tracemalloc over
# 200 000 rows: 208 B per SweepRow with its own floats (233 B with a
# disagreement), and a peak of 268 B per row over the whole walk.
ROW_BYTES = 320


class ConfigError(ValueError):
    """Bad parameter ranges or malformed configuration (exit code 1)."""


class VerificationError(RuntimeError):
    """The two engines disagreed beyond tolerance (exit code 3)."""


@dataclass
class SweepConfig:
    s_values: list[float] = field(default_factory=list)
    r_values: list[float] = field(default_factory=lambda: [0.0])
    lt_start: float = 0.0
    lt_stop: float = 0.0
    lt_steps: int = 1
    initials: tuple[str, ...] = ("gg",)
    engine: str = "analytic"
    tail_tol: float = TruncationPolicy.tail_tol
    n_max: int | None = None
    out: str | None = None

    def validate(self) -> "SweepConfig":
        if not self.s_values:
            raise ConfigError("no squeezing values given (use --s)")
        for s in self.s_values:
            _named("--s", SqueezeParam, s)
        if not self.r_values:
            raise ConfigError("no reflection values given (use --r)")
        for r in self.r_values:
            _named("--r", CouplingParam, r)
        _named("--lt-start", _times, [self.lt_start])
        _named("--lt-stop", _times, [self.lt_stop])
        _whole(self.lt_steps, "--lt-steps", 1, ConfigError)
        if self.lt_stop < self.lt_start:
            raise ConfigError(f"--lt-stop {self.lt_stop} is below --lt-start {self.lt_start}")
        if self.lt_steps == 1 and self.lt_stop != self.lt_start:
            raise ConfigError(
                f"--lt-steps 1 samples only --lt-start {self.lt_start}, so --lt-stop {self.lt_stop} "
                f"would be dropped; take more --lt-steps or set --lt-stop to --lt-start"
            )
        if not self.initials:
            raise ConfigError("no initial atom states given (use --initial)")
        for ini in self.initials:
            if ini not in INITIALS:
                raise ConfigError(f"initial state must be one of {INITIALS}, got {ini!r} (--initial)")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r} (--engine)")
        _named("--tail-tol", TruncationPolicy, self.tail_tol)
        if self.n_max is not None:
            _whole(self.n_max, "--n-max", 1, ConfigError)
        policy = self.policy()
        n_top = max(_named("--n-max", policy.resolve, s)[0] for s in self.s_values)
        # the largest Rabi angle, lambda_t sqrt(n) at the dense transit's top padded level
        if not math.isfinite(self.lt_stop * math.sqrt(n_top + 1 + EVOLVE_PAD)):
            raise ConfigError(
                f"lt-stop {self.lt_stop} overflows the largest Rabi angle; lower --lt-stop"
            )
        # the walk holds one ladder per distinct r (0.0 and -0.0 are one)
        need = _peak_bytes(n_top, self.lt_steps, self.engine, len(set(self.r_values)))
        # run_sweep also holds every row of the grid until write_csv runs
        need += ROW_BYTES * len(self.s_values) * len(self.r_values) * len(self.initials) * self.lt_steps
        if need > MEMORY_BUDGET:
            raise ConfigError(
                f"estimated peak memory {need / 2**30:.3g} GiB at n_max {n_top} exceeds the "
                f"{MEMORY_BUDGET / 2**30:.3g} GiB budget; lower --n-max, raise --tail-tol, "
                f"take fewer --lt-steps or take fewer --r values, --s values or --initial states"
            )
        return self

    def policy(self) -> TruncationPolicy:
        return TruncationPolicy(tail_tol=self.tail_tol, n_max=self.n_max)

    def lt_values(self) -> np.ndarray:
        return np.linspace(self.lt_start, self.lt_stop, int(self.lt_steps))


def _named(knob: str, check, *args):
    """``check(*args)``, whose ValueError becomes a ConfigError naming ``knob``: a flag, or a file and key."""
    try:
        return check(*args)
    except ValueError as err:
        raise ConfigError(f"{err} ({knob})") from None


def _peak_bytes(n_max: int, lt_steps: int, engine: str, r_count: int = 1) -> int:
    """Peak bytes of a walk at top cutoff n_max over r_count distinct r, from the array shapes.

    The analytic engine holds one (n+2)-square splitting ladder per r for
    the whole walk, 8 (n+2)^2 B each, and one ladder-sized product of a
    series next to them: 16 (n+2)^2 B for one r (tracemalloc over ten
    values of r at n_max 314 and one time: 8.93 MB, against 9.07 MB
    estimated).  A series takes 72 B per (rung, time) in its
    trig tables, level sums and their temporaries; 64 B per time for the
    returned arrays (tracemalloc: 56 B at n_max 1); and up to 256 KiB of
    numpy buffers (tracemalloc: 1.74 MB at n_max 314 with one time, 9.5 MB
    at n_max 63 with 2000).
    The oracle holds the injected field as its real nA - nB sector blocks,
    8 ((n+1)^2 + n(n+1)(2n+1)/3) B in one buffer (0.42 MB at n_max 42).
    The blocks' indices, the field's gather tables, inject's ladder (none
    under "both") and the nonzero field slices, kept with the field, sit by
    it: tracemalloc put them at 124 B per (n+1)^2 at n_max 106 and 119 B at
    n_max 200 (one time, superposition), and 192 B leaves half as much
    again.  The series walks the times SERIES_CHUNK at a time, holding the
    transit's amplitudes and propagator diagonals of a chunk, under 1024 B
    per (n+1) per time (tracemalloc, all four atom columns occupied: about
    870 B at n_max 20 to 200).  It returns a 256 B state per time;
    measuring it takes up to five more of its size, 1536 B per time in
    all (tracemalloc over the walk: 1424 B per time at n_max 13).  Up to
    64 KiB of small arrays and buffers come on top (a one-time series
    takes 8.0 kB at n_max 4 for ee, 13.3 kB for a superposition).
    """
    need = 0
    if engine in ("analytic", "both"):
        rungs = n_max + 2
        need += 8 * rungs**2 * (r_count + 1) + (72 * rungs + 64) * lt_steps + 2**18
    if engine in ("oracle", "both"):
        chunk = min(lt_steps, SERIES_CHUNK)
        need += 8 * ((n_max + 1) ** 2 + n_max * (n_max + 1) * (2 * n_max + 1) // 3)
        need += 192 * (n_max + 1) ** 2 + 1024 * chunk * (n_max + 1) + 1536 * lt_steps + 2**16
    return need


@dataclass(frozen=True)
class SweepRow:
    s: float
    r: float
    lambda_t: float
    initial: str
    measure: float
    n_max: int
    tail_weight: float
    engine: str
    disagreement: float | None = None

    def csv_line(self) -> str:
        return ",".join(
            (
                _fmt(self.s),
                _fmt(self.r),
                _fmt(self.lambda_t),
                self.initial,
                _fmt(self.measure),
                str(self.n_max),
                _fmt(self.tail_weight),
                self.engine,
                "" if self.disagreement is None else _fmt(self.disagreement),
            )
        )


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _walk(config: SweepConfig):
    """Yield (rows, oracle states) per (s, r, initial), in emission order.

    Emission order is s, then r, then initial, then time.  Each engine
    evaluates each (s, r, initial) as one series over all times, as
    arrays: ``xstate_series`` for the analytic engine,
    ``reduce_atoms_series`` for the oracle, which takes the times
    SERIES_CHUNK at a time and whose (T, 4, 4) stack comes along with the
    rows (None for the analytic engine alone).  The oracle injects one
    field when an (s, r) group starts and drops it when the group ends;
    the field keeps the slices its series gather, so the group's series
    share them.  The analytic engine builds one splitting ladder per r
    when a group first meets that r, at the walk's top cutoff, and keeps
    it for the whole walk: the ladder does not depend on s, and every
    series reads its top-left corner.  Under "both", inject reads that
    corner too and builds no ladder of its own; with the oracle alone it
    builds one per group.
    """
    config.validate()
    policy = config.policy()
    lts = config.lt_values()
    use_analytic = config.engine in ("analytic", "both")
    use_oracle = config.engine in ("oracle", "both")
    n_top = max(policy.resolve(s)[0] for s in config.s_values)
    ladders = {}
    for s in config.s_values:
        sq = SqueezeParam(s)
        n_max, tail = policy.resolve(sq)
        psi = squeezed_state(sq, policy) if use_oracle else None
        for r in config.r_values:
            if use_analytic and r not in ladders:
                ladders[r] = binom_ladder(n_top + 1, CouplingParam(r))
            ladder = ladders.get(r)
            field = inject(psi, CouplingParam(r), ladder=ladder) if use_oracle else None
            for initial in config.initials:
                gaps = dense = None
                if use_oracle:
                    dense = reduce_atoms_series(AtomState(initial), field, lts)
                    # a state that is not Hermitian has no spectrum to measure; verify says why
                    hermitian = np.abs(dense - dense.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= _HERM_TOL
                    measure = np.full(len(lts), np.nan)
                    measure[hermitian] = negativity_general(dense[hermitian]).measure
                if use_analytic:
                    x = xstate_series(s, r, lts, n_max, initial, ladder)
                    closed = negativity_closed_form(x)
                    if use_oracle:
                        # worst distance over the X elements a, b, c, d, e_coh and the measure
                        ours = np.stack((x.a, x.b, x.c, x.d, x.e_coh, closed), axis=1)
                        x_part = dense[:, [0, 1, 2, 3, 0], [0, 1, 2, 3, 3]].real
                        theirs = np.column_stack((x_part, measure))
                        gaps = np.abs(ours - theirs).max(axis=1).tolist()
                    measure = closed
                yield [
                    SweepRow(s, r, lt, initial, m, n_max, tail, config.engine, gap)
                    for lt, m, gap in zip(lts.tolist(), measure.tolist(), gaps or [None] * len(lts))
                ], dense
            field = None  # release this group's field before the next one is built


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Evaluate the grid in one serial walk; rows come back in emission order.

    With engine "both" each row carries the worst element-wise distance
    between the two engines; the caller decides whether that is fatal
    (the CLI exits nonzero past DISAGREE_TOL).
    """
    return [row for rows, _ in _walk(config) for row in rows]


def write_csv(rows: list[SweepRow], stream) -> None:
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        stream.write(row.csv_line() + "\n")


def worst_disagreement(rows: list[SweepRow]) -> float:
    """Largest disagreement over the rows; NaN if any is NaN."""
    return float(np.max([r.disagreement for r in rows if r.disagreement is not None], initial=0.0))


def default_verify_config() -> SweepConfig:
    """The standing cross-engine grid: every formula against the dense path."""
    return SweepConfig(
        s_values=[0.3, 0.65, 1.0],
        r_values=[0.0, 0.25, 0.7, 0.99],
        lt_start=0.0,
        lt_stop=15.0,
        lt_steps=16,
        initials=("gg", "ee"),
        engine="both",
    )


def verify(config: SweepConfig, stream=None) -> bool:
    """Hold the closed forms against the dense oracle, point by point.

    Consumes the same walk as ``run_sweep(engine="both")`` and checks the
    oracle's reduced states one (s, r, initial) stack at a time: their
    leak out of the X pattern, and the invariants of
    ``DensityOperator.validate``, in its words.  Prints one line per grid
    point with the worst element-wise deviation; returns False (and names
    the offending point) on any violation.
    """
    stream = stream if stream is not None else sys.stdout
    failures = 0
    worst = 0.0
    count = 0
    for rows, dense in _walk(replace(config, engine="both")):
        # what an X state leaves at zero: five entries above the diagonal, the corner's imaginary part
        leaks = np.column_stack((np.abs(dense[:, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3]]),
                                 np.abs(dense[:, 0, 3].imag)))
        worst = np.maximum(worst, worst_disagreement(rows))  # a NaN sticks
        invalid = _violations(dense, rows[0].tail_weight, herm_tol=_HERM_TOL, psd_floor=PSD_FLOOR,
                              trace_tol=1e-10)
        for row, off_x, violation in zip(rows, leaks.max(axis=1).tolist(), invalid):
            disagreement = row.disagreement
            problems = []
            if not disagreement < DISAGREE_TOL:
                problems.append(f"engines disagree by {disagreement:.3e}")
            if not off_x < 1e-9:
                problems.append(f"reduced state leaks outside the X pattern by {off_x:.3e}")
            if violation is not None:
                problems.append(violation)

            count += 1
            tag = "ok" if not problems else "FAIL " + "; ".join(problems)
            stream.write(
                f"s={_fmt(row.s)} r={_fmt(row.r)} initial={row.initial} lambda_t={_fmt(row.lambda_t)} "
                f"n_max={row.n_max} disagreement={disagreement:.3e} {tag}\n"
            )
            failures += bool(problems)

    verdict = "PASS" if failures == 0 else f"FAIL ({failures} of {count} points)"
    stream.write(f"verification {verdict}: {count} points, worst disagreement {worst:.3e}\n")
    return failures == 0


def preset_config(name: str) -> SweepConfig:
    """Named parameter grids for the two standard plots."""
    if name == "fig2":
        # entanglement against squeezing at fixed time; the interesting
        # structure (rise, peak near s = 0.65, slow decay) fits in [0, 2]
        return SweepConfig(
            s_values=[round(0.05 * i, 10) for i in range(41)],
            r_values=[0.0, 0.25, 0.7],
            lt_start=11.0,
            lt_stop=11.0,
            lt_steps=1,
            initials=("gg",),
            engine="analytic",
            out="fig2.csv",
        )
    if name == "fig3":
        # entanglement against time at the peak squeezing, four couplings,
        # both initial preparations
        return SweepConfig(
            s_values=[0.65],
            r_values=[0.0, 0.25, 0.7, 0.99],
            lt_start=0.0,
            lt_stop=15.0,
            lt_steps=151,
            initials=("ee", "gg"),
            engine="analytic",
            out="fig3.csv",
        )
    raise ConfigError(f"unknown preset {name!r} (expected fig2 or fig3)")
