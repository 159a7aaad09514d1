"""Command-line front end.

Three subcommands:

``sweep``
    Evaluate the entanglement measure over a parameter grid and write CSV.
``preset``
    Run one of the named standard grids (``fig2``, ``fig3``).
``verify``
    Hold the closed-form engine against the dense oracle point by point.

Settings come from three layers: built-in defaults (or the chosen preset),
then a ``key = value`` config file (``--config``), then explicit flags.
Later layers win.  Exit codes: 0 success, 1 bad configuration, 2 I/O
failure, 3 cross-engine verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .sweep import (
    DISAGREE_TOL,
    ConfigError,
    SweepConfig,
    VerificationError,
    default_verify_config,
    preset_config,
    run_sweep,
    verify,
    worst_disagreement,
    write_csv,
)

__all__ = ["build_parser", "main", "entry"]


class _Parser(argparse.ArgumentParser):
    """argparse, but flag mistakes are configuration errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip() != "")


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None


# config-file key / flag name -> (SweepConfig field, parser).  Both layers
# funnel through this one table so a value behaves identically whether it
# came from a file or from the command line.
_SETTINGS = {
    "s": ("s_values", _float_list),
    "r": ("r_values", _float_list),
    "lt_start": ("lt_start", _float),
    "lt_stop": ("lt_stop", _float),
    "lt_steps": ("lt_steps", _int),
    "initial": ("initials", _name_list),
    "engine": ("engine", str.strip),
    "tail_tol": ("tail_tol", _float),
    "n_max": ("n_max", _int),
    "out": ("out", str),
}


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("grid")
    g.add_argument("--s", metavar="LIST", help="squeezing values, comma separated")
    g.add_argument("--r", metavar="LIST", help="beam-splitter reflection values in [0, 1], comma separated")
    g.add_argument("--lt-start", metavar="X", help="first interaction time (lambda*t)")
    g.add_argument("--lt-stop", metavar="X", help="last interaction time")
    g.add_argument("--lt-steps", metavar="N", help="number of time samples (>= 1)")
    g.add_argument("--initial", metavar="LIST", help="initial atom states, comma separated (gg, ee)")
    g.add_argument("--engine", metavar="NAME", help="analytic, oracle, or both")
    g.add_argument("--tail-tol", metavar="X", help="photon-number tail probability kept out of the cutoff")
    g.add_argument("--n-max", metavar="N", help="explicit photon-number cutoff (overrides --tail-tol)")
    g.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    g.add_argument("--config", metavar="PATH", help="key = value settings file (flags still win)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cvqubits", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_sweep = sub.add_parser("sweep", help="evaluate the measure over a parameter grid", allow_abbrev=False)
    _add_grid_flags(p_sweep)

    p_preset = sub.add_parser("preset", help="run a named standard grid", allow_abbrev=False)
    p_preset.add_argument("name", choices=("fig2", "fig3"), help="which standard grid")
    _add_grid_flags(p_preset)

    p_verify = sub.add_parser("verify", help="cross-check the closed forms against the dense oracle", allow_abbrev=False)
    _add_grid_flags(p_verify)

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    settings: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: not UTF-8 text ({err.reason})") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def _apply(config: SweepConfig, key: str, raw, source: str) -> SweepConfig:
    name = key.strip().lower().replace("-", "_")
    if name not in _SETTINGS:
        known = ", ".join(sorted(_SETTINGS))
        raise ConfigError(f"{source}: unknown setting {key!r} (known: {known})")
    field_name, parse = _SETTINGS[name]
    return replace(config, **{field_name: parse(raw)})


def _resolve_config(base: SweepConfig, args: argparse.Namespace) -> SweepConfig:
    config = base
    if args.config is not None:
        for key, value in _read_config_file(args.config).items():
            config = _apply(config, key, value, source=args.config)
    for key in _SETTINGS:
        value = getattr(args, key)
        if value is not None:
            config = _apply(config, key, value, source=f"--{key.replace('_', '-')}")
    return config.validate()


def _emit_rows(config: SweepConfig) -> None:
    rows = run_sweep(config)
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
            write_csv(rows, fh)
    else:
        write_csv(rows, sys.stdout)
    if config.engine == "both":
        worst = worst_disagreement(rows)
        if not worst < DISAGREE_TOL:  # a NaN fails too
            raise VerificationError(
                f"engines disagree by up to {worst:.3e} (tolerance {DISAGREE_TOL:.0e})"
            )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "sweep":
        _emit_rows(_resolve_config(SweepConfig(), args))
        return 0
    if args.command == "preset":
        _emit_rows(_resolve_config(preset_config(args.name), args))
        return 0
    if args.command == "verify":
        config = _resolve_config(default_verify_config(), args)
        if config.out is not None:
            with open(config.out, "w", encoding="utf-8", newline="\n") as fh:
                ok = verify(config, fh)
        else:
            ok = verify(config, sys.stdout)
        if not ok:
            raise VerificationError("cross-engine verification failed")
        return 0
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except ConfigError as err:
        print(f"cvqubits: error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"cvqubits: error: {err}", file=sys.stderr)
        return 2
    except VerificationError as err:
        print(f"cvqubits: error: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    raise SystemExit(main())
