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
from contextlib import nullcontext
from dataclasses import replace

from .sweep import (
    DISAGREE_TOL,
    ConfigError,
    SweepConfig,
    VerificationError,
    _named,
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


def _typed(kind, expected: str):
    """A parser applying ``kind``; a value it refuses is a ConfigError naming ``expected``."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise ConfigError(f"expected {expected}, got {text!r}") from None
    return parse


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip() != "")


_LIST = _typed(lambda text: [float(part) for part in _name_list(text)], "a comma-separated list of numbers")
_INT = _typed(int, "an integer")
_FLOAT = _typed(float, "a number")

# config-file key / flag name -> (SweepConfig field, parser, metavar, help).
# Both layers funnel through this one table so a value behaves identically
# whether it came from a file or from the command line, and every
# subcommand's flags are built from it, in this order.
_SETTINGS = {
    "s": ("s_values", _LIST, "LIST", "squeezing values, comma separated"),
    "r": ("r_values", _LIST, "LIST", "beam-splitter reflection values in [0, 1], comma separated"),
    "lt_start": ("lt_start", _FLOAT, "X", "first interaction time (lambda*t)"),
    "lt_stop": ("lt_stop", _FLOAT, "X", "last interaction time"),
    "lt_steps": ("lt_steps", _INT, "N", "number of time samples (>= 1)"),
    "initial": ("initials", _name_list, "LIST", "initial atom states, comma separated (gg, ee)"),
    "engine": ("engine", str.strip, "NAME", "analytic, oracle, or both"),
    "tail_tol": ("tail_tol", _FLOAT, "X", "photon-number tail probability kept out of the cutoff"),
    "n_max": ("n_max", _INT, "N", "explicit photon-number cutoff (overrides --tail-tol)"),
    "out": ("out", str, "PATH", "write output here instead of stdout"),
}

# subcommand -> (help, the settings it starts from before the config file and flags)
_COMMANDS = {
    "sweep": ("evaluate the measure over a parameter grid", lambda args: SweepConfig()),
    "preset": ("run a named standard grid", lambda args: preset_config(args.name)),
    "verify": ("cross-check the closed forms against the dense oracle", lambda args: default_verify_config()),
}

# error type -> exit code; anything else is a bug and keeps its traceback
_EXIT_CODES = {ConfigError: 1, OSError: 2, VerificationError: 3}


def build_parser() -> _Parser:
    parser = _Parser(prog="cvqubits", description=__doc__.splitlines()[0], allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        if command == "preset":
            p.add_argument("name", choices=("fig2", "fig3"), help="which standard grid")
        g = p.add_argument_group("grid")
        for key, (_, _, metavar, text) in _SETTINGS.items():
            g.add_argument(f"--{key.replace('_', '-')}", action="append", metavar=metavar, help=text)
        g.add_argument("--config", action="append", metavar="PATH",
                       help="key = value settings file (flags still win)")
    return parser


def _setting(key: str) -> str:
    """The ``_SETTINGS`` name a flag or config-file key spells: ``LT-Stop`` is ``lt_stop``."""
    return key.strip().lower().replace("-", "_")


def _read_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped.

    A setting given twice, under one spelling or two (``lt-stop`` and
    ``lt_stop``), is a ConfigError naming both lines.
    """
    settings: dict[str, str] = {}
    lines_of: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
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
        key, value = (part.strip() for part in line.split("=", 1))
        name = _setting(key)
        if name in lines_of:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} repeats the setting on line {lines_of[name]}; "
                f"give each setting once"
            )
        lines_of[name] = lineno
        settings[key] = value
    return settings


def _apply(config: SweepConfig, key: str, raw, source: str) -> SweepConfig:
    name = _setting(key)
    if name not in _SETTINGS:
        known = ", ".join(sorted(_SETTINGS))
        raise ConfigError(f"{source}: unknown setting (known: {known})")
    field_name, parse = _SETTINGS[name][:2]
    return replace(config, **{field_name: _named(source, parse, raw)})


def _once(args: argparse.Namespace, key: str):
    """The value of flag ``--key``, or None; a flag given twice is a ConfigError."""
    values = getattr(args, key) or [None]
    if len(values) > 1:
        raise ConfigError(f"--{key.replace('_', '-')} given {len(values)} times; give each flag once")
    return values[0]


def _resolve_config(config: SweepConfig, args: argparse.Namespace) -> SweepConfig:
    flags = {key: _once(args, key) for key in ("config", *_SETTINGS)}
    path = flags.pop("config")
    if path is not None:
        for key, value in _read_config_file(path).items():
            config = _apply(config, key, value, source=f"{path}, key {key!r}")
    for key, value in flags.items():
        if value is not None:
            config = _apply(config, key, value, source=f"--{key.replace('_', '-')}")
    return config.validate()


def _output(config: SweepConfig):
    """The stream a command writes to: the ``--out`` file, or stdout."""
    if config.out is None:
        return nullcontext(sys.stdout)
    return open(config.out, "w", encoding="utf-8", newline="\n")


def _dispatch(args: argparse.Namespace) -> int:
    config = _resolve_config(_COMMANDS[args.command][1](args), args)
    if args.command == "verify":
        if config.engine != "both":  # verify walks both engines, whatever the setting says
            raise ConfigError(f"verify runs both engines: --engine must be 'both', got {config.engine!r}")
        with _output(config) as fh:
            ok = verify(config, fh)
        if not ok:
            raise VerificationError("cross-engine verification failed")
        return 0
    rows = run_sweep(config)
    with _output(config) as fh:
        write_csv(rows, fh)
    if config.engine == "both":
        worst = worst_disagreement(rows)
        if not worst < DISAGREE_TOL:  # a NaN fails too
            raise VerificationError(
                f"engines disagree by up to {worst:.3e} (tolerance {DISAGREE_TOL:.0e})"
            )
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _dispatch(args)
    except tuple(_EXIT_CODES) as err:
        print(f"cvqubits: error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


def entry() -> None:
    raise SystemExit(main())
