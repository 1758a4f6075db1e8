"""Command-line front end over models, decisions, experiments, and censuses.

Each subcommand takes exactly the settings it uses (the COMMANDS table below);
a flag or config key of another subcommand is a usage error. A setting's value
comes from its flag, else from the ``--config`` file (flat JSON whose keys are
the subcommand's setting names, ``model_file`` for ``--model-file``), else
from its default, and passes the same check whichever source gave it.

Exit codes: 0 success; 2 usage or config error, which is a ValueError from
any check, the library's included (a Monte Carlo M above the bound that one
trial's row of uniforms sets among them); 3 model/data error (bad model file,
impossible observation, enumeration cap exceeded) or a run out of memory.
Every error is one ``titest: error: ...`` line on stderr. A failed inequality
check is report content, not a process failure: an experiment that falsifies
a bound is valid output and still exits 0. All numeric output is rendered to
10 significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, NoReturn, Sequence

import numpy as np

from .experiment import (
    SWEEP_COLUMNS,
    _MAX_TRIAL_M,
    achievability_check,
    converse_check,
    run_experiment,
    sweep,
)
from .model import (
    DiscreteJointModel,
    InvalidDistributionError,
    _integer,
    _real,
    build_coin_model,
    posterior,
)
from .rules import DecisionRule, decide
from .typicality import (
    EnumerationTooLargeError,
    TypicalityParams,
    _epsilon,
    _exact_audit,
    resolve_enum_cap,
)

__all__ = ["main"]

FORMATS = ("json", "csv")


class _DataError(Exception):
    """Model/data problem: maps to exit code 3."""


def _sig10(value: Any) -> Any:
    """Every float to 10 significant digits, recursively; inf and NaN to None,
    -0.0 to 0.0; a dataclass record to the dict of its fields, as ``asdict``."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.10g}") + 0.0 if math.isfinite(value) else None
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _sig10(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig10(v) for v in value]
    return value


def _render_json(doc: Any) -> str:
    return json.dumps(_sig10(doc), indent=2, allow_nan=False) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def render_sweep_csv(rows: list[dict]) -> str:
    """Sweep rows as CSV text: floats to 10 significant digits, None as ''."""
    import csv  # only a CSV sweep report needs it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([_csv_cell(row[col]) for col in SWEEP_COLUMNS] for row in rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> int:
    """Write the output; the exit code is 2 if --out cannot be written."""
    if not out:
        sys.stdout.write(text)
        return 0
    try:
        Path(out).write_text(text)
    except OSError as e:
        print(f"titest: error: cannot write --out: {e}", file=sys.stderr)
        return 2
    return 0


def _read_json(path: str, what: str, error: type[Exception]) -> Any:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise error(f"cannot read {what} file: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(
            f"{what} file {path}: invalid JSON at line {e.lineno} column {e.colno}"
        ) from None


def _load_model_file(path: str) -> DiscreteJointModel:
    doc = _read_json(path, "model", _DataError)
    try:
        return DiscreteJointModel.from_json_dict(doc)
    except (InvalidDistributionError, ValueError, TypeError) as e:
        raise _DataError(f"model file {path}: {e}") from None


def _number(check: Callable, *bounds: int) -> Callable[[str, Any], Any]:
    """A setting's check through one of the library's own: model._integer
    (on the inclusive bounds), model._real or typicality._epsilon, under the
    setting's name. A flag's text, stripped (_mark_numbers), is parsed by
    int() for _integer, else by float(), and text that does not parse is
    left for the check to refuse; an integral JSON float (5.0) counts as an
    int."""
    parse = int if check is _integer else float

    def as_number(name: str, value: Any) -> Any:
        if isinstance(value, str):
            value = value.strip()
            with contextlib.suppress(ValueError):
                value = parse(value)
        elif parse is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        return check(name, value, *bounds)

    return as_number


def _as_rule(name: str, value: Any) -> DecisionRule:
    return DecisionRule(str(value))


def _as_coin(name: str, value: Any) -> tuple[int, float]:
    """N and THETA as numbers; their ranges are build_coin_model's."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{name} takes exactly two values: N THETA")
    return _number(_integer)("coin N", value[0]), _number(_real)("coin THETA", value[1])


def _as_path(name: str, value: Any) -> str:
    """A config file's path value must be a string, as on the command line."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a path, got {value!r}")
    return value


def _as_format(name: str, value: Any) -> str:
    if value not in FORMATS:
        raise ValueError(f"{name} must be one of {', '.join(FORMATS)}, got {value!r}")
    return value


def _as_out(name: str, value: Any) -> Any:
    """Refuse an --out that cannot be a writable file before any work runs;
    "" names the current directory, not stdout. _resolve skips an unset --out."""
    try:
        path = Path(value)
        ok = not path.is_dir() and os.access(path if path.exists() else path.parent, os.W_OK)
    except (TypeError, OSError):  # a non-string config value, a name too long
        ok = False
    if not ok:
        raise ValueError(f"{name} {value!r}: not a writable file path")
    return value


# Per setting: its default (None: unset unless given), the check that a flag's
# string and a config value both pass through, and its add_argument keywords.
SETTINGS: dict[str, tuple[Any, Callable[[str, Any], Any], dict]] = {
    "coin": (None, _as_coin, {"nargs": 2, "metavar": ("N", "THETA"),
                              "help": "binomial coin model: N hypotheses, bias THETA"}),
    "model_file": (None, _as_path, {"metavar": "PATH", "help": "JSON model file"}),
    "grid": (None, _as_path, {"metavar": "PATH",
                              "help": "JSON grid: n, theta, m, epsilon, rules"}),
    "rule": ("sap", _as_rule, {"metavar": "{map,eap,meap,sap}"}),
    "m": (8, _number(_integer, 1), {"metavar": "INT", "help": "extension length M"}),
    "epsilon": (0.25, _number(_epsilon), {"metavar": "FLOAT"}),
    "k": (None, _number(_integer), {"metavar": "INT", "help": "observation label"}),
    # each trial takes a slot in arrays indexed by a C ssize_t
    "trials": (1000, _number(_integer, 1, sys.maxsize), {"metavar": "INT"}),
    "seed": (0, _number(_integer, 0), {"metavar": "INT"}),
    "workers": (1, _number(_integer, 1), {"metavar": "INT"}),
    "format": (None, _as_format, {"metavar": "{json,csv}",
                                  "help": "sweep output format (default csv)"}),
    "out": (None, _as_out, {"metavar": "PATH",
                            "help": "write output here instead of stdout"}),
}


# The settings whose flags take numbers (_mark_numbers).
NUMBER_SETTINGS = ("coin", "m", "epsilon", "k", "trials", "seed", "workers")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _mark_numbers(command: str, argv: Sequence[str]) -> list[str]:
    """argv with a space before each value of command's NUMBER_SETTINGS flags
    that starts with "-" and float() parses: argparse takes -inf or -1e3 for
    a flag (only -2 or -0.5 read as numbers), but " -inf" for a value."""
    own = [s for s in NUMBER_SETTINGS if s in COMMANDS[command][2]]
    nargs = {_flag(s): SETTINGS[s][2].get("nargs", 1) for s in own}
    out, wanted = [], 0
    for word in argv:
        if wanted and word.startswith("-"):
            with contextlib.suppress(ValueError):
                float(word)
                word = " " + word
        wanted = wanted - 1 if wanted else nargs.get(word, 0)
        out.append(word)
    return out


def _resolve(args: argparse.Namespace, names: Sequence[str]) -> dict[str, Any]:
    """Each named setting from its flag, else the config file, else its
    default, through the setting's check; None when it is unset."""
    cfg: Any = {}
    if args.config is not None:
        cfg = _read_json(args.config, "config", ValueError)
        if not isinstance(cfg, dict):
            raise ValueError(f"config file {args.config}: expected a JSON object")
        unknown = set(cfg) - set(names)
        if unknown:
            raise ValueError(
                f"config file {args.config}: unknown keys for {args.command} {sorted(unknown)}"
            )
    settings = {}
    for name in names:
        default, check, _ = SETTINGS[name]
        value = getattr(args, name)
        if value is None:
            value = cfg.get(name, default)
        # a config null is refused where a default would otherwise apply
        if value is not None or default is not None:
            value = check(_flag(name), value)
        settings[name] = value
    return settings


def _model(s: dict) -> tuple[DiscreteJointModel, dict]:
    if (s["coin"] is None) == (s["model_file"] is None):
        raise ValueError("exactly one of --coin N THETA or --model-file PATH is required")
    if s["coin"] is None:
        return _load_model_file(s["model_file"]), {"kind": "file", "path": s["model_file"]}
    n, theta = s["coin"]
    return build_coin_model(n, theta), {"kind": "coin", "n": n, "theta": theta}


def cmd_model(s: dict) -> int:
    model, _ = _model(s)
    doc = {name: getattr(model, name) for name in ("h_x", "h_y", "h_xy", "h_x_given_y", "ti")}
    return _emit(_render_json(doc), s["out"])


def cmd_decide(s: dict) -> int:
    model, _ = _model(s)
    if s["k"] is None:
        raise ValueError("--k OBSERVATION is required for decide")
    try:
        post = posterior(model, s["k"])
    except ValueError as e:
        raise _DataError(str(e)) from None
    rng = np.random.default_rng(s["seed"])
    # in DecisionRule's order: SAP, the one rule that draws from rng, is last
    doc = {"k": s["k"], **{rule.value: decide(rule, post, rng) for rule in DecisionRule}}
    return _emit(_render_json(doc), s["out"])


def cmd_simulate(s: dict) -> int:
    model, spec = _model(s)
    # a Monte Carlo M: one trial's row of uniforms must fit in memory
    params = TypicalityParams(s["epsilon"], _number(_integer, 1, _MAX_TRIAL_M)("--m", s["m"]))
    report = run_experiment(
        model, s["rule"], params, s["trials"], s["seed"],
        workers=s["workers"], model_spec=spec,
    )
    checks = {"achievability": achievability_check(report), "converse": converse_check(report)}
    # the report's fields, then the checks: one walk renders them all
    return _emit(_render_json({**vars(report), "checks": checks}), s["out"])


# Per grid axis, in sweep's argument order: the check of each of its values.
# A coin's (n, theta) range is build_coin_model's, which sweep calls first.
GRID_AXES: dict[str, Callable[[str, Any], Any]] = {
    "n": _number(_integer),
    "theta": _number(_real),
    "m": _number(_integer, 1, _MAX_TRIAL_M),  # a Monte Carlo M
    "epsilon": _number(_epsilon),
    "rules": _as_rule,
}


def cmd_sweep(s: dict) -> int:
    grid_path = s["grid"]
    if grid_path is None:
        raise ValueError("--grid PATH is required for sweep")
    grid = _read_json(grid_path, "grid", ValueError)
    if not isinstance(grid, dict):
        raise ValueError(f"grid file {grid_path}: expected a JSON object")
    missing = set(GRID_AXES) - set(grid)
    if missing:
        raise ValueError(f"grid file {grid_path}: missing axes {sorted(missing)}")
    for axis in GRID_AXES:
        if not isinstance(grid[axis], list):
            raise ValueError(f"grid file {grid_path}: axis {axis!r} must be a list")
    axes = [[check(f"grid {axis}", v) for v in grid[axis]] for axis, check in GRID_AXES.items()]

    try:  # sweep builds every coin model, and refuses a bad one, before any trial
        rows = sweep(*axes, s["trials"], s["seed"], workers=s["workers"])
    except ValueError as e:
        raise ValueError(f"grid file {grid_path}: {e}") from None
    text = _render_json(rows) if s["format"] == "json" else render_sweep_csv(rows)
    return _emit(text, s["out"])


def cmd_enumerate(s: dict) -> int:
    model, _ = _model(s)
    params = TypicalityParams(epsilon=s["epsilon"], extension=s["m"])
    try:  # checked before any walk: a bad TI_TEST_ENUM_CAP is a config error
        resolve_enum_cap()
    except ValueError as e:
        print(f"titest: error: {e}", file=sys.stderr)
        return 2
    census, fano = _exact_audit(model, s["rule"], params)
    return _emit(_render_json({"census": census, "fano": fano}), s["out"])


# Per subcommand: its function, its help line and its settings (each also a
# --config key); --config itself is every subcommand's.
COMMANDS: dict[str, tuple[Callable[[dict], int], str, tuple[str, ...]]] = {
    "model": (cmd_model, "print entropy and test-information summary",
              ("coin", "model_file", "out")),
    "decide": (cmd_decide, "decide one observation under all four rules",
               ("coin", "model_file", "k", "seed", "out")),
    "simulate": (cmd_simulate, "Monte Carlo experiment over M-extensions",
                 ("coin", "model_file", "rule", "m", "epsilon", "trials", "seed",
                  "workers", "out")),
    "sweep": (cmd_sweep, "grid of experiments from a JSON grid file",
              ("grid", "trials", "seed", "workers", "format", "out")),
    "enumerate": (cmd_enumerate, "exact typical-set census and Fano audit (small M)",
                  ("coin", "model_file", "rule", "m", "epsilon", "out")),
}


class _Parser(argparse.ArgumentParser):
    """Usage, then one ``titest: error:`` line, whichever parser failed."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(2, f"titest: error: {message}\n")


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """``command``'s own parser when argv names one: a call parses only its
    subcommand's flags, so it builds no other parser. Otherwise the
    top-level parser, whose subparsers carry no flags, for help and usage."""
    if command in COMMANDS:
        # no abbreviations: `model --m 0` must not pass as `--model-file 0`
        p = _Parser(prog=f"titest {command}", allow_abbrev=False)
        p.set_defaults(parser=p, command=command)
        for setting in COMMANDS[command][2]:
            p.add_argument(_flag(setting), **SETTINGS[setting][2])
        p.add_argument("--config", metavar="PATH",
                       help="flat JSON config file holding settings of this subcommand")
        return p
    parser = _Parser(
        prog="titest",
        description=(
            "Discrete Bayesian hypothesis testing: posterior decision rules, "
            "typical-set enumeration, and seeded Monte Carlo experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(parser=p)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args, foreign = _build_parser(command).parse_known_args(
        _mark_numbers(command, argv[1:]) if command else argv
    )
    if foreign:  # named under the subcommand's usage, which lists its flags
        args.parser.error(f"unrecognized arguments: {' '.join(foreign)}")
    func, _, names = COMMANDS[args.command]
    try:
        return func(_resolve(args, names))
    # before ValueError: an InvalidDistributionError is one
    except (_DataError, InvalidDistributionError, EnumerationTooLargeError) as e:
        print(f"titest: error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        args.parser.error(str(e))
    except MemoryError as e:  # numpy names the allocation that failed
        print(f"titest: error: out of memory: {e or 'an allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
