"""Command-line front end over models, decisions, experiments, and censuses.

Exit codes: 0 success; 2 usage or config error; 3 model/data error (bad model
file, impossible observation, enumeration cap exceeded). A failed inequality
check is report content, not a process failure: an experiment that falsifies
a bound is valid output and still exits 0.

Config files are flat JSON mirroring the flag names (command line wins on
overlap). All numeric output is rendered to 10 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .experiment import (
    achievability_check,
    converse_check,
    extended_fano_check,
    render_sweep_csv,
    run_experiment,
    sweep,
)
from .model import (
    DiscreteJointModel,
    InvalidDistributionError,
    ZeroEvidenceError,
    build_coin_model,
    info_summary,
    posterior,
)
from .rules import DecisionRule, decide
from .typicality import (
    EnumerationTooLargeError,
    TypicalityParams,
    resolve_enum_cap,
    typical_set_census,
)

__all__ = ["main"]

DEFAULTS = {
    "rule": "sap",
    "m": 8,
    "epsilon": 0.25,
    "trials": 1000,
    "seed": 0,
    "workers": 1,
}

FORMATS = ("json", "csv")

CONFIG_KEYS = {
    "coin", "model_file", "rule", "m", "epsilon", "trials",
    "seed", "workers", "out", "format", "k", "grid",
}


class _DataError(Exception):
    """Model/data problem: maps to exit code 3."""


def _sig10(value: Any) -> Any:
    """Round every float to 10 significant digits, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return float(f"{value:.10g}") if np.isfinite(value) else value
    if isinstance(value, dict):
        return {k: _sig10(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig10(v) for v in value]
    return value


def _render_json(doc: Any) -> str:
    return json.dumps(_sig10(doc), indent=2) + "\n"


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


def _load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as e:
        parser.error(f"cannot read config file: {e}")
    except json.JSONDecodeError as e:
        parser.error(f"config file {path}: invalid JSON at line {e.lineno} column {e.colno}")
    if not isinstance(doc, dict):
        parser.error(f"config file {path}: expected a JSON object")
    unknown = set(doc) - CONFIG_KEYS
    if unknown:
        parser.error(f"config file {path}: unknown keys {sorted(unknown)}")
    return doc


def _load_model_file(path: str) -> DiscreteJointModel:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise _DataError(f"cannot read model file: {e}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise _DataError(
            f"model file {path}: invalid JSON at line {e.lineno} column {e.colno}"
        ) from None
    try:
        return DiscreteJointModel.from_json_dict(doc)
    except (InvalidDistributionError, ValueError, TypeError) as e:
        raise _DataError(f"model file {path}: {e}") from None


def _pick(args_value: Any, cfg: dict, key: str, default: Any = None) -> Any:
    if args_value is not None:
        return args_value
    if key in cfg:
        return cfg[key]
    return default


def _as_int(parser: argparse.ArgumentParser, name: str, value: Any, minimum: int) -> int:
    try:
        n = int(value)
        # int(True) == 1, but a JSON boolean is not a count
        if isinstance(value, bool) or isinstance(value, float) and value != n:
            raise ValueError
    except (TypeError, ValueError, OverflowError):  # JSON 1e400 parses to inf
        parser.error(f"{name} must be an integer, got {value!r}")
    if n < minimum:
        parser.error(f"{name} must be >= {minimum}, got {n}")
    return n


def _as_float(parser: argparse.ArgumentParser, name: str, value: Any) -> float:
    try:
        if isinstance(value, bool):
            raise TypeError
        return float(value)
    except (TypeError, ValueError, OverflowError):  # float() of a huge JSON integer
        parser.error(f"{name} must be a number, got {value!r}")


def _as_path(parser: argparse.ArgumentParser, name: str, value: Any) -> Any:
    """A config file's path value must be a string, as on the command line."""
    if value is not None and not isinstance(value, str):
        parser.error(f"{name} must be a path, got {value!r}")
    return value


def _resolve_model(
    args: argparse.Namespace, cfg: dict, parser: argparse.ArgumentParser
) -> tuple[DiscreteJointModel, dict]:
    coin = _pick(getattr(args, "coin", None), cfg, "coin")
    model_file = _as_path(
        parser, "--model-file", _pick(getattr(args, "model_file", None), cfg, "model_file")
    )
    if (coin is None) == (model_file is None):
        parser.error("exactly one of --coin N THETA or --model-file PATH is required")
    if coin is not None:
        if not isinstance(coin, (list, tuple)) or len(coin) != 2:
            parser.error("--coin takes exactly two values: N THETA")
        n = _as_int(parser, "coin N", coin[0], 1)
        theta = _as_float(parser, "coin THETA", coin[1])
        try:
            model = build_coin_model(n, theta)
        except ValueError as e:
            parser.error(str(e))
        return model, {"kind": "coin", "n": n, "theta": theta}
    return _load_model_file(model_file), {"kind": "file", "path": str(model_file)}


def _resolve_rule(
    args: argparse.Namespace, cfg: dict, parser: argparse.ArgumentParser
) -> DecisionRule:
    name = _pick(getattr(args, "rule", None), cfg, "rule", DEFAULTS["rule"])
    try:
        return DecisionRule.from_name(str(name))
    except ValueError as e:
        parser.error(str(e))


def _resolve_common(
    args: argparse.Namespace, cfg: dict, parser: argparse.ArgumentParser
) -> dict:
    return {
        "m": _as_int(parser, "--m", _pick(args.m, cfg, "m", DEFAULTS["m"]), 1),
        "epsilon": _check_epsilon(
            parser, _as_float(parser, "--epsilon", _pick(args.epsilon, cfg, "epsilon", DEFAULTS["epsilon"]))
        ),
        "seed": _as_int(parser, "--seed", _pick(args.seed, cfg, "seed", DEFAULTS["seed"]), 0),
        "workers": _as_int(
            parser, "--workers", _pick(args.workers, cfg, "workers", DEFAULTS["workers"]), 1
        ),
        "out": _check_out(parser, _pick(args.out, cfg, "out")),
        "format": _check_format(parser, _pick(args.format, cfg, "format")),
    }


def _check_format(parser: argparse.ArgumentParser, fmt: Any) -> Any:
    """A config file's format goes through the same choices as --format."""
    if fmt is not None and fmt not in FORMATS:
        parser.error(f"--format must be one of {', '.join(FORMATS)}, got {fmt!r}")
    return fmt


def _check_out(parser: argparse.ArgumentParser, out: Any) -> Any:
    """Refuse an --out that cannot be a writable file before any work runs."""
    if not out:
        return out
    try:
        path = Path(out)
        ok = not path.is_dir() and os.access(path if path.exists() else path.parent, os.W_OK)
    except (TypeError, OSError):  # a non-string config value, a name too long
        ok = False
    if not ok:
        parser.error(f"--out {out!r}: not a writable file path")
    return out


def _check_epsilon(parser: argparse.ArgumentParser, eps: float) -> float:
    if not (eps > 0 and math.isfinite(eps)):
        parser.error(f"--epsilon must be positive and finite, got {eps}")
    return eps


def _require_json_format(fmt: str | None, parser: argparse.ArgumentParser) -> None:
    if fmt not in (None, "json"):
        parser.error("this subcommand only supports --format json")


def cmd_model(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _load_config(args.config, parser) if args.config else {}
    model, _ = _resolve_model(args, cfg, parser)
    common = _resolve_common(args, cfg, parser)
    _require_json_format(common["format"], parser)
    return _emit(_render_json(asdict(info_summary(model))), common["out"])


def cmd_decide(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _load_config(args.config, parser) if args.config else {}
    model, _ = _resolve_model(args, cfg, parser)
    common = _resolve_common(args, cfg, parser)
    _require_json_format(common["format"], parser)
    k_raw = _pick(args.k, cfg, "k")
    if k_raw is None:
        parser.error("--k OBSERVATION is required for decide")
    k = _as_int(parser, "--k", k_raw, -(10**18))
    try:
        post = posterior(model, k)
    except ZeroEvidenceError:
        raise
    except ValueError as e:
        raise _DataError(str(e)) from None
    rng = np.random.default_rng(common["seed"])
    doc = {
        "k": k,
        "map": decide(DecisionRule.MAP, post),
        "eap": decide(DecisionRule.EAP, post),
        "meap": decide(DecisionRule.MEAP, post),
        "sap": decide(DecisionRule.SAP, post, rng),
    }
    return _emit(_render_json(doc), common["out"])


def cmd_simulate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _load_config(args.config, parser) if args.config else {}
    model, spec = _resolve_model(args, cfg, parser)
    common = _resolve_common(args, cfg, parser)
    _require_json_format(common["format"], parser)
    rule = _resolve_rule(args, cfg, parser)
    trials = _as_int(parser, "--trials", _pick(args.trials, cfg, "trials", DEFAULTS["trials"]), 1)
    params = TypicalityParams(epsilon=common["epsilon"], extension=common["m"])
    report = run_experiment(
        model, rule, params, trials, common["seed"],
        workers=common["workers"], model_spec=spec,
    )
    doc = report.to_json_dict()
    doc["checks"] = {
        "achievability": achievability_check(report, params).to_json_dict(),
        "converse": converse_check(report).to_json_dict(),
    }
    return _emit(_render_json(doc), common["out"])


def cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _load_config(args.config, parser) if args.config else {}
    common = _resolve_common(args, cfg, parser)
    grid_path = _as_path(parser, "--grid", _pick(args.grid, cfg, "grid"))
    if grid_path is None:
        parser.error("--grid PATH is required for sweep")
    try:
        grid = json.loads(Path(grid_path).read_text())
    except OSError as e:
        parser.error(f"cannot read grid file: {e}")
    except json.JSONDecodeError as e:
        parser.error(f"grid file {grid_path}: invalid JSON at line {e.lineno} column {e.colno}")
    if not isinstance(grid, dict):
        parser.error(f"grid file {grid_path}: expected a JSON object")
    missing = {"n", "theta", "m", "epsilon", "rules"} - set(grid)
    if missing:
        parser.error(f"grid file {grid_path}: missing axes {sorted(missing)}")
    for axis in ("n", "theta", "m", "epsilon", "rules"):
        if not isinstance(grid[axis], list):
            parser.error(f"grid file {grid_path}: axis {axis!r} must be a list")

    n_values = [_as_int(parser, "grid n", v, 1) for v in grid["n"]]
    theta_values = [_as_float(parser, "grid theta", v) for v in grid["theta"]]
    for n in n_values:  # reject a bad coin point before any experiment runs
        for theta in theta_values:
            try:
                build_coin_model(n, theta)
            except ValueError as e:
                parser.error(f"grid file {grid_path}: {e}")
    m_values = [_as_int(parser, "grid m", v, 1) for v in grid["m"]]
    eps_values = [
        _check_epsilon(parser, _as_float(parser, "grid epsilon", v)) for v in grid["epsilon"]
    ]
    try:
        rule_values = [DecisionRule.from_name(str(r)) for r in grid["rules"]]
    except ValueError as e:
        parser.error(str(e))
    trials = _as_int(parser, "--trials", _pick(args.trials, cfg, "trials", DEFAULTS["trials"]), 1)

    rows = sweep(
        n_values, theta_values, m_values, eps_values, rule_values,
        trials, common["seed"], workers=common["workers"],
    )
    fmt = common["format"] or "csv"
    text = render_sweep_csv(rows) if fmt == "csv" else _render_json(rows)
    return _emit(text, common["out"])


def cmd_enumerate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _load_config(args.config, parser) if args.config else {}
    model, _ = _resolve_model(args, cfg, parser)
    common = _resolve_common(args, cfg, parser)
    _require_json_format(common["format"], parser)
    rule = _resolve_rule(args, cfg, parser)
    params = TypicalityParams(epsilon=common["epsilon"], extension=common["m"])
    try:
        cap = resolve_enum_cap()
    except ValueError as e:  # a bad TI_TEST_ENUM_CAP is a config error
        print(f"titest: error: {e}", file=sys.stderr)
        return 2
    census = typical_set_census(model, params, cap)
    fano = extended_fano_check(model, rule, params, cap)
    doc = {"census": census.to_json_dict(), "fano": fano.to_json_dict()}
    return _emit(_render_json(doc), common["out"])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="titest",
        description=(
            "Discrete Bayesian hypothesis testing: posterior decision rules, "
            "typical-set enumeration, and seeded Monte Carlo experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    src = argparse.ArgumentParser(add_help=False)
    src.add_argument("--coin", nargs=2, metavar=("N", "THETA"),
                     help="binomial coin model: N hypotheses, bias THETA")
    src.add_argument("--model-file", metavar="PATH", help="JSON model file")
    src.add_argument("--config", metavar="PATH", help="flat JSON config file")

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--rule", metavar="{map,eap,meap,sap}")
    run.add_argument("--m", type=int, metavar="INT", help="extension length M")
    run.add_argument("--epsilon", type=float, metavar="FLOAT")
    run.add_argument("--seed", type=int, metavar="INT")
    run.add_argument("--workers", type=int, metavar="INT")
    run.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    run.add_argument("--format", choices=FORMATS)

    p = sub.add_parser("model", parents=[src, run],
                       help="print entropy and test-information summary")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("decide", parents=[src, run],
                       help="decide one observation under all four rules")
    p.add_argument("--k", type=int, metavar="INT", help="observation label")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("simulate", parents=[src, run],
                       help="Monte Carlo experiment over M-extensions")
    p.add_argument("--trials", type=int, metavar="INT")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[src, run],
                       help="grid of experiments from a JSON grid file")
    p.add_argument("--grid", metavar="PATH", help="JSON grid: n, theta, m, epsilon, rules")
    p.add_argument("--trials", type=int, metavar="INT")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("enumerate", parents=[src, run],
                       help="exact typical-set census and Fano audit (small M)")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except _DataError as e:
        print(f"titest: error: {e}", file=sys.stderr)
        return 3
    except (InvalidDistributionError, ZeroEvidenceError, EnumerationTooLargeError) as e:
        print(f"titest: error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
