"""The benchmark's workloads: command lines, input files and output checks.

Each workload is one ``titest`` command line. ``simulate`` and ``sweep`` are
the acceptance operating points of the Monte Carlo engine; ``enumerate`` is
the exact engine at the largest bsc25 extension the default enumeration cap
admits. The checks judge the text the CLI prints, never library internals.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from hostspeed import SCAN_CALIBRATION, TRIAL_CALIBRATION, Calibration

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

SIMULATE_TRIALS = 20_000
# Trials in one timed simulate pass: a short pass lets the calibration loops
# around it see the host speed it ran at (see hostspeed.py).
SIMULATE_TIMED_TRIALS = 2_000
# Trials per grid point: large enough that a pass is dominated by trials on
# the M=10 points, small enough that a pass takes about two seconds.
SWEEP_TRIALS = 1_000
SWEEP_GRID = {
    "n": [5, 15, 25, 35],
    "theta": [0.4],
    "m": [1, 10],
    "epsilon": [0.25],
    "rules": ["map", "eap", "meap", "sap"],
}
BSC_CROSSOVER = 0.25
ENUMERATE_M = 11

# Relative tolerance (absolute below 1) on every float of the enumerate
# report, applied before the CLI rounds to 10 significant digits.
ENUMERATE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``argv(inputs, seed, workers)`` builds the CLI arguments of the
    acceptance command, which the gate and traced passes run, and
    ``timed_argv`` those of a timed pass; ``write_inputs`` creates the files
    they name. ``items`` is the work one timed pass completes (Monte Carlo
    trials, or candidate sequences for enumeration); ``trials_per_run`` is
    the trial count of one experiment of the acceptance command (0 for
    enumeration). ``check(text, argv)`` returns the problems found in the
    output of one command line.
    ``byte_reference`` marks a workload whose output at ``default_seed`` must
    equal the recorded reference byte for byte. ``calibration`` names the
    loop that scales its timed passes to the reference host speed, or None
    for plain wall times.
    """

    name: str
    default_seed: int
    workers: int
    items: int
    items_kind: str
    trials_per_run: int
    reference: str
    byte_reference: bool
    calibration: Calibration | None
    argv: Callable[[Path, int, int], list[str]]
    timed_argv: Callable[[Path, int, int], list[str]]
    write_inputs: Callable[[Path], None]
    check: Callable[[str, list[str]], list[str]]

    def reference_text(self) -> str:
        return (REFERENCE_DIR / self.reference).read_text()


def _no_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)


def _option(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1])


def _simulate_argv(
    inputs: Path, seed: int, workers: int, trials: int = SIMULATE_TRIALS
) -> list[str]:
    return [
        "simulate", "--coin", "10", "0.4", "--rule", "sap", "--m", "10",
        "--epsilon", "0.25", "--trials", str(trials),
        "--seed", str(seed), "--workers", str(workers),
    ]


def _simulate_timed_argv(inputs: Path, seed: int, workers: int) -> list[str]:
    return _simulate_argv(inputs, seed, workers, SIMULATE_TIMED_TRIALS)


def _check_simulate(text: str, argv: list[str]) -> list[str]:
    doc = json.loads(text)
    seed, trials = _option(argv, "--seed"), _option(argv, "--trials")
    problems = []
    expected = {
        "model_spec": {"kind": "coin", "n": 10, "theta": 0.4},
        "rule": "sap",
        "m": 10,
        "epsilon": 0.25,
        "trials": trials,
        "seed": seed,
    }
    for key, value in expected.items():
        if doc.get(key) != value:
            problems.append(f"{key} is {doc.get(key)!r}, expected {value!r}")
    wins, losses = doc["success_count"], doc["failure_count"]
    if wins + losses != trials:
        problems.append(f"success_count + failure_count = {wins + losses}")
    if not 0.0 <= doc["p_f_hat"] <= 1.0:
        problems.append(f"p_f_hat {doc['p_f_hat']} outside [0, 1]")
    if set(doc.get("checks", {})) != {"achievability", "converse"}:
        problems.append("report lacks the achievability and converse checks")
    return problems


def _write_grid(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    (inputs / "grid.json").write_text(json.dumps(SWEEP_GRID))


def _sweep_argv(inputs: Path, seed: int, workers: int) -> list[str]:
    return [
        "sweep", "--grid", str(inputs / "grid.json"),
        "--trials", str(SWEEP_TRIALS), "--seed", str(seed), "--workers", str(workers),
    ]


def _check_sweep(text: str, argv: list[str]) -> list[str]:
    seed = _option(argv, "--seed")
    header = SWEEP_WORKLOAD.reference_text().splitlines()[0]
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return [f"CSV header is {lines[:1]!r}, expected {header!r}"]
    rows = list(csv.DictReader(io.StringIO(text)))
    points = list(itertools.product(
        sorted(SWEEP_GRID["n"]), sorted(SWEEP_GRID["theta"]), sorted(SWEEP_GRID["m"]),
        sorted(SWEEP_GRID["epsilon"]), sorted(SWEEP_GRID["rules"]),
    ))
    if len(rows) != len(points):
        return [f"{len(rows)} rows, expected {len(points)}"]
    problems = []
    for row, (n, theta, m, eps, rule) in zip(rows, points):
        where = f"row N={row['N']} M={row['M']} rule={row['rule']}"
        key = (int(row["N"]), float(row["theta"]), int(row["M"]), float(row["epsilon"]), row["rule"])
        if key != (n, theta, m, eps, rule):
            problems.append(f"{where}: out of order, expected {(n, theta, m, eps, rule)}")
        if int(row["R"]) != SWEEP_TRIALS or int(row["seed"]) != seed:
            problems.append(f"{where}: R={row['R']} seed={row['seed']}")
        wins = int(row["successes"])
        p_f = float(row["pf_hat"])
        if not 0 <= wins <= SWEEP_TRIALS:
            problems.append(f"{where}: successes {wins} outside [0, R]")
        if not 0.0 <= p_f <= 1.0 or abs(p_f - (SWEEP_TRIALS - wins) / SWEEP_TRIALS) > 1e-9:
            problems.append(f"{where}: pf_hat {p_f} disagrees with successes {wins}")
    return problems


def _write_bsc25(inputs: Path) -> None:
    from titest.model import build_bsc_model

    inputs.mkdir(parents=True, exist_ok=True)
    doc = build_bsc_model(BSC_CROSSOVER).to_json_dict()
    (inputs / "bsc25.json").write_text(json.dumps(doc))


def _enumerate_argv(inputs: Path, seed: int, workers: int) -> list[str]:
    return [
        "enumerate", "--model-file", str(inputs / "bsc25.json"),
        "--m", str(ENUMERATE_M), "--epsilon", "0.25", "--rule", "sap",
    ]


def _rounded10(value: float) -> float:
    return float(f"{value:.10g}")


def _compare(out, ref, path: str, problems: list[str]) -> None:
    """Exact match for structure, ints, bools and strings; ENUMERATE_TOL for floats.

    A printed float passes when some value within the tolerance of the
    full-precision reference rounds to it at 10 significant digits.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            problems.append(f"{path}: keys differ from the reference")
            return
        for key in ref:
            _compare(out[key], ref[key], f"{path}.{key}", problems)
    elif isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            problems.append(f"{path}: length differs from the reference")
            return
        for i, (o, r) in enumerate(zip(out, ref)):
            _compare(o, r, f"{path}[{i}]", problems)
    elif isinstance(ref, float):
        tol = ENUMERATE_TOL * max(1.0, abs(ref))
        if not (isinstance(out, float)
                and _rounded10(ref - tol) <= out <= _rounded10(ref + tol)):
            problems.append(f"{path}: {out!r} differs from reference {ref!r}")
    elif out != ref or type(out) is not type(ref):
        problems.append(f"{path}: {out!r} != reference {ref!r}")


def _check_enumerate(text: str, argv: list[str]) -> list[str]:
    problems: list[str] = []
    _compare(json.loads(text), json.loads(ENUMERATE_WORKLOAD.reference_text()), "report", problems)
    return problems


SIMULATE_WORKLOAD = Workload(
    name="simulate",
    default_seed=7,
    workers=1,
    items=SIMULATE_TIMED_TRIALS,
    items_kind="Monte Carlo trials",
    trials_per_run=SIMULATE_TRIALS,
    reference="simulate-seed7.json",
    byte_reference=True,
    calibration=TRIAL_CALIBRATION,
    argv=_simulate_argv,
    timed_argv=_simulate_timed_argv,
    write_inputs=_no_inputs,
    check=_check_simulate,
)

SWEEP_WORKLOAD = Workload(
    name="sweep",
    default_seed=2026,
    workers=2,
    items=SWEEP_TRIALS * len(list(itertools.product(*SWEEP_GRID.values()))),
    items_kind="Monte Carlo trials",
    trials_per_run=SWEEP_TRIALS,
    reference="sweep-seed2026.csv",
    byte_reference=True,
    calibration=None,
    argv=_sweep_argv,
    timed_argv=_sweep_argv,
    write_inputs=_write_grid,
    check=_check_sweep,
)

# Candidates scanned: the x, y and joint censuses (2^M, 2^M and 4^M
# sequences) plus the Fano audit's 4^M (x, y) pairs.
ENUMERATE_WORKLOAD = Workload(
    name="enumerate",
    default_seed=0,
    workers=1,
    items=2 * 2**ENUMERATE_M + 2 * 4**ENUMERATE_M,
    items_kind="enumerated candidate sequences",
    trials_per_run=0,
    reference="enumerate.json",
    byte_reference=False,
    calibration=SCAN_CALIBRATION,
    argv=_enumerate_argv,
    timed_argv=_enumerate_argv,
    write_inputs=_write_bsc25,
    check=_check_enumerate,
)

WORKLOADS = {w.name: w for w in (SIMULATE_WORKLOAD, SWEEP_WORKLOAD, ENUMERATE_WORKLOAD)}
