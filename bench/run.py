"""titest benchmark: Monte Carlo and exact-enumeration workloads through the CLI.

Usage, from the repository root:

    python3 bench/run.py [--workload {simulate,sweep,enumerate}] [--seed N]
                         [--seconds S] [--trace 0|1]

Every pass calls the public entry point ``titest.cli.main`` in this process
and checks its output (see workloads.py). Without ``--workload`` all three
workloads run in turn. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.

``--trace 0`` reports the end-to-end metrics: the median pass wall time (on
``simulate`` and ``enumerate`` scaled to a reference host speed, see
hostspeed.py), work per second, fresh-process set-up time and peak resident
memory. ``--trace 1``
alternates untraced and traced passes, both at ``--workers 1``, and reports
the per-layer metrics of spans.py; the traced spans are written to
``.bench_work/spans-<workload>.npz`` when the run ends.

The seed drives the Monte Carlo workloads (default: their acceptance seeds, 7
and 2026); ``enumerate`` draws no random numbers and ignores it. Whatever the
seed, one untimed gate pass at the default seed is compared with the recorded
reference first, so every run checks the determinism contract.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

from hostspeed import Calibration
from workloads import WORKLOADS

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent

END_TO_END_UNITS = {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

MIN_PASSES = 3
SETUP_REPEATS = 11
PROCESS_TIMEOUT_S = 150
MEMORY_POLL_S = 0.005
RNG_REPEATS = 3
POOL_REPEATS = 7

class Gate:
    """Counts outputs checked and failed; the expected text per command line
    is kept so that every later output of it must repeat it byte for byte."""

    def __init__(self, workload, inputs: Path) -> None:
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.expected: dict[tuple[str, ...], str] = {}
        if workload.byte_reference:
            argv = workload.argv(inputs, workload.default_seed, workload.workers)
            self.expected[self.key(argv)] = workload.reference_text()

    @staticmethod
    def key(argv: list[str]) -> tuple[str, ...]:
        """The arguments that decide an output: all but the worker count."""
        i = argv.index("--workers") if "--workers" in argv else len(argv)
        return tuple(argv[:i] + argv[i + 2:])

    def check(self, label: str, code: int, text: str, argv: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                problems = self.workload.check(text, argv)
            except (ValueError, KeyError, TypeError, IndexError) as e:
                problems = [f"malformed output: {e!r}"]
            expected = self.expected.setdefault(self.key(argv), text) if not problems else None
            if expected is not None and text != expected:
                problems.append("output differs from the first or reference output of "
                                "the same command line")
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:5]))

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"bench: {self.workload.name}: FAILED {message}", file=sys.stderr)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One call of titest.cli.main with its standard output captured."""
    import titest.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed output, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, buf.getvalue()


class PassTimer:
    """Wall times of timed intervals, scaled to the reference host speed when
    the workload names a calibration loop (see hostspeed.py).

    With a calibration, ``measure(fn)`` runs ``fn`` between two runs of the
    loop (the second is reused before the next interval), and its value is
    its wall time times the loop's reference time over the mean of the two
    loop times. Without one, the value is the plain wall time.
    """

    def __init__(self, calibration: Calibration | None) -> None:
        self.calibration = calibration
        self.walls: list[float] = []
        self.values: list[float] = []
        if calibration:
            calibration.loop()  # builds the loop's inputs
            self.before = calibration.seconds()

    def measure(self, fn):
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        if self.calibration:
            after = self.calibration.seconds()
            self.values.append(wall * self.calibration.reference_s / ((self.before + after) / 2))
            self.before = after
        else:
            self.values.append(wall)
        return result

    def between(self, fn):
        """Run fn outside the timed intervals; the next one gets a fresh loop before it."""
        result = fn()
        if self.calibration:
            self.before = self.calibration.seconds()
        return result


def timed_pass(argv: list[str]) -> tuple[float, int, str]:
    t0 = time.perf_counter()
    code, text = run_cli(argv)
    return time.perf_counter() - t0, code, text


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def set_up(workload, inputs: Path) -> float:
    """Wall time of one fresh-process set-up: interpreter start, import,
    input files. It is a plain wall time: a process start did not track the
    calibration loops."""
    cmd = [sys.executable, str(BENCH / "make_inputs.py"), workload.name, str(inputs)]
    t0 = time.perf_counter()
    run_to_end(cmd)
    return time.perf_counter() - t0


def run_to_end(cmd: list[str]) -> None:
    """Run cmd and wait for it without a timeout, so that it is timed exactly.

    A wait with a timeout polls in steps of up to 50 ms, which rounds a
    0.3-second process to the step. A timer kills a process that outlives
    PROCESS_TIMEOUT_S instead.
    """
    proc = subprocess.Popen(cmd, env=child_env())
    timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def _tree_peaks(pid: int, peaks: dict[int, int]) -> int:
    """Update peaks with VmHWM (kB) of pid and its live descendants; return
    the sum of the peaks of the processes alive now."""
    live = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            status = Path(f"/proc/{p}/status").read_text()
            tasks = os.listdir(f"/proc/{p}/task")
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks[p] = max(peaks.get(p, 0), int(line.split()[1]))
                live += peaks[p]
        for t in tasks:
            with contextlib.suppress(OSError):
                stack.extend(int(c) for c in Path(f"/proc/{p}/task/{t}/children").read_text().split())
    return live


def memory_pass(argv: list[str]) -> tuple[float, int, str]:
    """Run one pass as a fresh ``python -m titest.cli`` process.

    Returns the peak over time of the summed peak resident sets (VmHWM) of the
    live process tree, pool workers included, in MB, with the exit code and
    output. Pages a forked worker shares with its parent count in both, so
    this is an upper bound on the memory the workload holds at once.
    """
    out_path = WORK / "memory-pass.out"
    peaks: dict[int, int] = {}
    top = 0
    with out_path.open("w") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "titest.cli", *argv], stdout=out, env=child_env()
        )
        try:
            deadline = time.monotonic() + PROCESS_TIMEOUT_S
            while proc.poll() is None and time.monotonic() < deadline:
                top = max(top, _tree_peaks(proc.pid, peaks))
                time.sleep(MEMORY_POLL_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return top / 1024.0, proc.returncode, out_path.read_text()


def rng_us_per_trial(trials: int, seed: int) -> float:
    """Per-trial cost of the contract's stream default_rng(SeedSequence([seed, i]))."""
    import numpy as np

    times = []
    for _ in range(RNG_REPEATS):
        t0 = time.perf_counter()
        for i in range(trials):
            np.random.default_rng(np.random.SeedSequence([seed, i]))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / trials * 1e6


def pool_startup_ms(seed: int) -> float:
    """Extra wall time of a two-worker experiment over an in-process one.

    Measured on the sweep's cheapest point (N=5, M=1, two trials), so the
    difference is the pool's start, hand-off and shutdown.
    """
    from titest.experiment import run_experiment
    from titest.model import build_coin_model
    from titest.rules import DecisionRule
    from titest.typicality import TypicalityParams

    model = build_coin_model(5, 0.4)
    params = TypicalityParams(epsilon=0.25, extension=1)
    diffs = []
    for _ in range(POOL_REPEATS):
        t = []
        for workers in (1, 2):
            t0 = time.perf_counter()
            run_experiment(model, DecisionRule.SAP, params, 2, seed, workers=workers)
            t.append(time.perf_counter() - t0)
        diffs.append(t[1] - t[0])
    return statistics.median(diffs) * 1e3


def keep_going(started: float, seconds: float, done: int, minimum: int) -> bool:
    elapsed = time.perf_counter() - started
    return elapsed < seconds or (done < minimum and elapsed < 3 * seconds)


def run_end_to_end(workload, seed: int, seconds: float, gate: Gate) -> dict[str, float]:
    inputs = WORK / workload.name
    set_up(workload, inputs)  # untimed: later set-ups find compiled bytecode, as a user's would

    default_argv = workload.argv(inputs, workload.default_seed, workload.workers)
    _, code, text = timed_pass(default_argv)
    gate.check("gate pass at the default seed", code, text, default_argv)

    # Set-ups are spread evenly over the timed passes, so that their median
    # sees the same host as the passes do, not the few seconds before them.
    argv = workload.timed_argv(inputs, seed, workload.workers)
    clock = PassTimer(workload.calibration)
    setup: list[float] = []
    started = time.perf_counter()
    while keep_going(started, seconds, len(clock.walls), MIN_PASSES):
        if len(setup) < SETUP_REPEATS and (
            time.perf_counter() - started >= len(setup) * seconds / SETUP_REPEATS
        ):
            setup.append(clock.between(lambda: set_up(workload, inputs)))
        code, text = clock.measure(lambda: run_cli(argv))
        gate.check(f"timed pass {len(clock.walls) - 1}", code, text, argv)
    while len(setup) < SETUP_REPEATS:
        setup.append(set_up(workload, inputs))

    memory_argv = workload.argv(inputs, seed, workload.workers)
    peak_mb, code, text = memory_pass(memory_argv)
    gate.check("fresh-process memory pass", code, text, memory_argv)

    walls, wall = clock.walls, statistics.median(clock.values)
    setup_s = statistics.median(setup)
    speed = " at the reference host speed" if workload.calibration else ""
    print(f"# {workload.name}: seed {seed}, {len(walls)} timed passes, "
          f"{workload.items} {workload.items_kind} per pass, workers {workload.workers}")
    print(f"# wall_s      {wall:.4f} s    median of {len(walls)} passes{speed} (measured: "
          f"median {statistics.median(walls):.4f}, min {min(walls):.4f}, "
          f"max {max(walls):.4f}); lower is better")
    print(f"# items_per_s {workload.items / wall:.1f} 1/s  {workload.items_kind} per second"
          f"{speed}; higher is better")
    print(f"# setup_s     {setup_s:.4f} s    median of {len(setup)} fresh-process imports "
          "plus input builds; lower is better")
    print(f"# peak_rss_mb {peak_mb:.1f} MB   one fresh-process pass, pool workers included; "
          "lower is better")
    return {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }


def run_traced(workload, seed: int, seconds: float, gate: Gate) -> dict[str, float]:
    from spans import PER_LAYER_UNITS, Tracer, layer_metrics, titest_boundaries

    inputs = WORK / workload.name
    workload.write_inputs(inputs)
    default_argv = workload.argv(inputs, workload.default_seed, 1)
    _, code, text = timed_pass(default_argv)
    gate.check("gate pass at the default seed", code, text, default_argv)

    argv = workload.argv(inputs, seed, 1)
    tracer = Tracer(workload.name)
    boundaries = titest_boundaries()
    plain, traced = [], []
    started = time.perf_counter()
    while keep_going(started, seconds, min(len(plain), len(traced)), 2):
        wall, code, text = timed_pass(argv)
        gate.check(f"untraced pass {len(plain)}", code, text, argv)
        plain.append(wall)
        tracer.current = len(traced)
        with tracer.installed(boundaries):
            wall, code, text = timed_pass(argv)
        gate.check(f"traced pass {len(traced)}", code, text, argv)
        traced.append(wall)

    metrics, problems = layer_metrics(tracer, len(traced))
    for problem in problems:
        gate.fail(problem)
    metrics["experiment.rng_us_per_trial"] = (
        rng_us_per_trial(workload.trials_per_run, seed) if workload.trials_per_run else 0.0
    )
    metrics["experiment.pool_startup_ms"] = pool_startup_ms(seed) if workload.workers > 1 else 0.0
    metrics["trace.untraced_wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    tracer.write(WORK / f"spans-{workload.name}.npz")

    print(f"# {workload.name}: seed {seed}, {len(traced)} traced and {len(plain)} untraced "
          "passes at --workers 1")
    for name, unit in PER_LAYER_UNITS.items():
        print(f"# {name:34s} {metrics[name]:.6g} {unit}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def run_workload(workload, seed: int | None, seconds: float, trace: bool) -> dict:
    gate = Gate(workload, WORK / workload.name)
    seed = workload.default_seed if seed is None else seed
    if trace:
        from spans import PER_LAYER_UNITS as units

        values = run_traced(workload, seed, seconds, gate)
    else:
        units = END_TO_END_UNITS
        values = run_end_to_end(workload, seed, seconds, gate)
    failed = len(gate.failures)
    print(f"# error_rate  {failed / gate.attempted:.6g}    "
          f"{failed} failed of {gate.attempted} outputs checked")
    return {
        "correct": failed == 0,
        "attempted": gate.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "titest" / "cli.py").is_file():
        print(f"bench: no titest sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TI_TEST_ENUM_CAP", None)
    WORK.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
