"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer swaps a function that one titest module calls in another (the
module attribute the caller looks up at call time) for a wrapper that records
a span: its name, start, end, parent span and the pass it belongs to. Layers
are the package's modules, so span names read ``<module>.<function>``. Spans
stay in memory and are written once, when the run ends. The program itself
knows nothing of tracing, so a traced run must use ``--workers 1``: spans in
pool workers would be lost.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

# Per-layer metrics in output order, with units. "Per pass" values are means
# over the traced passes; per-trial values divide by experiment.trials and
# read 0 on a workload that runs no trials.
PER_LAYER_UNITS = {
    "model.entropy_calls_per_trial": "count",
    "model.entropy_us_per_trial": "us",
    "model.from_json_calls": "count",
    "model.build_ms": "ms",
    "rules.pick_calls_per_trial": "count",
    "rules.pick_us_per_trial": "us",
    "rules.decide_calls": "count",
    "typicality.draw_us_per_trial": "us",
    "typicality.census_s": "s",
    "typicality.census_member_ratio": "ratio",
    "typicality.census_candidates": "count",
    "experiment.trials": "count",
    "experiment.rng_us_per_trial": "us",
    "experiment.trial_us_p50": "us",
    "experiment.trial_us_p99": "us",
    "experiment.judge_us_per_trial": "us",
    "experiment.rule_tables_ms": "ms",
    "experiment.pool_startup_ms": "ms",
    "experiment.aggregate_ms": "ms",
    "experiment.scan_s": "s",
    "cli.overhead_ms": "ms",
    "trace.spans_per_pass": "count",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}

Hook = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    """In-memory span recorder that wraps functions at layer boundaries."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.names: list[str] = []
        self.code = array("i")
        self.parent = array("q")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        # counters recorded at the same boundaries, per pass
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.current = -1
        self._stack = [-1]

    def wrap(self, fn: Callable, name: str, hook: Hook | None = None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        code = self.names.index(name)
        codes, parents, requests = self.code, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            requests.append(tracer.current)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer.counts[tracer.current], args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, boundaries: list[tuple[Any, str, str, Hook | None]]) -> Iterator[None]:
        """Patch every (owner, attribute, span name, hook); restore on exit.

        A boundary the program no longer has is skipped with a note, and the
        metrics built on it read 0.
        """
        saved = []
        try:
            for owner, attr, name, hook in boundaries:
                original = vars(owner).get(attr)
                if original is None:
                    print(f"bench: no {owner.__name__}.{attr} to trace", file=sys.stderr)
                    continue
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(original.__func__, name, hook))
                else:
                    patched = self.wrap(original, name, hook)
                saved.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path: Path) -> None:
        """Save every span: name index into ``names``, start/end (perf_counter
        seconds), parent span index (-1 at the root) and pass index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), workload=np.array(self.workload), **self.arrays()
        )


def _add_trials(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    counts["trials"] += int(kwargs["trials"] if "trials" in kwargs else args[3])


def _add_census(counts: dict, args: tuple, kwargs: dict, result: Any) -> None:
    model, params = args[0], args[1]
    m, n_x, n_y = params.extension, model.n_hypotheses, model.n_observations
    counts["census_candidates"] += n_x**m + n_y**m + (n_x * n_y) ** m
    counts["census_members"] += sum(result.sizes.values())


def titest_boundaries() -> list[tuple[Any, str, str, Hook | None]]:
    """Every call one titest module makes into another on the benchmarked paths."""
    import titest.cli as cli
    import titest.experiment as experiment
    import titest.model as model
    import titest.rules as rules
    from titest.model import DiscreteJointModel

    return [
        (cli, "run_experiment", "experiment.run_experiment", _add_trials),
        (cli, "sweep", "experiment.sweep", None),
        (cli, "extended_fano_check", "experiment.extended_fano_check", None),
        (cli, "achievability_check", "experiment.achievability_check", None),
        (cli, "converse_check", "experiment.converse_check", None),
        (cli, "typical_set_census", "typicality.typical_set_census", _add_census),
        (cli, "build_coin_model", "model.build_coin_model", None),
        (cli, "info_summary", "model.info_summary", None),
        (experiment, "run_experiment", "experiment.run_experiment", _add_trials),
        (experiment, "_run_block", "experiment._run_block", None),
        (experiment, "run_trial", "experiment.run_trial", None),
        (experiment, "make_rule_tables", "experiment.make_rule_tables", None),
        (experiment, "draw_index_pair", "typicality.draw_index_pair", None),
        (experiment, "inverse_cdf_pick", "rules.inverse_cdf_pick", None),
        (experiment, "decide", "rules.decide", None),
        (experiment, "posterior", "model.posterior", None),
        (experiment, "entropy", "model.entropy", None),
        (experiment, "info_summary", "model.info_summary", None),
        (experiment, "build_coin_model", "model.build_coin_model", None),
        # typicality and info_summary look these up at call time
        (model, "entropy", "model.entropy", None),
        (rules, "inverse_cdf_pick", "rules.inverse_cdf_pick", None),
        (DiscreteJointModel, "from_json_dict", "model.from_json_dict", None),
        (DiscreteJointModel, "to_json_dict", "model.to_json_dict", None),
        # the benchmark's own call of the entry point
        (cli, "main", "cli.main", None),
    ]


# Span or counter totals that must repeat exactly from pass to pass.
EXACT_SPAN_COUNTS = (
    "model.entropy", "rules.inverse_cdf_pick", "model.from_json_dict",
    "rules.decide", "experiment.run_trial",
)
EXACT_COUNTERS = ("trials", "census_candidates", "census_members")


def layer_metrics(tracer: Tracer, passes: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the spans of passes 0..passes-1.

    Returns the metrics named in PER_LAYER_UNITS that spans can give (the
    caller adds the rest) and the exact counts that differed between passes.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    nested = a["parent"] >= 0
    np.add.at(child, a["parent"][nested], dur[nested])
    self_time = dur - child

    def spans_of(name: str) -> np.ndarray:
        return a["code"] == (tracer.names.index(name) if name in tracer.names else -1)

    def per_pass(name: str, values: np.ndarray | None = None) -> np.ndarray:
        mask = spans_of(name)
        weights = None if values is None else values[mask]
        return np.bincount(a["request"][mask], weights=weights, minlength=passes)[:passes]

    problems = []
    for name in EXACT_SPAN_COUNTS:
        counts = per_pass(name)
        if np.unique(counts).size > 1:
            problems.append(f"span count of {name} differs between passes: {counts.tolist()}")
    for key in EXACT_COUNTERS:
        counts = [tracer.counts[p][key] for p in range(passes)]
        if len(set(counts)) > 1:
            problems.append(f"counter {key} differs between passes: {counts}")

    def mean(name: str, values: np.ndarray | None = None) -> float:
        return float(per_pass(name, values).mean())

    trials = tracer.counts[0]["trials"]
    per_trial = 1.0 / trials if trials else 0.0
    trial_us = dur[spans_of("experiment.run_trial")] * 1e6
    if trial_us.size == 0:
        trial_us = np.zeros(1)
    candidates = tracer.counts[0]["census_candidates"]
    build_s = sum(
        mean(n, dur) for n in ("model.build_coin_model", "model.from_json_dict", "model.to_json_dict")
    )
    metrics = {
        "model.entropy_calls_per_trial": mean("model.entropy") * per_trial,
        "model.entropy_us_per_trial": mean("model.entropy", dur) * 1e6 * per_trial,
        "model.from_json_calls": mean("model.from_json_dict"),
        "model.build_ms": build_s * 1e3,
        "rules.pick_calls_per_trial": mean("rules.inverse_cdf_pick") * per_trial,
        "rules.pick_us_per_trial": mean("rules.inverse_cdf_pick", dur) * 1e6 * per_trial,
        "rules.decide_calls": mean("rules.decide"),
        "typicality.draw_us_per_trial": mean("typicality.draw_index_pair", dur) * 1e6 * per_trial,
        "typicality.census_s": mean("typicality.typical_set_census", dur),
        "typicality.census_member_ratio": (
            tracer.counts[0]["census_members"] / candidates if candidates else 0.0
        ),
        "typicality.census_candidates": float(candidates),
        "experiment.trials": float(trials),
        "experiment.trial_us_p50": float(np.percentile(trial_us, 50)),
        "experiment.trial_us_p99": float(np.percentile(trial_us, 99)),
        "experiment.judge_us_per_trial": mean("experiment.run_trial", self_time) * 1e6 * per_trial,
        "experiment.rule_tables_ms": mean("experiment.make_rule_tables", dur) * 1e3,
        "experiment.aggregate_ms": mean("experiment.run_experiment", self_time) * 1e3,
        "experiment.scan_s": mean("experiment.extended_fano_check", dur),
        "cli.overhead_ms": mean("cli.main", self_time) * 1e3,
        "trace.spans_per_pass": dur.size / passes,
    }
    return metrics, problems
