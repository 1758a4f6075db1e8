"""Calibration loops: the host's current speed for one kind of work.

On a shared host the same pass runs 20-45% slower at some moments than at
others, and work of different kinds slows by different amounts. A workload
whose passes are scaled (see run.py) names the loop that does the same kind
of work as its pass; each timed pass runs between two runs of that loop, and
the pass's wall time is reported in units of the loop's reference time.

The loops use numpy only, never titest, so they run the same code on every
commit: a change to the program moves the pass and not the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

TRIAL_STEPS = 300
SCAN_ROUNDS = 10
SCAN_BLOCK = (1 << 16, 11)


@dataclass(frozen=True)
class Calibration:
    """A fixed loop and its reference time.

    ``reference_s`` is about the loop's median time on the host the benchmark
    was written on (2-vCPU KVM guest, Python 3.11, numpy 2.4), so scaled times
    read close to the wall times measured there.
    """

    name: str
    reference_s: float
    loop: Callable[[], object]

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.loop()
        return time.perf_counter() - t0


def _pick(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    return np.minimum((cdf <= u[..., None]).sum(axis=-1), cdf.shape[-1] - 1)


def _entropy(p: np.ndarray) -> float:
    if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("not a distribution")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


@cache
def _trial_model() -> dict[str, np.ndarray]:
    prior = np.full(10, 0.1)
    likelihood = np.random.default_rng(0).dirichlet(np.ones(11), size=10)
    joint = prior[:, None] * likelihood
    y_marginal = joint.sum(axis=0)
    return {
        "prior": prior,
        "joint": joint,
        "y_marginal": y_marginal,
        "prior_cdf": np.cumsum(prior),
        "lik_cdf": np.cumsum(likelihood, axis=1),
        "post_cdf": np.cumsum((joint / y_marginal).T, axis=1),
        "log2_prior": np.log2(prior),
        "log2_y": np.log2(y_marginal),
        "log2_joint": np.log2(joint),
        "labels": np.arange(1, 11),
    }


def trial_loop() -> int:
    """TRIAL_STEPS Monte Carlo trials of a 10 x 11 model at M=10, done the way
    the program's per-trial path did it when the benchmark was written: a
    seeded generator per trial, inverse-CDF draws of x, y and a posterior
    decision, three entropies, three typicality rates and result tuples."""
    d = _trial_model()
    total = 0
    for i in range(TRIAL_STEPS):
        rng = np.random.default_rng(np.random.SeedSequence([12345, i]))
        xi = _pick(d["prior_cdf"], rng.random(10))
        yi = _pick(d["lik_cdf"][xi], rng.random(10))
        decided = _pick(d["post_cdf"][yi], rng.random(10))
        h_x = _entropy(d["prior"])
        h_y = _entropy(d["y_marginal"])
        h_xy = _entropy(d["joint"].ravel())
        success = (
            abs(-d["log2_prior"][decided].mean() - h_x) < 0.25
            and abs(-d["log2_y"][yi].mean() - h_y) < 0.25
            and abs(-d["log2_joint"][decided, yi].mean() - h_xy) < 0.25
        )
        total += success + len(tuple(int(v) for v in d["labels"][decided]))
    return total


@cache
def _scan_block() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    return rng.integers(0, 4, size=SCAN_BLOCK), rng.random(4) * 2.0


def scan_loop() -> float:
    """SCAN_ROUNDS passes over one block of 2^16 length-11 index sequences, the
    way the program's brute-force census scanned them when the benchmark was
    written: gather per-symbol surprisals, average, band test, then sum and
    exponentiate the members' surprisals."""
    combos, surprisal = _scan_block()
    mass = 0.0
    for _ in range(SCAN_ROUNDS):
        rates = surprisal[combos].mean(axis=1)
        keep = np.abs(rates - 1.0) < 0.25
        mass += float(np.exp2(-surprisal[combos[keep]].sum(axis=1)).sum())
    return mass


TRIAL_CALIBRATION = Calibration("trial", 0.023, trial_loop)
SCAN_CALIBRATION = Calibration("scan", 0.056, scan_loop)
