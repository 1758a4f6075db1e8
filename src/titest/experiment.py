"""Monte Carlo trials over M-extensions, exact small-M audits, and sweeps.

A trial draws an i.i.d. (x, y) sequence pair, decides a hypothesis sequence
symbol by symbol from the per-observation posterior, and succeeds exactly when
the decided sequence is jointly typical with the observed one. Reports carry
two entropy estimators: the primary one averages posterior entropy over
successful trials, the diagnostic one averages the decided label's surprisal.

Trials run in a block kernel: trial i's uniforms are one row of a (trials,
k*M) matrix, holding exactly the doubles of default_rng(SeedSequence([seed,
i])).random(k*M), where k is 3 for SAP and 2 for the deterministic rules.
The row's first M uniforms sample x, the next M sample y and the last M (SAP
only) the decisions; for PCG64 one random(k*M) draw equals k sequential
random(M) draws, so this is the same stream a trial-at-a-time loop consumes.
No generator is built per trial: the rows of up to _STREAM_CHUNK trials are
computed together by numpy array arithmetic that reproduces SeedSequence's
hash and PCG64's seeding and output bit for bit (_trial_uniforms; tested
against numpy's own generators). Sampling, decisions, the three-condition
judgement and both rate estimators then run over each chunk of rows whole:
the inverse-CDF picks look each draw up in a guide table (rules.CdfGuide),
so the common path makes no temporary that grows with the alphabet size.

Determinism contract: trial i always runs on default_rng(SeedSequence([seed,
i])), and every aggregate is computed from the trial-ordered arrays, so a
report is byte-for-byte identical for any worker count.

Every experiment of a call runs trials [0, R) on the master seed, so the
trials split into one contiguous block per worker and a block runs the whole
group: trial i's row is computed once, at the widest k*M, and each
experiment reads its leading k*M columns (common random numbers). A block
receives the models, their rule tables and the params; a model pickles as
its four defining fields and rebuilds its tables on arrival. A
run_experiment (a group of one) or sweep call runs its blocks in process at
workers=1, otherwise as one job each on a single process pool.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterator, Sequence

import numpy as np

from .model import DiscreteJointModel, build_coin_model, info_summary, posterior
from .rules import CdfGuide, DecisionRule, decide
from .typicality import (
    SequencePair,
    TypicalityParams,
    _check_pair_cap,
    _joint_typical_classes,
    _pick_pair,
    _type_classes,
    jointly_typical_rows,
)

__all__ = [
    "SWEEP_COLUMNS",
    "AchievabilityRecord",
    "ConverseRecord",
    "ExperimentReport",
    "FanoRecord",
    "RuleTables",
    "SequenceTrial",
    "achievability_check",
    "converse_check",
    "exact_failure_probability",
    "extended_fano_check",
    "make_rule_tables",
    "render_sweep_csv",
    "run_experiment",
    "run_trial",
    "sweep",
]

Z_95 = 1.96

# Trials whose uniforms are computed together, and then run through the
# kernel together: stepping many PCG64 lanes at once amortizes numpy's
# per-call cost, and 4,096 rows of 30 doubles (coin10, M=10, SAP) take
# about 1 MB.
_STREAM_CHUNK = 4096

# SeedSequence (numpy bit_generator.pyx) and PCG64 (pcg64.h) constants.
_M32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645


@dataclass(frozen=True)
class SequenceTrial:
    pair: SequencePair
    decided: tuple[int, ...]
    success: bool
    posterior_entropy_rate: float
    decided_surprisal_rate: float


@dataclass(frozen=True)
class RuleTables:
    """Per-(model, rule) lookup tables so trials avoid per-symbol dispatch.

    det_choice maps a y index to the decided x index for deterministic rules.
    sap_cdf holds, per y index, the posterior CDF over ascending hypothesis
    labels; sap_order maps an ascending-label position back to storage index.
    sap_guide, the guide table the kernel picks by, is built from sap_cdf on
    the first draw. Semantics match rules.decide exactly (tested, not
    assumed). Tables that depend on the model alone live on the model.
    """

    rule: DecisionRule
    det_choice: np.ndarray | None = None
    sap_cdf: np.ndarray | None = None
    sap_order: np.ndarray | None = None

    @cached_property
    def sap_guide(self) -> CdfGuide:
        return CdfGuide(self.sap_cdf)


def make_rule_tables(model: DiscreteJointModel, rule: DecisionRule) -> RuleTables:
    if rule.is_stochastic:
        order = np.argsort(np.asarray(model.hypothesis_values), kind="stable")
        cdf = np.cumsum(model.posterior_matrix[order, :], axis=0).T.copy()
        # zero-evidence columns are unreachable for sampled y; park them at 1
        cdf[~np.isfinite(cdf)] = 1.0
        return RuleTables(rule=rule, sap_cdf=cdf, sap_order=order)
    choice = np.zeros(model.n_observations, dtype=np.intp)
    for yi, y in enumerate(model.observation_values):
        if model.y_marginal[yi] > 0:
            choice[yi] = model.x_index(decide(rule, posterior(model, y)))
    return RuleTables(rule=rule, det_choice=choice)


def _draws_per_symbol(tables: RuleTables) -> int:
    return 3 if tables.sap_cdf is not None else 2


def _trial_kernel(
    model: DiscreteJointModel,
    tables: RuleTables,
    u: np.ndarray,
    m: int,
    epsilon: float,
) -> tuple[np.ndarray, ...]:
    """Trials whose uniforms are the rows of u, shape (B, k*M).

    Returns (xi, yi, decided_xi, success, posterior_entropy_rate,
    decided_surprisal_rate): three (B, M) index arrays and three (B,) arrays.
    """
    xi, yi = _pick_pair(model, u[:, :m], u[:, m : 2 * m])
    if tables.det_choice is not None:
        decided = tables.det_choice[yi]
    else:
        decided = tables.sap_order[tables.sap_guide.pick(u[:, 2 * m :], yi)]
    return (
        xi,
        yi,
        decided,
        jointly_typical_rows(model, decided, yi, epsilon),
        model.posterior_col_entropy[yi].mean(axis=1),
        -model.log2_posterior[decided, yi].mean(axis=1),
    )


def run_trial(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    rng: np.random.Generator,
    tables: RuleTables | None = None,
) -> SequenceTrial:
    """One M-extension trial: sample, decide per symbol, judge typicality.

    Draw order within the trial's stream: M uniforms for x, M for y, then
    (stochastic rules only) M for the decisions, taken as one draw. A block
    of one on the same kernel the experiments run.
    """
    if tables is None or tables.rule is not rule:
        tables = make_rule_tables(model, rule)
    m = params.extension
    u = rng.random((1, _draws_per_symbol(tables) * m))
    xi, yi, decided, success, post_rate, dec_rate = _trial_kernel(
        model, tables, u, m, params.epsilon
    )
    x_labels = np.asarray(model.hypothesis_values)
    y_labels = np.asarray(model.observation_values)
    return SequenceTrial(
        pair=SequencePair(tuple(x_labels[xi[0]]), tuple(y_labels[yi[0]])),
        decided=tuple(int(v) for v in x_labels[decided[0]]),
        success=bool(success[0]),
        posterior_entropy_rate=float(post_rate[0]),
        decided_surprisal_rate=float(dec_rate[0]),
    )


def _uint32_words(n: int) -> list[int]:
    """n as little-endian 32-bit words (one word for 0), as SeedSequence
    reads an entropy integer; non-integers raise TypeError and negative
    integers ValueError, as there."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n >> 32:
        n >>= 32
        words.append(n & _M32)
    return words


def _pcg64_states(
    seed_words: list[int], index: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(state_hi, state_lo, inc_hi, inc_lo) of PCG64(SeedSequence([seed, i])).

    One lane per trial index; every index must have the same number of
    32-bit words. The SeedSequence pool hash runs on uint32 lanes, the
    128-bit PCG64 words on pairs of uint64 lanes.
    """
    u32 = np.uint32
    n_index_words = len(_uint32_words(int(index[-1])))
    entropy = [np.full(len(index), w, dtype=u32) for w in seed_words]
    entropy += [(index >> np.uint64(32 * k)).astype(u32) for k in range(n_index_words)]
    h = _HASH_INIT_A

    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ u32(h)
        h = h * _HASH_MULT_A & _M32
        v = v * u32(h)
        return v ^ v >> u32(16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = x * u32(_MIX_MULT_L) - y * u32(_MIX_MULT_R)
        return r ^ r >> u32(16)

    zero = np.zeros(len(index), dtype=u32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight hashed pool words, paired low word first
    h = _HASH_INIT_B
    words = []
    for k in range(8):
        v = pool[k % 4] ^ u32(h)
        h = h * _HASH_MULT_B & _M32
        v = v * u32(h)
        words.append((v ^ v >> u32(16)).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (words[k] | words[k + 1] << np.uint64(32) for k in range(0, 8, 2))
    # PCG64 seeding: inc = q << 1 | 1; state = 0, step (state = inc), add s
    inc_hi = q_hi << np.uint64(1) | q_lo >> np.uint64(63)
    inc_lo = q_lo << np.uint64(1) | np.uint64(1)
    state_lo = inc_lo + s_lo
    state_hi = inc_hi + s_hi + (state_lo < s_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def _pcg64_uniforms(seed_words: list[int], index: np.ndarray, width: int) -> np.ndarray:
    """(len(index), width) doubles: row r is random(width) of trial index[r].

    C-ordered, so the kernel's row means add their terms in the same order
    as for a single trial's row.
    """
    u64, m32, s32 = np.uint64, np.uint64(_M32), np.uint64(32)
    mult_hi, mult_lo = u64(_PCG_MULT >> 64), u64(_PCG_MULT & 0xFFFFFFFF_FFFFFFFF)
    b_lo, b_hi = mult_lo & m32, mult_lo >> s32
    s_hi, s_lo, inc_hi, inc_lo = _pcg64_states(seed_words, index)
    out = np.empty((len(index), width))
    # the seeding's second step, then one step per draw
    for k in range(-1, width):
        # s = s * MULT + inc mod 2^128; the high word of s_lo * mult_lo is
        # assembled from 32-bit limbs
        a_lo, a_hi = s_lo & m32, s_lo >> s32
        t = a_hi * b_lo + (a_lo * b_lo >> s32)
        w = (t & m32) + a_lo * b_hi
        lo_prod_hi = a_hi * b_hi + (t >> s32) + (w >> s32)
        s_hi = s_hi * mult_lo + s_lo * mult_hi + lo_prod_hi + inc_hi
        s_lo = s_lo * mult_lo + inc_lo
        s_hi += s_lo < inc_lo
        if k >= 0:
            # XSL-RR output, then its top 53 bits
            x = s_hi ^ s_lo
            rot = s_hi >> u64(58)
            out[:, k] = (x >> rot | x << ((u64(64) - rot) & u64(63))) >> u64(11)
    out *= 2.0**-53
    return out


def _trial_uniforms(seed: int, lo: int, hi: int, width: int) -> Iterator[np.ndarray]:
    """Uniform rows of trials [lo, hi), in order, at most _STREAM_CHUNK at a time.

    Trial i's row holds exactly the doubles of default_rng(SeedSequence(
    [seed, i])).random(width), computed for the whole chunk at once: the
    SeedSequence hash, PCG64 seeding and XSL-RR output of numpy's
    bit_generator.pyx and pcg64.h (O'Neill, HMC-CS-2014-0905) in wrapping
    uint32/uint64 array arithmetic. A chunk never straddles 2^32, where
    the index gains a second entropy word.
    """
    seed_words = _uint32_words(seed)
    start = lo
    while start < hi:
        stop = min(hi, start + _STREAM_CHUNK, 1 << 32 * len(_uint32_words(start)))
        yield _pcg64_uniforms(seed_words, np.arange(start, stop, dtype=np.uint64), width)
        start = stop


def _run_block(
    experiments: list[tuple[DiscreteJointModel, RuleTables, TypicalityParams]],
    seed: int,
    lo: int,
    hi: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Trials [lo, hi) of every experiment: one (success, post_rate, dec_rate) each.

    Computes the uniforms of up to _STREAM_CHUNK trials once, at the widest
    k*M of the group; an experiment of width w reads the first w columns,
    which are its trials' random(w). The kernel runs over each such chunk
    whole: its guide-table picks make (chunk, M) temporaries, not (chunk, M,
    K) ones.
    """
    widths = [_draws_per_symbol(tables) * params.extension for _, tables, params in experiments]
    out = [(np.zeros(hi - lo, dtype=bool), np.zeros(hi - lo), np.zeros(hi - lo)) for _ in widths]
    done = 0
    for u in _trial_uniforms(seed, lo, hi, max(widths)):
        at = slice(done, done + len(u))
        for (model, tables, params), width, (success, post_rate, dec_rate) in zip(
            experiments, widths, out
        ):
            success[at], post_rate[at], dec_rate[at] = _trial_kernel(
                model, tables, u[:, :width], params.extension, params.epsilon
            )[3:]
        done += len(u)
        del u  # free this chunk before the next one is computed
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_experiments(
    experiments: list[tuple[DiscreteJointModel, RuleTables, TypicalityParams]],
    trials: int,
    seed: int,
    workers: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each experiment's trial-ordered (success, post_rate, dec_rate).

    Every experiment runs trials [0, trials) on the master seed, so the
    trials are split into min(workers, trials) contiguous blocks and each
    block runs the whole group on one stream. At workers=1 the blocks run
    in this process; otherwise each is one pool job, which pickles the
    shared models and tables once, on a pool of at most as many processes
    as the host has usable CPUs. All experiments' arrays are held until
    the last block is back: 17 bytes per trial per experiment.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not experiments:
        return []
    splits = np.linspace(0, trials, min(workers, trials) + 1).astype(int).tolist()
    jobs = [(experiments, seed, lo, hi) for lo, hi in zip(splits[:-1], splits[1:])]
    pool_size = min(len(jobs), _usable_cpus())
    with ProcessPoolExecutor(max_workers=pool_size) if workers > 1 else nullcontext() as pool:
        parts = list(pool.map(_run_block, *zip(*jobs)) if pool else (_run_block(*j) for j in jobs))
    return [tuple(np.concatenate(a) for a in zip(*blocks)) for blocks in zip(*parts)]


@dataclass(frozen=True)
class ExperimentReport:
    model_spec: dict
    rule: str
    m: int
    epsilon: float
    trials: int
    seed: int
    h_x_bits: float
    ti_bits: float
    success_count: int
    failure_count: int
    p_f_hat: float
    p_f_halfwidth: float
    h_hat_bits: float | None
    h_hat_halfwidth: float | None
    alt_h_hat_bits: float | None
    accuracy_hat_bits: float | None
    zero_success: bool

    def to_json_dict(self) -> dict:
        # worker count is an execution detail, deliberately not echoed
        return asdict(self)


def run_experiment(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    trials: int,
    seed: int,
    workers: int = 1,
    model_spec: dict | None = None,
) -> ExperimentReport:
    """R independent trials with per-trial seed streams; aggregate report.

    h_hat averages posterior entropy rate over successful trials only and is
    None (with zero_success set) when nothing succeeds. Half-widths are 95%
    normal intervals: binomial for p_f_hat, sample-std CLT for h_hat.
    """
    experiment = (model, make_rule_tables(model, rule), params)
    (arrays,) = _map_experiments([experiment], trials, seed, workers)
    return _report(model, rule, params, trials, seed, model_spec, *arrays)


def _report(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    trials: int,
    seed: int,
    model_spec: dict | None,
    success: np.ndarray,
    post_rate: np.ndarray,
    dec_rate: np.ndarray,
) -> ExperimentReport:
    info = info_summary(model)
    s = int(success.sum())
    p_f = (trials - s) / trials
    p_f_half = Z_95 * math.sqrt(p_f * (1.0 - p_f) / trials)
    if s == 0:
        h_hat = h_half = alt_h = acc = None
    else:
        wins = post_rate[success]
        h_hat = float(wins.mean())
        h_half = float(Z_95 * wins.std(ddof=1) / math.sqrt(s)) if s > 1 else None
        alt_h = float(dec_rate[success].mean())
        acc = info.h_x - h_hat
    return ExperimentReport(
        model_spec=dict(model_spec) if model_spec else {
            "n_hypotheses": model.n_hypotheses,
            "n_observations": model.n_observations,
        },
        rule=rule.value,
        m=params.extension,
        epsilon=params.epsilon,
        trials=trials,
        seed=seed,
        h_x_bits=info.h_x,
        ti_bits=info.ti,
        success_count=s,
        failure_count=trials - s,
        p_f_hat=p_f,
        p_f_halfwidth=p_f_half,
        h_hat_bits=h_hat,
        h_hat_halfwidth=h_half,
        alt_h_hat_bits=alt_h,
        accuracy_hat_bits=acc,
        zero_success=(s == 0),
    )


@dataclass(frozen=True)
class AchievabilityRecord:
    """Accuracy band (ti - 2e - d, ti + 2e + d) and failure cap 2e + 3 sigma."""

    epsilon: float
    delta: float
    accuracy: float | None
    band_lo: float
    band_hi: float
    accuracy_ok: bool | None
    p_f: float
    sigma: float
    p_f_bound: float
    p_f_ok: bool
    holds: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def achievability_check(
    report: ExperimentReport, params: TypicalityParams
) -> AchievabilityRecord:
    """Judge a report against the accuracy band and the failure-rate cap.

    delta widens the band by the Monte Carlo half-width of h_hat; sigma is
    the binomial standard error of p_f_hat. A zero-success report skips the
    accuracy clause (None) instead of fabricating a value.
    """
    eps = params.epsilon
    delta = report.h_hat_halfwidth or 0.0
    lo = report.ti_bits - 2 * eps - delta
    hi = report.ti_bits + 2 * eps + delta
    acc_ok: bool | None
    if report.zero_success:
        acc_ok = None
    else:
        acc_ok = bool(lo < report.accuracy_hat_bits < hi)
    sigma = report.p_f_halfwidth / Z_95
    bound = 2 * eps + 3 * sigma
    p_ok = bool(report.p_f_hat <= bound)
    return AchievabilityRecord(
        epsilon=eps,
        delta=delta,
        accuracy=report.accuracy_hat_bits,
        band_lo=lo,
        band_hi=hi,
        accuracy_ok=acc_ok,
        p_f=report.p_f_hat,
        sigma=sigma,
        p_f_bound=bound,
        p_f_ok=p_ok,
        holds=bool(acc_ok) and p_ok,
    )


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy in bits; 0 at (and beyond) 0 and 1."""
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)
    return np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)


def _lex_keys(rows: np.ndarray, n_symbols: int) -> np.ndarray:
    """Each row read as a base-n_symbols number: increasing in lexicographic order."""
    dtype = np.int64 if n_symbols ** rows.shape[1] < 2**63 else object
    keys = np.zeros(len(rows), dtype=dtype)
    for column in rows.T:
        keys = keys * n_symbols + column.astype(dtype)
    return keys


def _scan_y_space(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    cap: int | None,
) -> tuple[float, float, float]:
    """Exact sums over the y-sequence type classes for small M.

    Returns (p_f, h_e_given_y, success_weighted_h) where success_weighted_h
    = sum_y P(y) s(y) H(X^M | y) and s(y) is the per-y success probability.
    P(y), H(X^M | y) and s(y) depend on y only through its type, so each
    sum runs over the y-types, weighted by the class size times P(y).
    Deterministic rules decide det_choice[y] symbol by symbol, so s(y) is 0
    or 1 and follows from the y-type. SAP draws each decided symbol from the
    posterior, so the pair (x-hat, y) follows the joint law: |T_y| P(y) s(y)
    is the mass of the jointly typical pair classes whose y half has type
    T_y (_joint_typical_classes, grouped by y-type). The cap counts the
    (|X||Y|)^M sequence pairs a brute-force scan would visit.
    """
    m, eps = params.extension, params.epsilon
    n_y = model.n_observations
    _check_pair_cap(model, m, cap)
    tables = make_rule_tables(model, rule)

    y_rows, y_counts = map(np.concatenate, zip(*_type_classes(n_y, m)))
    p_y = np.exp2(model.log2_y_marginal[y_rows].sum(axis=1))
    # zero-probability y-types are dropped: no posterior column of theirs is
    # read, and no s(y) is divided by their zero weight
    live = p_y > 0.0
    live_rows = y_rows[live]
    weight = y_counts[live].astype(float) * p_y[live]
    if tables.det_choice is not None:
        s = jointly_typical_rows(model, tables.det_choice[live_rows], live_rows, eps).astype(float)
    else:
        y_keys = _lex_keys(y_rows, n_y)
        mass = np.zeros(len(y_rows))
        for rows, sizes, probs in _joint_typical_classes(model, m, eps):
            # the sorted y half of a pair class is its y-type's row in y_rows
            y_type = np.searchsorted(y_keys, _lex_keys(np.sort(rows % n_y, axis=1), n_y))
            mass += np.bincount(y_type, sizes.astype(float) * probs, minlength=len(y_rows))
        s = mass[live] / weight
    h_cond = model.posterior_col_entropy[live_rows].sum(axis=1)
    return (
        float(weight @ (1.0 - s)),
        float(weight @ _binary_entropy(s)),
        float(weight @ (s * h_cond)),
    )


def exact_failure_probability(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    cap: int | None = None,
) -> float:
    """Exact P_f, summed over type classes; the oracle for Monte Carlo agreement."""
    p_f, _, _ = _scan_y_space(model, rule, params, cap)
    return p_f


@dataclass(frozen=True)
class FanoRecord:
    """Exact audit of H(X^M, E | Y^M) against the extended Fano bound."""

    rule: str
    m: int
    epsilon: float
    p_f: float
    h_e_given_y: float
    h_x_given_y: float
    h_success: float | None
    lhs: float
    rhs: float
    holds: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def extended_fano_check(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    cap: int | None = None,
) -> FanoRecord:
    """Exact small-M inequality audit over the full (X^M, X-hat^M, E, Y^M) law.

    The decision (and hence E) never sees X given Y, so H(X^M, E | Y^M)
    splits as H(E | Y^M) + H(X^M | Y^M); the bound is 1 + (1 - P_f)
    H(X^M | Y^M, E = 0) + P_f M (H(X) + epsilon), all in exact arithmetic
    up to float rounding.
    """
    m, eps = params.extension, params.epsilon
    p_f, h_e, success_weighted_h = _scan_y_space(model, rule, params, cap)
    h_x_given_y = m * info_summary(model).h_x_given_y
    lhs = h_e + h_x_given_y
    # (1 - P_f) H(X^M|Y^M, E=0) equals the success-weighted sum directly,
    # which stays well-defined even when P_f = 1
    rhs = 1.0 + success_weighted_h + p_f * m * (model.h_x + eps)
    h_success = success_weighted_h / (1.0 - p_f) if p_f < 1.0 else None
    return FanoRecord(
        rule=rule.value,
        m=m,
        epsilon=eps,
        p_f=p_f,
        h_e_given_y=h_e,
        h_x_given_y=h_x_given_y,
        h_success=h_success,
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + 1e-9),
    )


@dataclass(frozen=True)
class ConverseRecord:
    """accuracy_hat <= ti + slack, slack = 1/M + P_f (H(X)+eps-h_hat) + delta."""

    accuracy: float | None
    ti: float
    one_over_m: float
    p_f_term: float
    delta: float
    slack: float
    bound: float
    skipped: bool
    holds: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def converse_check(report: ExperimentReport) -> ConverseRecord:
    """Upper-bound audit of a report's estimated accuracy.

    The slack combines the 1/M term, the failure-mass term P_f (H(X) +
    epsilon - h_hat), and the Monte Carlo half-width. A zero-success report
    has no accuracy to check and is marked skipped (vacuously holding).
    """
    one_over_m = 1.0 / report.m
    delta = report.h_hat_halfwidth or 0.0
    if report.zero_success:
        return ConverseRecord(
            accuracy=None,
            ti=report.ti_bits,
            one_over_m=one_over_m,
            p_f_term=0.0,
            delta=delta,
            slack=one_over_m + delta,
            bound=report.ti_bits + one_over_m + delta,
            skipped=True,
            holds=True,
        )
    p_f_term = report.p_f_hat * (report.h_x_bits + report.epsilon - report.h_hat_bits)
    slack = one_over_m + p_f_term + delta
    bound = report.ti_bits + slack
    return ConverseRecord(
        accuracy=report.accuracy_hat_bits,
        ti=report.ti_bits,
        one_over_m=one_over_m,
        p_f_term=p_f_term,
        delta=delta,
        slack=slack,
        bound=bound,
        skipped=False,
        holds=bool(report.accuracy_hat_bits <= bound + 1e-12),
    )


SWEEP_COLUMNS = (
    "N",
    "theta",
    "M",
    "epsilon",
    "rule",
    "R",
    "seed",
    "ti_bits",
    "accuracy_bits",
    "h_hat_bits",
    "alt_h_hat_bits",
    "pf_hat",
    "pf_halfwidth",
    "successes",
)


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return f"{v:.10g}" if isinstance(v, float) else str(v)


def render_sweep_csv(rows: list[dict]) -> str:
    """Sweep rows as CSV text: floats to 10 significant digits, None as ''."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    writer.writerows([_csv_cell(row[col]) for col in SWEEP_COLUMNS] for row in rows)
    return buf.getvalue()


def sweep(
    n_values: Sequence[int],
    theta_values: Sequence[float],
    m_values: Sequence[int],
    epsilon_values: Sequence[float],
    rules: Sequence[DecisionRule],
    trials: int,
    seed: int,
    workers: int = 1,
    on_row: Callable[[dict], None] | None = None,
) -> list[dict]:
    """Coin-model grid of experiments, one row dict per point.

    Row order is lexicographic: each axis is sorted ascending (rules by
    name) and nested as N, theta, M, epsilon, rule. Every row reuses the
    same master seed so rules and M values are compared on common trial
    streams. An empty axis yields an empty table, not an error.
    Undefined-accuracy rows carry None in the h_hat-derived columns. The
    whole grid shares one trial stream per block and one process pool
    (workers > 1); once every block is back, on_row sees the rows in order.
    """
    coins = [
        (n, theta, build_coin_model(n, theta))
        for n in sorted(n_values) for theta in sorted(theta_values)
    ]
    rules = sorted(rules, key=lambda r: r.value)
    grid = list(product(coins, sorted(m_values), sorted(epsilon_values), rules))
    # rule tables depend on the model and rule only, not on M or epsilon
    tables = {
        (model, rule): make_rule_tables(model, rule)
        for _, _, model in coins for rule in rules
    }
    experiments = [
        (model, tables[model, rule], TypicalityParams(epsilon=eps, extension=m))
        for (_, _, model), m, eps, rule in grid
    ]
    rows: list[dict] = []
    arrays = _map_experiments(experiments, trials, seed, workers)
    for ((n, theta, model), m, eps, rule), (_, _, params), arrs in zip(grid, experiments, arrays):
        rep = _report(model, rule, params, trials, seed, None, *arrs)
        row = {
            "N": int(n),
            "theta": float(theta),
            "M": int(m),
            "epsilon": float(eps),
            "rule": rule.value,
            "R": int(trials),
            "seed": int(seed),
            "ti_bits": rep.ti_bits,
            "accuracy_bits": rep.accuracy_hat_bits,
            "h_hat_bits": rep.h_hat_bits,
            "alt_h_hat_bits": rep.alt_h_hat_bits,
            "pf_hat": rep.p_f_hat,
            "pf_halfwidth": rep.p_f_halfwidth,
            "successes": rep.success_count,
        }
        rows.append(row)
        if on_row is not None:
            on_row(row)
    return rows
