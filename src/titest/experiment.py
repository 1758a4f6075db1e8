"""Monte Carlo over M-extensions: sampling, trials, their audits, and sweeps.

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
No generator is built per trial: the rows of a chunk of trials are computed
together by numpy array arithmetic that reproduces SeedSequence's hash and
PCG64's seeding and output bit for bit, jumping ahead where rows are few and
long (_trial_uniforms, _pcg64_uniforms; tested against numpy's own
generators), held draw-major. Sampling, decisions, the judgement and both
rate estimators run over each chunk whole: the inverse-CDF picks read a
C-contiguous copy of their (rows, M) block, so every row sum over them has
one order, and look each draw up in a guide table (rules.CdfGuide), so no
temporary grows with the alphabet size. A trial is two steps: _draw samples
x and y and takes the y and posterior-entropy rates, and _decide decides
and judges; _run_block composes them per chunk, and run_trial for one row.
_pick_pair is the one map from uniforms to (x, y), for _draw and sample_extension.

Determinism contract: trial i always runs on default_rng(SeedSequence([seed,
i])), and every aggregate is computed from the trial-ordered arrays, so a
report is byte-for-byte identical for any worker count.

Every experiment (model, rule, params) of a call runs trials [0, R) on the
master seed (common random numbers): trial i's row is computed once, at the
widest k*M, and each experiment reads its leading k*M columns. The trials
split into contiguous blocks, no more than the call's work pays for
(_map_experiments); one block runs in this process, and only a call of more
imports the process pool's modules. A block (_run_block) shares the x/y
picks and rates of the experiments on one model object and M, and builds
each rule's table (_rule_table) once per (model, rule) from its decided-pair
law (rules._symbol_law); every rate of a trial is typicality._rate's gather
from a log2 table. run_trial builds one law, for its table and a
deterministic rule's choices.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import asdict, dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .model import DiscreteJointModel, _integer, build_coin_model
from .rules import DecisionRule, _symbol_law, _SymbolLaw
from .typicality import SequencePair, TypicalityParams, _band, _rate
from .typicality import extended_fano_check  # re-exported for bench/record_reference.py

__all__ = [
    "SWEEP_COLUMNS",
    "AchievabilityRecord",
    "ConverseRecord",
    "ExperimentReport",
    "SequenceTrial",
    "achievability_check",
    "converse_check",
    "run_experiment",
    "run_trial",
    "sample_extension",
    "sweep",
]

Z_95 = 1.96

# Trials whose uniforms are computed together, and then run through the
# kernel together: stepping many PCG64 lanes at once amortizes numpy's
# per-call cost. A chunk has at most _STREAM_CHUNK rows and, unless one row
# is larger, at most _STREAM_BYTES of uniforms: 4,096 rows up to 32 doubles
# a row (coin10, M=10, SAP reads 30), 4 rows at SAP, M=10^4.
_STREAM_CHUNK = 4096
_STREAM_BYTES = 1 << 20

# The least work, in doubles the kernels read (trials times the sum of k*M
# over a call's experiments), that pays for a block of its own: a call gets
# at most one block per _BLOCK_WORK, and a single block runs in process.
# On a 2-vCPU host two processes beat one from between 6e5 and 1.5e6
# doubles (coin10, M=10, SAP at 2e4 and 5e4 trials; BENCH_pool.json).
_BLOCK_WORK = 1_000_000

# A trial's row of uniforms is computed whole (a chunk never holds less than
# one row), so Monte Carlo M is bounded by the row: the widest, a SAP row of
# 3M doubles, must fit in _ROW_BYTES. One SAP trial at M holds about 46 M
# bytes at its peak, so the bound, M = 44,739,242, takes about 2 GB.
_ROW_BYTES = 1 << 30
_MAX_TRIAL_M = _ROW_BYTES // (3 * 8)

# SeedSequence (numpy bit_generator.pyx) and PCG64 (pcg64.h) constants.
_M32 = 0xFFFFFFFF
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1


@dataclass(frozen=True)
class SequenceTrial:
    pair: SequencePair
    decided: tuple[int, ...]
    success: bool
    posterior_entropy_rate: float
    decided_surprisal_rate: float


def _pick_pair(model: DiscreteJointModel, ux: np.ndarray, uy: np.ndarray) -> tuple:
    """Storage indices (xi, yi): xi from ux by the prior CDF, yi from uy by row xi's.

    The picks are inverse_cdf_pick's, made through the model's guide tables.
    """
    xi = model.prior_guide.pick(ux)
    return xi, model.lik_guide.pick(uy, xi)


def sample_extension(
    model: DiscreteJointModel, m: int, rng: np.random.Generator
) -> SequencePair:
    """Draw an i.i.d. pair of length-m label sequences from the model.

    Draw order is part of the determinism contract: m uniforms for the
    hypothesis symbols first, then m uniforms for the observations, each
    mapped through an inverse CDF in the model's storage order.
    """
    m = _integer("extension", m, 1)
    xi, yi = _pick_pair(model, rng.random(m), rng.random(m))
    x_labels = np.asarray(model.hypothesis_values)
    y_labels = np.asarray(model.observation_values)
    return SequencePair(x_seq=tuple(x_labels[xi]), y_seq=tuple(y_labels[yi]))


def _rule_table(model: DiscreteJointModel, law: _SymbolLaw, rule: DecisionRule) -> np.ndarray:
    """The (3, n) log2 P(x-hat), P(x-hat, y) and P(x-hat | y) of rule's decided
    pairs, scattered from their law (rules._symbol_law) by y for a
    deterministic rule (n = |Y|), by x-hat |Y| + y for SAP (n = |X| |Y|), and
    -inf off its support, so a SAP pick of a zero-posterior x-hat fails."""
    n = model.n_observations
    at = law.x * n + law.y if rule.is_stochastic else law.y
    table = np.full((3, n * model.n_hypotheses if rule.is_stochastic else n), -np.inf)
    table[:, at] = law.log2[[0, 2, 3]]
    return table


def _draw(
    model: DiscreteJointModel, u: np.ndarray, m: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(xi, yi, posterior_entropy_rate, y_rate) of the trials whose uniforms
    are the rows of u: x from u's first M columns, y from the next M. Every
    rule at one (model, M) reads these same columns and rates."""
    xi, yi = _pick_pair(model, u[:, :m], u[:, m : 2 * m])
    post_rate = model.posterior_col_entropy[yi].mean(axis=1)
    return xi, yi, post_rate, _rate(model.log2_y_marginal, yi)


def _decide(
    model: DiscreteJointModel,
    rule: DecisionRule,
    table: np.ndarray,
    yi: np.ndarray,
    y_rate: np.ndarray,
    u: np.ndarray,
    m: int,
    epsilon: float,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(decided_xi, success, decided_surprisal_rate) of the trials whose y
    indices are yi and y rates y_rate; the x, joint and decided-posterior
    rates are one _rate gather of rule's table (_rule_table), by yi for a
    deterministic rule, which returns decided_xi None, and by decided_xi |Y|
    + yi for SAP, which draws decided_xi with u's columns 2M to 3M."""
    if rule.is_stochastic:
        decided = model.label_order[model.posterior_guide.pick(u[:, 2 * m : 3 * m], yi)]
        index = decided * model.n_observations
        index += yi  # in place: one (B, M) index array fewer at the peak
    else:
        decided, index = None, yi
    x, joint, dec = _rate(table, index)
    return decided, _band((x, y_rate, joint), (model.h_x, model.h_y, model.h_xy), epsilon), dec


def run_trial(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    rng: np.random.Generator,
) -> SequenceTrial:
    """One M-extension trial: sample, decide per symbol, judge typicality.

    Draw order within the trial's stream: M uniforms for x, M for y, then
    (stochastic rules only) M for the decisions, taken as one draw. A block
    of one through the steps _run_block runs.
    """
    rule = DecisionRule(rule)
    m = params.extension
    (width,) = _widths([(model, rule, params)])
    u = rng.random((1, width))
    xi, yi, post_rate, y_rate = _draw(model, u, m)
    law = _symbol_law(model, rule)
    table = _rule_table(model, law, rule)
    decided, success, dec_rate = _decide(model, rule, table, yi, y_rate, u, m, params.epsilon)
    if decided is None:
        decided = law.x[np.searchsorted(law.y, yi)]
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


def _u128_limbs(a: int) -> tuple[np.uint64, ...]:
    """A Python int a < 2^128 as _pcg64_mul_add multiplies by it: its high
    and low uint64 words, then the low word's low and high 32-bit limbs."""
    a_lo = np.uint64(a & _M64)
    return np.uint64(a >> 64), a_lo, a_lo & np.uint64(_M32), a_lo >> np.uint64(32)


def _pcg64_mul_add(
    s_hi: np.ndarray, s_lo: np.ndarray, limbs: tuple, c_hi: np.ndarray, c_lo: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """s * a + c mod 2^128 on (hi, lo) uint64 word arrays; limbs is _u128_limbs(a)."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a_hi, a_lo, b_lo, b_hi = limbs
    # the high word of s_lo * a_lo, assembled from 32-bit limbs
    x_lo, x_hi = s_lo & m32, s_lo >> s32
    t = x_hi * b_lo + (x_lo * b_lo >> s32)
    w = (t & m32) + x_lo * b_hi
    lo_prod_hi = x_hi * b_hi + (t >> s32) + (w >> s32)
    hi = s_hi * a_lo + s_lo * a_hi + lo_prod_hi + c_hi
    lo = s_lo * a_lo + c_lo
    hi += lo < c_lo
    return hi, lo


def _pcg64_uniforms(seed_words: list[int], index: np.ndarray, width: int) -> np.ndarray:
    """(len(index), width) doubles: row r is random(width) of trial index[r].

    A PCG64 step is s -> s * MULT + inc mod 2^128, so B steps are s -> s *
    A_B + G_B * inc with A_B = MULT^B and G_B = sum_{i<B} MULT^i. Each lane
    holds the states of B consecutive draws and jumps B draws at a time,
    where B is the largest power of two with rows * B <= _STREAM_CHUNK (and
    no wider than the row needs): a full chunk steps one draw at a time,
    and a chunk of a few long rows takes width / B numpy passes, not width.
    The first B states come from doubling steps off the seeded state. A pass
    writes B whole draw rows of a (width, rows) buffer, returned transposed.
    """
    u64 = np.uint64
    rows = len(index)
    lanes = 1 << min(max(1, _STREAM_CHUNK // rows).bit_length() - 1, (width - 1).bit_length())
    s_hi, s_lo, inc_hi, inc_lo = _pcg64_states(seed_words, index)
    # the seeding's second step, then the first draw's
    for _ in range(2):
        s_hi, s_lo = _pcg64_mul_add(s_hi, s_lo, _u128_limbs(_PCG_MULT), inc_hi, inc_lo)
    # double the states held per lane to B: with b held, s -> s * A_b + c
    # steps b draws, where c = G_b * inc, and G_2b = G_b + A_b * G_b
    s_hi, s_lo = s_hi[None], s_lo[None]
    a, c_hi, c_lo = _PCG_MULT, inc_hi, inc_lo
    while len(s_hi) < lanes:
        limbs = _u128_limbs(a)
        t_hi, t_lo = _pcg64_mul_add(s_hi, s_lo, limbs, c_hi, c_lo)
        s_hi, s_lo = np.concatenate([s_hi, t_hi]), np.concatenate([s_lo, t_lo])
        c_hi, c_lo = _pcg64_mul_add(c_hi, c_lo, limbs, c_hi, c_lo)
        a = a * a & _M128
    # then jump B draws at a time, on flat draw-major lanes
    s_hi, s_lo = s_hi.ravel(), s_lo.ravel()
    c_hi, c_lo = np.tile(c_hi, lanes), np.tile(c_lo, lanes)
    limbs = _u128_limbs(a)
    out = np.empty((width, rows))
    for k in range(0, width, lanes):
        if k:
            s_hi, s_lo = _pcg64_mul_add(s_hi, s_lo, limbs, c_hi, c_lo)
        # XSL-RR output, then its top 53 bits
        x = s_hi ^ s_lo
        rot = s_hi >> u64(58)
        bits = (x >> rot | x << ((u64(64) - rot) & u64(63))) >> u64(11)
        out[k : k + lanes] = bits.reshape(lanes, rows)[: width - k]
    out *= 2.0**-53
    return out.T


def _trial_uniforms(seed: int, lo: int, hi: int, width: int) -> Iterator[np.ndarray]:
    """Draw-major uniform rows of trials [lo, hi), in order, a chunk at a time.

    Trial i's row holds exactly the doubles of default_rng(SeedSequence(
    [seed, i])).random(width), computed for the whole chunk at once: the
    SeedSequence hash, PCG64 seeding and XSL-RR output of numpy's
    bit_generator.pyx and pcg64.h (O'Neill, HMC-CS-2014-0905) in wrapping
    uint32/uint64 array arithmetic. A chunk has at most _STREAM_CHUNK rows
    and at most _STREAM_BYTES of doubles, but never less than one row, and
    it never straddles 2^32, where the index gains a second entropy word.
    """
    seed_words = _uint32_words(seed)
    rows = min(_STREAM_CHUNK, max(1, _STREAM_BYTES // (8 * width)))
    start = lo
    while start < hi:
        stop = min(hi, start + rows, 1 << 32 * len(_uint32_words(start)))
        yield _pcg64_uniforms(seed_words, np.arange(start, stop, dtype=np.uint64), width)
        start = stop


def _widths(
    experiments: list[tuple[DiscreteJointModel, DecisionRule, TypicalityParams]],
) -> list[int]:
    """Each experiment's k*M: the uniforms one of its trials reads, with k 3
    for SAP and 2 for the deterministic rules. An M whose row would pass
    _ROW_BYTES is refused, before any row is drawn."""
    _integer("Monte Carlo M", max(p.extension for _, _, p in experiments), hi=_MAX_TRIAL_M)
    return [(3 if rule.is_stochastic else 2) * params.extension for _, rule, params in experiments]


def _run_block(
    experiments: list[tuple[DiscreteJointModel, DecisionRule, TypicalityParams]],
    seed: int,
    lo: int,
    hi: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Trials [lo, hi) of every experiment: one (success, post_rate, dec_rate) each.

    Computes the uniforms of a chunk of trials once, at the widest k*M of the
    group; an experiment of width w reads the first w columns, which are its
    trials' random(w). Experiments that share a model (by identity) and M
    read the same x and y columns, so per chunk the x/y picks, the y rate
    and the posterior-entropy rate run once per (model, M). Per experiment,
    _decide then gathers the rule's x, joint and decided-posterior rates
    from its table (_rule_table, built once per (model, rule)). Each step
    runs over the chunk whole: the guide-table picks make (chunk, M)
    temporaries, not (chunk, M, K) ones.
    """
    out = [(np.zeros(hi - lo, dtype=bool), np.zeros(hi - lo), np.zeros(hi - lo)) for _ in experiments]
    pairs = dict.fromkeys((model, rule) for model, rule, _ in experiments)
    tables = {
        (model, rule): _rule_table(model, _symbol_law(model, rule), rule) for model, rule in pairs
    }
    groups: dict[tuple[DiscreteJointModel, int], list[int]] = {}
    for e, (model, _, params) in enumerate(experiments):
        groups.setdefault((model, params.extension), []).append(e)
    done = 0
    for u in _trial_uniforms(seed, lo, hi, max(_widths(experiments))):
        at = slice(done, done + len(u))
        for (model, m), members in groups.items():
            _, yi, post_rate, y_rate = _draw(model, u, m)
            for e in members:
                _, rule, params = experiments[e]
                success, post, dec = out[e]
                post[at] = post_rate
                _, success[at], dec[at] = _decide(
                    model, rule, tables[model, rule], yi, y_rate, u, m, params.epsilon
                )
        done += len(u)
        del u  # free this chunk before the next one is computed
    return out


def _block_bounds(trials: int, width: int, workers: int) -> list[int]:
    """Bounds 0 = b_0 < ... < b_n = trials of the blocks of a call whose
    trials read width doubles each: n = min(workers, trials, ceil(trials *
    width / _BLOCK_WORK)), and block sizes differ by at most one."""
    blocks = min(workers, trials, -(-trials * width // _BLOCK_WORK))
    return [trials * b // blocks for b in range(blocks + 1)]


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_experiments(
    experiments: list[tuple[DiscreteJointModel, DecisionRule, TypicalityParams]],
    trials: int,
    seed: int,
    workers: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each experiment's trial-ordered (success, post_rate, dec_rate).

    Every experiment runs trials [0, trials) on the master seed, so the
    trials are split into contiguous blocks and each block runs the whole
    group on one stream. There are min(workers, trials, ceil(work /
    _BLOCK_WORK)) blocks, where work is trials times the group's sum of
    k*M. One block runs in this process; more are one pool job each,
    which pickles the shared models once, on a pool of at most
    as many processes as the host has usable CPUs. All experiments' arrays
    are held until the last block is back: 17 bytes per trial per
    experiment. The callers check trials and seed; workers is checked here.
    """
    workers = _integer("workers", workers, 1)
    if not experiments:
        return []
    bounds = _block_bounds(trials, sum(_widths(experiments)), workers)
    jobs = [(experiments, seed, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    if len(jobs) == 1:
        parts = [_run_block(*jobs[0])]
    else:
        # the pool's stack (multiprocessing, socket, subprocess, logging, ...)
        # loads only here, so a call of one block never imports it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(len(jobs), _usable_cpus())) as pool:
            parts = list(pool.map(_run_block, *zip(*jobs)))
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
    trials (1..sys.maxsize), seed (>= 0) and workers (>= 1) are integers,
    not bools; the report holds trials and seed as ints.
    """
    trials, seed = _integer("trials", trials, 1, sys.maxsize), _integer("seed", seed, 0)
    (arrays,) = _map_experiments([(model, DecisionRule(rule), params)], trials, seed, workers)
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
        acc = model.h_x - h_hat
    return ExperimentReport(
        model_spec=dict(model_spec) if model_spec else {
            "n_hypotheses": model.n_hypotheses,
            "n_observations": model.n_observations,
        },
        rule=DecisionRule(rule).value,
        m=params.extension,
        epsilon=params.epsilon,
        trials=trials,
        seed=seed,
        h_x_bits=model.h_x,
        ti_bits=model.ti,
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


def achievability_check(report: ExperimentReport) -> AchievabilityRecord:
    """Judge a report against the accuracy band and the failure-rate cap.

    epsilon is the report's own, the one its trials were judged at. delta
    widens the band by the Monte Carlo half-width of h_hat; sigma is the
    binomial standard error of p_f_hat. A zero-success report skips the
    accuracy clause (None) instead of fabricating a value.
    """
    eps = report.epsilon
    delta = report.h_hat_halfwidth or 0.0
    lo = report.ti_bits - 2 * eps - delta
    hi = report.ti_bits + 2 * eps + delta
    acc_ok = None if report.zero_success else bool(lo < report.accuracy_hat_bits < hi)
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
    skipped = report.zero_success
    p_f_term = 0.0 if skipped else (
        report.p_f_hat * (report.h_x_bits + report.epsilon - report.h_hat_bits)
    )
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
        skipped=skipped,
        holds=skipped or bool(report.accuracy_hat_bits <= bound + 1e-12),
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


def sweep(
    n_values: Sequence[int],
    theta_values: Sequence[float],
    m_values: Sequence[int],
    epsilon_values: Sequence[float],
    rules: Sequence[DecisionRule],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Coin-model grid of experiments, one row dict per point.

    Each axis is a set: a repeated value (a rule name in any case) runs and
    prints once. Row order is lexicographic: each axis is sorted ascending
    (rules by name) and nested as N, theta, M, epsilon, rule. Every row
    reuses the same master seed so rules and M values are compared on common
    trial streams. An empty axis yields an empty table, not an error.
    Undefined-accuracy rows carry None in the h_hat-derived columns. The
    whole grid is one call of _map_experiments: it shares one trial stream
    per block, and a grid whose work pays for more than one block shares
    one process pool. Every coin model is built before any trial runs, so a
    bad (n, theta) raises ValueError with nothing run. trials, seed and
    workers are integers, not bools, as for run_experiment.
    """
    trials, seed = _integer("trials", trials, 1, sys.maxsize), _integer("seed", seed, 0)
    coins = [(n, theta, build_coin_model(n, theta)) for n in sorted(set(n_values))
             for theta in sorted(set(theta_values))]
    rules = sorted(set(map(DecisionRule, rules)), key=lambda r: r.value)
    grid = list(product(coins, sorted(set(m_values)), sorted(set(epsilon_values)), rules))
    experiments = [
        (model, rule, TypicalityParams(epsilon=eps, extension=m))
        for (_, _, model), m, eps, rule in grid
    ]
    rows: list[dict] = []
    arrays = _map_experiments(experiments, trials, seed, workers)
    for ((n, theta, model), m, eps, rule), (_, _, params), arrs in zip(grid, experiments, arrays):
        rep = _report(model, rule, params, trials, seed, None, *arrs)
        rows.append(dict(zip(SWEEP_COLUMNS, (
            int(n), float(theta), int(m), float(eps), rule.value, trials, seed, rep.ti_bits,
            rep.accuracy_hat_bits, rep.h_hat_bits, rep.alt_h_hat_bits, rep.p_f_hat,
            rep.p_f_halfwidth, rep.success_count,
        ))))
    return rows
