"""Decision rules over posterior columns, plus exact per-rule error probability.

All four rules consume a PosteriorColumn. Ties always break toward the lowest
hypothesis label so that runs are reproducible; the stochastic rule (SAP) takes
an explicit numpy Generator and never touches global randomness.

The three deterministic rules are defined once, by decide_columns over a stack
of posterior columns in ascending label order: first-occurrence argmax/argmin,
row-wise sums and row-wise cumulative sums. decide is the one entry point
for a single observation's column under any of the four rules, SAP by one
posterior draw (sap_sample). _symbol_law builds the law of one decided pair
(x-hat, y) as one record: its support, the log2 prior, y-marginal, joint and
posterior at each support point, and H(X | Y=y) there. Every rule's trial
table (experiment._rule_table, SAP's too), the deterministic choices,
error_probability and the exact type-class walk all read it. A model's
label_order gives the ascending label order; _ascending sorts one column.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

import numpy as np

from .model import DiscreteJointModel, PosteriorColumn, _integer

__all__ = [
    "DecisionRule",
    "decide",
    "decide_columns",
    "error_probability",
    "inverse_cdf_pick",
    "sap_sample",
]


class DecisionRule(str, enum.Enum):
    MAP = "map"
    EAP = "eap"
    MEAP = "meap"
    SAP = "sap"

    @property
    def is_stochastic(self) -> bool:
        return self is DecisionRule.SAP

    @classmethod
    def _missing_(cls, value: object) -> "DecisionRule":
        """A rule name in any case, so DecisionRule("MAP") is DecisionRule.MAP."""
        for rule in cls:
            if isinstance(value, str) and value.lower() == rule.value:
                return rule
        valid = ", ".join(r.value for r in cls)
        raise ValueError(f"unknown rule {value!r}; valid rules: {valid}")


def _ascending(post: PosteriorColumn) -> tuple[np.ndarray, np.ndarray]:
    labels = np.asarray(post.labels)
    order = np.argsort(labels, kind="stable")
    return labels[order], np.asarray(post.probs)[order]


def decide_columns(rule: DecisionRule, columns: np.ndarray) -> np.ndarray:
    """Positions a deterministic rule decides, one per row of columns.

    columns is a (C, K) stack: row c is a posterior column over the K
    hypotheses in ascending label order, and the result holds, for each row,
    the position of the decided label in that order. Every rule breaks ties
    toward the lowest position (first-occurrence argmax/argmin).

    - MAP: the largest posterior probability.
    - EAP: the probability nearest the expected posterior mass E[p] =
      sum_n p(n)^2, the probability-weighted mean of the probabilities
      themselves. A positive-probability label always wins: the smallest
      in-support p satisfies p <= E[p], so its distance to E[p] is strictly
      below the E[p] distance any zero-probability label has.
    - MeAP: the running CDF closest to 1/2. Candidates are restricted to the
      support: a zero-probability label never moves the CDF, so admitting it
      could only matter through tie-breaks, and a point-mass posterior must
      decide its own atom rather than an unrelated lower label.
    """
    rule = DecisionRule(rule)
    # C order, so each row's sum adds its terms as a one-column sum does
    probs = np.ascontiguousarray(columns, dtype=float)
    if rule is DecisionRule.MAP:
        return probs.argmax(axis=1)
    if rule is DecisionRule.EAP:
        return np.abs(probs - (probs * probs).sum(axis=1)[:, None]).argmin(axis=1)
    if rule is DecisionRule.MEAP:
        score = np.abs(np.cumsum(probs, axis=1) - 0.5)
        score[probs <= 0.0] = np.inf
        return score.argmin(axis=1)
    raise ValueError(f"{rule.value} is not a deterministic rule")


def inverse_cdf_pick(cdf: np.ndarray, u) -> np.ndarray:
    """Index of the smallest entry with cdf > u, along the last axis.

    The one definition of the picks' boundary semantics (a draw landing
    exactly on a CDF step selects the next support point): the single-draw
    SAP rule calls it, and the trial samplers' guide tables (CdfGuide) fall
    back to it wherever a bucket does not settle the pick. The count is
    clipped so a terminal cdf of 1 - 1ulp cannot index past the end.
    """
    u = np.asarray(u)
    idx = (cdf <= u[..., None]).sum(axis=-1)
    return np.minimum(idx, cdf.shape[-1] - 1)


# A guide splits [0, 1) into 2**_GUIDE_BITS buckets. Scaling by a power of
# two is exact, so int(u * _GUIDE_BUCKETS) is exactly the bucket holding u.
_GUIDE_BITS = 10
_GUIDE_BUCKETS = 1 << _GUIDE_BITS
# The ambiguous-draw fallback gathers at most this many CDF entries at once,
# whatever the number of draws.
_FALLBACK_ENTRIES = 1 << 20


class CdfGuide:
    """Guide table over the rows of a CDF table: inverse_cdf_pick by bucket.

    The indexed search of Chen & Asau (1974; Devroye, Non-Uniform Random
    Variate Generation, 1986, III.2.4), made exact. Bucket b is [b, b + 1)
    * 2**-_GUIDE_BITS. For each row the guide stores min(#(cdf <= b
    2**-_GUIDE_BITS), K - 1), which is the pick of every u in the bucket
    unless a CDF step lies strictly inside it; such an ambiguous bucket
    stores K instead. Draws in an ambiguous bucket, and any u outside
    [0, 1), go through inverse_cdf_pick itself, so every pick equals
    inverse_cdf_pick's. CDF entries must not be NaN.

    A table is built in one pass over its rows x 2**_GUIDE_BITS entries:
    cdf <= b 2**-p iff ceil(cdf 2**p) <= b, so the count is c over the run
    of buckets from a row's c-th to its (c+1)-th sorted ceil edge, and the
    counts 0..K-1 (the last capped at K-1) are repeated over those runs;
    then the bucket floor(cdf 2**p) of each entry strictly inside a bucket
    is marked K.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        self.cdf = np.atleast_2d(cdf)
        n_rows, k = self.cdf.shape
        scaled = self.cdf * _GUIDE_BUCKETS
        edges = np.sort(np.clip(np.ceil(scaled), 0, _GUIDE_BUCKETS).astype(np.intp), axis=1)
        runs = np.diff(edges, axis=1, prepend=0, append=_GUIDE_BUCKETS)
        counts = np.minimum(np.arange(k + 1), k - 1).astype(np.min_scalar_type(k))
        self.guide = np.repeat(np.tile(counts, n_rows), runs.ravel())
        floor = np.floor(scaled)
        inside = (floor != scaled) & (floor >= 0) & (floor < _GUIDE_BUCKETS)
        rows, _ = np.nonzero(inside)
        self.guide[rows * _GUIDE_BUCKETS + floor[inside].astype(np.intp)] = k

    def pick(self, u: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """inverse_cdf_pick(self.cdf[rows], u) for an array u, as C-ordered
        intp indices for any layout of u, so gathers convert nothing and row
        sums add in one order; rows, of u's shape, defaults to row 0."""
        u = np.ascontiguousarray(u)
        inside = (u >= 0) & (u < 1)
        bucket = ((u if inside.all() else np.where(inside, u, 0)) * _GUIDE_BUCKETS).astype(np.intp)
        if rows is not None:
            bucket += np.multiply(rows, _GUIDE_BUCKETS, dtype=np.intp)
        out = self.guide[bucket].astype(np.intp)
        slow = (out == self.cdf.shape[1]) | ~inside
        if slow.any():
            u_slow = u[slow]
            rows_slow = np.zeros(len(u_slow), dtype=np.intp) if rows is None else rows[slow]
            step = max(1, _FALLBACK_ENTRIES // self.cdf.shape[1])
            out[slow] = np.concatenate([
                inverse_cdf_pick(self.cdf[rows_slow[s : s + step]], u_slow[s : s + step])
                for s in range(0, len(u_slow), step)
            ])
        return out


def sap_sample(post: PosteriorColumn, rng: np.random.Generator, size: int) -> np.ndarray:
    """size independent posterior draws (labels), via inverse-CDF sampling."""
    labels, probs = _ascending(post)
    cdf = np.cumsum(probs)
    return labels[inverse_cdf_pick(cdf, rng.random(_integer("size", size, 0)))]


def decide(
    rule: DecisionRule,
    post: PosteriorColumn,
    rng: np.random.Generator | None = None,
) -> int:
    """The label rule decides from one posterior column: MAP, EAP and MeAP by
    decide_columns in ascending label order, ties to the lowest label; SAP by
    one draw u from rng, the smallest label whose CDF strictly exceeds u."""
    rule = DecisionRule(rule)
    if rule.is_stochastic:
        if rng is None:
            raise ValueError("SAP requires an rng")
        return int(sap_sample(post, rng, 1)[0])
    labels, probs = _ascending(post)
    return int(labels[decide_columns(rule, probs[None, :])[0]])


class _SymbolLaw(NamedTuple):
    """One decided pair's law (_symbol_law): storage indices x and y of its
    support points, their probabilities prob > 0, the (4, K) table log2 of
    log2 P(x-hat), P(y), P(x-hat, y) and P(x-hat | y) at each point, and
    h_post, H(X | Y=y) at each point."""

    x: np.ndarray
    y: np.ndarray
    prob: np.ndarray
    log2: np.ndarray
    h_post: np.ndarray


def _symbol_law(model: DiscreteJointModel, rule: DecisionRule) -> _SymbolLaw:
    """The law of one decided pair (x-hat, y) under rule.

    Under every rule the M decided pairs are i.i.d. SAP draws x-hat from the
    posterior, so its pairs are the nonzero entries of model.joint, in
    np.nonzero order. A deterministic rule d gives (d(y), y) with prob P(y),
    one pair per live y in storage order, by one decide_columns call. This
    is the one place the model's log2 tables and posterior entropies are
    gathered at a law's support points; the last log2 row is read from
    log2_posterior, as the trials read it, not formed as a difference.
    """
    rule = DecisionRule(rule)
    if rule.is_stochastic:
        x, y = np.nonzero(model.joint)
        prob = model.joint[x, y]
    else:
        y = np.flatnonzero(model.y_marginal > 0)
        order = model.label_order
        x = order[decide_columns(rule, model.posterior_matrix[order][:, y].T)]
        prob = model.y_marginal[y]
    log2 = np.stack([
        model.log2_prior[x], model.log2_y_marginal[y], model.log2_joint[x, y], model.log2_posterior[x, y]
    ])
    return _SymbolLaw(x, y, prob, log2, model.posterior_col_entropy[y])


def error_probability(model: DiscreteJointModel, rule: DecisionRule) -> float:
    """Exact P(decision != true hypothesis) under the model, no sampling.

    The decision is right with probability sum prob * post_y[x] over the
    decided pair's law (_symbol_law): sum_y P(y) post_y[d(y)] for a
    deterministic rule d and sum_y P(y) sum_x post_y[x]^2 for SAP.
    """
    law = _symbol_law(model, rule)
    return float(1.0 - law.prob @ model.posterior_matrix[law.x, law.y])
