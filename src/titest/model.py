"""Finite-alphabet joint probability models and information measures.

Everything here works in bits (base-2 logs). A model couples a prior over
integer hypothesis labels with a row-stochastic likelihood matrix; entropies,
posteriors, surprisals and the test information are all derived from it.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "COIN_N_CAP",
    "DiscreteJointModel",
    "InvalidDistributionError",
    "PosteriorColumn",
    "ZeroEvidenceError",
    "build_bsc_model",
    "build_coin_model",
    "build_constant_model",
    "build_identity_model",
    "entropy",
    "posterior",
    "surprisal",
]

# Construction invariants are checked at 1e-12, derived identities at 1e-9.
CONSTRUCT_ATOL = 1e-12
DERIVED_ATOL = 1e-9

# Dense tables are materialized eagerly, so coin models are capped well above
# the sizes used anywhere in the experiments (the contract requires >= 64).
COIN_N_CAP = 512


class InvalidDistributionError(ValueError):
    """A vector or matrix that should be a probability distribution is not."""


class ZeroEvidenceError(ValueError):
    """The requested observation has zero marginal probability."""


def _label(v) -> int:
    """v as a Python int, the check a model's alphabets and a sequence pair's
    labels share; a non-integer (1.5, inf, None, "a") raises ValueError."""
    try:
        if int(v) == v:
            return int(v)
    except (OverflowError, TypeError, ValueError):  # int(inf) (JSON 1e400), int([1]), int("a")
        pass
    raise ValueError(f"labels must be integers, got {v!r}")


def _integer(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value as a Python int (operator.index), the one range check of every
    count; a bool, a non-integer or a value outside the inclusive bounds lo
    and hi (None: unbounded) raises ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    n = operator.index(value)
    if lo is not None and n < lo:
        raise ValueError(f"{name} must be >= {lo}, got {n}")
    if hi is not None and n > hi:
        raise ValueError(f"{name} must be <= {hi}, got {n}")
    return n


def _real(name: str, value) -> float:
    """value as a float, _integer's twin; a bool or a non-real raises
    ValueError naming it, and an int past the float range is +-inf."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DiscreteJointModel:
    """Prior + likelihood over finite integer alphabets, with derived tables.

    Instances are immutable after construction and safe to share across
    threads or worker processes. The derived tables (joint, marginals, log2
    lookups, posterior matrix, per-column posterior entropies, sampling CDFs,
    the ascending hypothesis-label order, the entropies H(X), H(Y), H(X,Y),
    H(X|Y) and the test information TI = H(X) - H(X|Y)) are computed once in
    ``__post_init__`` because every downstream consumer needs them; the
    sampling guides, the posterior's included, are built on the first draw.
    """

    hypothesis_values: tuple[int, ...]
    observation_values: tuple[int, ...]
    prior: np.ndarray
    likelihood: np.ndarray

    def __post_init__(self) -> None:
        x_labels = tuple(map(_label, self.hypothesis_values))
        y_labels = tuple(map(_label, self.observation_values))
        if len(set(x_labels)) != len(x_labels) or len(set(y_labels)) != len(y_labels):
            raise ValueError("alphabet labels must be distinct")
        prior = np.asarray(self.prior, dtype=float)
        lik = np.asarray(self.likelihood, dtype=float)
        if prior.shape != (len(x_labels),):
            raise InvalidDistributionError(
                f"prior has shape {prior.shape}, expected ({len(x_labels)},)"
            )
        if lik.shape != (len(x_labels), len(y_labels)):
            raise InvalidDistributionError(
                f"likelihood has shape {lik.shape}, expected "
                f"({len(x_labels)}, {len(y_labels)})"
            )
        # NaN slips through every comparison below, so reject it (and inf) first
        if not np.isfinite(prior).all():
            raise InvalidDistributionError("prior has non-finite entries")
        if not np.isfinite(lik).all():
            raise InvalidDistributionError("likelihood has non-finite entries")
        if (prior < 0).any():
            raise InvalidDistributionError("prior has negative entries")
        if abs(prior.sum() - 1.0) > CONSTRUCT_ATOL:
            raise InvalidDistributionError(f"prior sums to {prior.sum()!r}, not 1")
        if (lik < 0).any():
            raise InvalidDistributionError("likelihood has negative entries")
        row_sums = lik.sum(axis=1)
        bad = np.flatnonzero(np.abs(row_sums - 1.0) > CONSTRUCT_ATOL)
        if bad.size:
            raise InvalidDistributionError(
                f"likelihood row {bad[0]} sums to {row_sums[bad[0]]!r}, not 1"
            )

        joint = prior[:, None] * lik
        y_marginal = joint.sum(axis=0)

        with np.errstate(divide="ignore"):
            log2_prior = np.log2(prior)
            log2_y_marginal = np.log2(y_marginal)
            log2_joint = np.log2(joint)

        # Posterior columns for zero-evidence observations are left as NaN;
        # posterior() guards them and nothing downstream can sample such y.
        pos = y_marginal > 0
        safe_y = np.where(pos, y_marginal, np.nan)
        post = joint / safe_y[None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            log2_post = np.log2(post)
            plogp = np.where(post > 0, post * log2_post, 0.0)
        h_cols = np.where(np.isnan(post).any(axis=0), np.nan, -plogp.sum(axis=0))
        label_order = np.argsort(np.asarray(x_labels), kind="stable")
        label_order.setflags(write=False)

        object.__setattr__(self, "hypothesis_values", x_labels)
        object.__setattr__(self, "observation_values", y_labels)
        object.__setattr__(self, "prior", _readonly(prior))
        object.__setattr__(self, "likelihood", _readonly(lik))
        object.__setattr__(self, "joint", _readonly(joint))
        object.__setattr__(self, "y_marginal", _readonly(y_marginal))
        object.__setattr__(self, "log2_prior", _readonly(log2_prior))
        object.__setattr__(self, "log2_y_marginal", _readonly(log2_y_marginal))
        object.__setattr__(self, "log2_joint", _readonly(log2_joint))
        object.__setattr__(self, "posterior_matrix", _readonly(post))
        object.__setattr__(self, "posterior_col_entropy", _readonly(h_cols))
        object.__setattr__(self, "log2_posterior", _readonly(log2_post))
        object.__setattr__(self, "prior_cdf", _readonly(np.cumsum(prior)))
        object.__setattr__(self, "lik_cdf", _readonly(np.cumsum(lik, axis=1)))
        object.__setattr__(self, "label_order", label_order)
        object.__setattr__(self, "h_x", _entropy_of(prior, log2_prior))
        object.__setattr__(self, "h_y", _entropy_of(y_marginal, log2_y_marginal))
        object.__setattr__(self, "h_xy", _entropy_of(joint, log2_joint))
        object.__setattr__(self, "h_x_given_y", float((y_marginal[pos] * h_cols[pos]).sum()))
        object.__setattr__(self, "ti", self.h_x - self.h_x_given_y)
        object.__setattr__(self, "_x_index", {v: i for i, v in enumerate(x_labels)})
        object.__setattr__(self, "_y_index", {v: i for i, v in enumerate(y_labels)})

    # Derived tables bound in __post_init__ (not dataclass fields): joint,
    # y_marginal, log2_prior, log2_y_marginal, log2_joint, posterior_matrix,
    # log2_posterior, posterior_col_entropy, prior_cdf, lik_cdf (row-wise),
    # label_order (storage indices in ascending hypothesis-label order, the
    # order every rule reads a posterior column in), the entropies h_x, h_y,
    # h_xy that centre the typicality conditions, h_x_given_y, the
    # evidence-weighted posterior entropy, and ti = h_x - h_x_given_y.

    # The sampling guides are built on the first draw, so the exact engine,
    # which draws nothing, never pays for them.
    @cached_property
    def prior_guide(self):
        from .rules import CdfGuide  # rules imports this module

        return CdfGuide(self.prior_cdf)

    @cached_property
    def lik_guide(self):
        from .rules import CdfGuide

        return CdfGuide(self.lik_cdf)

    @cached_property
    def posterior_guide(self):
        """Row j: the guide over P(x | y_j)'s CDF in label_order, which SAP
        draws by; a zero-evidence column, which no trial samples, is parked
        at 1."""
        from .rules import CdfGuide

        cdf = np.cumsum(self.posterior_matrix[self.label_order], axis=0).T.copy()
        cdf[~np.isfinite(cdf)] = 1.0
        return CdfGuide(cdf)

    def __reduce__(self):
        # pickle the four defining fields; unpickling rebuilds (and so
        # validates and freezes) the derived tables through __post_init__
        return type(self), (
            self.hypothesis_values, self.observation_values, self.prior, self.likelihood
        )

    @property
    def n_hypotheses(self) -> int:
        return len(self.hypothesis_values)

    @property
    def n_observations(self) -> int:
        return len(self.observation_values)

    def x_index(self, label: int) -> int:
        try:
            return self._x_index[label]
        except KeyError:
            raise ValueError(f"unknown hypothesis label {label!r}") from None

    def y_index(self, label: int) -> int:
        try:
            return self._y_index[label]
        except KeyError:
            raise ValueError(f"unknown observation label {label!r}") from None

    def to_json_dict(self) -> dict:
        return {
            "hypothesis_values": list(self.hypothesis_values),
            "observation_values": list(self.observation_values),
            "prior": [float(p) for p in self.prior],
            "likelihood": [[float(p) for p in row] for row in self.likelihood],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "DiscreteJointModel":
        """The model a parsed JSON document describes.

        Any malformed document raises InvalidDistributionError or another
        ValueError: a non-object document, a missing field, a field of the
        wrong JSON type (e.g. a number or object where a list belongs), a
        label that is not an integer or a number too large for a float.
        """
        if not isinstance(doc, Mapping):
            raise InvalidDistributionError(
                f"model document must be a JSON object, got {type(doc).__name__}"
            )
        for field in ("hypothesis_values", "observation_values", "prior", "likelihood"):
            if field not in doc:
                raise InvalidDistributionError(f"model document missing field {field!r}")
        try:
            fields = (
                tuple(doc["hypothesis_values"]),
                tuple(doc["observation_values"]),
                np.asarray(doc["prior"], dtype=float),
                np.asarray(doc["likelihood"], dtype=float),
            )
        except (TypeError, OverflowError) as e:
            raise InvalidDistributionError(f"malformed model document: {e}") from None
        return cls(*fields)


@dataclass(frozen=True)
class PosteriorColumn:
    """P(x | y) for one observation label, over the hypothesis alphabet."""

    y: int
    labels: tuple[int, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _readonly(self.probs))


def _entropy_of(p: np.ndarray, log2_p: np.ndarray) -> float:
    """The Shannon sum of a validated p from its log table, skipping p = 0."""
    nz = p > 0
    # 0.0 - s is -s for every s != 0, and +0.0, not -0.0, for a point mass
    return float(0.0 - (p[nz] * log2_p[nz]).sum())


def entropy(dist: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy of a probability vector, in bits. 0*log(0) counts as 0."""
    p = np.asarray(dist, dtype=float)
    # NaN slips through both comparisons below, so reject it (and inf) first
    if not np.isfinite(p).all():
        raise InvalidDistributionError("distribution has non-finite entries")
    if (p < 0).any():
        raise InvalidDistributionError("distribution has negative entries")
    if abs(p.sum() - 1.0) > DERIVED_ATOL:
        raise InvalidDistributionError(f"distribution sums to {p.sum()!r}, not 1")
    with np.errstate(divide="ignore"):  # log2(0) = -inf, which the sum skips
        return _entropy_of(p, np.log2(p))


def build_coin_model(n: int, theta: float) -> DiscreteJointModel:
    """Binomial coin-count model: n coins for n = 1..N, k heads observed.

    Hypotheses carry a uniform prior. P(k|n) = C(n,k) theta^k (1-theta)^(n-k),
    with C(n,k) = 0 for k > n so impossible counts stay at exact zero. The
    binomials are evaluated through log-gamma, so rows stay finite at any
    supported N. The whole (N, N+1) table is one exponent and one exp; each
    row is then divided by the sum of its first n+1 entries, the same
    pairwise sum a row of n+1 terms gets (trailing zeros would regroup it).
    """
    n = _integer("N", n, 1, COIN_N_CAP)
    t = _real("theta", theta)
    if not 0.0 < t < 1.0:
        raise ValueError(f"theta must lie strictly inside (0, 1), got {theta!r}")
    log_t = math.log(t)
    log_c = math.log1p(-t)
    # lgamma(k + 1) = ln k!, for k = 0..n
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    trials = np.arange(1, n + 1)[:, None]
    ks = np.arange(n + 1)
    tails = trials - ks  # negative past a row's last possible count
    live = tails >= 0
    log_binom = log_fact[trials] - (log_fact[ks] + log_fact[np.maximum(tails, 0)])
    lik = np.exp(log_binom + ks * log_t + tails * log_c, out=np.zeros((n, n + 1)), where=live)
    # renormalize away the residual rounding so row sums hit 1e-12
    lik /= np.array([row[: i + 2].sum() for i, row in enumerate(lik)])[:, None]
    return DiscreteJointModel(
        hypothesis_values=tuple(range(1, n + 1)),
        observation_values=tuple(range(0, n + 1)),
        prior=np.full(n, 1.0 / n),
        likelihood=lik,
    )


def build_identity_model(n: int, labels: Iterable[int] | None = None) -> DiscreteJointModel:
    """Noiseless channel: y = x with probability 1, uniform prior over n labels."""
    n = _integer("n", n, 1)
    labs = tuple(labels) if labels is not None else tuple(range(n))
    return DiscreteJointModel(
        hypothesis_values=labs,
        observation_values=labs,
        prior=np.full(n, 1.0 / n),
        likelihood=np.eye(n),
    )


def build_constant_model(n: int, y_dist: Sequence[float] | None = None) -> DiscreteJointModel:
    """Channel whose output ignores the input; TI is exactly zero."""
    n = _integer("n", n, 1)
    row = np.asarray(y_dist, dtype=float) if y_dist is not None else np.array([0.5, 0.5])
    return DiscreteJointModel(
        hypothesis_values=tuple(range(n)),
        observation_values=tuple(range(row.size)),
        prior=np.full(n, 1.0 / n),
        likelihood=np.tile(row, (n, 1)),
    )


def build_bsc_model(crossover: float) -> DiscreteJointModel:
    """Binary symmetric channel with uniform prior."""
    p = _real("crossover", crossover)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"crossover must lie in [0, 1], got {crossover!r}")
    return DiscreteJointModel(
        hypothesis_values=(0, 1),
        observation_values=(0, 1),
        prior=np.array([0.5, 0.5]),
        likelihood=np.array([[1 - p, p], [p, 1 - p]]),
    )


def posterior(model: DiscreteJointModel, y: int) -> PosteriorColumn:
    """Bayes column P(x|y) = pi(x) P(y|x) / P(y). Requires P(y) > 0."""
    j = model.y_index(y)
    if model.y_marginal[j] <= 0.0:
        raise ZeroEvidenceError(f"observation {y!r} has zero probability under the model")
    return PosteriorColumn(
        y=y, labels=model.hypothesis_values, probs=model.posterior_matrix[:, j].copy()
    )


def surprisal(model: DiscreteJointModel, kind: str, symbol) -> float:
    """-log2 of a model probability; +inf for zero-probability symbols.

    kind selects the distribution: "prior" (symbol is a hypothesis label),
    "y-marginal" (observation label), or "joint" (symbol is an (x, y) pair).
    """
    if kind == "prior":
        return float(-model.log2_prior[model.x_index(symbol)])
    if kind == "y-marginal":
        return float(-model.log2_y_marginal[model.y_index(symbol)])
    if kind == "joint":
        try:
            x, y = symbol
        except (TypeError, ValueError):  # not iterable, or not two items
            raise ValueError(f"symbol must be an (x, y) pair, got {symbol!r}") from None
        return float(-model.log2_joint[model.x_index(x), model.y_index(y)])
    raise ValueError(f"kind must be 'prior', 'y-marginal' or 'joint', got {kind!r}")
