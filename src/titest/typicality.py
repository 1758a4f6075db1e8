"""M-extension sampling, weak-typicality predicates, and exact enumeration.

Sequence probabilities are never multiplied out directly: every predicate works
on per-symbol surprisals (bits) summed in log space, so membership stays exact
at extensions where the linear product would underflow.

Every typicality condition is a mean of per-symbol surprisals, so a length-M
sequence's membership and probability depend only on its type (the count of
each symbol), not on the symbol order. The exact engine therefore walks type
classes: one non-decreasing representative per class, weighted by the class
size, the multinomial M! / prod(c_k!), kept as an exact integer. That is
C(M+K-1, M) rows instead of K^M sequences. One walk over the jointly typical
pair classes gives the joint census and, grouped by y-type, SAP's exact
success probability. jointly_typical_rows is the one definition of the three
joint conditions. conditional_members returns the sequences themselves and
still enumerates them.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import DiscreteJointModel

__all__ = [
    "CensusBound",
    "CensusReport",
    "EnumerationTooLargeError",
    "SequencePair",
    "TypicalityCheck",
    "TypicalityParams",
    "TypicalityVerdict",
    "conditional_members",
    "draw_index_pair",
    "in_band",
    "is_jointly_typical",
    "is_typical",
    "jointly_typical_rows",
    "resolve_enum_cap",
    "sample_extension",
    "typical_set_census",
]

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV = "TI_TEST_ENUM_CAP"

# Lower cardinality/mass bounds only kick in for "sufficiently large" M;
# below this threshold a failed lower bound is reported but not asserted.
M_MIN_LOWER_BOUNDS = 8

# Deviations inside this band around epsilon count as boundary hits and
# classify as non-typical, so fp noise cannot flip a strict inequality.
BOUNDARY_ATOL = 1e-12


class EnumerationTooLargeError(RuntimeError):
    """Candidate space exceeds the enumeration cap; use Monte Carlo instead."""


def resolve_enum_cap(cap: int | None = None) -> int:
    """Explicit cap, else the TI_TEST_ENUM_CAP env var, else the default.

    An env value that is not a positive integer raises ValueError naming the
    variable.
    """
    if cap is not None:
        return int(cap)
    env = os.environ.get(ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, got {env!r}")
    return int(env)


@dataclass(frozen=True)
class TypicalityParams:
    epsilon: float
    extension: int

    def __post_init__(self) -> None:
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not isinstance(self.extension, (int, np.integer)) or self.extension < 1:
            raise ValueError(f"extension must be a positive integer, got {self.extension!r}")


@dataclass(frozen=True)
class SequencePair:
    x_seq: tuple[int, ...]
    y_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_seq", tuple(int(v) for v in self.x_seq))
        object.__setattr__(self, "y_seq", tuple(int(v) for v in self.y_seq))
        if len(self.x_seq) != len(self.y_seq):
            raise ValueError(
                f"sequence lengths differ: {len(self.x_seq)} vs {len(self.y_seq)}"
            )


class TypicalityCheck(NamedTuple):
    typical: bool
    rate: float


@dataclass(frozen=True)
class TypicalityVerdict:
    x_typical: bool
    y_typical: bool
    jointly_typical: bool
    x_rate: float
    y_rate: float
    joint_rate: float
    x_deviation: float
    y_deviation: float
    joint_deviation: float


def in_band(rate: float | np.ndarray, h: float, epsilon: float) -> np.bool_ | np.ndarray:
    """|rate - h| strictly below epsilon, elementwise: one typicality condition.

    The BOUNDARY_ATOL band just inside epsilon counts as outside.
    """
    return np.abs(rate - h) < epsilon - BOUNDARY_ATOL


def jointly_typical_rows(
    model: DiscreteJointModel, xi: np.ndarray, yi: np.ndarray, epsilon: float
) -> np.ndarray:
    """All three joint-typicality conditions for (B, M) index rows, as (B,) bools."""
    return (
        in_band(-model.log2_prior[xi].mean(axis=1), model.h_x, epsilon)
        & in_band(-model.log2_y_marginal[yi].mean(axis=1), model.h_y, epsilon)
        & in_band(-model.log2_joint[xi, yi].mean(axis=1), model.h_xy, epsilon)
    )


def _pick_pair(model: DiscreteJointModel, ux: np.ndarray, uy: np.ndarray) -> tuple:
    """Storage indices (xi, yi): xi from ux by the prior CDF, yi from uy by row xi's.

    The picks are inverse_cdf_pick's, made through the model's guide tables.
    """
    xi = model.prior_guide.pick(ux)
    return xi, model.lik_guide.pick(uy, xi)


def draw_index_pair(
    model: DiscreteJointModel, m: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Index-level sampler behind sample_extension.

    Draw order is part of the determinism contract: m uniforms for the
    hypothesis symbols first, then m uniforms for the observations, each
    mapped through an inverse CDF in the model's storage order.
    """
    return _pick_pair(model, rng.random(m), rng.random(m))


def sample_extension(
    model: DiscreteJointModel, m: int, rng: np.random.Generator
) -> SequencePair:
    """Draw an i.i.d. pair of length-m label sequences from the model."""
    if m < 1:
        raise ValueError(f"extension must be >= 1, got {m}")
    xi, yi = draw_index_pair(model, m, rng)
    x_labels = np.asarray(model.hypothesis_values)
    y_labels = np.asarray(model.observation_values)
    return SequencePair(x_seq=tuple(x_labels[xi]), y_seq=tuple(y_labels[yi]))


def _x_indices(model: DiscreteJointModel, seq: Sequence[int]) -> np.ndarray:
    return np.array([model.x_index(v) for v in seq], dtype=np.intp)


def _y_indices(model: DiscreteJointModel, seq: Sequence[int]) -> np.ndarray:
    return np.array([model.y_index(v) for v in seq], dtype=np.intp)


def is_typical(
    seq: Sequence[int],
    model: DiscreteJointModel,
    which: str,
    params: TypicalityParams,
) -> TypicalityCheck:
    """Marginal typicality of one sequence: |rate - H| strictly below epsilon.

    which is "X" (sequence of hypothesis labels, measured against the prior)
    or "Y" (observation labels against the output marginal). A symbol of zero
    probability makes the rate infinite and the verdict False.
    """
    if len(seq) != params.extension:
        raise ValueError(f"sequence length {len(seq)} != extension {params.extension}")
    if which.upper() == "X":
        rate = float(-model.log2_prior[_x_indices(model, seq)].mean())
        h = model.h_x
    elif which.upper() == "Y":
        rate = float(-model.log2_y_marginal[_y_indices(model, seq)].mean())
        h = model.h_y
    else:
        raise ValueError(f"which must be 'X' or 'Y', got {which!r}")
    return TypicalityCheck(typical=bool(in_band(rate, h, params.epsilon)), rate=rate)


def is_jointly_typical(
    pair: SequencePair, model: DiscreteJointModel, params: TypicalityParams
) -> TypicalityVerdict:
    """Evaluate all three joint-typicality conditions and report every rate.

    The x-marginal condition measures the x-sequence against the prior, the
    y condition against the output marginal, and the joint condition against
    the joint table; jointly_typical requires all three deviations strictly
    inside epsilon.
    """
    if len(pair.x_seq) != params.extension:
        raise ValueError(f"pair length {len(pair.x_seq)} != extension {params.extension}")
    xi = _x_indices(model, pair.x_seq)
    yi = _y_indices(model, pair.y_seq)
    x_rate = float(-model.log2_prior[xi].mean())
    y_rate = float(-model.log2_y_marginal[yi].mean())
    joint_rate = float(-model.log2_joint[xi, yi].mean())
    x_ok = bool(in_band(x_rate, model.h_x, params.epsilon))
    y_ok = bool(in_band(y_rate, model.h_y, params.epsilon))
    j_ok = bool(in_band(joint_rate, model.h_xy, params.epsilon))
    return TypicalityVerdict(
        x_typical=x_ok,
        y_typical=y_ok,
        jointly_typical=x_ok and y_ok and j_ok,
        x_rate=x_rate,
        y_rate=y_rate,
        joint_rate=joint_rate,
        x_deviation=abs(x_rate - model.h_x),
        y_deviation=abs(y_rate - model.h_y),
        joint_deviation=abs(joint_rate - model.h_xy),
    )


def _index_blocks(n_symbols: int, m: int, block: int = 1 << 16) -> Iterator[np.ndarray]:
    """Yield (B, m) arrays covering all n_symbols**m index tuples in order."""
    total = n_symbols**m
    shape = (n_symbols,) * m
    for lo in range(0, total, block):
        flat = np.arange(lo, min(lo + block, total))
        yield np.stack(np.unravel_index(flat, shape), axis=1)


def conditional_members(
    y_seq: Sequence[int],
    model: DiscreteJointModel,
    params: TypicalityParams,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """All x-sequences jointly typical with y_seq, by exhaustive enumeration.

    Returns label tuples in lexicographic index order. The set is empty
    whenever y_seq itself fails its marginal condition, since that condition
    does not depend on x. Candidate count |X|^m beyond the cap raises
    EnumerationTooLargeError; Monte Carlo trials are the fallback at scale.
    """
    m = params.extension
    if len(y_seq) != m:
        raise ValueError(f"sequence length {len(y_seq)} != extension {m}")
    limit = resolve_enum_cap(cap)
    n_x = model.n_hypotheses
    if n_x**m > limit:
        raise EnumerationTooLargeError(
            f"|X|^M = {n_x}^{m} exceeds the enumeration cap {limit}; "
            "use Monte Carlo trials instead"
        )
    if not is_typical(y_seq, model, "Y", params).typical:
        return []
    yi = _y_indices(model, y_seq)
    x_labels = np.asarray(model.hypothesis_values)
    out: list[tuple[int, ...]] = []
    for combos in _index_blocks(n_x, m):
        keep = jointly_typical_rows(
            model, combos, np.broadcast_to(yi, combos.shape), params.epsilon
        )
        out.extend(tuple(row) for row in x_labels[combos[keep]])
    return out


@dataclass(frozen=True)
class CensusBound:
    """One inequality record: holds iff lhs < rhs (or <= for *_ge_* names)."""

    name: str
    lhs: float
    rhs: float
    holds: bool


@dataclass(frozen=True)
class CensusReport:
    m: int
    epsilon: float
    sizes: dict
    masses: dict
    m_min: int = M_MIN_LOWER_BOUNDS
    bounds: list[CensusBound] = field(default_factory=list)

    def bound(self, name: str) -> CensusBound:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        return asdict(self)


def _append_symbol(
    rows: np.ndarray, sizes: np.ndarray, run: np.ndarray, n_symbols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extend each non-decreasing row by every symbol >= its last one.

    run is the length of each row's final run of equal symbols. Appending a
    symbol that makes that run r long to a j-symbol row multiplies the class
    size by (j + 1) / r, so sizes stay the multinomials m! / prod(c_k!).
    """
    last = rows[:, -1]
    fan = n_symbols - last
    parent = np.repeat(np.arange(len(rows)), fan)
    new = last[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
    run = np.where(new == last[parent], run[parent] + 1, 1)
    sizes = sizes[parent] * (rows.shape[1] + 1) // run.astype(sizes.dtype)
    return np.column_stack([rows[parent], new]), sizes, run


def _type_classes(
    n_symbols: int, m: int, block: int = 1 << 16
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every type class of length-m sequences over n_symbols symbols, in blocks.

    Yields (rows, sizes) blocks of at most about `block` classes, in
    lexicographic order; C(m + n_symbols - 1, m) classes in all. A row is
    the class's non-decreasing index sequence and its size the number of
    sequences in the class, the multinomial m! / prod(c_k!), exact (int64
    while m * n_symbols**m fits, Python ints beyond). The (m-1)-symbol
    prefixes are built whole; the last symbol is added a block at a time.
    """
    dtype = np.int64 if m * n_symbols**m < 2**63 else object
    rows = np.arange(n_symbols)[:, None]
    sizes = np.ones(n_symbols, dtype=dtype)
    if m == 1:
        yield rows, sizes
        return
    run = np.ones(n_symbols, dtype=np.int64)
    for _ in range(m - 2):
        rows, sizes, run = _append_symbol(rows, sizes, run, n_symbols)
    step = max(1, block // n_symbols)  # a prefix fans out to at most n_symbols rows
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        yield _append_symbol(rows[part], sizes[part], run[part], n_symbols)[:2]


# (rows, sizes, probs) blocks of type classes and their member probabilities
_ClassBlocks = Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]


def _typical_classes(
    n_symbols: int,
    m: int,
    typical: Callable[[np.ndarray], np.ndarray],
    prob_surprisal: np.ndarray,
) -> _ClassBlocks:
    """The type classes whose rows pass typical, as (rows, sizes, probs) blocks.

    typical maps (B, m) class rows to (B,) bools; prob_surprisal (bits per
    symbol) gives each kept class's member probability, probs.
    """
    for rows, sizes in _type_classes(n_symbols, m):
        keep = typical(rows)
        if keep.any():
            rows = rows[keep]
            yield rows, sizes[keep], np.exp2(-prob_surprisal[rows].sum(axis=1))


def _joint_typical_classes(model: DiscreteJointModel, m: int, epsilon: float) -> _ClassBlocks:
    """_typical_classes of the jointly typical length-m pairs; pair symbol x * |Y| + y."""
    n_y = model.n_observations

    def typical(rows: np.ndarray) -> np.ndarray:
        return jointly_typical_rows(model, *np.divmod(rows, n_y), epsilon)

    return _typical_classes(model.n_hypotheses * n_y, m, typical, -model.log2_joint.ravel())


def _census_totals(blocks: _ClassBlocks) -> tuple[int, float, float, float]:
    """(count, mass, min_prob, max_prob) of the members of the classes in blocks."""
    count = 0
    mass = 0.0
    min_p = np.inf
    max_p = 0.0
    for _, sizes, probs in blocks:
        count += int(sizes.sum())
        mass += float(sizes.astype(float) @ probs)
        min_p = min(min_p, float(probs.min()))
        max_p = max(max_p, float(probs.max()))
    return count, mass, min_p, max_p


def _check_pair_cap(model: DiscreteJointModel, m: int, cap: int | None) -> None:
    """Refuse more than the cap's (|X||Y|)^M sequence pairs, which bounds |X|^M and |Y|^M."""
    limit = resolve_enum_cap(cap)
    pairs = (model.n_hypotheses * model.n_observations) ** m
    if pairs > limit:
        raise EnumerationTooLargeError(
            f"(|X||Y|)^M = {pairs} exceeds the enumeration cap {limit}"
        )


def typical_set_census(
    model: DiscreteJointModel, params: TypicalityParams, cap: int | None = None
) -> CensusReport:
    """Exact sizes, masses, and bound records for the three typical sets.

    Bound records per marginal set: mass above 1 - eps, member probabilities
    inside the 2^{-M(H +/- eps)} window, count below 2^{M(H+eps)}, and two
    readings of the count lower bound. The "*_count_lower" record uses the
    standard (1-eps) 2^{M(H-eps)} form; "*_count_lower_printed" keeps the
    H+eps exponent variant for visibility and is never asserted by tests.
    The joint set gets mass and member-probability records. Lower bounds are
    generally expected to hold only for m >= m_min (reported in the record).
    """
    m, eps = params.extension, params.epsilon
    _check_pair_cap(model, m, cap)
    h_x, h_y, h_xy = model.h_x, model.h_y, model.h_xy

    def marginal(n_symbols: int, s: np.ndarray, h: float) -> tuple[int, float, float, float]:
        return _census_totals(_typical_classes(
            n_symbols, m, lambda rows: in_band(s[rows].mean(axis=1), h, eps), s
        ))

    cx, mx, minpx, maxpx = marginal(model.n_hypotheses, -model.log2_prior, h_x)
    cy, my, minpy, maxpy = marginal(model.n_observations, -model.log2_y_marginal, h_y)
    cj, mj, minpj, maxpj = _census_totals(_joint_typical_classes(model, m, eps))

    bounds: list[CensusBound] = []

    def strict(name: str, lhs: float, rhs: float) -> None:
        bounds.append(CensusBound(name=name, lhs=lhs, rhs=rhs, holds=bool(lhs < rhs)))

    def weak(name: str, lhs: float, rhs: float) -> None:
        bounds.append(CensusBound(name=name, lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs)))

    for tag, h, count, mass, min_p, max_p in (
        ("x", h_x, cx, mx, minpx, maxpx),
        ("y", h_y, cy, my, minpy, maxpy),
    ):
        strict(f"{tag}_mass_lower", 1.0 - eps, mass)
        if count:
            strict(f"{tag}_member_prob_lower", 2.0 ** (-m * (h + eps)), min_p)
            strict(f"{tag}_member_prob_upper", max_p, 2.0 ** (-m * (h - eps)))
        strict(f"{tag}_count_upper", float(count), 2.0 ** (m * (h + eps)))
        strict(f"{tag}_count_lower", (1.0 - eps) * 2.0 ** (m * (h - eps)), float(count))
        strict(
            f"{tag}_count_lower_printed",
            (1.0 - eps) * 2.0 ** (m * (h + eps)),
            float(count),
        )
    weak("joint_mass_lower", 1.0 - eps, mj)
    if cj:
        strict("joint_member_prob_lower", 2.0 ** (-m * (h_xy + eps)), minpj)
        strict("joint_member_prob_upper", maxpj, 2.0 ** (-m * (h_xy - eps)))

    return CensusReport(
        m=m,
        epsilon=eps,
        sizes={"x": cx, "y": cy, "joint": cj},
        masses={"x": mx, "y": my, "joint": mj},
        bounds=bounds,
    )
