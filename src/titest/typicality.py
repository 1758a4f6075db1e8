"""Weak-typicality predicates and the exact engine: the typical-set census
and the extended Fano audit. Nothing here draws a random number; sampling
(sample_extension and the trials) is the experiment module's.

Sequence probabilities are never multiplied out directly: every predicate works
on per-symbol surprisals (bits) summed in log space, so membership stays exact
at extensions where the linear product would underflow.

Every typicality condition is a mean of per-symbol surprisals, so a length-M
sequence's membership and probability depend only on its type (the count of
each symbol), not on the symbol order. The exact engine therefore walks type
classes: one non-decreasing representative per class, weighted by the class
size, the multinomial M! / prod(c_k!), kept as an exact integer. That is
C(M+K-1, M) rows instead of K^M sequences. A reducer holds a law as a
record, support probabilities, an (r, K) log2 table and r centres, and
checks its walk against the cap (TI_TEST_ENUM_CAP) when built: _Totals for
a census set (_census_totals) and _FanoSums for the law extended_fano_check
audits. One _walk feeds all reducers of a call from one walk of the type
classes, at the largest law's support size; _exact_audit (`titest enumerate`)
walks the census's and the audit's reducers at once. The engine holds no rule logic.
_rate is the one definition of a surprisal rate, a gather along a log2
table's last axis and one row sum: the walk's, _rates', is_typical's (one
sequence as a (1, M) row) and every rate of the trials (experiment._draw and
experiment._decide). _band is the one place the conditions are combined
(is_jointly_typical, jointly_typical_rows, experiment._decide and the walk).
conditional_members returns the sequences themselves and still enumerates them.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import DiscreteJointModel, _integer, _label, _real
from .rules import DecisionRule, _symbol_law, _SymbolLaw

__all__ = [
    "DEFAULT_ENUM_CAP",
    "CensusBound",
    "CensusReport",
    "EnumerationTooLargeError",
    "FanoRecord",
    "SequencePair",
    "TypicalityCheck",
    "TypicalityParams",
    "TypicalityVerdict",
    "conditional_members",
    "extended_fano_check",
    "is_jointly_typical",
    "is_typical",
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

# Both enumerations yield blocks of at most about this many rows: _type_classes
# its type classes, _index_blocks (conditional_members) its index tuples.
CLASS_BLOCK = 1 << 16


class EnumerationTooLargeError(RuntimeError):
    """A type-class walk's symbols (_check_walk) or a listing's candidate
    sequences (conditional_members) exceed the cap; use Monte Carlo instead."""


def resolve_enum_cap() -> int:
    """The enumeration cap: TI_TEST_ENUM_CAP, its one source, else the default.

    A value that is not a positive integer raises ValueError naming it.
    """
    env = os.environ.get(ENUM_CAP_ENV)
    if not env:
        return DEFAULT_ENUM_CAP
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{ENUM_CAP_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _epsilon(name: str, value) -> float:
    """value as a typicality tolerance, the one check of every epsilon: a
    real number (model._real) with 0 < epsilon < inf, else ValueError naming it."""
    eps = _real(name, value)
    if not 0 < eps < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return eps


@dataclass(frozen=True)
class TypicalityParams:
    epsilon: float
    extension: int

    def __post_init__(self) -> None:
        # held as a float and an int, so no bool or numpy scalar reaches a report
        object.__setattr__(self, "epsilon", _epsilon("epsilon", self.epsilon))
        object.__setattr__(self, "extension", _integer("extension", self.extension, 1))


@dataclass(frozen=True)
class SequencePair:
    x_seq: tuple[int, ...]
    y_seq: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_seq", tuple(map(_label, self.x_seq)))
        object.__setattr__(self, "y_seq", tuple(map(_label, self.y_seq)))
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


def _rate(log2: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Surprisal rates (bits) of (B, M) index rows along a log2 table's last
    axis: (B,) from a (K,) table, (r, B) from an (r, K) one. The row sum over
    M is what .mean(axis=-1) divides, bit for bit, without its Python-level
    dispatch, which a walk would pay per block and law.
    """
    gathered = np.take(log2, index, axis=-1)
    return -(gathered.sum(axis=-1) / index.shape[-1])


def _rates(model: DiscreteJointModel, xi: np.ndarray, yi: np.ndarray) -> tuple:
    """The x, y and joint surprisal rates (bits) of (B, M) index rows, as (B,) arrays."""
    return (
        _rate(model.log2_prior, xi),
        _rate(model.log2_y_marginal, yi),
        _rate(model.log2_joint.ravel(), np.ravel_multi_index((xi, yi), model.log2_joint.shape)),
    )


def _band(rates: Sequence[np.ndarray], centres: Sequence[float], epsilon: float) -> np.ndarray:
    """Every typicality condition of a law at once: each rate in_band of its
    centre, ANDed in order. The one place the conditions are combined."""
    keep = in_band(rates[0], centres[0], epsilon)
    for rate, h in zip(rates[1:], centres[1:]):
        keep &= in_band(rate, h, epsilon)
    return keep


def jointly_typical_rows(
    model: DiscreteJointModel, xi: np.ndarray, yi: np.ndarray, epsilon: float
) -> np.ndarray:
    """All three joint-typicality conditions for (B, M) index rows, as (B,) bools."""
    return _band(_rates(model, xi, yi), (model.h_x, model.h_y, model.h_xy), epsilon)


def _indices(index, seq: Sequence[int]) -> np.ndarray:
    """seq's labels as storage indices by index (a model's x_index or y_index)."""
    return np.array([index(v) for v in seq], dtype=np.intp)


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
    key = which.upper() if isinstance(which, str) else None
    if key == "X":
        log2_prob, index, h = model.log2_prior, _indices(model.x_index, seq), model.h_x
    elif key == "Y":
        log2_prob, index, h = model.log2_y_marginal, _indices(model.y_index, seq), model.h_y
    else:
        raise ValueError(f"which must be 'X' or 'Y', got {which!r}")
    rate = float(_rate(log2_prob, index[None])[0])  # the sequence as one (1, M) row
    return TypicalityCheck(typical=bool(in_band(rate, h, params.epsilon)), rate=rate)


def is_jointly_typical(
    pair: SequencePair, model: DiscreteJointModel, params: TypicalityParams
) -> TypicalityVerdict:
    """Evaluate all three joint-typicality conditions and report every rate.

    The x-marginal condition measures the x-sequence against the prior, the
    y condition against the output marginal, and the joint condition against
    the joint table; jointly_typical requires all three deviations strictly
    inside epsilon (_band). The rates are _rates' for the pair as one row.
    """
    if len(pair.x_seq) != params.extension:
        raise ValueError(f"pair length {len(pair.x_seq)} != extension {params.extension}")
    xi, yi = _indices(model.x_index, pair.x_seq), _indices(model.y_index, pair.y_seq)
    rates = _rates(model, xi[None], yi[None])
    x_rate, y_rate, joint_rate = (float(r[0]) for r in rates)
    eps = params.epsilon
    return TypicalityVerdict(
        x_typical=bool(in_band(x_rate, model.h_x, eps)),
        y_typical=bool(in_band(y_rate, model.h_y, eps)),
        jointly_typical=bool(_band(rates, (model.h_x, model.h_y, model.h_xy), eps)[0]),
        x_rate=x_rate,
        y_rate=y_rate,
        joint_rate=joint_rate,
        x_deviation=abs(x_rate - model.h_x),
        y_deviation=abs(y_rate - model.h_y),
        joint_deviation=abs(joint_rate - model.h_xy),
    )


def _index_blocks(n_symbols: int, m: int) -> Iterator[np.ndarray]:
    """Yield (B, m) arrays covering all n_symbols**m index tuples in order:
    digit k of row i is i // n_symbols**(m-1-k) % n_symbols, for any m."""
    total = n_symbols**m
    powers = np.array([n_symbols ** (m - 1 - k) for k in range(m)], dtype=np.intp)
    for lo in range(0, total, CLASS_BLOCK):
        flat = np.arange(lo, min(lo + CLASS_BLOCK, total), dtype=np.intp)
        yield flat[:, None] // powers % n_symbols


def conditional_members(
    y_seq: Sequence[int], model: DiscreteJointModel, params: TypicalityParams
) -> list[tuple[int, ...]]:
    """All x-sequences jointly typical with y_seq, by exhaustive enumeration.

    Returns label tuples in lexicographic index order. The set is empty
    whenever y_seq itself fails its marginal condition, since that condition
    does not depend on x. Candidate count |X|^m beyond the cap (_check_cap)
    raises EnumerationTooLargeError; Monte Carlo trials are the fallback.
    """
    m = params.extension
    if len(y_seq) != m:
        raise ValueError(f"sequence length {len(y_seq)} != extension {m}")
    n_x = model.n_hypotheses
    _check_cap("|X|^M", n_x, m)
    if not is_typical(y_seq, model, "Y", params).typical:
        return []
    yi = _indices(model.y_index, y_seq)
    x_labels = np.asarray(model.hypothesis_values)
    out: list[tuple[int, ...]] = []
    for combos in _index_blocks(n_x, m):
        keep = jointly_typical_rows(
            model, combos, np.broadcast_to(yi, combos.shape), params.epsilon
        )
        out.extend(map(tuple, x_labels[combos[keep]].tolist()))
    return out


@dataclass(frozen=True)
class CensusBound:
    """One inequality record: holds iff lhs < rhs (lhs <= rhs for
    joint_mass_lower, the one weak record)."""

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
    size by (j + 1) / r, so sizes stay the multinomials m! / prod(c_k!); the
    product before the division is at most m times the largest of them.
    """
    last = rows[:, -1]
    fan = n_symbols - last
    parent = np.repeat(np.arange(len(rows)), fan)
    new = last[parent] + np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
    run = np.where(new == last[parent], run[parent] + 1, 1)
    sizes = sizes[parent] * (rows.shape[1] + 1) // run.astype(sizes.dtype)
    return np.column_stack([rows[parent], new]), sizes, run


def _type_classes(n_symbols: int, m: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every type class of length-m sequences over n_symbols symbols, in blocks.

    Yields (rows, sizes) blocks of at most about CLASS_BLOCK classes, in
    lexicographic order; C(m + n_symbols - 1, m) classes in all. A row is
    the class's non-decreasing index sequence and its size the number of
    sequences in the class, the multinomial m! / prod(c_k!), exact (int64
    while m times the largest multinomial fits, which bounds every product
    _append_symbol forms; Python ints beyond). The (m-1)-symbol prefixes are
    built whole; the last symbol is added a block at a time.
    """
    # the largest multinomial is the balanced type's: r counts of q + 1, the rest q
    q, r = divmod(m, n_symbols)
    largest = math.factorial(m) // math.factorial(q + 1) ** r // math.factorial(q) ** (n_symbols - r)
    dtype = np.int64 if m * largest < 2**63 else object
    rows = np.arange(n_symbols)[:, None]
    sizes = np.ones(n_symbols, dtype=dtype)
    if m == 1:
        yield rows, sizes
        return
    run = np.ones(n_symbols, dtype=np.int64)
    for _ in range(m - 2):
        rows, sizes, run = _append_symbol(rows, sizes, run, n_symbols)
    step = max(1, CLASS_BLOCK // n_symbols)  # a prefix fans out to at most n_symbols rows
    for lo in range(0, len(rows), step):
        part = slice(lo, lo + step)
        yield _append_symbol(rows[part], sizes[part], run[part], n_symbols)[:2]


class _Totals:
    """A census set's reducer over m draws of law, a (prob, log2, centres)
    entry as _walk reads it: the count, mass and min/max member probability
    of the classes its band keeps. _check_walk refuses a walk over the cap."""

    def __init__(self, law: tuple, m: int) -> None:
        _check_walk(len(law[0]), m)
        self.law = law
        self.count, self.mass, self.min_p, self.max_p = 0, 0.0, np.inf, 0.0

    def add(self, rows: np.ndarray, sizes: np.ndarray, probs: np.ndarray, keep: np.ndarray) -> None:
        if not keep.any():
            return
        sizes, probs = sizes[keep], probs[keep]
        # an int64 block's sum can pass 2**63: add its 32-bit halves apart
        self.count += (int((sizes >> 32).sum()) << 32) + int((sizes & 0xFFFFFFFF).sum())
        self.mass += float(sizes.astype(float) @ probs)
        self.min_p = min(self.min_p, float(probs.min()))
        self.max_p = max(self.max_p, float(probs.max()))


class _FanoSums:
    """The Fano audit's reducer over m draws of a decided-pair law
    (rules._symbol_law), walked as _pair_law reads it; _check_walk refuses a
    walk over the cap.

    Each class adds its mass to its y-type's total and, when jointly typical,
    to its typical mass; s(y) = typical / total is the per-y success
    probability, exactly 0 or 1 under a deterministic rule, which has one
    class per y-type. The success-weighted sum, sum_y P(y) s(y) H(X^M | y),
    adds each class's typical mass times the sum of its y-symbols' H(X | y)
    (the law's h_post).
    """

    def __init__(self, model: DiscreteJointModel, law: _SymbolLaw, m: int) -> None:
        _check_walk(len(law.prob), m)  # before any table is built
        self.law = _pair_law(model, law)
        # A y-type with sorted live-y ranks a_0 <= ... <= a_{M-1} is indexed by
        # sum_i C(a_i + i, i + 1), a bijection onto [0, C(n_live + M - 1, M))
        # (the combinatorial number system); binom[a, i] = C(a + i, i + 1).
        live_rank = np.cumsum(model.y_marginal > 0) - 1
        n_live = int(live_rank[-1]) + 1
        self.n_types = math.comb(n_live + m - 1, m)
        self.shift = np.arange(m)
        self.binom = np.array([[math.comb(a + i, i + 1) for i in range(m)] for a in range(n_live)])
        self.total, self.typical = np.zeros((2, self.n_types))
        self.success_weighted_h = 0.0
        # each support point's live-y rank and posterior entropy H(X | y)
        self.rank, self.entropy = live_rank[law.y], law.h_post

    def add(self, rows: np.ndarray, sizes: np.ndarray, probs: np.ndarray, keep: np.ndarray) -> None:
        mass = sizes.astype(float) * probs
        hit = np.where(keep, mass, 0.0)
        y_type = self.binom[np.sort(self.rank[rows], axis=1), self.shift].sum(axis=1)
        self.total += np.bincount(y_type, mass, minlength=self.n_types)
        self.typical += np.bincount(y_type, hit, minlength=self.n_types)
        self.success_weighted_h += float(hit @ self.entropy[rows].sum(axis=1))

    def sums(self) -> tuple[float, float, float]:
        """(p_f, h_e_given_y, success_weighted_h), with s(y) = typical / total."""
        # a y-type whose mass underflows to 0 weighs nothing
        s = np.divide(self.typical, self.total, out=np.zeros(self.n_types), where=self.total > 0)
        return (
            float(self.total @ (1.0 - s)),
            float(self.total @ _binary_entropy(s)),
            self.success_weighted_h,
        )


def _walk(reducers: Iterable, m: int, eps: float) -> None:
    """Feed each reducer the type classes of m i.i.d. draws from its law.

    A reducer's law is (prob, log2, centres): its support probabilities (all
    > 0), an (r, K) log2 table and r centres; its band (_band) keeps a class
    whose every row's _rate is in the band of its centre. Reducers whose laws
    have equal content are banded as one. _type_classes runs once, at the
    largest support size K_max; a law over K points reads the rows of each
    block whose last (largest) symbol is below K, which are its own type
    classes, sizes and order. Per block, each law with rows there takes its
    member probabilities exp2(sum of log2 prob over the row) and the band of
    one _rate gather over its (r, K) table, and its reducers add(rows, sizes,
    probs, keep). Every reducer checked its own walk against the cap
    (_check_walk) when built, the largest law's among them.
    """
    shared: dict[tuple, tuple] = {}
    for reducer in reducers:
        prob, log2, centres = reducer.law
        key = (prob.tobytes(), log2.tobytes(), tuple(centres))
        shared.setdefault(key, (np.log2(prob), log2, centres, []))[3].append(reducer)
    k_max = max(len(law[0]) for law in shared.values())
    smaller = {len(law[0]) for law in shared.values()} - {k_max}
    for rows, sizes in _type_classes(k_max, m):
        own = {k_max: (rows, sizes)}
        for k in smaller:
            pick = np.flatnonzero(rows[:, -1] < k)
            own[k] = rows[pick], sizes[pick]
        for log2_prob, log2, centres, members in shared.values():
            k_rows, k_sizes = own[len(log2_prob)]
            if len(k_rows):
                probs = np.exp2(log2_prob[k_rows].sum(axis=1))
                keep = _band(_rate(log2, k_rows), centres, eps)
                for reducer in members:
                    reducer.add(k_rows, k_sizes, probs, keep)


def _check_cap(what: str, base: int, m: int) -> None:
    """Refuse base^m candidates above the cap (resolve_enum_cap), without
    forming the power where it must exceed the cap: base >= 2 and m >= the
    cap's bit length give base^m >= 2^m > cap."""
    limit = resolve_enum_cap()
    if base >= 2 and m >= limit.bit_length() or base**m > limit:
        raise EnumerationTooLargeError(
            f"{what} = {base}^{m} exceeds the enumeration cap {limit}; "
            "use Monte Carlo trials instead"
        )


def _check_walk(n_symbols: int, m: int) -> None:
    """Refuse a type-class walk of m draws over K = n_symbols points that
    builds more symbols than the cap (resolve_enum_cap): C(j+K-1, j) rows of
    j symbols at level j <= m, K * C(m+K, m-1) in all. i = min(m-1, K+1) <=
    (m+K)/2 gives C(m+K, i) >= 2^i, so i >= the cap's bit length is over it."""
    limit = resolve_enum_cap()
    k, i = n_symbols, min(m - 1, n_symbols + 1)
    if i >= limit.bit_length() or k * math.comb(m + k, i) > limit:
        raise EnumerationTooLargeError(
            f"K*C(M+K, M-1) = {k}*C({m + k}, {m - 1}) symbols exceed the enumeration "
            f"cap {limit}; use Monte Carlo trials instead"
        )


def _pow2(x: float) -> float:
    """2.0 ** x, or inf where that overflows a float (x >= 1024)."""
    return 2.0**x if x < 1024 else math.inf


def _pair_law(model: DiscreteJointModel, law: _SymbolLaw) -> tuple:
    """A decided-pair law as _walk reads it: its x, y and joint log2 rows,
    centred at H(X), H(Y) and H(X,Y)."""
    return law.prob, law.log2[:3], (model.h_x, model.h_y, model.h_xy)


def _census_totals(model: DiscreteJointModel, m: int, sap: _SymbolLaw) -> dict[str, _Totals]:
    """The census's x, y and joint _Totals, built in that order: the prior
    and the y-marginal, one row each over its positive-probability support (a
    zero-probability symbol's rate is infinite), centred at H(X) and H(Y),
    and the joint law, which is sap, SAP's decided-pair law as the caller
    built it (rules._symbol_law)."""

    def marginal(p: np.ndarray, log2_p: np.ndarray, h: float) -> _Totals:
        live = np.flatnonzero(p > 0)
        return _Totals((p[live], log2_p[live][None], (h,)), m)

    return {
        "x": marginal(model.prior, model.log2_prior, model.h_x),
        "y": marginal(model.y_marginal, model.log2_y_marginal, model.h_y),
        "joint": _Totals(_pair_law(model, sap), m),
    }


def typical_set_census(model: DiscreteJointModel, params: TypicalityParams) -> CensusReport:
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
    totals = _census_totals(model, m, _symbol_law(model, DecisionRule.SAP))
    _walk(totals.values(), m, eps)
    return _census_report(model, m, eps, totals)


def _census_report(
    model: DiscreteJointModel, m: int, eps: float, totals: dict[str, _Totals]
) -> CensusReport:
    """typical_set_census's report from the x, y and joint sets' totals."""
    h_xy = model.h_xy
    bounds: list[CensusBound] = []

    def strict(name: str, lhs: float, rhs: float) -> None:
        bounds.append(CensusBound(name=name, lhs=lhs, rhs=rhs, holds=bool(lhs < rhs)))

    for tag, h in (("x", model.h_x), ("y", model.h_y)):
        t = totals[tag]
        strict(f"{tag}_mass_lower", 1.0 - eps, t.mass)
        if t.count:
            strict(f"{tag}_member_prob_lower", _pow2(-m * (h + eps)), t.min_p)
            strict(f"{tag}_member_prob_upper", t.max_p, _pow2(-m * (h - eps)))
        strict(f"{tag}_count_upper", float(t.count), _pow2(m * (h + eps)))
        strict(f"{tag}_count_lower", (1.0 - eps) * _pow2(m * (h - eps)), float(t.count))
        strict(f"{tag}_count_lower_printed", (1.0 - eps) * _pow2(m * (h + eps)), float(t.count))
    joint = totals["joint"]
    bounds.append(CensusBound("joint_mass_lower", 1.0 - eps, joint.mass, 1.0 - eps <= joint.mass))
    if joint.count:
        strict("joint_member_prob_lower", _pow2(-m * (h_xy + eps)), joint.min_p)
        strict("joint_member_prob_upper", joint.max_p, _pow2(-m * (h_xy - eps)))

    return CensusReport(
        m=m,
        epsilon=eps,
        sizes={tag: t.count for tag, t in totals.items()},
        masses={tag: t.mass for tag, t in totals.items()},
        bounds=bounds,
    )


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
    model: DiscreteJointModel, rule: DecisionRule, params: TypicalityParams
) -> FanoRecord:
    """Exact small-M inequality audit over the full (X^M, X-hat^M, E, Y^M) law.

    The decision (and hence E) never sees X given Y, so H(X^M, E | Y^M)
    splits as H(E | Y^M) + H(X^M | Y^M); the bound is 1 + (1 - P_f)
    H(X^M | Y^M, E = 0) + P_f M (H(X) + epsilon), all in exact arithmetic
    up to float rounding. Its p_f is the exact failure probability, the
    oracle for Monte Carlo agreement.
    """
    fano = _FanoSums(model, _symbol_law(model, rule), params.extension)
    _walk([fano], params.extension, params.epsilon)
    return _fano_record(model, rule, params, fano.sums())


def _exact_audit(
    model: DiscreteJointModel, rule: DecisionRule, params: TypicalityParams
) -> tuple[CensusReport, FanoRecord]:
    """typical_set_census and extended_fano_check of one call, from one
    _walk: the type classes are walked once for both, and SAP's law is built
    once, for the census and, under SAP, for the audit. The census's
    reducers are built first, so a census walk over the cap is refused
    before the audited law's."""
    m, eps = params.extension, params.epsilon
    sap = _symbol_law(model, DecisionRule.SAP)
    totals = _census_totals(model, m, sap)
    fano = _FanoSums(model, sap if DecisionRule(rule).is_stochastic else _symbol_law(model, rule), m)
    _walk([*totals.values(), fano], m, eps)
    return _census_report(model, m, eps, totals), _fano_record(model, rule, params, fano.sums())


def _fano_record(
    model: DiscreteJointModel,
    rule: DecisionRule,
    params: TypicalityParams,
    sums: tuple[float, float, float],
) -> FanoRecord:
    """extended_fano_check's record from the exact Fano sums (_FanoSums.sums)."""
    m, eps = params.extension, params.epsilon
    p_f, h_e, success_weighted_h = sums
    h_x_given_y = m * model.h_x_given_y
    lhs = h_e + h_x_given_y
    # (1 - P_f) H(X^M|Y^M, E=0) equals the success-weighted sum directly,
    # which stays well-defined even when P_f = 1
    rhs = 1.0 + success_weighted_h + p_f * m * (model.h_x + eps)
    h_success = success_weighted_h / (1.0 - p_f) if p_f < 1.0 else None
    return FanoRecord(
        rule=DecisionRule(rule).value,
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


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    """Elementwise binary entropy in bits; 0 at (and beyond) 0 and 1."""
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)
    return np.where(inner, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)
