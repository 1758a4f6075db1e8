"""Brute-force reference implementations used to cross-check the package.

Everything here is pure Python over math/itertools, written for obviousness
rather than speed, and independent of the package's numpy code paths. All
distributions are index-based: prior is a list, likelihood a list of rows.
"""

import itertools
import math

# mirrors the package's boundary band: deviations within 1e-12 of epsilon
# classify as non-typical
BOUNDARY_ATOL = 1e-12


def oracle_entropy(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def oracle_joint(prior, likelihood):
    return [[pi * q for q in row] for pi, row in zip(prior, likelihood)]


def oracle_y_marginal(prior, likelihood):
    joint = oracle_joint(prior, likelihood)
    n_y = len(likelihood[0])
    return [sum(row[j] for row in joint) for j in range(n_y)]


def oracle_posterior(prior, likelihood, y_index):
    p_y = oracle_y_marginal(prior, likelihood)[y_index]
    return [pi * row[y_index] / p_y for pi, row in zip(prior, likelihood)]


def oracle_info(prior, likelihood):
    joint = oracle_joint(prior, likelihood)
    flat = [p for row in joint for p in row]
    y_marg = oracle_y_marginal(prior, likelihood)
    h_x = oracle_entropy(prior)
    h_y = oracle_entropy(y_marg)
    h_xy = oracle_entropy(flat)
    h_x_given_y = h_xy - h_y
    return {
        "h_x": h_x,
        "h_y": h_y,
        "h_xy": h_xy,
        "h_x_given_y": h_x_given_y,
        "ti": h_x - h_x_given_y,
    }


def oracle_coin_likelihood(n, theta):
    """Binomial rows via math.comb, independent of the lgamma build path."""
    rows = []
    for heads in range(1, n + 1):
        row = [
            math.comb(heads, k) * theta**k * (1 - theta) ** (heads - k)
            if k <= heads
            else 0.0
            for k in range(n + 1)
        ]
        total = sum(row)
        rows.append([p / total for p in row])
    return rows


def oracle_rate(dist, idx_seq):
    """Per-symbol surprisal in bits; inf when any symbol has probability 0."""
    total = 0.0
    for i in idx_seq:
        if dist[i] <= 0.0:
            return math.inf
        total -= math.log2(dist[i])
    return total / len(idx_seq)


def oracle_seq_prob(dist, idx_seq):
    prob = 1.0
    for i in idx_seq:
        prob *= dist[i]
    return prob


def _inside(rate, h, eps):
    return abs(rate - h) < eps - BOUNDARY_ATOL


def oracle_is_typical(dist, idx_seq, eps):
    return _inside(oracle_rate(dist, idx_seq), oracle_entropy(dist), eps)


def oracle_jointly_typical(prior, likelihood, x_idx, y_idx, eps):
    """All three conditions: x against prior, y against marginal, pair joint."""
    joint = oracle_joint(prior, likelihood)
    flat = [p for row in joint for p in row]
    y_marg = oracle_y_marginal(prior, likelihood)
    n_y = len(y_marg)
    pair_idx = [xi * n_y + yi for xi, yi in zip(x_idx, y_idx)]
    return (
        _inside(oracle_rate(prior, x_idx), oracle_entropy(prior), eps)
        and _inside(oracle_rate(y_marg, y_idx), oracle_entropy(y_marg), eps)
        and _inside(oracle_rate(flat, pair_idx), oracle_entropy(flat), eps)
    )


def oracle_conditional_members(prior, likelihood, y_idx, m, eps):
    """Index tuples of every x-sequence jointly typical with y_idx."""
    n_x = len(prior)
    return [
        x_idx
        for x_idx in itertools.product(range(n_x), repeat=m)
        if oracle_jointly_typical(prior, likelihood, x_idx, y_idx, eps)
    ]


def oracle_census(prior, likelihood, m, eps):
    """Sizes and masses of the three typical sets by full enumeration."""
    y_marg = oracle_y_marginal(prior, likelihood)
    n_x, n_y = len(prior), len(y_marg)
    joint = oracle_joint(prior, likelihood)

    x_members = [
        s for s in itertools.product(range(n_x), repeat=m) if oracle_is_typical(prior, s, eps)
    ]
    y_members = [
        s for s in itertools.product(range(n_y), repeat=m) if oracle_is_typical(y_marg, s, eps)
    ]
    joint_count = 0
    joint_mass = 0.0
    for x_idx in itertools.product(range(n_x), repeat=m):
        for y_idx in itertools.product(range(n_y), repeat=m):
            if oracle_jointly_typical(prior, likelihood, x_idx, y_idx, eps):
                joint_count += 1
                prob = 1.0
                for xi, yi in zip(x_idx, y_idx):
                    prob *= joint[xi][yi]
                joint_mass += prob
    return {
        "sizes": {"x": len(x_members), "y": len(y_members), "joint": joint_count},
        "masses": {
            "x": sum(oracle_seq_prob(prior, s) for s in x_members),
            "y": sum(oracle_seq_prob(y_marg, s) for s in y_members),
            "joint": joint_mass,
        },
    }


def oracle_decide(rule, probs):
    """Position a deterministic rule decides for one posterior column.

    probs lists the posterior probabilities in ascending label order; rule is
    "map", "eap" or "meap". Every rule keeps the first (lowest) position
    among equal scores:
    - map: the largest probability;
    - eap: the probability nearest E[p] = sum of p * p, added in order;
    - meap: among positive probabilities, the running sum nearest 1/2.
    """
    probs = [float(p) for p in probs]
    if rule == "map":
        score = [-p for p in probs]
    elif rule == "eap":
        expected = 0.0
        for p in probs:
            expected += p * p
        score = [abs(p - expected) for p in probs]
    elif rule == "meap":
        score, running = [], 0.0
        for p in probs:
            running += p
            score.append(abs(running - 0.5) if p > 0 else math.inf)
    else:
        raise ValueError(f"no oracle for rule {rule!r}")
    best = 0
    for i in range(1, len(score)):
        if score[i] < score[best]:
            best = i
    return best
