from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_decide, oracle_posterior, oracle_y_marginal
from titest import rules
from titest.rules import CdfGuide, _symbol_law
from titest import (
    DecisionRule,
    DiscreteJointModel,
    PosteriorColumn,
    TypicalityParams,
    build_bsc_model,
    build_coin_model,
    build_constant_model,
    build_identity_model,
    decide,
    decide_columns,
    error_probability,
    extended_fano_check,
    inverse_cdf_pick,
    posterior,
    run_experiment,
    run_trial,
    sap_sample,
)


def column(labels, probs):
    return PosteriorColumn(y=0, labels=tuple(labels), probs=np.array(probs, dtype=float))


@st.composite
def posterior_columns(draw):
    n = draw(st.integers(2, 7))
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0.01)
    )
    probs = [w / sum(weights) for w in weights]
    labels = draw(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n, unique=True)
    )
    return column(labels, probs)


class TestRuleEnum:
    def test_from_name_case_insensitive(self):
        assert DecisionRule("MeAP") is DecisionRule.MEAP

    def test_unknown_rule_lists_valid(self):
        with pytest.raises(ValueError, match="map, eap, meap, sap"):
            DecisionRule("mle")

    def test_only_sap_is_stochastic(self):
        assert DecisionRule.SAP.is_stochastic
        assert not any(
            r.is_stochastic for r in (DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP)
        )


class TestFrozenDecisions:
    """Pinned single-observation decisions for the coin model N=35, theta=0.4."""

    @pytest.mark.parametrize(
        "k,want_map,want_eap,want_meap",
        [(3, 7, 10, 8), (9, 22, 27, 23), (13, 32, 28, 29)],
    )
    def test_triplets(self, coin35, k, want_map, want_eap, want_meap):
        post = posterior(coin35, k)
        assert decide(DecisionRule.MAP, post) == want_map
        assert decide(DecisionRule.EAP, post) == want_eap
        assert decide(DecisionRule.MEAP, post) == want_meap


class TestMap:
    def test_tie_breaks_to_lowest_label(self):
        assert decide(DecisionRule.MAP, column([2, 1], [0.5, 0.5])) == 1

    def test_point_mass(self):
        assert decide(DecisionRule.MAP, column([3, 4, 5], [0.0, 1.0, 0.0])) == 4

    @given(posterior_columns())
    @settings(max_examples=100, deadline=None)
    def test_argmax_property(self, post):
        chosen = decide(DecisionRule.MAP, post)
        idx = list(post.labels).index(chosen)
        assert post.probs[idx] == np.asarray(post.probs).max()


class TestEap:
    def test_point_mass(self):
        assert decide(DecisionRule.EAP, column([3, 5, 9], [0.0, 1.0, 0.0])) == 5

    def test_uniform_ties_to_lowest(self):
        assert decide(DecisionRule.EAP, column([4, 5, 6, 7], [0.25] * 4)) == 4

    def test_reference_point_is_mean_posterior_mass(self):
        # E[p] = 0.36 + 0.04 + 0.04 + 0.04 = 0.48; p=0.6 sits 0.12 away,
        # every p=0.2 sits 0.28 away, so the mode wins here
        assert decide(DecisionRule.EAP, column([1, 2, 3, 4], [0.6, 0.2, 0.1, 0.1])) == 1

    @given(posterior_columns())
    @settings(max_examples=100, deadline=None)
    def test_always_in_support(self, post):
        chosen = decide(DecisionRule.EAP, post)
        assert post.probs[list(post.labels).index(chosen)] > 0


class TestMeap:
    def test_exact_median_hit(self):
        assert decide(DecisionRule.MEAP, column([1, 2, 3], [0.2, 0.3, 0.5])) == 2

    def test_point_mass(self):
        assert decide(DecisionRule.MEAP, column([0, 5, 9], [0.0, 1.0, 0.0])) == 5

    def test_one_hot_never_picks_zero_prob_label(self):
        assert decide(DecisionRule.MEAP, column([0, 1, 2, 3], [0.0, 0.0, 1.0, 0.0])) == 2

    @given(posterior_columns())
    @settings(max_examples=100, deadline=None)
    def test_always_in_support(self, post):
        chosen = decide(DecisionRule.MEAP, post)
        assert post.probs[list(post.labels).index(chosen)] > 0


DETERMINISTIC_RULES = [DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP]


def named_model(name):
    if name.startswith("coin"):
        return build_coin_model(int(name[4:]), 0.4)
    return {
        "bsc25": lambda: build_bsc_model(0.25),
        "constant2": lambda: build_constant_model(2),
        "identity4": lambda: build_identity_model(4),
    }[name]()


@st.composite
def tied_models(draw):
    """Models built from a few small integer weights, so posterior columns
    hold exact ties and zeros; labels come in any order, and some
    observations may have zero evidence. At most 7 hypotheses: below 8 terms
    numpy adds a row in order, as the oracle does, so EAP's reference point
    is the same double on both sides even where the ties make it matter."""
    n_x, n_y = draw(st.integers(1, 7)), draw(st.integers(1, 5))
    dead = draw(st.sets(st.integers(0, n_y - 1), max_size=n_y - 1))
    live = [j for j in range(n_y) if j not in dead]
    prior = draw(st.lists(st.integers(0, 3), min_size=n_x, max_size=n_x).filter(any))
    likelihood = np.zeros((n_x, n_y))
    for row in likelihood:
        w = draw(st.lists(st.integers(0, 2), min_size=len(live), max_size=len(live)).filter(any))
        row[live] = np.array(w) / sum(w)
    return DiscreteJointModel(
        hypothesis_values=tuple(draw(
            st.lists(st.integers(-50, 50), min_size=n_x, max_size=n_x, unique=True)
        )),
        observation_values=tuple(range(n_y)),
        prior=np.array(prior) / sum(prior),
        likelihood=likelihood,
    )


def assert_rules_equal_oracle(model):
    """decide_columns, the trials' choices (read from the decided pairs' law,
    rules._symbol_law) and the one-column wrappers against oracle_decide, for
    every deterministic rule and every observation."""
    labels = model.hypothesis_values
    ascending = sorted(range(model.n_hypotheses), key=lambda i: labels[i])
    live = [j for j in range(model.n_observations) if model.y_marginal[j] > 0]
    stack = np.array([[model.posterior_matrix[i, j] for i in ascending] for j in live])
    for rule in DETERMINISTIC_RULES:
        want = [oracle_decide(rule.value, column) for column in stack.tolist()]
        assert decide_columns(rule, stack).tolist() == want
        law = _symbol_law(model, rule)
        assert law.y.tolist() == live
        assert law.x[np.searchsorted(law.y, live)].tolist() == [ascending[p] for p in want]
        for j, position in zip(live, want):
            post = posterior(model, model.observation_values[j])
            assert decide(rule, post) == labels[ascending[position]]


class TestRuleOracle:
    """The rule definitions (decide_columns) against a written-out oracle."""

    @pytest.mark.parametrize(
        "name",
        [f"coin{n}" for n in range(1, 65)] + ["coin512", "bsc25", "constant2", "identity4"],
    )
    def test_named_models(self, name):
        assert_rules_equal_oracle(named_model(name))

    @settings(max_examples=200, deadline=None)
    @given(tied_models())
    def test_tied_models(self, model):
        assert_rules_equal_oracle(model)

    @settings(max_examples=100, deadline=None)
    @given(posterior_columns())
    def test_posterior_columns(self, post):
        order = sorted(range(len(post.labels)), key=lambda i: post.labels[i])
        for rule in DETERMINISTIC_RULES:
            want = oracle_decide(rule.value, [post.probs[i] for i in order])
            assert decide(rule, post) == post.labels[order[want]]

    def test_sap_has_no_column_decision(self):
        with pytest.raises(ValueError, match="sap"):
            decide_columns(DecisionRule.SAP, np.ones((1, 1)))


class TestInverseCdfPick:
    def test_boundary_steps_to_next_point(self):
        cdf = np.array([0.3, 0.7, 1.0])
        assert inverse_cdf_pick(cdf, np.array([0.3]))[0] == 1
        assert inverse_cdf_pick(cdf, np.array([0.2999999]))[0] == 0
        assert inverse_cdf_pick(cdf, np.array([0.0]))[0] == 0
        assert inverse_cdf_pick(cdf, np.array([0.99999999]))[0] == 2

    def test_clip_guards_terminal_rounding(self):
        # a cdf that tops out just below 1 must still be indexable
        cdf = np.array([0.5, 1.0 - 1e-16])
        assert inverse_cdf_pick(cdf, np.array([1.0 - 1e-17]))[0] == 1

    def test_matrix_rows(self):
        cdf = np.array([[0.5, 1.0], [0.1, 1.0]])
        got = inverse_cdf_pick(cdf, np.array([0.4, 0.4]))
        np.testing.assert_array_equal(got, [0, 1])


ONE_MINUS_ULP = np.nextafter(1.0, 0.0)
ONE_PLUS_ULP = np.nextafter(1.0, 2.0)
BUCKET_EDGES = np.arange(rules._GUIDE_BUCKETS + 1) / rules._GUIDE_BUCKETS


@st.composite
def cdf_tables(draw):
    """(rows, K) CDF tables, K = 1 allowed: normalized integer weights with
    exact zeros (repeated CDF values), steps on a 2**-12 grid (many on bucket
    edges), arbitrary sorted doubles and rows parked at 1.0; any row may end
    at 1 - ulp or 1 + ulp."""
    k = draw(st.integers(1, 8))

    def row():
        kind = draw(st.sampled_from(["weights", "grid", "doubles", "parked"]))
        if kind == "weights":
            w = draw(st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any))
            r = np.cumsum(np.array(w, dtype=float) / sum(w))
        elif kind == "grid":
            r = np.sort(draw(st.lists(st.integers(0, 4096), min_size=k, max_size=k))) / 4096
        elif kind == "doubles":
            r = np.sort(draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k)))
        else:
            r = np.ones(k)
        end = draw(st.sampled_from([None, ONE_MINUS_ULP, ONE_PLUS_ULP]))
        if end is not None:
            r = np.minimum(r, end)
            r[-1] = end
        return r

    return np.array([row() for _ in range(draw(st.integers(1, 4)))])


def adversarial_draws(cdf):
    """Every CDF value and its neighbours, every bucket edge and edge - ulp,
    0, 1 - 2**-53, 1.0, and draws outside [0, 1)."""
    values = np.unique(cdf)
    return np.concatenate([
        values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf),
        BUCKET_EDGES, np.nextafter(BUCKET_EDGES, 0.0),
        [0.0, -0.0, 1.0 - 2.0**-53, 1.0, -0.5, 1.5, np.inf, -np.inf, np.nan],
    ])


def bincount_guide(cdf):
    """The guide table as CdfGuide built it in two bincount + cumsum passes
    over every row's ceil and floor edges, the oracle for its one-pass build."""
    cdf = np.atleast_2d(cdf)
    n_rows, k = cdf.shape
    scaled = cdf * rules._GUIDE_BUCKETS
    slots = rules._GUIDE_BUCKETS + 1
    row_base = slots * np.arange(n_rows)[:, None]

    def passed(edges):
        keys = np.clip(edges, 0, rules._GUIDE_BUCKETS).astype(np.intp) + row_base
        counts = np.bincount(keys.ravel(), minlength=n_rows * slots)
        return counts.reshape(n_rows, slots).cumsum(axis=1)[:, :-1]

    at_edge = passed(np.ceil(scaled))
    ambiguous = at_edge != passed(np.floor(scaled))
    guide = np.where(ambiguous, k, np.minimum(at_edge, k - 1))
    return guide.astype(np.min_scalar_type(k)).ravel()


def assert_same_table(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestCdfGuide:
    @settings(max_examples=200, deadline=None)
    @given(cdf=cdf_tables())
    def test_table_equals_bincount_build(self, cdf):
        assert_same_table(CdfGuide(cdf).guide, bincount_guide(cdf))
        assert_same_table(CdfGuide(cdf[0]).guide, bincount_guide(cdf[0]))

    @pytest.mark.parametrize("name", ["coin1", "coin2", "coin5", "coin10", "coin35", "bsc25"])
    def test_model_tables_equal_bincount_build(self, name):
        model = build_bsc_model(0.25) if name == "bsc25" else build_coin_model(int(name[4:]), 0.4)
        for guide in (model.prior_guide, model.lik_guide, model.posterior_guide):
            assert_same_table(guide.guide, bincount_guide(guide.cdf))

    @settings(max_examples=200, deadline=None)
    @given(
        cdf=cdf_tables(),
        random=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=64),
    )
    def test_guided_pick_equals_inverse_cdf_pick(self, cdf, random):
        u = np.concatenate([adversarial_draws(cdf), random])
        rows = np.repeat(np.arange(len(cdf)), len(u))
        u_all = np.tile(u, len(cdf))
        want = inverse_cdf_pick(cdf[rows], u_all)
        guide = CdfGuide(cdf)
        np.testing.assert_array_equal(guide.pick(u_all, rows), want)
        # draws and rows keep their (B, M) shape, as in the trial kernel, and
        # draw-major (F-ordered) draws give the same C-ordered picks
        u_rows, rows_bm = u_all.reshape(len(cdf), -1), rows.reshape(len(cdf), -1)
        for draws in (u_rows, np.asfortranarray(u_rows)):
            got = guide.pick(draws, rows_bm)
            np.testing.assert_array_equal(got, want.reshape(len(cdf), -1))
            assert got.flags.c_contiguous
        # a one-row table needs no rows
        np.testing.assert_array_equal(
            CdfGuide(cdf[0]).pick(u), inverse_cdf_pick(cdf[0], u)
        )
        # the fallback, one ambiguous draw at a time
        with mock.patch.object(rules, "_FALLBACK_ENTRIES", 1):
            np.testing.assert_array_equal(guide.pick(u_all, rows), want)

    def test_bucket_edges_and_steps(self):
        # a step on the edge of bucket 512 leaves it certain; one strictly
        # inside bucket 256 makes that bucket ambiguous
        guide = CdfGuide(np.array([0.25 + 2**-12, 0.5, 1.0]))
        assert (guide.guide == 3).nonzero()[0].tolist() == [256]
        assert guide.guide[[0, 255, 256, 257, 511, 512, 1023]].tolist() == [0, 0, 3, 1, 1, 2, 2]
        u = np.array([0.5, np.nextafter(0.5, 0), 0.25 + 2**-12, 0.25, 0.0])
        np.testing.assert_array_equal(guide.pick(u), [2, 1, 1, 0, 0])

    def test_smallest_index_dtype(self):
        # indices 0..K-1 and the ambiguity mark K
        assert CdfGuide(np.linspace(0.01, 1.0, 255)).guide.dtype == np.uint8
        assert CdfGuide(np.linspace(0.01, 1.0, 256)).guide.dtype == np.uint16

    @pytest.mark.parametrize("k", [255, 256], ids=["uint8", "uint16"])
    def test_picks_are_intp(self, k):
        # the table stays small; what the callers gather by is intp
        picks = CdfGuide(np.linspace(0.01, 1.0, k)).pick(np.array([0.0, 0.5, 0.999]))
        assert picks.dtype == np.intp


class TestSap:
    def test_point_mass_any_u(self):
        post = column([2, 7], [0.0, 1.0])
        rng = np.random.default_rng(0)
        assert all(decide(DecisionRule.SAP, post, rng) == 7 for _ in range(20))

    def test_zero_prob_label_never_drawn(self):
        post = column([1, 2, 3], [0.5, 0.0, 0.5])
        draws = sap_sample(post, np.random.default_rng(3), 4000)
        assert set(draws.tolist()) == {1, 3}

    def test_uniform_frequencies_within_3_sigma(self):
        post = column([0, 1, 2, 3], [0.25] * 4)
        draws = sap_sample(post, np.random.default_rng(11), 1_000_000)
        for label in range(4):
            freq = (draws == label).mean()
            assert abs(freq - 0.25) < 0.002

    def test_seeded_stream_reproducible(self, coin35):
        post = posterior(coin35, 3)
        a = sap_sample(post, np.random.default_rng(42), 50)
        b = sap_sample(post, np.random.default_rng(42), 50)
        np.testing.assert_array_equal(a, b)

    def test_total_variation_converges(self):
        # TV between empirical frequencies and the posterior at R = 2*10^5
        probs = np.array([0.05, 0.1, 0.15, 0.3, 0.4])
        post = column(range(5), probs)
        draws = sap_sample(post, np.random.default_rng(5), 200_000)
        emp = np.array([(draws == i).mean() for i in range(5)])
        tv = 0.5 * np.abs(emp - probs).sum()
        assert tv < 3 * np.sqrt(len(probs) / 200_000)


class TestDecideDispatcher:
    def test_routes_all_rules(self, coin35):
        post = posterior(coin35, 9)
        assert decide(DecisionRule.MAP, post) == 22
        assert decide(DecisionRule.EAP, post) == 27
        assert decide(DecisionRule.MEAP, post) == 23
        assert decide(DecisionRule.SAP, post, np.random.default_rng(0)) in range(9, 36)

    def test_sap_without_rng_raises(self, coin35):
        with pytest.raises(ValueError):
            decide(DecisionRule.SAP, posterior(coin35, 9))


class TestErrorProbability:
    def test_identity_channel_is_exact_zero(self, identity4):
        for rule in DecisionRule:
            assert error_probability(identity4, rule) == pytest.approx(0.0, abs=1e-12)

    def test_constant_channel_uniform(self):
        model = build_constant_model(5)
        # posterior equals the uniform prior, so both formulas give 1 - 1/N
        assert error_probability(model, DecisionRule.MAP) == pytest.approx(0.8, abs=1e-12)
        assert error_probability(model, DecisionRule.SAP) == pytest.approx(0.8, abs=1e-12)

    def test_coin10_map_optimality(self, coin10):
        p_map = error_probability(coin10, DecisionRule.MAP)
        assert p_map <= error_probability(coin10, DecisionRule.EAP) + 1e-12
        assert p_map <= error_probability(coin10, DecisionRule.MEAP) + 1e-12
        assert p_map <= error_probability(coin10, DecisionRule.SAP) + 1e-12

    def test_matches_monte_carlo(self, coin10):
        # independent MC estimate of single-symbol error for each rule
        rng = np.random.default_rng(2024)
        r = 40_000
        xs = rng.choice(10, size=r, p=coin10.prior)
        u = rng.random(r)
        lik_cdf = np.cumsum(coin10.likelihood, axis=1)
        ys = (lik_cdf[xs] <= u[:, None]).sum(axis=1)
        for rule in DecisionRule:
            exact = error_probability(coin10, rule)
            if rule.is_stochastic:
                post_cols = coin10.posterior_matrix[:, ys].T
                cdf = np.cumsum(post_cols, axis=1)
                decided = (cdf <= rng.random(r)[:, None]).sum(axis=1)
                decided = np.minimum(decided, 9)
            else:
                table = np.array(
                    [
                        list(coin10.hypothesis_values).index(
                            decide(rule, posterior(coin10, k))
                        )
                        for k in coin10.observation_values
                    ]
                )
                decided = table[ys]
            mc = (decided != xs).mean()
            sigma = np.sqrt(exact * (1 - exact) / r)
            assert abs(mc - exact) < 4 * sigma + 1e-9, rule

    def test_skips_zero_evidence_columns(self):
        # observation 1 can never occur; error must come from column 0 alone
        model = build_constant_model(3, y_dist=(1.0, 0.0))
        assert error_probability(model, DecisionRule.MAP) == pytest.approx(2 / 3, abs=1e-12)


class TestMapOptimalityGrid:
    @pytest.mark.parametrize("n", [5, 10, 20])
    @pytest.mark.parametrize("theta", [0.3, 0.4, 0.5])
    def test_map_minimizes_error(self, n, theta):
        model = build_coin_model(n, theta)
        p_map = error_probability(model, DecisionRule.MAP)
        for rule in (DecisionRule.EAP, DecisionRule.MEAP, DecisionRule.SAP):
            assert p_map <= error_probability(model, rule) + 1e-12


@st.composite
def small_models(draw):
    """Models of at most 4 x 4 from small integer weights: exact zeros, some
    observations with zero evidence, and both alphabets' labels permuted."""
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dead = draw(st.sets(st.integers(0, n_y - 1), max_size=n_y - 1))
    live = [j for j in range(n_y) if j not in dead]
    prior = draw(st.lists(st.integers(0, 3), min_size=n_x, max_size=n_x).filter(any))
    likelihood = np.zeros((n_x, n_y))
    for row in likelihood:
        w = draw(st.lists(st.integers(0, 3), min_size=len(live), max_size=len(live)).filter(any))
        row[live] = np.array(w) / sum(w)
    return DiscreteJointModel(
        hypothesis_values=tuple(draw(st.permutations(range(n_x)))),
        observation_values=tuple(draw(st.permutations(range(20, 20 + n_y)))),
        prior=np.array(prior) / sum(prior),
        likelihood=likelihood,
    )


def oracle_error_probability(model, rule):
    """1 - sum_y P(y) P(right | y), one observation at a time: the decided
    label's posterior for a deterministic rule, sum_x post(x)^2 for SAP."""
    prior, likelihood = model.prior.tolist(), model.likelihood.tolist()
    ascending = sorted(range(model.n_hypotheses), key=lambda i: model.hypothesis_values[i])
    correct = 0.0
    for j, p_y in enumerate(oracle_y_marginal(prior, likelihood)):
        if p_y == 0.0:
            continue
        post = oracle_posterior(prior, likelihood, j)
        if rule is DecisionRule.SAP:
            correct += p_y * sum(p * p for p in post)
        else:
            position = oracle_decide(rule.value, [post[i] for i in ascending])
            correct += p_y * post[ascending[position]]
    return 1.0 - correct


def support_triple(model, rule):
    """(x, y, prob), the decided pair's support as _symbol_law built it
    before the law became a record: np.nonzero order under SAP, the live y
    in storage order under a deterministic rule."""
    if rule.is_stochastic:
        x, y = np.nonzero(model.joint)
        return x, y, model.joint[x, y]
    y = np.flatnonzero(model.y_marginal > 0)
    order = np.argsort(model.hypothesis_values, kind="stable")
    x = order[decide_columns(rule, model.posterior_matrix[order][:, y].T)]
    return x, y, model.y_marginal[y]


def assert_law_record(model):
    """Every rule's law record: its support is support_triple's, its log2
    rows and h_post are the model's tables gathered at (x, y), bit for bit,
    and three drift identities hold to 1e-12."""
    for rule in DecisionRule:
        law = _symbol_law(model, rule)
        for got, want in zip(law[:3], support_triple(model, rule)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), rule
        x, y = law.x, law.y
        tables = (
            model.log2_prior[x], model.log2_y_marginal[y],
            model.log2_joint[x, y], model.log2_posterior[x, y],
        )
        assert law.log2.shape == (4, len(x)), rule
        for row, want in zip(law.log2, tables):
            assert row.tobytes() == want.tobytes(), rule
        assert law.h_post.tobytes() == model.posterior_col_entropy[y].tobytes(), rule
        # E[s_y] = H(Y) under every rule, and s_xy = s_y + s_post at every point
        assert -(law.prob @ law.log2[1]) == pytest.approx(model.h_y, rel=0.0, abs=1e-12), rule
        np.testing.assert_allclose(law.log2[2], law.log2[1] + law.log2[3], rtol=0.0, atol=1e-12)
        if rule.is_stochastic:
            # delta_SAP = 0: SAP's mean x, y and joint surprisals are H(X), H(Y), H(X,Y)
            np.testing.assert_allclose(
                -(law.log2[:3] @ law.prob), [model.h_x, model.h_y, model.h_xy], rtol=0.0, atol=1e-12
            )


class TestSymbolLaw:
    """The decided pair's law (_symbol_law) and error_probability, which
    reads it, on random and named models."""

    @pytest.mark.parametrize("name", ["coin5", "coin10", "coin35", "coin64", "bsc25"])
    def test_record_on_named_models(self, name):
        assert_law_record(named_model(name))

    @settings(max_examples=200, deadline=None)
    @given(small_models())
    def test_law_and_error_probability(self, model):
        assert_law_record(model)
        ascending = sorted(range(model.n_hypotheses), key=lambda i: model.hypothesis_values[i])
        live = [j for j in range(model.n_observations) if model.y_marginal[j] > 0]
        for rule in DecisionRule:
            x, y, prob = _symbol_law(model, rule)[:3]
            assert (prob > 0).all(), rule
            assert prob.sum() == pytest.approx(1.0, rel=0.0, abs=1e-12), rule
            if rule.is_stochastic:
                assert sorted(zip(x.tolist(), y.tolist())) == [
                    (i, j) for i in range(model.n_hypotheses) for j in range(model.n_observations)
                    if model.joint[i, j] > 0
                ]
                assert prob.tolist() == model.joint[x, y].tolist()
            else:
                assert y.tolist() == live, rule
                assert x.tolist() == [
                    ascending[oracle_decide(
                        rule.value, [model.posterior_matrix[i, j] for i in ascending]
                    )]
                    for j in live
                ], rule
                assert prob.tolist() == model.y_marginal[live].tolist()
            assert error_probability(model, rule) == pytest.approx(
                oracle_error_probability(model, rule), rel=0.0, abs=1e-12
            ), rule


class TestRuleNames:
    """Every entry point takes a rule as a DecisionRule or as its name."""

    @pytest.mark.parametrize("rule", [
        *DecisionRule, *(r.value for r in DecisionRule), *(r.value.upper() for r in DecisionRule)
    ])
    def test_member_or_name(self, rule, coin10):
        member = DecisionRule(rule)
        params = TypicalityParams(0.25, 3)
        post = posterior(coin10, 4)
        if not member.is_stochastic:
            assert decide(rule, post) == decide(member, post)
            assert decide_columns(rule, post.probs[None, :]).tolist() == decide_columns(
                member, post.probs[None, :]
            ).tolist()
        assert error_probability(coin10, rule) == error_probability(coin10, member)
        trial = run_trial(coin10, rule, params, np.random.default_rng(5))
        assert trial == run_trial(coin10, member, params, np.random.default_rng(5))
        report = run_experiment(coin10, rule, params, trials=20, seed=3)
        assert report == run_experiment(coin10, member, params, trials=20, seed=3)
        assert report.rule == member.value
        fano = extended_fano_check(coin10, rule, params)
        assert fano == extended_fano_check(coin10, member, params)
        assert fano.rule == member.value

    @pytest.mark.parametrize("call", [
        lambda model: decide("mle", posterior(model, 4)),
        lambda model: decide_columns("mle", np.ones((1, 1))),
        lambda model: error_probability(model, "mle"),
        lambda model: run_trial(model, "mle", TypicalityParams(0.25, 3), np.random.default_rng(0)),
        lambda model: run_experiment(model, "mle", TypicalityParams(0.25, 3), trials=2, seed=0),
        lambda model: extended_fano_check(model, "mle", TypicalityParams(0.25, 3)),
    ], ids=[
        "decide", "decide_columns", "error_probability", "run_trial",
        "run_experiment", "extended_fano_check",
    ])
    def test_unknown_name_raises(self, call, coin10):
        with pytest.raises(ValueError, match="mle.*valid rules"):
            call(coin10)
