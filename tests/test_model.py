import dataclasses
import json
import math
import pickle
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_coin_likelihood, oracle_entropy, oracle_info, oracle_y_marginal
from titest import model as model_module
from titest import (
    COIN_N_CAP,
    DecisionRule,
    DiscreteJointModel,
    InvalidDistributionError,
    PosteriorColumn,
    TypicalityParams,
    ZeroEvidenceError,
    build_bsc_model,
    build_coin_model,
    build_constant_model,
    build_identity_model,
    decide,
    entropy,
    posterior,
    run_experiment,
    sample_extension,
    sap_sample,
    surprisal,
    sweep,
)
from titest.rules import CdfGuide, _symbol_law


class TestEntropy:
    def test_uniform_is_log2_n(self):
        assert entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_point_mass_is_positive_zero(self):
        assert math.copysign(1.0, entropy([1.0])) == 1.0
        assert math.copysign(1.0, entropy([0.0, 1.0, 0.0])) == 1.0

    def test_binary_quarter(self):
        # H_b(0.25) = 2 - 0.75 log2(3)
        assert entropy([0.25, 0.75]) == pytest.approx(0.8112781245, abs=1e-9)

    def test_negative_entry_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy([1.1, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(InvalidDistributionError):
            entropy([0.5, 0.4])

    @pytest.mark.parametrize("dist", [
        [math.nan, 1.0], [0.5, math.nan, 0.5], [math.inf, 1.0], [-math.inf, 1.0],
    ], ids=["nan-first", "nan-middle", "inf", "minus-inf"])
    def test_non_finite_entry_rejected(self, dist):
        # NaN passes both the sign and the sum checks; p > 0 would then drop it
        with pytest.raises(InvalidDistributionError, match="non-finite"):
            entropy(dist)

    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=8))
    def test_matches_oracle_and_bounds(self, weights):
        p = [w / sum(weights) for w in weights]
        h = entropy(p)
        assert h == pytest.approx(oracle_entropy(p), abs=1e-9)
        assert -1e-12 <= h <= math.log2(len(p)) + 1e-9


class TestConstruction:
    def test_bad_prior_sum(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteJointModel((0, 1), (0, 1), np.array([0.6, 0.6]), np.eye(2))

    def test_bad_likelihood_row(self):
        lik = np.array([[0.9, 0.2], [0.5, 0.5]])
        with pytest.raises(InvalidDistributionError):
            DiscreteJointModel((0, 1), (0, 1), np.array([0.5, 0.5]), lik)

    def test_negative_prior(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteJointModel((0, 1), (0, 1), np.array([1.5, -0.5]), np.eye(2))

    def test_negative_likelihood(self):
        # the row sums to 1, so only the sign check can refuse it
        lik = np.array([[1.5, -0.5], [0.5, 0.5]])
        with pytest.raises(InvalidDistributionError, match="likelihood has negative"):
            DiscreteJointModel((0, 1), (0, 1), np.array([0.5, 0.5]), lik)

    @pytest.mark.parametrize("build", [
        lambda: build_identity_model(0),
        lambda: build_constant_model(0),
        lambda: build_bsc_model(1.5),
    ], ids=["identity-0", "constant-0", "bsc-1.5"])
    def test_builder_validation(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("n", [2.5, True, "3"])
    @pytest.mark.parametrize("build", [build_identity_model, build_constant_model])
    def test_builder_size_must_be_an_integer(self, build, n):
        with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
            build(n)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_prior_rejected(self, bad):
        with pytest.raises(InvalidDistributionError, match="non-finite"):
            DiscreteJointModel((0, 1), (0, 1), np.array([bad, 0.5]), np.eye(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_likelihood_rejected(self, bad):
        lik = np.array([[bad, 0.5], [0.5, 0.5]])
        with pytest.raises(InvalidDistributionError, match="non-finite"):
            DiscreteJointModel((0, 1), (0, 1), np.array([0.5, 0.5]), lik)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValueError):
            DiscreteJointModel((0.5, 1), (0, 1), np.array([0.5, 0.5]), np.eye(2))
        # JSON 1e400 parses to inf, which int() cannot take
        doc = json.loads(
            '{"hypothesis_values": [1e400, 1], "observation_values": [0, 1], '
            '"prior": [0.5, 0.5], "likelihood": [[1, 0], [0, 1]]}'
        )
        with pytest.raises(ValueError, match="labels must be integers"):
            DiscreteJointModel.from_json_dict(doc)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DiscreteJointModel((1, 1), (0, 1), np.array([0.5, 0.5]), np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidDistributionError):
            DiscreteJointModel((0, 1), (0, 1, 2), np.array([0.5, 0.5]), np.eye(2))

    def test_tables_are_read_only(self, coin10):
        # a pickled model (as a worker process receives it) rebuilds its tables
        for model in (coin10, pickle.loads(pickle.dumps(coin10))):
            for name in (
                "prior", "joint", "posterior_matrix", "prior_cdf", "lik_cdf", "log2_posterior",
                "label_order",
            ):
                arr = getattr(model, name)
                np.testing.assert_array_equal(arr, getattr(coin10, name))
                with pytest.raises(ValueError):
                    arr[0] = 0.123
            for name in ("h_x", "h_y", "h_xy", "h_x_given_y"):
                assert getattr(model, name) == getattr(coin10, name)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(model, name, 0.0)

    def test_pickled_model_draws_as_the_original(self):
        # unsorted labels and a zero-evidence observation (label 9)
        model = DiscreteJointModel(
            (5, -2, 7), (0, 9, 1), np.array([0.2, 0.5, 0.3]),
            np.array([[0.6, 0.0, 0.4], [0.1, 0.0, 0.9], [0.5, 0.0, 0.5]]),
        )
        model.prior_guide  # a guide the model has built is not pickled
        clone = pickle.loads(pickle.dumps(model))
        assert "prior_guide" not in vars(clone) and "posterior_guide" not in vars(clone)
        np.testing.assert_array_equal(clone.label_order, [1, 0, 2])
        np.testing.assert_array_equal(clone.label_order, model.label_order)
        u = np.random.default_rng(3).random((50, 3))
        rows = np.tile([0, 1, 2], (50, 1))
        # SAP draws by its decided-pair law's cdf, which a pool job pickles
        sap = _symbol_law(model, DecisionRule.SAP)
        clone_sap = _symbol_law(clone, DecisionRule.SAP)
        np.testing.assert_array_equal(
            CdfGuide(clone_sap.cdf).pick(u, rows), CdfGuide(sap.cdf).pick(u, rows)
        )
        np.testing.assert_array_equal(clone_sap.cdf, sap.cdf)
        np.testing.assert_array_equal(pickle.loads(pickle.dumps(sap)).cdf, sap.cdf)
        assert (sap.cdf[1] == 1.0).all()  # parked: no trial samples it

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sums_just_inside_construct_atol(self, sign):
        # the prior and every row off by 0.9e-12, all the same way: the joint
        # then sums within about 2e-12 of 1, far inside DERIVED_ATOL
        off = sign * 0.9 * model_module.CONSTRUCT_ATOL
        prior = np.array([0.5 + off, 0.25, 0.25])
        lik = np.array([[0.75 + off, 0.25, 0.0], [0.1, 0.2 + off, 0.7], [0.0, 0.0, 1.0 + off]])
        model = DiscreteJointModel((0, 1, 2), (0, 1, 2), prior, lik)
        assert abs(model.joint.sum() - 1.0) < 2.5 * model_module.CONSTRUCT_ATOL < model_module.DERIVED_ATOL

    def test_joint_and_marginal_consistency(self, coin10):
        assert coin10.joint.sum() == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(coin10.joint.sum(axis=1), coin10.prior, atol=1e-12)
        np.testing.assert_allclose(coin10.joint.sum(axis=0), coin10.y_marginal, atol=1e-12)

    def test_label_lookup_errors(self, coin10):
        with pytest.raises(ValueError):
            coin10.x_index(0)  # coin hypotheses start at 1
        with pytest.raises(ValueError):
            coin10.y_index(99)


def per_row_coin_likelihood(n, theta):
    """The coin table as build_coin_model computed it one row at a time, the
    oracle for its one-expression build. Row i's operations are the same for
    every n, so the table of n is the first n rows and n + 1 columns of the
    table of any larger n."""
    log_t = math.log(theta)
    log_c = math.log1p(-theta)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    lik = np.zeros((n, n + 1))
    for i in range(n):
        trials = i + 1
        ks = np.arange(trials + 1)
        log_binom = log_fact[trials] - (log_fact[ks] + log_fact[trials - ks])
        lik[i, : trials + 1] = np.exp(log_binom + ks * log_t + (trials - ks) * log_c)
        lik[i, : trials + 1] /= lik[i, : trials + 1].sum()
    return lik


class TestCoinModel:
    @pytest.mark.parametrize("theta", [0.1, 0.4, 0.5, 0.93])
    def test_table_equals_per_row_build(self, monkeypatch, theta):
        # every N up to the cap, byte for byte; the model's own construction
        # (validation and derived tables, not under test here) is stubbed
        # out, or the 512 builds would take about 5 s a theta
        oracle = per_row_coin_likelihood(COIN_N_CAP, theta)
        monkeypatch.setattr(model_module, "DiscreteJointModel", SimpleNamespace)
        for n in range(1, COIN_N_CAP + 1):
            got = build_coin_model(n, theta).likelihood
            want = oracle[:n, : n + 1]
            # bit for bit: the uint64 views tell -0.0 from 0.0
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), n

    def test_labels(self, coin10):
        assert coin10.hypothesis_values == tuple(range(1, 11))
        assert coin10.observation_values == tuple(range(0, 11))

    def test_impossible_counts_are_exact_zero(self, coin10):
        # P(k|n) = 0 whenever k exceeds the coin count n
        for i, n in enumerate(coin10.hypothesis_values):
            assert (coin10.likelihood[i, n + 1 :] == 0.0).all()

    def test_rows_match_comb_oracle(self):
        model = build_coin_model(7, 0.3)
        oracle = np.array(oracle_coin_likelihood(7, 0.3))
        np.testing.assert_allclose(model.likelihood, oracle, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_coin_model(0, 0.4)
        with pytest.raises(ValueError):
            build_coin_model(COIN_N_CAP + 1, 0.4)
        with pytest.raises(ValueError):
            build_coin_model(10, 0.0)
        with pytest.raises(ValueError):
            build_coin_model(10, 1.0)
        with pytest.raises(ValueError):
            build_coin_model(True, 0.4)
        with pytest.raises(ValueError):
            build_coin_model(10.0, 0.4)

    def test_large_n_still_normalized(self):
        # log-space evaluation has to survive the documented cap
        model = build_coin_model(COIN_N_CAP, 0.4)
        np.testing.assert_allclose(model.likelihood.sum(axis=1), 1.0, atol=1e-12)


class TestInfoSummary:
    def test_coin10_frozen_values(self, coin10):
        assert coin10.h_x == pytest.approx(3.321928, abs=5e-7)
        assert coin10.h_y == pytest.approx(2.637125, abs=5e-7)
        assert coin10.h_xy == pytest.approx(5.406894, abs=5e-7)
        assert coin10.h_x_given_y == pytest.approx(2.769769, abs=5e-7)
        assert coin10.ti == pytest.approx(0.552159, abs=5e-7)

    def test_coin35_prior_entropy(self, coin35):
        assert coin35.h_x == pytest.approx(math.log2(35), abs=1e-12)

    def test_bsc_quarter(self, bsc25):
        assert bsc25.h_x == pytest.approx(1.0, abs=1e-12)
        assert bsc25.h_x_given_y == pytest.approx(0.8112781245, abs=1e-9)
        assert bsc25.ti == pytest.approx(0.1887218755, abs=1e-9)

    def test_identity_ti_is_h_x(self, identity4):
        assert identity4.ti == pytest.approx(2.0, abs=1e-12)
        assert identity4.h_x_given_y == pytest.approx(0.0, abs=1e-12)

    def test_constant_ti_is_zero(self, constant2):
        assert constant2.ti == pytest.approx(0.0, abs=1e-12)

    def test_single_hypothesis_coin(self):
        assert build_coin_model(1, 0.5).ti == pytest.approx(0.0, abs=1e-12)

    @given(
        st.integers(2, 5),
        st.integers(2, 5),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle_on_random_models(self, n_x, n_y, rnd):
        prior = [rnd.uniform(0.05, 1.0) for _ in range(n_x)]
        prior = [p / sum(prior) for p in prior]
        lik = []
        for _ in range(n_x):
            row = [rnd.uniform(0.05, 1.0) for _ in range(n_y)]
            lik.append([q / sum(row) for q in row])
        model = DiscreteJointModel(
            tuple(range(n_x)), tuple(range(n_y)), np.array(prior), np.array(lik)
        )
        want = oracle_info(prior, lik)
        # the model's own entropies, CDFs and test information
        assert model.h_x == pytest.approx(want["h_x"], abs=1e-9)
        assert model.h_y == pytest.approx(want["h_y"], abs=1e-9)
        assert model.h_xy == pytest.approx(want["h_xy"], abs=1e-9)
        np.testing.assert_array_equal(model.prior_cdf, np.cumsum(model.prior))
        np.testing.assert_array_equal(model.lik_cdf, np.cumsum(model.likelihood, axis=1))
        assert model.h_x_given_y == pytest.approx(want["h_x_given_y"], abs=1e-9)
        assert model.ti == pytest.approx(want["ti"], abs=1e-9)
        # chain rule and nonnegativity
        assert model.h_xy == pytest.approx(model.h_y + model.h_x_given_y, abs=1e-9)
        assert model.ti >= -1e-9
        assert model.h_x_given_y <= model.h_x + 1e-9


def random_model(rnd) -> DiscreteJointModel:
    """A model of 1..5 hypotheses and 1..5 observations whose prior and rows
    hold zeros, often with an observation no hypothesis emits."""
    n_x, n_y = rnd.randint(1, 5), rnd.randint(1, 5)

    def dist(n, dead=None):
        w = [0.0 if i == dead or rnd.random() < 0.3 else rnd.uniform(0.05, 1.0) for i in range(n)]
        if not any(w):
            w[next(i for i in range(n) if i != dead)] = 1.0
        return [v / sum(w) for v in w]

    dead = rnd.randrange(n_y + 1) if n_y > 1 else None  # n_y: no dead column
    lik = [dist(n_y, dead) for _ in range(n_x)]
    return DiscreteJointModel(tuple(range(n_x)), tuple(range(n_y)), np.array(dist(n_x)), np.array(lik))


class TestModelConstants:
    """The model's information constants equal entropy() of its tables and
    the evidence-weighted sum of its posterior-column entropies, bit for bit."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_entropies_are_entropy_bit_for_bit(self, rnd):
        model = random_model(rnd)
        for got, dist in (
            (model.h_x, model.prior), (model.h_y, model.y_marginal), (model.h_xy, model.joint.ravel()),
        ):
            assert type(got) is float
            assert got.hex() == entropy(dist).hex()

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_h_x_given_y_is_evidence_weighted_sum(self, rnd):
        model = random_model(rnd)
        pos = model.y_marginal > 0
        want = float((model.y_marginal[pos] * model.posterior_col_entropy[pos]).sum())
        assert type(model.h_x_given_y) is float
        assert model.h_x_given_y.hex() == want.hex()

    @pytest.mark.parametrize("model", [
        build_coin_model(1, 0.4), build_coin_model(10, 0.4), build_coin_model(35, 0.4),
        build_bsc_model(0.25), build_identity_model(4), build_constant_model(3),
    ], ids=["coin1", "coin10", "coin35", "bsc25", "identity4", "constant3"])
    def test_ti_is_one_constant(self, model):
        want = model.h_x - model.h_x_given_y
        report = run_experiment(model, DecisionRule.SAP, TypicalityParams(0.25, 2), 5, 0)
        assert type(model.ti) is float
        for got in (model.ti, report.ti_bits):
            assert got.hex() == want.hex()


class TestPosterior:
    def test_sums_to_one(self, coin35):
        for k in (0, 3, 9, 13, 35):
            assert np.asarray(posterior(coin35, k).probs).sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_evidence_raises(self):
        model = build_constant_model(2, y_dist=(1.0, 0.0))
        with pytest.raises(ZeroEvidenceError):
            posterior(model, 1)

    def test_unknown_observation_raises(self, coin10):
        with pytest.raises(ValueError):
            posterior(coin10, 11)

    def test_matches_bayes_by_hand(self, bsc25):
        p = posterior(bsc25, 0)
        np.testing.assert_allclose(p.probs, [0.75, 0.25], atol=1e-12)


class TestPosteriorColumn:
    """A column is checked when built, so no rule decides from garbage."""

    @pytest.mark.parametrize("y, labels, probs, error, message", [
        (0, (1, 2), [0.2, 0.2], InvalidDistributionError, "distribution sums to .*0.4.*, not 1"),
        (0, (1, 2), [-0.5, 1.5], InvalidDistributionError, "distribution has negative entries"),
        (0, (1, 2), [np.nan, 1.0], InvalidDistributionError, "distribution has non-finite entries"),
        (0, (1, 2), [np.inf, 0.0], InvalidDistributionError, "distribution has non-finite entries"),
        (0, (1.5, 2), [0.5, 0.5], ValueError, "labels must be integers, got 1.5"),
        (0, (1, None), [0.5, 0.5], ValueError, "labels must be integers, got None"),
        (1.5, (1, 2), [0.5, 0.5], ValueError, "labels must be integers, got 1.5"),
        (0, (1, 1), [0.5, 0.5], ValueError, "posterior labels must be distinct"),
        (0, (1, 2, 3), [0.5, 0.5], InvalidDistributionError, r"probs has shape \(2,\), expected \(3,\)"),
        (0, (1, 2), [[0.5, 0.5]], InvalidDistributionError, r"probs has shape \(1, 2\), expected"),
    ], ids=[
        "sums-to-0.4", "negative", "nan", "inf", "float-label", "none-label", "float-y",
        "repeated-label", "too-few-probs", "two-dimensional",
    ])
    def test_malformed_column_is_refused(self, y, labels, probs, error, message):
        with pytest.raises(error, match=message):
            PosteriorColumn(y, labels, probs)

    def test_rules_never_see_a_malformed_column(self):
        # before the checks, SAP decided 2 from a column summing to 0.4, MAP
        # decided 2 from [-0.5, 1.5] and label 1 from the labels (1.5, 2)
        with pytest.raises(InvalidDistributionError):
            decide("sap", PosteriorColumn(0, (1, 2), [0.2, 0.2]), np.random.default_rng(0))
        with pytest.raises(InvalidDistributionError):
            decide("map", PosteriorColumn(0, (1, 2), [-0.5, 1.5]))
        with pytest.raises(ValueError, match="labels must be integers"):
            decide("map", PosteriorColumn(0, (1.5, 2), [0.6, 0.4]))

    def test_labels_are_stored_as_ints(self):
        post = PosteriorColumn(np.int64(3), (np.int32(2), 1.0), [0.25, 0.75])
        assert post.y == 3 and type(post.y) is int
        assert post.labels == (2, 1) and all(type(v) is int for v in post.labels)

    @pytest.mark.parametrize("name", ["coin1", "coin10", "coin35", "bsc25"])
    def test_posterior_builds_every_live_column(self, name):
        model = build_bsc_model(0.25) if name == "bsc25" else build_coin_model(int(name[4:]), 0.4)
        live = [y for y, p in zip(model.observation_values, model.y_marginal) if p > 0]
        assert live == list(model.observation_values)
        for y in live:
            post = posterior(model, y)
            assert post.y == y and post.labels == model.hypothesis_values


class TestSurprisal:
    def test_prior_kind(self, coin10):
        assert surprisal(coin10, "prior", 3) == pytest.approx(math.log2(10), abs=1e-12)

    def test_y_marginal_kind(self, coin10):
        y_marginal = oracle_y_marginal(list(coin10.prior), [list(r) for r in coin10.likelihood])
        want = -math.log2(y_marginal[3])  # coin10's observation labels are 0..10
        assert surprisal(coin10, "y-marginal", 3) == pytest.approx(want, abs=1e-12)

    def test_joint_kind_matches_tables(self, coin10):
        want = -math.log2(coin10.joint[2, 1])
        assert surprisal(coin10, "joint", (3, 1)) == pytest.approx(want, abs=1e-12)

    def test_zero_probability_is_inf(self, coin10):
        # k=5 heads from n=1 coin is impossible
        assert surprisal(coin10, "joint", (1, 5)) == math.inf

    @pytest.mark.parametrize("n", [1, 2, 10, 35, 100])
    def test_is_the_negated_table_entry_bit_for_bit(self, bsc25, n):
        # every kind and symbol, zero-probability entries (+inf) included
        for model in (build_coin_model(n, 0.4), bsc25):
            xs, ys = model.hypothesis_values, model.observation_values
            for kind, table, symbols in (
                ("prior", model.log2_prior, xs),
                ("y-marginal", model.log2_y_marginal, ys),
                ("joint", model.log2_joint.ravel(), [(x, y) for x in xs for y in ys]),
            ):
                got = np.array([surprisal(model, kind, s) for s in symbols])
                assert np.array_equal(got.view(np.uint64), (-table).view(np.uint64)), kind

    def test_bad_kind(self, coin10):
        with pytest.raises(ValueError):
            surprisal(coin10, "posterior", 1)


class TestJsonRoundTrip:
    def test_round_trip_exact(self, coin10):
        doc = coin10.to_json_dict()
        back = DiscreteJointModel.from_json_dict(doc)
        assert back.hypothesis_values == coin10.hypothesis_values
        assert back.observation_values == coin10.observation_values
        np.testing.assert_array_equal(back.prior, coin10.prior)
        np.testing.assert_array_equal(back.likelihood, coin10.likelihood)

    def test_missing_field_rejected(self, coin10):
        doc = coin10.to_json_dict()
        del doc["prior"]
        with pytest.raises(InvalidDistributionError):
            DiscreteJointModel.from_json_dict(doc)


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([0, 1, 2, 10**400, -(10**400)])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=3)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)
MODEL_FIELDS = ("hypothesis_values", "observation_values", "prior", "likelihood")


@st.composite
def model_documents(draw):
    """Arbitrary JSON, or a model document whose fields are a valid model's
    (bsc25 or the one-hypothesis model), arbitrary JSON, or deleted."""
    if draw(st.booleans()):
        return draw(json_values)
    base = draw(st.sampled_from([build_bsc_model(0.25), build_constant_model(2)]))
    doc = base.to_json_dict()
    for name in MODEL_FIELDS:
        choice = draw(st.sampled_from(["keep", "keep", "fuzz", "drop"]))
        if choice == "fuzz":
            doc[name] = draw(json_values)
        elif choice == "drop":
            del doc[name]
    return doc


class TestJsonFuzz:
    @settings(max_examples=400, deadline=None)
    @given(doc=model_documents())
    def test_valid_model_or_value_error(self, doc):
        # any parsed JSON document: a valid model, or a ValueError (which
        # InvalidDistributionError is) the CLI reports with exit code 3
        try:
            model = DiscreteJointModel.from_json_dict(doc)
        except ValueError:
            return
        assert abs(model.prior.sum() - 1.0) <= 1e-12
        assert model.likelihood.shape == (model.n_hypotheses, model.n_observations)
        assert np.isfinite(model.h_x) and np.isfinite(model.h_xy)

    @pytest.mark.parametrize(
        "doc",
        [
            5,
            [1, 2],
            "model",
            None,
            {"hypothesis_values": 5, "observation_values": [0], "prior": [1.0], "likelihood": [[1.0]]},
            {"hypothesis_values": [0], "observation_values": [0], "prior": {"a": 1}, "likelihood": [[1.0]]},
            {"hypothesis_values": [0], "observation_values": [0], "prior": [10**400], "likelihood": [[1.0]]},
        ],
        ids=["int", "list", "string", "null", "int-labels", "object-prior", "huge-prior"],
    )
    def test_malformed_document_is_invalid_distribution(self, doc):
        with pytest.raises(InvalidDistributionError):
            DiscreteJointModel.from_json_dict(doc)

    @pytest.mark.parametrize("label", [[1], {}, None], ids=["list", "object", "null"])
    def test_non_scalar_label_rejected(self, label):
        doc = build_constant_model(2).to_json_dict()
        doc["hypothesis_values"] = [label]
        with pytest.raises(ValueError, match="labels must be integers"):
            DiscreteJointModel.from_json_dict(doc)


COIN3 = build_coin_model(3, 0.4)
P = TypicalityParams(0.25, 2)

# Per public entry point: a bad count or real value, and the name of the
# argument its ValueError must start with.
REFUSALS = {
    "run_experiment-seed--1": ("seed", lambda: run_experiment(COIN3, "sap", P, 10, -1)),
    "sweep-seed--1": ("seed", lambda: sweep([3], [0.4], [2], [0.25], ["sap"], 10, -1)),
    "trials-0": ("trials", lambda: run_experiment(COIN3, "sap", P, 0, 0)),
    "trials-2^63": ("trials", lambda: run_experiment(COIN3, "sap", P, 2**63, 0)),
    "sweep-trials-0": ("trials", lambda: sweep([3], [0.4], [2], [0.25], ["sap"], 0, 0)),
    "workers-0": ("workers", lambda: run_experiment(COIN3, "sap", P, 10, 0, workers=0)),
    "extension-0": ("extension", lambda: TypicalityParams(0.25, 0)),
    "sample_extension-0": (
        "extension", lambda: sample_extension(COIN3, 0, np.random.default_rng(0))
    ),
    "N-0": ("N", lambda: build_coin_model(0, 0.4)),
    "N-513": ("N", lambda: build_coin_model(COIN_N_CAP + 1, 0.4)),
    "identity-n-0": ("n", lambda: build_identity_model(0)),
    "constant-n-0": ("n", lambda: build_constant_model(0)),
    "size--1": ("size", lambda: sap_sample(posterior(COIN3, 1), np.random.default_rng(0), -1)),
    "size-2.5": ("size", lambda: sap_sample(posterior(COIN3, 1), np.random.default_rng(0), 2.5)),
    "size-True": (
        "size", lambda: sap_sample(posterior(COIN3, 1), np.random.default_rng(0), True)
    ),
    "epsilon-0": ("epsilon", lambda: TypicalityParams(0, 2)),
    "epsilon-inf": ("epsilon", lambda: TypicalityParams(math.inf, 2)),
    "epsilon-True": ("epsilon", lambda: TypicalityParams(True, 2)),
    "theta-str": ("theta", lambda: build_coin_model(3, "0.4")),
    "theta-1.5": ("theta", lambda: build_coin_model(3, 1.5)),
    "crossover-True": ("crossover", lambda: build_bsc_model(True)),
    "crossover-str": ("crossover", lambda: build_bsc_model("0.4")),
    "surprisal-joint-1": ("symbol", lambda: surprisal(COIN3, "joint", 1)),
}


class TestInputChecks:
    """Every count and real value an entry point takes passes one check,
    model._integer or model._real, whose ValueError names the argument."""

    @pytest.mark.parametrize("name, call", REFUSALS.values(), ids=REFUSALS.keys())
    def test_refusal_names_the_argument(self, name, call):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} "):
            call()

    def test_seed_message(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run_experiment(COIN3, DecisionRule.SAP, P, 10, -1)

    def test_integer_bounds_are_inclusive(self):
        assert model_module._integer("n", 1, 1, 3) == 1
        assert model_module._integer("n", 3, 1, 3) == 3
        with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
            model_module._integer("n", 0, 1, 3)
        with pytest.raises(ValueError, match=r"^n must be <= 3, got 4$"):
            model_module._integer("n", 4, 1, 3)
        assert model_module._integer("k", -(10**30)) == -(10**30)  # no bounds

    def test_integer_takes_numpy_integers_as_ints(self):
        n = model_module._integer("n", np.int64(5), 1, 10)
        assert n == 5 and type(n) is int
        assert type(model_module._integer("n", np.uint32(7), 0)) is int

    @pytest.mark.parametrize(
        "value", [True, False, np.bool_(True), 2.0, np.float64(3), "3"],
        ids=["True", "False", "np.bool_", "2.0", "np.float64", "str"],
    )
    def test_integer_refuses_bools_and_non_integers(self, value):
        with pytest.raises(ValueError, match=r"^n must be an integer, got "):
            model_module._integer("n", value, 0)

    def test_integer_past_int64_refused_without_overflow(self):
        with pytest.raises(ValueError, match=rf"^trials must be <= {sys.maxsize}, got 1000"):
            model_module._integer("trials", 10**400, 1, sys.maxsize)

    def test_real_returns_floats(self):
        for value, want in [(np.float32(0.25), 0.25), (3, 3.0), (np.int64(2), 2.0)]:
            got = model_module._real("x", value)
            assert got == want and type(got) is float
        assert model_module._real("x", 10**400) == math.inf
        assert model_module._real("x", -(10**400)) == -math.inf
        assert math.isnan(model_module._real("x", math.nan))

    @pytest.mark.parametrize(
        "value", [True, np.bool_(False), "0.4", None, 1j],
        ids=["True", "np.bool_", "str", "None", "complex"],
    )
    def test_real_refuses_bools_and_non_reals(self, value):
        with pytest.raises(ValueError, match=r"^x must be a real number, got "):
            model_module._real("x", value)
