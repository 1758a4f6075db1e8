import concurrent.futures
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_decide
from titest import (
    DecisionRule,
    DiscreteJointModel,
    EnumerationTooLargeError,
    SequencePair,
    TypicalityParams,
    achievability_check,
    build_bsc_model,
    build_coin_model,
    build_constant_model,
    converse_check,
    entropy,
    extended_fano_check,
    is_jointly_typical,
    run_experiment,
    run_trial,
    sweep,
    typical_set_census,
)
from titest import experiment
from titest.cli import render_sweep_csv
from titest.experiment import SWEEP_COLUMNS, Z_95, _block_bounds, _run_block
from titest.rules import CdfGuide, _symbol_law, inverse_cdf_pick
from titest.typicality import BOUNDARY_ATOL, jointly_typical_rows


def trial_rng(seed, i):
    return np.random.default_rng(np.random.SeedSequence([seed, i]))


def params(eps, m):
    return TypicalityParams(epsilon=eps, extension=m)


class TestRunTrial:
    def test_identity_always_succeeds(self, identity4):
        for rule in DecisionRule:
            t = run_trial(identity4, rule, params(0.1, 8), trial_rng(1, 0))
            assert t.success
            assert t.decided == t.pair.x_seq
            assert t.decided_surprisal_rate == pytest.approx(0.0, abs=1e-12)
            assert t.posterior_entropy_rate == pytest.approx(0.0, abs=1e-12)

    def test_constant_uniform_always_succeeds(self, constant2):
        # every sequence is rate-exact: all three deviations are zero
        for i in range(10):
            t = run_trial(constant2, DecisionRule.SAP, params(0.1, 16), trial_rng(2, i))
            assert t.success
            assert t.posterior_entropy_rate == pytest.approx(1.0, abs=1e-12)

    def test_coin35_map_fails_and_underconcentrates(self, coin35):
        # MAP picks posterior modes, so its surprisal rate sits well below
        # H(X|Y); the decided sequence cannot be conditionally typical
        p = params(0.05, 64)
        rates = []
        for i in range(60):
            t = run_trial(coin35, DecisionRule.MAP, p, trial_rng(9, i))
            assert not t.success
            rates.append(t.decided_surprisal_rate)
        assert np.mean(rates) < coin35.h_x_given_y - 2 * 0.05

    def test_success_matches_predicate(self, coin10):
        p = params(0.25, 12)
        for rule in DecisionRule:
            for i in range(25):
                t = run_trial(coin10, rule, p, trial_rng(5, i))
                verdict = is_jointly_typical(
                    SequencePair(t.decided, t.pair.y_seq), coin10, p
                )
                assert t.success == verdict.jointly_typical

    def test_rates_match_direct_computation(self, coin10):
        t = run_trial(coin10, DecisionRule.MEAP, params(0.25, 6), trial_rng(8, 3))
        h_cols = [
            float(coin10.posterior_col_entropy[coin10.y_index(y)]) for y in t.pair.y_seq
        ]
        assert t.posterior_entropy_rate == pytest.approx(np.mean(h_cols), abs=1e-12)
        surps = [
            -math.log2(coin10.posterior_matrix[coin10.x_index(d), coin10.y_index(y)])
            for d, y in zip(t.decided, t.pair.y_seq)
        ]
        assert t.decided_surprisal_rate == pytest.approx(np.mean(surps), abs=1e-12)

    def test_same_stream_same_observations_across_rules(self, coin10):
        # x and y consume the first 2M uniforms regardless of the rule
        p = params(0.25, 10)
        t_map = run_trial(coin10, DecisionRule.MAP, p, trial_rng(4, 7))
        t_sap = run_trial(coin10, DecisionRule.SAP, p, trial_rng(4, 7))
        assert t_map.pair == t_sap.pair

    def test_epsilon_monotone_success_per_trial(self, coin10):
        for i in range(40):
            lo = run_trial(coin10, DecisionRule.SAP, params(0.15, 8), trial_rng(6, i))
            hi = run_trial(coin10, DecisionRule.SAP, params(0.35, 8), trial_rng(6, i))
            assert lo.pair == hi.pair and lo.decided == hi.decided
            if lo.success:
                assert hi.success


@st.composite
def small_models(draw):
    """Random models up to 4 x 4 with exact zeros, ties and unsorted labels."""
    n_x = draw(st.integers(1, 4))
    n_y = draw(st.integers(1, 4))

    def weights(n):
        w = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
        return np.array(w, dtype=float) / sum(w)

    return DiscreteJointModel(
        hypothesis_values=tuple(draw(st.permutations(range(n_x)))),
        observation_values=tuple(range(n_y)),
        prior=weights(n_x),
        likelihood=np.array([weights(n_y) for _ in range(n_x)]),
    )


def compare_and_sum_pick(probs, u):
    """One inverse-CDF pick, written out: the first index whose running sum
    exceeds u, clipped to the last index."""
    cdf = np.cumsum(probs)
    return min(int((cdf <= u).sum()), len(cdf) - 1)


def reference_block(model, rule, eps, m, seed, lo, hi):
    """Trials [lo, hi) one at a time: random(M) for x, random(M) for y and
    (SAP only) a third random(M) for the decisions, each picked by a written
    out compare-and-sum, then a scalar typicality judgement. A deterministic
    rule decides each observation once, through oracle_decide."""
    h_x = entropy(model.prior)
    h_y = entropy(model.y_marginal)
    h_xy = entropy(model.joint.ravel())
    ascending = np.argsort(model.hypothesis_values)
    if rule is not DecisionRule.SAP:
        choice = {
            y: ascending[oracle_decide(rule.value, model.posterior_matrix[ascending, y])]
            for y in range(model.n_observations)
            if model.y_marginal[y] > 0
        }
    success, post_rate, dec_rate = [], [], []
    for i in range(lo, hi):
        rng = trial_rng(seed, i)
        xi = np.array([compare_and_sum_pick(model.prior, u) for u in rng.random(m)])
        yi = np.array([
            compare_and_sum_pick(model.likelihood[x], u) for x, u in zip(xi, rng.random(m))
        ])
        if rule is DecisionRule.SAP:
            decided = [
                ascending[compare_and_sum_pick(model.posterior_matrix[ascending, y], u)]
                for y, u in zip(yi, rng.random(m))
            ]
        else:
            decided = [choice[y] for y in yi]
        decided = np.array(decided, dtype=np.intp)
        band = eps - BOUNDARY_ATOL
        success.append(
            abs(-model.log2_prior[decided].mean() - h_x) < band
            and abs(-model.log2_y_marginal[yi].mean() - h_y) < band
            and abs(-model.log2_joint[decided, yi].mean() - h_xy) < band
        )
        post_rate.append(model.posterior_col_entropy[yi].mean())
        dec_rate.append(-np.log2(model.posterior_matrix[decided, yi]).mean())
    return np.array(success), np.array(post_rate), np.array(dec_rate)


@st.composite
def block_groups(draw):
    """1 to 4 experiments mixing models, rules and M, so their widths differ."""
    return [
        (
            draw(small_models()),
            draw(st.sampled_from(list(DecisionRule))),
            draw(st.integers(1, 12)),
            draw(st.sampled_from([0.05, 0.25, 0.6])),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestBlockKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        group=block_groups(),
        seed=st.integers(0, 2**32 - 1),
        lo=st.integers(0, 10_000),
        n=st.sampled_from([1, 2, 255, 256, 257, 513]),
    )
    def test_block_equals_trial_at_a_time_reference(self, group, seed, lo, n):
        experiments = [
            (model, rule, params(eps, m))
            for model, rule, m, eps in group
        ]
        blocks = _run_block(experiments, seed, lo, lo + n)
        assert len(blocks) == len(group)
        # each member reads its own leading columns of the group's one stream
        for (model, rule, m, eps), got in zip(group, blocks):
            want = reference_block(model, rule, eps, m, seed, lo, lo + n)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
            # run_trial is a block of one on the same kernel
            t = run_trial(model, rule, params(eps, m), trial_rng(seed, lo + n - 1))
            assert t.success == got[0][-1]
            assert t.posterior_entropy_rate == got[1][-1]
            assert t.decided_surprisal_rate == got[2][-1]

    def test_shared_picks_equal_experiments_run_alone(self):
        # experiments on one model object at one M share their x/y picks;
        # each must equal the same experiment in a block of its own
        model = build_coin_model(7, 0.3)
        experiments = [
            (model, rule, params(eps, m))
            for m in (1, 4) for rule in DecisionRule for eps in (0.1, 0.4)
        ]
        shared = _run_block(experiments, 5, 100, 700)
        for one, got in zip(experiments, shared):
            (alone,) = _run_block([one], 5, 100, 700)
            for g, w in zip(got, alone):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(
        model=small_models(),
        eps=st.sampled_from([0.05, 0.25, 0.6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_successful_trials_sit_in_the_converse_band(self, model, eps, seed):
        # s_post = s_xy - s_y per decided pair, so a trial whose y and joint
        # rates are each within epsilon - BOUNDARY_ATOL of H(Y) and H(X,Y) has
        # a decided-posterior surprisal rate within 2 epsilon of H(X|Y), for
        # any rule and M; the 2 BOUNDARY_ATOL margin covers the rounding
        # between the posterior table and the joint and y-marginal ones
        experiments = [(model, rule, params(eps, m)) for rule in DecisionRule for m in (1, 3, 8, 13)]
        ti = model.h_x - model.h_x_given_y
        for success, _, dec_rate in _run_block(experiments, seed, 0, 300):
            accuracy = model.h_x - dec_rate[success]
            assert np.all((ti - 2 * eps < accuracy) & (accuracy < ti + 2 * eps))

    @pytest.mark.usefixtures("every_block_pays")
    def test_worker_counts_straddling_chunks(self, coin10):
        docs = [
            json.dumps(
                run_experiment(
                    coin10, DecisionRule.SAP, params(0.25, 10), 517, 31, workers=w
                ).to_json_dict()
            )
            for w in (1, 2, 3)
        ]
        assert docs[0] == docs[1] == docs[2]


def posterior_cdf(model):
    """(order, cdf): the storage indices in ascending label order, and row j
    the CDF of P(x | y_j) in that order, built from posterior_matrix rather
    than read from the model's posterior_guide."""
    order = np.argsort(model.hypothesis_values, kind="stable")
    return order, np.cumsum(model.posterior_matrix[order], axis=0).T


def law_choices(model, rule, yi):
    """A deterministic rule's decided x at each y index of yi, read from its
    decided pairs' law as run_trial reads it."""
    law = _symbol_law(model, rule)
    return law.x[np.searchsorted(law.y, yi)]


def compare_and_sum_kernel(model, rule, u, m, epsilon):
    """_draw and _decide with every pick comparing u against every CDF entry of
    its row (inverse_cdf_pick), as before the guide tables."""
    xi = inverse_cdf_pick(model.prior_cdf, u[:, :m])
    yi = inverse_cdf_pick(model.lik_cdf[xi], u[:, m : 2 * m])
    if rule.is_stochastic:
        order, cdf = posterior_cdf(model)
        decided = order[inverse_cdf_pick(cdf[yi], u[:, 2 * m :])]
    else:
        decided = law_choices(model, rule, yi)
    return (
        xi,
        yi,
        decided,
        jointly_typical_rows(model, decided, yi, epsilon),
        model.posterior_col_entropy[yi].mean(axis=1),
        -model.log2_posterior[decided, yi].mean(axis=1),
    )


def plant_adversarial(u, cdf, rng):
    """Overwrite about a quarter of u with CDF values, their neighbours,
    bucket edges and edge - ulp, each below 1."""
    values = np.unique(cdf)
    edges = np.arange(1024) / 1024
    pool = np.concatenate([
        values, np.nextafter(values, 0.0), np.nextafter(values, 1.0), edges, np.nextafter(edges, 0.0)
    ])
    pool = pool[(pool >= 0.0) & (pool < 1.0)]
    hit = rng.random(u.shape) < 0.25
    u[hit] = rng.choice(pool, size=int(hit.sum()))


class TestGuidedKernel:
    @pytest.mark.parametrize(
        "m, layout",
        # a C-ordered case keeps its id, an F-ordered one gains "-F"
        [
            pytest.param(m, order, id=f"{m}{tag}")
            for order, tag in [("C", ""), ("F", "-F")]
            for m in (1, 3, 10)
        ],
    )
    @pytest.mark.parametrize("rule", list(DecisionRule))
    @pytest.mark.parametrize("name", ["coin1", "coin2", "coin5", "coin10", "coin35", "bsc25"])
    def test_equals_compare_and_sum_kernel(self, name, rule, m, layout):
        model = build_bsc_model(0.25) if name == "bsc25" else build_coin_model(int(name[4:]), 0.4)
        rng = np.random.default_rng([*name.encode(), m, list(DecisionRule).index(rule)])
        u = rng.random((2048, (3 if rule.is_stochastic else 2) * m))
        plant_adversarial(u[:, :m], model.prior_cdf, rng)
        plant_adversarial(u[:, m : 2 * m], model.lik_cdf, rng)
        if rule.is_stochastic:
            plant_adversarial(u[:, 2 * m :], posterior_cdf(model)[1], rng)
        # the kernel gives the same bits on draw-major (F-ordered) uniforms,
        # the layout the trial streams hold, as on C-ordered ones
        u_kernel = np.asfortranarray(u) if layout == "F" else u
        xi, yi, post_rate, y_rate = experiment._draw(model, u_kernel, m)
        law = _symbol_law(model, rule)
        table = experiment._rule_table(model, law, rule)
        decided, success, dec_rate = experiment._decide(
            model, rule, table, yi, y_rate, u_kernel, m, 0.25
        )
        if decided is None:  # a deterministic rule reads its rates from its table
            decided = law_choices(model, rule, yi)
        got = xi, yi, decided, success, post_rate, dec_rate
        want = compare_and_sum_kernel(model, rule, u, m, 0.25)
        for g, w in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(g, w)
        for g, w in zip(got[3:], want[3:]):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(model=small_models())
    def test_sap_table_is_the_models_on_the_joint_support(self, model):
        # indexed by x-hat |Y| + y: the model's x, joint and posterior log2
        # tables where the joint is positive and -inf everywhere else, so a
        # pick on a zero-posterior x-hat fails as its joint surprisal did
        sap = DecisionRule.SAP
        table = experiment._rule_table(model, _symbol_law(model, sap), sap)
        x, _ = np.indices(model.joint.shape)
        tables = [model.log2_prior[x], model.log2_joint, model.log2_posterior]
        want = np.where(model.joint > 0, tables, -np.inf).reshape(3, -1)
        assert table.shape == want.shape and table.tobytes() == want.tobytes()

    def test_guides_are_built_by_draws_only(self, monkeypatch):
        def refuse(self, cdf):
            raise AssertionError("guide built")

        monkeypatch.setattr(CdfGuide, "__init__", refuse)
        model = build_coin_model(3, 0.4)
        typical_set_census(model, params(0.25, 3))
        for rule in DecisionRule:
            extended_fano_check(model, rule, params(0.25, 3))
        with pytest.raises(AssertionError, match="guide built"):
            run_trial(model, DecisionRule.MAP, params(0.25, 3), trial_rng(0, 0))
        # only a SAP draw builds the posterior guide
        monkeypatch.undo()
        run_trial(model, DecisionRule.MAP, params(0.25, 3), trial_rng(0, 0))
        assert "prior_guide" in vars(model) and "posterior_guide" not in vars(model)
        run_trial(model, DecisionRule.SAP, params(0.25, 3), trial_rng(0, 0))
        assert "posterior_guide" in vars(model)


class TestRunExperiment:
    def test_identity_report(self, identity4):
        rep = run_experiment(identity4, DecisionRule.MAP, params(0.2, 8), 1000, 0)
        assert rep.p_f_hat == 0.0
        assert rep.success_count == 1000 and rep.failure_count == 0
        assert rep.accuracy_hat_bits == pytest.approx(2.0, abs=1e-12)
        assert rep.ti_bits == pytest.approx(2.0, abs=1e-12)
        assert not rep.zero_success

    def test_constant_channel_zero_accuracy(self, constant2):
        rep = run_experiment(constant2, DecisionRule.SAP, params(0.1, 16), 1000, 1)
        assert rep.accuracy_hat_bits == pytest.approx(0.0, abs=1e-9)
        assert rep.h_hat_bits == pytest.approx(1.0, abs=1e-9)

    def test_accuracy_identity_eq28(self, coin10):
        rep = run_experiment(coin10, DecisionRule.SAP, params(0.25, 10), 500, 42)
        assert rep.accuracy_hat_bits + rep.h_hat_bits == pytest.approx(
            rep.h_x_bits, abs=1e-9
        )
        assert rep.success_count + rep.failure_count == 500
        assert 0.0 <= rep.p_f_hat <= 1.0

    def test_zero_success_marker(self, coin35):
        rep = run_experiment(coin35, DecisionRule.MAP, params(0.05, 64), 50, 9)
        assert rep.zero_success
        assert rep.h_hat_bits is None
        assert rep.accuracy_hat_bits is None
        assert rep.alt_h_hat_bits is None
        assert rep.p_f_hat == 1.0

    def test_validation(self, coin10):
        with pytest.raises(ValueError):
            run_experiment(coin10, DecisionRule.SAP, params(0.25, 4), 0, 0)
        with pytest.raises(ValueError):
            run_experiment(coin10, DecisionRule.SAP, params(0.25, 4), 10, 0, workers=0)
        # more trials than an array can index: refused before any allocation
        for trials in (2**63, 10**400):
            with pytest.raises(ValueError, match="trials must be <= 9223372036854775807"):
                run_experiment(coin10, DecisionRule.SAP, params(0.25, 4), trials, 0)

    def test_numpy_integers_give_plain_reports(self, coin10):
        # numpy counts run as the ints they equal, and the report, the exact
        # records and the sweep rows stay json-serialisable
        p = TypicalityParams(0.25, np.int64(3))
        got = run_experiment(coin10, DecisionRule.SAP, p, np.int64(50), np.uint32(4))
        want = run_experiment(coin10, DecisionRule.SAP, params(0.25, 3), 50, 4)
        assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
        model = build_coin_model(3, 0.4)
        for rule in DecisionRule:
            assert json.dumps(extended_fano_check(model, rule, p).to_json_dict()) == json.dumps(
                extended_fano_check(model, rule, params(0.25, 3)).to_json_dict()
            )
        rows = sweep(
            [np.int64(5)], [0.4], [np.int64(3)], [0.25], [DecisionRule.MAP], np.int64(20), np.int64(1)
        )
        assert json.dumps(rows) == json.dumps(sweep([5], [0.4], [3], [0.25], [DecisionRule.MAP], 20, 1))

    @pytest.mark.parametrize("trials, seed, workers", [
        (True, 0, 1), (10, True, 1), (2.0, 0, 1), (10, 1.5, 1),
        (10, 0, 2.5), (10, 0, True), (10, 0, "2"),
    ], ids=["True-0", "10-True", "2.0-0", "10-1.5", "workers-2.5", "workers-True", "workers-str"])
    def test_counts_must_be_integers(self, coin10, trials, seed, workers):
        with pytest.raises(ValueError, match="must be an integer"):
            run_experiment(coin10, DecisionRule.SAP, params(0.25, 3), trials, seed, workers)
        with pytest.raises(ValueError, match="must be an integer"):
            sweep([5], [0.4], [3], [0.25], [DecisionRule.MAP], trials, seed, workers)

    def test_m_bounded_by_one_row(self, coin10, monkeypatch):
        # a SAP row of 3M doubles fills 1 GiB at the bound; nothing runs here
        blocks = []

        def one_trial(experiments, seed, lo, hi):
            blocks.append(experiments[0][2].extension)
            return [(np.zeros(1, dtype=bool), np.zeros(1), np.zeros(1))]

        monkeypatch.setattr(experiment, "_run_block", one_trial)
        bound = experiment._MAX_TRIAL_M
        assert 3 * 8 * bound <= 1 << 30 < 3 * 8 * (bound + 1)
        run_experiment(coin10, DecisionRule.SAP, params(0.25, bound), 1, 0)
        with pytest.raises(ValueError, match=f"M must be <= {bound}"):
            run_experiment(coin10, DecisionRule.SAP, params(0.25, bound + 1), 1, 0)
        assert blocks == [bound]

    def test_run_trial_m_bounded_by_one_row(self, coin10):
        # refused before any uniform is drawn: the row at M = bound + 1 is 1 GiB
        class NoDraws:
            def random(self, *args, **kwargs):
                raise AssertionError("random() called")

        bound = experiment._MAX_TRIAL_M
        for rule in (DecisionRule.SAP, DecisionRule.MAP):
            with pytest.raises(ValueError, match=f"M must be <= {bound}"):
                run_trial(coin10, rule, params(0.25, bound + 1), NoDraws())

    def test_seed_reproducible(self, coin10):
        a = run_experiment(coin10, DecisionRule.SAP, params(0.25, 6), 400, 77)
        b = run_experiment(coin10, DecisionRule.SAP, params(0.25, 6), 400, 77)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

    @pytest.mark.usefixtures("every_block_pays")
    def test_worker_count_invariant(self, coin10):
        docs = [
            json.dumps(
                run_experiment(
                    coin10, DecisionRule.SAP, params(0.25, 6), 500, 123, workers=w
                ).to_json_dict()
            )
            for w in (1, 2, 3)
        ]
        assert docs[0] == docs[1] == docs[2]

    def test_report_json_omits_workers(self, coin10):
        doc = run_experiment(coin10, DecisionRule.MAP, params(0.25, 4), 50, 0).to_json_dict()
        assert "workers" not in doc

    def test_sap_alt_estimator_consistency(self, coin10):
        # unconditional mean decided surprisal estimates H(X|Y) for SAP
        p = params(0.25, 4)
        rates = [
            run_trial(coin10, DecisionRule.SAP, p, trial_rng(13, i)).decided_surprisal_rate
            for i in range(3000)
        ]
        half = Z_95 * np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(np.mean(rates) - coin10.h_x_given_y) < 2 * half

    def test_sap_decided_joint_matches_true_joint(self):
        # empirical law of (decided, observed) symbols under SAP vs P(x, y)
        model = build_coin_model(5, 0.4)
        p = params(0.25, 20)
        counts = np.zeros((5, 6))
        n_trials = 5000
        for i in range(n_trials):
            t = run_trial(model, DecisionRule.SAP, p, trial_rng(21, i))
            for d, y in zip(t.decided, t.pair.y_seq):
                counts[d - 1, y] += 1
        n_symbols = n_trials * 20
        emp = counts / n_symbols
        tv = 0.5 * np.abs(emp - model.joint).sum()
        assert tv < 3 * math.sqrt(model.joint.size / n_symbols)

    def test_exact_and_monte_carlo_failure_agree(self):
        model = build_coin_model(6, 0.4)
        p = params(0.25, 4)
        for rule in DecisionRule:
            exact = extended_fano_check(model, rule, p).p_f
            rep = run_experiment(model, rule, p, 4000, 11)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / 4000)
            assert abs(rep.p_f_hat - exact) < 3 * sigma + 1e-9, rule


class TestAchievability:
    def test_identity_passes(self, identity4):
        p = params(0.2, 8)
        rec = achievability_check(run_experiment(identity4, DecisionRule.MAP, p, 400, 0))
        assert rec.holds and rec.accuracy_ok and rec.p_f_ok
        assert rec.band_lo < 2.0 < rec.band_hi

    def test_zero_success_skips_accuracy_clause(self, coin35):
        p = params(0.05, 64)
        rec = achievability_check(run_experiment(coin35, DecisionRule.MAP, p, 50, 9))
        assert rec.accuracy_ok is None
        assert not rec.p_f_ok and not rec.holds

    def test_record_fields(self, coin10):
        p = params(0.25, 10)
        rep = run_experiment(coin10, DecisionRule.SAP, p, 2000, 3)
        rec = achievability_check(rep)
        assert rec.band_lo == pytest.approx(rep.ti_bits - 0.5 - rec.delta, abs=1e-12)
        assert rec.band_hi == pytest.approx(rep.ti_bits + 0.5 + rec.delta, abs=1e-12)
        assert rec.p_f_bound == pytest.approx(0.5 + 3 * rec.sigma, abs=1e-12)
        assert rec.accuracy_ok  # the accuracy clause holds at this size

    def test_epsilon_is_the_reports_own(self, coin10):
        # judged at epsilon 0.5 this report held with a cap of 1.03; at its own 0.25 it fails
        rep = run_experiment(coin10, DecisionRule.SAP, params(0.25, 10), 2000, 7)
        rec = achievability_check(rep)
        assert rec.epsilon == 0.25
        assert rec.band_lo == rep.ti_bits - 0.5 - rec.delta
        assert rec.p_f_bound == pytest.approx(0.533, abs=5e-4)
        assert not rec.p_f_ok and not rec.holds


class TestExtendedFano:
    def test_identity_m2(self, identity4):
        rec = extended_fano_check(identity4, DecisionRule.MAP, params(0.2, 2))
        assert rec.holds
        assert rec.p_f == 0.0
        assert rec.h_e_given_y == pytest.approx(0.0, abs=1e-12)
        assert rec.lhs == pytest.approx(0.0, abs=1e-12)
        assert rec.rhs >= 1.0

    def test_bsc_map_m4_frozen(self, bsc25):
        rec = extended_fano_check(bsc25, DecisionRule.MAP, params(0.25, 4))
        assert rec.holds
        assert rec.p_f == pytest.approx(1.0, abs=1e-12)
        assert rec.h_success is None
        assert rec.lhs == pytest.approx(3.2451124978, abs=1e-9)
        assert rec.rhs == pytest.approx(6.0, abs=1e-9)

    def test_bsc_sap_m4_frozen(self, bsc25):
        rec = extended_fano_check(bsc25, DecisionRule.SAP, params(0.25, 4))
        assert rec.holds
        assert rec.p_f == pytest.approx(0.578125, abs=1e-9)
        assert rec.h_e_given_y == pytest.approx(0.982316608, abs=1e-8)
        assert rec.lhs == pytest.approx(4.2274291059, abs=1e-8)
        assert rec.rhs == pytest.approx(5.259656835, abs=1e-8)

    def test_bsc_m2_both_rules(self, bsc25):
        for rule in (DecisionRule.MAP, DecisionRule.SAP):
            rec = extended_fano_check(bsc25, rule, params(0.25, 2))
            assert rec.holds

    def test_h_term_is_m_times_conditional_entropy(self, bsc25):
        rec = extended_fano_check(bsc25, DecisionRule.SAP, params(0.25, 3))
        assert rec.h_x_given_y == pytest.approx(
            3 * bsc25.h_x_given_y, abs=1e-9
        )

    def test_cap_enforced(self, coin10):
        # MAP walks its 11 decided pairs: 11 * C(23, 11) = 14,872,858 symbols at M=12
        with pytest.raises(EnumerationTooLargeError):
            extended_fano_check(coin10, DecisionRule.MAP, params(0.25, 12))

    # coin N: the TI and each rule's (P_f, accuracy H(X) - h_success / M) at
    # epsilon 0.25, M=10
    ACCEPTANCE_POINT = {
        10: (0.552159, {
            DecisionRule.MAP: (0.996301, 0.542329),
            DecisionRule.EAP: (0.472710, 0.543723),
            DecisionRule.MEAP: (0.940692, 0.560797),
        }),
        5: (0.302817, {
            DecisionRule.MAP: (0.972546, 0.352802),
            DecisionRule.EAP: (0.335716, 0.295915),
            DecisionRule.MEAP: (0.785664, 0.335404),
        }),
    }

    @pytest.mark.parametrize("n", [10, 5])
    def test_deterministic_rules_at_the_acceptance_point(self, n, coin10, coin10_fano_m10):
        model = coin10 if n == 10 else build_coin_model(n, 0.4)
        ti, want = self.ACCEPTANCE_POINT[n]
        assert model.ti == pytest.approx(ti, abs=5e-7)
        records = coin10_fano_m10 if n == 10 else {
            rule: extended_fano_check(model, rule, params(0.25, 10)) for rule in want
        }
        for rule, (p_f, accuracy) in want.items():
            rec = records[rule]
            assert rec.holds, rule
            assert rec.p_f == pytest.approx(p_f, abs=5e-7), rule
            assert model.h_x - rec.h_success / 10 == pytest.approx(accuracy, abs=5e-7), rule

    def test_bsc_sap_failure_is_not_monotone_in_m(self, bsc25):
        # the lattice of y-types moves the band edges: P_f rises from M=10 to 11
        want = {10: 0.1344404221, 11: 0.3117237091, 22: 0.1352379098, 40: 0.0162570415}
        for m, p_f in want.items():
            got = extended_fano_check(bsc25, DecisionRule.SAP, params(0.25, m)).p_f
            assert got == pytest.approx(p_f, abs=5e-11), m

    def test_exact_pf_un_enumerable_raises(self, coin10):
        with pytest.raises(EnumerationTooLargeError):
            extended_fano_check(coin10, DecisionRule.SAP, params(0.25, 10))


class TestConverse:
    def test_identity_equality_with_positive_slack(self, identity4):
        rep = run_experiment(identity4, DecisionRule.MAP, params(0.2, 8), 300, 0)
        rec = converse_check(rep)
        assert rec.holds and not rec.skipped
        assert rec.accuracy == pytest.approx(rec.ti, abs=1e-9)
        assert rec.slack > 0
        assert rec.one_over_m == pytest.approx(1 / 8, abs=1e-12)

    def test_constant_channel(self, constant2):
        rep = run_experiment(constant2, DecisionRule.MAP, params(0.1, 16), 300, 1)
        rec = converse_check(rep)
        assert rec.holds
        assert rec.accuracy == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 2, 5, 10])
    def test_coin10_sap_sweep_points(self, coin10, m):
        rep = run_experiment(coin10, DecisionRule.SAP, params(0.25, m), 2000, 3)
        rec = converse_check(rep)
        assert rec.holds and not rec.skipped

    def test_zero_success_skipped(self, coin35):
        rep = run_experiment(coin35, DecisionRule.MAP, params(0.05, 64), 50, 9)
        rec = converse_check(rep)
        assert rec.skipped and rec.holds and rec.accuracy is None
        assert rec.p_f_term == 0.0
        assert rec.slack == rec.one_over_m + rec.delta
        assert rec.bound == rec.ti + rec.slack


class TestSweep:
    def test_single_point_equals_run_experiment(self):
        rows = sweep([6], [0.4], [4], [0.25], [DecisionRule.MAP], 500, 13)
        assert len(rows) == 1
        rep = run_experiment(
            build_coin_model(6, 0.4), DecisionRule.MAP, params(0.25, 4), 500, 13
        )
        row = rows[0]
        assert row["ti_bits"] == rep.ti_bits
        assert row["accuracy_bits"] == rep.accuracy_hat_bits
        assert row["h_hat_bits"] == rep.h_hat_bits
        assert row["alt_h_hat_bits"] == rep.alt_h_hat_bits
        assert row["pf_hat"] == rep.p_f_hat
        assert row["pf_halfwidth"] == rep.p_f_halfwidth
        assert row["successes"] == rep.success_count

    def test_rows_cover_sorted_grid(self):
        rows = sweep(
            [6, 5], [0.4], [2, 1], [0.25],
            [DecisionRule.SAP, DecisionRule.MAP], 50, 2,
        )
        key = [(r["N"], r["M"], r["rule"]) for r in rows]
        assert key == [
            (5, 1, "map"), (5, 1, "sap"), (5, 2, "map"), (5, 2, "sap"),
            (6, 1, "map"), (6, 1, "sap"), (6, 2, "map"), (6, 2, "sap"),
        ]
        assert all(set(SWEEP_COLUMNS) == set(r) for r in rows)

    @pytest.mark.usefixtures("every_block_pays")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pool_per_sweep_and_rows_in_order(self, monkeypatch, workers):
        pools = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        rows = sweep(
            [6, 5], [0.4], [2, 1], [0.25], [DecisionRule.SAP, DecisionRule.MAP], 50, 2,
            workers=workers,
        )
        assert len(pools) == (1 if workers > 1 else 0)
        assert len(rows) == 8

    @pytest.mark.usefixtures("every_block_pays")
    @pytest.mark.parametrize("workers, trials", [(2, 50), (3, 2), (3, 50)])
    def test_pool_gets_one_job_per_worker(self, monkeypatch, workers, trials):
        jobs = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                jobs.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        rows = sweep(
            [6, 5], [0.4], [2, 1], [0.25], [DecisionRule.SAP, DecisionRule.MAP], trials, 2,
            workers=workers,
        )
        assert len(rows) == 8
        assert len(jobs) == min(workers, trials)

    @pytest.mark.usefixtures("every_block_pays")
    def test_pool_is_bounded_by_usable_cpus(self, monkeypatch):
        # an in-process stand-in records the pool size; no process is started
        pool_sizes, jobs = [], []

        class InProcessPool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                jobs.extend(zip(*iterables))
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        model, params = build_coin_model(3, 0.4), TypicalityParams(0.25, 2)
        pooled = run_experiment(model, DecisionRule.SAP, params, 64, 5, workers=64)
        usable = (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        )
        assert len(pool_sizes) == 1 and pool_sizes[0] <= usable
        # the trials still split into one block per requested worker
        assert len(jobs) == 64
        assert pooled == run_experiment(model, DecisionRule.SAP, params, 64, 5, workers=1)

    def test_acceptance_grid_computes_its_stream_once(self, monkeypatch):
        widths = []

        def counting_uniforms(seed_words, index, width):
            widths.append((len(index), width))
            return pcg64_uniforms(seed_words, index, width)

        pcg64_uniforms = experiment._pcg64_uniforms
        monkeypatch.setattr(experiment, "_pcg64_uniforms", counting_uniforms)
        rows = sweep([5, 15, 25, 35], [0.4], [1, 10], [0.25], list(DecisionRule), 1000, 0)
        assert len(rows) == 32
        # one chunk of 1,000 rows at the widest point, SAP at M=10
        assert widths == [(1000, 30)]

    def test_acceptance_grid_picks_once_per_model_and_m(self, monkeypatch):
        picks, chunks = [], []

        def counting_pick(model, ux, uy):
            picks.append((id(model), ux.shape[1]))
            return pick_pair(model, ux, uy)

        def counting_uniforms(seed_words, index, width):
            chunks.append(len(index))
            return pcg64_uniforms(seed_words, index, width)

        pick_pair, pcg64_uniforms = experiment._pick_pair, experiment._pcg64_uniforms
        monkeypatch.setattr(experiment, "_pick_pair", counting_pick)
        monkeypatch.setattr(experiment, "_pcg64_uniforms", counting_uniforms)
        rows = sweep(*ACCEPTANCE_GRID, experiment._STREAM_CHUNK + 1, 0)
        assert len(rows) == 32 and chunks == [experiment._STREAM_CHUNK, 1]
        # per chunk, 4 models x 2 M pick once each, whatever the four rules
        assert len(picks) == 8 * len(chunks)
        assert len(set(picks)) == 8

    @pytest.mark.usefixtures("every_block_pays")
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_equal_independent_experiments(self, workers):
        # 4,097 trials cross _STREAM_CHUNK; M = 1, 3, 10 give widths 2 to 30
        trials, seed = experiment._STREAM_CHUNK + 1, 11
        rows = sweep(
            [3, 5], [0.4], [1, 3, 10], [0.25], [DecisionRule.SAP, DecisionRule.MAP],
            trials, seed, workers=workers,
        )
        assert len(rows) == 12
        for row in rows:
            rep = run_experiment(
                build_coin_model(row["N"], row["theta"]), DecisionRule(row["rule"]),
                params(row["epsilon"], row["M"]), trials, seed,
            )
            assert row["ti_bits"] == rep.ti_bits
            assert row["accuracy_bits"] == rep.accuracy_hat_bits
            assert row["h_hat_bits"] == rep.h_hat_bits
            assert row["alt_h_hat_bits"] == rep.alt_h_hat_bits
            assert row["pf_hat"] == rep.p_f_hat
            assert row["pf_halfwidth"] == rep.p_f_halfwidth
            assert row["successes"] == rep.success_count

    def test_rule_tables_built_once_per_model_and_rule(self, monkeypatch):
        # a block builds each (model, rule)'s decided-pair law once, whatever
        # M and epsilon; SAP's too, whose table its drawn decisions gather from
        calls = []

        def counting_law(model, rule):
            calls.append((model, rule))
            return symbol_law(model, rule)

        symbol_law = experiment._symbol_law
        monkeypatch.setattr(experiment, "_symbol_law", counting_law)
        # the acceptance grid: 4 coin models x 2 M x 4 rules = 32 points
        rows = sweep([5, 15, 25, 35], [0.4], [1, 10], [0.25], list(DecisionRule), 2, 0)
        assert len(rows) == 32
        assert len(calls) == 16
        assert len({(id(model), rule) for model, rule in calls}) == 16
        # one trial builds its law once, for its table and for its choices
        calls.clear()
        run_trial(build_coin_model(5, 0.4), DecisionRule.MAP, params(0.25, 3), trial_rng(0, 0))
        assert len(calls) == 1

    def test_empty_axis_gives_empty_table(self):
        assert sweep([], [0.4], [2], [0.25], [DecisionRule.MAP], 10, 0) == []

    def test_zero_success_row_carries_markers(self):
        rows = sweep([35], [0.4], [64], [0.05], [DecisionRule.MAP], 40, 9)
        assert rows[0]["accuracy_bits"] is None
        assert rows[0]["h_hat_bits"] is None
        assert rows[0]["successes"] == 0


# The acceptance grid: 4 coin models x M in {1, 10} x 4 rules; per model,
# sum k*M = (2 + 2 + 2 + 3) * (1 + 10) = 99, so 396 doubles per trial
ACCEPTANCE_GRID = ([5, 15, 25, 35], [0.4], [1, 10], [0.25], list(DecisionRule))
# per model, sum k*M = (2 + 3) * (1 + 2) = 15, so 30 doubles per trial
SMALL_GRID = ([6, 5], [0.4], [2, 1], [0.25], [DecisionRule.SAP, DecisionRule.MAP])


@pytest.fixture
def pool_log(monkeypatch):
    """A real process pool that records its size and counts its jobs, put in
    concurrent.futures, where the pooled branch of _map_experiments imports
    it from when a call starts a pool."""
    log = {"pools": [], "jobs": 0}

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            log["pools"].append(max_workers)
            super().__init__(max_workers)

        def submit(self, *args, **kwargs):
            log["jobs"] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return log


class TestBlockSplit:
    def test_threshold_sits_at_the_measured_crossover(self):
        # coin10, M=10, SAP reads 30 doubles a trial: two processes lose at
        # 2e4 trials and win from 5e4 on a 2-vCPU host
        assert len(_block_bounds(20_000, 30, 2)) == 2
        assert len(_block_bounds(50_000, 30, 2)) == 3
        assert len(_block_bounds(200_000, 30, 2)) == 3
        # the acceptance sweep at 1,000 trials per point runs in process
        assert _block_bounds(1000, 396, 2) == [0, 1000]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_small_calls_start_no_pool(self, pool_log, workers):
        model, p = build_coin_model(10, 0.4), params(0.25, 10)
        one, many = (
            run_experiment(model, DecisionRule.SAP, p, 20_000, 7, workers=w)
            for w in (1, workers)
        )
        assert json.dumps(many.to_json_dict()) == json.dumps(one.to_json_dict())
        one, many = (
            render_sweep_csv(sweep(*ACCEPTANCE_GRID, 1000, 2026, workers=w))
            for w in (1, workers)
        )
        assert many == one
        assert pool_log == {"pools": [], "jobs": 0}

    @pytest.mark.parametrize("block_work, workers, jobs", [(1, 4, 4), (600, 4, 3), (1000, 4, 2)])
    def test_work_above_the_threshold_takes_one_pool(
        self, monkeypatch, pool_log, block_work, workers, jobs
    ):
        monkeypatch.setattr(experiment, "_BLOCK_WORK", block_work)
        trials = 50
        assert jobs == min(workers, trials, math.ceil(trials * 30 / block_work))
        pooled = sweep(*SMALL_GRID, trials, 2, workers=workers)
        assert pool_log == {"pools": [min(jobs, experiment._usable_cpus())], "jobs": jobs}
        assert render_sweep_csv(pooled) == render_sweep_csv(sweep(*SMALL_GRID, trials, 2))

    def test_split_is_bounded_by_the_work(self):
        # no list or array as long as trials or workers is built; no trial
        # runs and no process starts
        trials = workers = 10**9
        t0 = time.perf_counter()
        bounds = _block_bounds(trials, 30, workers)
        assert time.perf_counter() - t0 < 1.0
        assert 1 < len(bounds) - 1 <= math.ceil(trials * 30 / experiment._BLOCK_WORK)
        assert bounds[0] == 0 and bounds[-1] == trials
        sizes = np.diff(bounds)
        assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1

    @pytest.mark.usefixtures("every_block_pays")
    def test_spawned_workers_give_the_same_reports(self, monkeypatch):
        # spawned workers start from a fresh import: the models arrive as
        # their pickled fields and rebuild their guide tables
        pools = []

        class SpawnPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers, mp_context=multiprocessing.get_context("spawn"))

        model, p = build_coin_model(10, 0.4), params(0.25, 10)

        def reports(workers):
            rep = run_experiment(model, DecisionRule.SAP, p, 517, 31, workers=workers)
            rows = sweep(*SMALL_GRID, 517, 31, workers=workers)
            return json.dumps(rep.to_json_dict()), render_sweep_csv(rows)

        in_process = reports(1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpawnPool)
        assert reports(2) == in_process
        assert len(pools) == 2
