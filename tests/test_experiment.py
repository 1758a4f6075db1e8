import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    decide,
    entropy,
    exact_failure_probability,
    extended_fano_check,
    info_summary,
    is_jointly_typical,
    make_rule_tables,
    posterior,
    run_experiment,
    run_trial,
    sweep,
    typical_set_census,
)
from titest import experiment
from titest.experiment import SWEEP_COLUMNS, Z_95, _run_block
from titest.rules import CdfGuide, inverse_cdf_pick
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
        info = info_summary(coin35)
        tables = make_rule_tables(coin35, DecisionRule.MAP)
        rates = []
        for i in range(60):
            t = run_trial(coin35, DecisionRule.MAP, p, trial_rng(9, i), tables)
            assert not t.success
            rates.append(t.decided_surprisal_rate)
        assert np.mean(rates) < info.h_x_given_y - 2 * 0.05

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
    out compare-and-sum, then a scalar typicality judgement."""
    h_x = entropy(model.prior)
    h_y = entropy(model.y_marginal)
    h_xy = entropy(model.joint.ravel())
    ascending = np.argsort(model.hypothesis_values)
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
            decided = [
                model.x_index(decide(rule, posterior(model, model.observation_values[y])))
                for y in yi
            ]
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
            (model, make_rule_tables(model, rule), params(eps, m))
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


def compare_and_sum_kernel(model, tables, u, m, epsilon):
    """_trial_kernel with every pick comparing u against every CDF entry of
    its row (inverse_cdf_pick), as before the guide tables."""
    xi = inverse_cdf_pick(model.prior_cdf, u[:, :m])
    yi = inverse_cdf_pick(model.lik_cdf[xi], u[:, m : 2 * m])
    if tables.det_choice is not None:
        decided = tables.det_choice[yi]
    else:
        decided = tables.sap_order[inverse_cdf_pick(tables.sap_cdf[yi], u[:, 2 * m :])]
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
    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("rule", list(DecisionRule))
    @pytest.mark.parametrize("name", ["coin1", "coin2", "coin5", "coin10", "coin35", "bsc25"])
    def test_equals_compare_and_sum_kernel(self, name, rule, m):
        model = build_bsc_model(0.25) if name == "bsc25" else build_coin_model(int(name[4:]), 0.4)
        tables = make_rule_tables(model, rule)
        rng = np.random.default_rng([*name.encode(), m, list(DecisionRule).index(rule)])
        u = rng.random((2048, experiment._draws_per_symbol(tables) * m))
        plant_adversarial(u[:, :m], model.prior_cdf, rng)
        plant_adversarial(u[:, m : 2 * m], model.lik_cdf, rng)
        if tables.sap_cdf is not None:
            plant_adversarial(u[:, 2 * m :], tables.sap_cdf, rng)
        got = experiment._trial_kernel(model, tables, u, m, 0.25)
        want = compare_and_sum_kernel(model, tables, u, m, 0.25)
        for g, w in zip(got[:3], want[:3]):
            np.testing.assert_array_equal(g, w)
        for g, w in zip(got[3:], want[3:]):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

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

    def test_seed_reproducible(self, coin10):
        a = run_experiment(coin10, DecisionRule.SAP, params(0.25, 6), 400, 77)
        b = run_experiment(coin10, DecisionRule.SAP, params(0.25, 6), 400, 77)
        assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())

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
        info = info_summary(coin10)
        tables = make_rule_tables(coin10, DecisionRule.SAP)
        p = params(0.25, 4)
        rates = [
            run_trial(coin10, DecisionRule.SAP, p, trial_rng(13, i), tables).decided_surprisal_rate
            for i in range(3000)
        ]
        half = Z_95 * np.std(rates, ddof=1) / math.sqrt(len(rates))
        assert abs(np.mean(rates) - info.h_x_given_y) < 2 * half

    def test_sap_decided_joint_matches_true_joint(self):
        # empirical law of (decided, observed) symbols under SAP vs P(x, y)
        model = build_coin_model(5, 0.4)
        tables = make_rule_tables(model, DecisionRule.SAP)
        p = params(0.25, 20)
        counts = np.zeros((5, 6))
        n_trials = 5000
        for i in range(n_trials):
            t = run_trial(model, DecisionRule.SAP, p, trial_rng(21, i), tables)
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
            exact = exact_failure_probability(model, rule, p)
            rep = run_experiment(model, rule, p, 4000, 11)
            sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / 4000)
            assert abs(rep.p_f_hat - exact) < 3 * sigma + 1e-9, rule


class TestAchievability:
    def test_identity_passes(self, identity4):
        p = params(0.2, 8)
        rec = achievability_check(run_experiment(identity4, DecisionRule.MAP, p, 400, 0), p)
        assert rec.holds and rec.accuracy_ok and rec.p_f_ok
        assert rec.band_lo < 2.0 < rec.band_hi

    def test_zero_success_skips_accuracy_clause(self, coin35):
        p = params(0.05, 64)
        rec = achievability_check(
            run_experiment(coin35, DecisionRule.MAP, p, 50, 9), p
        )
        assert rec.accuracy_ok is None
        assert not rec.p_f_ok and not rec.holds

    def test_record_fields(self, coin10):
        p = params(0.25, 10)
        rep = run_experiment(coin10, DecisionRule.SAP, p, 2000, 3)
        rec = achievability_check(rep, p)
        assert rec.band_lo == pytest.approx(rep.ti_bits - 0.5 - rec.delta, abs=1e-12)
        assert rec.band_hi == pytest.approx(rep.ti_bits + 0.5 + rec.delta, abs=1e-12)
        assert rec.p_f_bound == pytest.approx(0.5 + 3 * rec.sigma, abs=1e-12)
        assert rec.accuracy_ok  # the accuracy clause holds at this size


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
            3 * info_summary(bsc25).h_x_given_y, abs=1e-9
        )

    def test_cap_enforced(self, coin10):
        with pytest.raises(EnumerationTooLargeError):
            extended_fano_check(coin10, DecisionRule.MAP, params(0.25, 8))

    def test_exact_pf_un_enumerable_raises(self, coin10):
        with pytest.raises(EnumerationTooLargeError):
            exact_failure_probability(coin10, DecisionRule.SAP, params(0.25, 10))


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_pool_per_sweep_and_rows_in_order(self, monkeypatch, workers):
        pools = []

        class CountingPool(experiment.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
        seen = []
        rows = sweep(
            [6, 5], [0.4], [2, 1], [0.25], [DecisionRule.SAP, DecisionRule.MAP], 50, 2,
            workers=workers, on_row=seen.append,
        )
        assert len(pools) == (1 if workers > 1 else 0)
        assert len(rows) == 8
        assert len(seen) == len(rows) and all(a is b for a, b in zip(seen, rows))

    @pytest.mark.parametrize("workers, trials", [(2, 50), (3, 2), (3, 50)])
    def test_pool_gets_one_job_per_worker(self, monkeypatch, workers, trials):
        jobs = []

        class CountingPool(experiment.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                jobs.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", CountingPool)
        rows = sweep(
            [6, 5], [0.4], [2, 1], [0.25], [DecisionRule.SAP, DecisionRule.MAP], trials, 2,
            workers=workers,
        )
        assert len(rows) == 8
        assert len(jobs) == min(workers, trials)

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

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
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
                build_coin_model(row["N"], row["theta"]), DecisionRule.from_name(row["rule"]),
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
        calls = []

        def counting_tables(model, rule):
            calls.append((model, rule))
            return make_rule_tables(model, rule)

        monkeypatch.setattr(experiment, "make_rule_tables", counting_tables)
        # the acceptance grid: 4 coin models x 2 M x 4 rules = 32 points
        rows = sweep([5, 15, 25, 35], [0.4], [1, 10], [0.25], list(DecisionRule), 2, 0)
        assert len(rows) == 32
        assert len(calls) == 16
        assert len({(id(model), rule) for model, rule in calls}) == 16

    def test_empty_axis_gives_empty_table(self):
        assert sweep([], [0.4], [2], [0.25], [DecisionRule.MAP], 10, 0) == []

    def test_zero_success_row_carries_markers(self):
        rows = sweep([35], [0.4], [64], [0.05], [DecisionRule.MAP], 40, 9)
        assert rows[0]["accuracy_bits"] is None
        assert rows[0]["h_hat_bits"] is None
        assert rows[0]["successes"] == 0
