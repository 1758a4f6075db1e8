"""Release gate: one test per release criterion, each printing an [ACCEPT] line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.

Two clauses are marked strict xfail rather than weakened to pass; both are
real behavior, not bugs:

* the failure-rate clause of the band check at N=10, M=10: the failure
  probability at that operating point is about 0.5536, which sits above the
  2*epsilon + 3*sigma = 0.5105 bound at R = 2e4, so the Monte Carlo estimate
  lands above the bound at any seed. The figure is the 10^6-trial reading
  0.553565 +- 0.00097 of `titest simulate --coin 10 0.4 --rule sap --m 10
  --epsilon 0.25 --trials 1000000 --seed 7 --workers 2`; the exact value
  waits on exact SAP at M=10 (ROADMAP item 2). (0.5522 is the TI, not P_f.)
* the rule ordering at N=5, M=10: conditioning on success biases the smallest
  alphabet's surviving trials, and MAP/MeAP accuracy there sits 0.04..0.06
  bits above SAP at ~40 standard errors.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from titest import (
    DecisionRule,
    SequencePair,
    TypicalityParams,
    achievability_check,
    build_bsc_model,
    build_coin_model,
    conditional_members,
    converse_check,
    decide,
    error_probability,
    extended_fano_check,
    is_jointly_typical,
    posterior,
    run_experiment,
    typical_set_census,
)
from titest.cli import main as cli_main

from oracles import oracle_jointly_typical

pytestmark = pytest.mark.acceptance

THETA = 0.4
EPS = 0.25
GRID_N = (5, 15, 25, 35)
R_FIG = 10_000
SEED_FIG = 2026  # margins at this seed verified to dwarf the Monte Carlo noise
R_BAND = 20_000
SEED_BAND = 7

_timings: dict = {}


def _accept(name: str, status: str) -> None:
    print(f"[ACCEPT] {name}: {status}")


@pytest.fixture(scope="module")
def band():
    model = build_coin_model(10, THETA)
    params = TypicalityParams(EPS, 10)
    t0 = time.monotonic()
    report = run_experiment(model, DecisionRule.SAP, params, R_BAND, SEED_BAND, workers=2)
    _timings["band"] = time.monotonic() - t0
    return achievability_check(report), report


@pytest.fixture(scope="module")
def convergence_reports():
    """SAP at M=1 and M=10 for each alphabet size."""
    t0 = time.monotonic()
    out = {}
    for n in GRID_N:
        model = build_coin_model(n, THETA)
        for m in (1, 10):
            out[n, m] = run_experiment(
                model, DecisionRule.SAP, TypicalityParams(EPS, m), R_FIG, SEED_FIG,
                workers=2,
            )
    _timings["convergence"] = time.monotonic() - t0
    return out


@pytest.fixture(scope="module")
def ordering_reports(convergence_reports):
    """All four rules at M=10 for each alphabet size; SAP reused."""
    t0 = time.monotonic()
    out = {}
    for n in GRID_N:
        model = build_coin_model(n, THETA)
        out[n, DecisionRule.SAP] = convergence_reports[n, 10]
        for rule in (DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP):
            out[n, rule] = run_experiment(
                model, rule, TypicalityParams(EPS, 10), R_FIG, SEED_FIG, workers=2
            )
    _timings["ordering"] = time.monotonic() - t0
    return out


def test_decision_triplets_exact():
    t0 = time.monotonic()
    model = build_coin_model(35, THETA)
    expected = {3: (7, 10, 8), 9: (22, 27, 23), 13: (32, 28, 29)}
    for k, (want_map, want_eap, want_meap) in expected.items():
        post = posterior(model, k)
        assert decide(DecisionRule.MAP, post) == want_map
        assert decide(DecisionRule.EAP, post) == want_eap
        assert decide(DecisionRule.MEAP, post) == want_meap
    assert time.monotonic() - t0 < 1.0
    _accept("decision triplets, 35 hypotheses", "PASS")


def test_map_minimizes_error_on_grid():
    t0 = time.monotonic()
    others = (DecisionRule.EAP, DecisionRule.MEAP, DecisionRule.SAP)
    strict = {rule: False for rule in others}
    for n, theta in itertools.product((5, 10, 20), (0.3, 0.4, 0.5)):
        model = build_coin_model(n, theta)
        p_map = error_probability(model, DecisionRule.MAP)
        for rule in others:
            p_other = error_probability(model, rule)
            assert p_map <= p_other + 1e-12, (n, theta, rule)
            if p_map < p_other - 1e-9:
                strict[rule] = True
    assert all(strict.values()), strict
    assert time.monotonic() - t0 < 1.0
    _accept("MAP error-optimality grid", "PASS")


def test_band_accuracy_clause(band):
    rec, report = band
    assert _timings["band"] < 60.0
    assert not report.zero_success
    assert rec.band_lo < report.accuracy_hat_bits < rec.band_hi
    assert rec.accuracy_ok
    _accept("accuracy inside the 2-epsilon band, N=10 M=10", "PASS")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "failure probability at this operating point is about 0.5536 (10^6 "
        "trials at seed 7: 0.553565 +- 0.00097), above the 2*epsilon + "
        "3*sigma = 0.5105 bound at R = 2e4; the bound needs epsilon margins "
        "the asymptotic statement only grants at larger M"
    ),
)
def test_band_failure_rate_clause(band):
    rec, report = band
    _accept("failure rate under 2*epsilon + 3*sigma, N=10 M=10", "FAIL (documented)")
    assert report.p_f_hat <= rec.p_f_bound
    assert rec.p_f_ok


def test_deterministic_failure_rates_match_exact(coin10_fano_m10):
    t0 = time.monotonic()
    model = build_coin_model(10, THETA)
    params = TypicalityParams(EPS, 10)
    z = {}
    for rule, exact in coin10_fano_m10.items():
        report = run_experiment(model, rule, params, R_BAND, SEED_BAND, workers=2)
        sigma = math.sqrt(exact.p_f * (1.0 - exact.p_f) / R_BAND)
        z[rule.value] = (report.p_f_hat - exact.p_f) / sigma
    assert all(abs(v) < 3.0 for v in z.values()), z
    assert time.monotonic() - t0 < 60.0
    scores = ", ".join(f"{rule} z={v:+.2f}" for rule, v in z.items())
    _accept(f"deterministic P_f within 3 sigma of exact, N=10 M=10 ({scores})", "PASS")


def test_accuracy_converges_toward_ceiling(convergence_reports):
    assert _timings["convergence"] < 300.0
    for n in GRID_N:
        ti = convergence_reports[n, 1].ti_bits
        a1 = convergence_reports[n, 1].accuracy_hat_bits
        a10 = convergence_reports[n, 10].accuracy_hat_bits
        assert a1 is not None and a10 is not None
        assert abs(a10 - ti) < abs(a1 - ti), n
    _accept("accuracy closer to ceiling at M=10 than M=1, all N", "PASS")


def test_sap_orders_highest_with_ceiling(ordering_reports):
    assert _timings["ordering"] < 600.0
    deterministic = (DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP)
    for n in GRID_N:
        ti = ordering_reports[n, DecisionRule.SAP].ti_bits
        for rule in DecisionRule:
            rep = ordering_reports[n, rule]
            assert rep.accuracy_hat_bits is not None
            delta = rep.h_hat_halfwidth or 0.0
            assert rep.accuracy_hat_bits <= ti + 2 * EPS + delta, (n, rule)
    for n in (15, 25, 35):
        sap = ordering_reports[n, DecisionRule.SAP].accuracy_hat_bits
        for rule in deterministic:
            assert sap >= ordering_reports[n, rule].accuracy_hat_bits, (n, rule)
    _accept("SAP accuracy highest for N in {15,25,35}, ceiling everywhere", "PASS")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "success-conditioned estimates at N=5 favor MAP (+0.057 bits) and "
        "MeAP (+0.038 bits) over SAP; conditioning on the success event "
        "selects low-entropy posteriors for the deterministic rules"
    ),
)
def test_sap_orders_highest_at_smallest_alphabet(ordering_reports):
    _accept("SAP accuracy highest at N=5", "FAIL (documented)")
    sap = ordering_reports[5, DecisionRule.SAP].accuracy_hat_bits
    for rule in (DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP):
        assert sap >= ordering_reports[5, rule].accuracy_hat_bits, rule


def test_typicality_predicate_matches_oracle_exhaustively():
    t0 = time.monotonic()
    model = build_bsc_model(0.25)
    params = TypicalityParams(EPS, 8)
    prior = model.prior.tolist()
    lik = model.likelihood.tolist()

    # exhaustive classification of every length-8 pair against the oracle,
    # accumulating per-member probability and per-y membership counts
    prob_lo = 2.0 ** (-8 * (model.h_xy + EPS))
    prob_hi = 2.0 ** (-8 * (model.h_xy - EPS))
    seqs = list(itertools.product((0, 1), repeat=8))
    per_y_counts = {ys: 0 for ys in seqs}
    n_members = 0
    for xs in seqs:
        for ys in seqs:
            got = is_jointly_typical(SequencePair(xs, ys), model, params).jointly_typical
            want = oracle_jointly_typical(prior, lik, xs, ys, EPS)
            assert got == want, (xs, ys)
            if got:
                n_members += 1
                per_y_counts[ys] += 1
                p = math.prod(model.joint[x, y] for x, y in zip(xs, ys))
                assert prob_lo < p < prob_hi, (xs, ys)

    census = typical_set_census(model, params)
    assert census.sizes["joint"] == n_members == 23552
    assert census.sizes["y"] == len(seqs)  # uniform marginal: every y-seq typical
    assert census.bound("joint_member_prob_lower").holds
    assert census.bound("joint_member_prob_upper").holds

    # conditional membership per observed sequence: counts agree with the
    # enumeration API and sit inside the (1-eps) * 2^(M(H(X|Y)-2eps)) window
    count_lo = (1 - EPS) * 2.0 ** (8 * (model.h_x_given_y - 2 * EPS))
    count_hi = 2.0 ** (8 * (model.h_x_given_y + 2 * EPS))
    for ys in seqs:
        members = conditional_members(ys, model, params)
        assert len(members) == per_y_counts[ys] == 92
        assert count_lo < len(members) < count_hi
    assert time.monotonic() - t0 < 30.0
    _accept("exhaustive typicality vs oracle, 65536 pairs", "PASS")


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("rule", [DecisionRule.MAP, DecisionRule.SAP])
def test_fano_bound_exact(m, rule):
    t0 = time.monotonic()
    rec = extended_fano_check(build_bsc_model(0.25), rule, TypicalityParams(EPS, m))
    assert rec.holds
    assert rec.lhs <= rec.rhs + 1e-9
    assert time.monotonic() - t0 < 60.0
    _accept(f"Fano audit, binary channel M={m} {rule.value}", "PASS")


def test_converse_on_every_report(band, convergence_reports, ordering_reports):
    reports = [band[1], *convergence_reports.values(), *ordering_reports.values()]
    seen = 0
    for rep in reports:
        rec = converse_check(rep)
        assert rec.holds, (rep.model_spec, rep.rule, rep.m)
        assert not rec.skipped
        seen += 1
    assert seen == 1 + 8 + 16
    _accept(f"converse bound on all {seen} experiment reports", "PASS")


@pytest.mark.usefixtures("every_block_pays")
def test_cli_worker_invariance(tmp_path):
    t0 = time.monotonic()
    sim = {}
    for w, name in ((1, "sim1.json"), (3, "sim3.json")):
        out = tmp_path / name
        code = cli_main([
            "simulate", "--coin", "10", "0.4", "--rule", "sap", "--m", "10",
            "--epsilon", "0.25", "--trials", "5000", "--seed", "7",
            "--workers", str(w), "--out", str(out),
        ])
        assert code == 0
        sim[w] = out.read_bytes()
    assert sim[1] == sim[3]

    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "n": [5, 10], "theta": [0.4], "m": [1, 4], "epsilon": [0.25],
        "rules": ["map", "sap"],
    }))
    swp = {}
    for w, name in ((1, "sweep1.csv"), (4, "sweep4.csv")):
        out = tmp_path / name
        code = cli_main([
            "sweep", "--grid", str(grid), "--trials", "500", "--seed", "9",
            "--workers", str(w), "--out", str(out),
        ])
        assert code == 0
        swp[w] = out.read_bytes()
    assert swp[1] == swp[4]
    assert time.monotonic() - t0 < 120.0
    _accept("byte-identical output across worker counts", "PASS")
