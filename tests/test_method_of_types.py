"""The type-class engine against brute-force scans of every sequence.

typical_set_census and the Fano sums (typicality._FanoSums) sum over type
classes, which typicality._walk visits once per call, at the largest
support size among its reducers' laws; a smaller law reads the rows of that
walk whose symbols are all below its own size. The references here visit all K^M sequences (and,
for SAP, all x-sequences per y-sequence) the slow way, so sizes must agree
exactly and floats to rounding.
"""

import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titest import (
    DecisionRule,
    DiscreteJointModel,
    TypicalityParams,
    build_bsc_model,
    build_coin_model,
    build_constant_model,
    build_identity_model,
    decide,
    extended_fano_check,
    posterior,
    typical_set_census,
)
from titest import cli, typicality
from titest.rules import _symbol_law
from titest.typicality import (
    BOUNDARY_ATOL,
    EnumerationTooLargeError,
    _check_walk,
    _type_classes,
)

# largest (|X||Y|)^M the brute-force references are asked to scan
BRUTE_LIMIT = 60_000


def all_sequences(n, m):
    """(n**m, m) index rows in lexicographic order."""
    return np.stack(np.unravel_index(np.arange(n**m), (n,) * m), axis=1)


def inside(rate, h, eps):
    return np.abs(rate - h) < eps - BOUNDARY_ATOL


def brute_census(model, m, eps):
    """{set: (count, mass, min_prob, max_prob)}, scanning every sequence."""
    s_x, s_y, s_j = -model.log2_prior, -model.log2_y_marginal, -model.log2_joint
    n_y = model.n_observations

    def scan(n, conditions, s_prob):
        seqs = all_sequences(n, m)
        keep = np.ones(len(seqs), dtype=bool)
        for s, h in conditions:
            keep &= inside(s[seqs].mean(axis=1), h, eps)
        probs = np.exp2(-s_prob[seqs[keep]].sum(axis=1))
        if not keep.any():
            return 0, 0.0, math.inf, 0.0
        return int(keep.sum()), float(probs.sum()), float(probs.min()), float(probs.max())

    return {
        "x": scan(model.n_hypotheses, [(s_x, model.h_x)], s_x),
        "y": scan(n_y, [(s_y, model.h_y)], s_y),
        "joint": scan(
            model.n_hypotheses * n_y,
            [
                (np.repeat(s_x, n_y), model.h_x),
                (np.tile(s_y, model.n_hypotheses), model.h_y),
                (s_j.ravel(), model.h_xy),
            ],
            s_j.ravel(),
        ),
    }


def brute_y_scan(model, rule, m, eps):
    """(p_f, H(E|Y), sum_y P(y) s(y) H(X^M|y)), one y-sequence at a time.

    Deterministic decisions come from rules.decide symbol by symbol; SAP
    success sums the posterior product over every typical x-sequence.
    """
    xs = all_sequences(model.n_hypotheses, m)
    x_ok = inside(-model.log2_prior[xs].mean(axis=1), model.h_x, eps)
    p_f = h_e = weighted_h = 0.0
    for y in all_sequences(model.n_observations, m):
        p_y = float(np.prod(model.y_marginal[y]))
        if p_y == 0.0:
            continue
        if not inside(-model.log2_y_marginal[y].mean(), model.h_y, eps):
            s = 0.0
        elif rule.is_stochastic:
            keep = x_ok & inside(-model.log2_joint[xs, y].mean(axis=1), model.h_xy, eps)
            s = float(np.prod(model.posterior_matrix[xs[keep], y], axis=1).sum())
        else:
            x = np.array([
                model.x_index(decide(rule, posterior(model, model.observation_values[b])))
                for b in y
            ])
            s = float(
                inside(-model.log2_prior[x].mean(), model.h_x, eps)
                and inside(-model.log2_joint[x, y].mean(), model.h_xy, eps)
            )
        h_s = -s * math.log2(s) - (1 - s) * math.log2(1 - s) if 0.0 < s < 1.0 else 0.0
        p_f += p_y * (1.0 - s)
        h_e += p_y * h_s
        weighted_h += p_y * s * float(model.posterior_col_entropy[y].sum())
    return p_f, h_e, weighted_h


def fano_sums(model, params, law, census=False):
    """(census or None, law's raw Fano sums) from one _walk, with the census's
    reducers first when census is set, as typicality._exact_audit composes them."""
    m, eps = params.extension, params.epsilon
    totals = typicality._census_totals(model, m, _symbol_law(model, DecisionRule.SAP)) if census else {}
    fano = typicality._FanoSums(model, law, m)
    typicality._walk([*totals.values(), fano], m, eps)
    return typicality._census_report(model, m, eps, totals) if census else None, fano.sums()


def assert_census_matches(census, want):
    for key, (count, mass, min_p, max_p) in want.items():
        assert census.sizes[key] == count, key
        assert census.masses[key] == pytest.approx(mass, rel=1e-12, abs=0.0), key
        if count:
            assert census.bound(f"{key}_member_prob_lower").rhs == pytest.approx(
                min_p, rel=1e-12, abs=0.0
            ), key
            assert census.bound(f"{key}_member_prob_upper").lhs == pytest.approx(
                max_p, rel=1e-12, abs=0.0
            ), key


def assert_matches_brute_force(model, m, eps):
    """The lone census, each rule's lone audit, and the census with each
    rule's audit from one combined pass, against the brute-force scans."""
    params = TypicalityParams(epsilon=eps, extension=m)
    want_census = brute_census(model, m, eps)
    assert_census_matches(typical_set_census(model, params), want_census)
    for rule in DecisionRule:
        law = _symbol_law(model, rule)
        want = brute_y_scan(model, rule, m, eps)
        lone = fano_sums(model, params, law)[1]
        census, combined = fano_sums(model, params, law, census=True)
        assert_census_matches(census, want_census)
        # H(E|Y) of a y whose s(y) is 1 up to rounding is rounding noise
        # (about 1e-14), so the y-scan also gets a 1e-12 absolute floor
        for got in (lone, combined):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), rule


@st.composite
def models_and_extensions(draw):
    """A <= 3 x 3 model with exact zeros, ties and permuted labels, and an M."""
    n_x = draw(st.integers(1, 3))
    n_y = draw(st.integers(1, 3))

    def weights(n):
        w = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        return np.array(w, dtype=float) / sum(w)

    model = DiscreteJointModel(
        hypothesis_values=tuple(draw(st.permutations(range(n_x)))),
        observation_values=tuple(draw(st.permutations(range(10, 10 + n_y)))),
        prior=weights(n_x),
        likelihood=np.array([weights(n_y) for _ in range(n_x)]),
    )
    max_m = max(m for m in range(1, 7) if (n_x * n_y) ** m <= BRUTE_LIMIT)
    return model, draw(st.integers(1, max_m))


# Many sequences of these models sit exactly on a band edge or exactly at the
# entropy: identity and uniform models put every rate at H, and the dyadic
# prior (1/2, 1/4, 1/4) puts the M=4 rates at H +/- 0.25 exactly.
EDGE_MODELS = [
    build_identity_model(3, labels=(7, 2, 5)),
    build_constant_model(3, [1 / 3, 1 / 3, 1 / 3]),
    DiscreteJointModel(
        (0, 1, 2), (0, 1), np.array([0.5, 0.25, 0.25]),
        np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]),
    ),
]
EDGE_IDS = ["identity3", "uniform3", "dyadic"]


class TestTypeClassesMatchBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(case=models_and_extensions(), eps=st.sampled_from([0.05, 0.1, 0.25, 0.5]))
    def test_random_models(self, case, eps):
        model, m = case
        assert_matches_brute_force(model, m, eps)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("eps", [0.25, 0.5])
    @pytest.mark.parametrize("model", EDGE_MODELS, ids=EDGE_IDS)
    def test_edge_models(self, model, eps, m):
        assert_matches_brute_force(model, m, eps)

    def test_class_sizes_exact_beyond_int64(self, monkeypatch):
        # 2^70 sequences: the count must stay an exact integer
        model = DiscreteJointModel(
            (0, 1), (0,), np.array([0.5, 0.5]), np.array([[1.0], [1.0]])
        )
        monkeypatch.setenv("TI_TEST_ENUM_CAP", str(2**140))
        census = typical_set_census(model, TypicalityParams(0.25, 70))
        assert census.sizes == {"x": 2**70, "y": 1, "joint": 2**70}
        assert census.masses["x"] == pytest.approx(1.0, rel=1e-12)


class TestTypeClassList:
    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n, m", [(1, 1), (1, 5), (3, 1), (2, 6), (4, 3), (5, 4)])
    def test_every_class_once_with_its_size(self, monkeypatch, n, m, block):
        monkeypatch.setattr(typicality, "CLASS_BLOCK", block)
        rows, sizes = map(np.concatenate, zip(*_type_classes(n, m)))
        classes = list(itertools.combinations_with_replacement(range(n), m))
        assert [tuple(row) for row in rows] == classes
        assert [int(size) for size in sizes] == [
            math.factorial(m) // math.prod(math.factorial(c.count(k)) for k in set(c))
            for c in classes
        ]
        assert sum(int(size) for size in sizes) == n**m

    def test_int64_while_the_largest_multinomial_fits(self):
        # 6^24 > 2^62: the sizes stay int64 because 24 * 24!/(4!)^6 < 2^63
        rows, sizes = map(np.concatenate, zip(*_type_classes(6, 24)))
        assert sizes.dtype == np.int64
        assert len(rows) == math.comb(29, 24)
        assert sum(int(size) for size in sizes) == 6**24

    def test_census_count_exact_past_int64_sums(self):
        totals = typicality._Totals((np.ones(1), np.zeros((1, 1)), (0.0,)), 1)
        totals.add(None, np.full(4, 2**62, dtype=np.int64), np.ones(4), np.ones(4, dtype=bool))
        assert totals.count == 2**64

    def test_small_blocks_sum_the_same(self, monkeypatch):
        monkeypatch.setattr(typicality, "CLASS_BLOCK", 5)
        assert_matches_brute_force(build_coin_model(3, 0.4), 3, 0.25)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("model", EDGE_MODELS, ids=EDGE_IDS)
    def test_small_blocks_feed_smaller_laws(self, monkeypatch, model, m):
        # uniform3's marginals (3 symbols) and dyadic's (3 and 2) are read off
        # the joint law's walk (9 and 4 pairs), whose blocks of about 5 rows
        # often hold none of a smaller law's rows
        monkeypatch.setattr(typicality, "CLASS_BLOCK", 5)
        assert_matches_brute_force(model, m, 0.25)


class TestSapIdentity:
    """Under SAP the decided pair (x-hat, y) is i.i.d. from the joint law, so
    P_f(SAP) is the mass outside the jointly typical set."""

    @pytest.mark.parametrize("model, m", [
        *((build_bsc_model(0.25), m) for m in range(2, 12)),
        *((build_coin_model(3, 0.4), m) for m in range(2, 5)),
    ], ids=[*(f"bsc25-M{m}" for m in range(2, 12)), *(f"coin3-M{m}" for m in range(2, 5))])
    def test_failure_is_one_minus_joint_mass(self, model, m):
        params = TypicalityParams(epsilon=0.25, extension=m)
        p_f = extended_fano_check(model, DecisionRule.SAP, params).p_f
        joint_mass = typical_set_census(model, params).masses["joint"]
        assert p_f == pytest.approx(1.0 - joint_mass, rel=0.0, abs=1e-12)


class TestOneWalk:
    """Every exact path walks the type classes of the decided pairs' law."""

    @pytest.mark.parametrize("model, ms", [
        (build_bsc_model(0.25), range(1, 12)),
        (build_coin_model(3, 0.4), range(1, 6)),
        (build_coin_model(5, 0.4), range(1, 4)),
    ], ids=["bsc25", "coin3", "coin5"])
    def test_deterministic_rules_have_no_error_entropy(self, model, ms):
        # one class per y-type, so s(y) is typical / total = w / w or 0 / w
        for rule in (DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP):
            for m in ms:
                params = TypicalityParams(0.25, m)
                law = _symbol_law(model, rule)
                assert fano_sums(model, params, law)[1][1] == 0.0

    def test_zero_probability_pairs_are_never_walked(self, monkeypatch):
        # coin10 has 65 pairs of positive probability out of 11 * 10
        walked = []

        def recording(n_symbols, m):
            walked.append(n_symbols)
            return _type_classes(n_symbols, m)

        monkeypatch.setattr(typicality, "_type_classes", recording)
        model = build_coin_model(10, 0.4)
        params = TypicalityParams(0.25, 2)
        typical_set_census(model, params)
        assert walked == [65]
        walked.clear()
        for rule in DecisionRule:
            fano_sums(model, params, _symbol_law(model, rule))
        assert walked == [11, 11, 11, 65]

    def test_marginal_censuses_walk_the_support_only(self, monkeypatch):
        # prior (1, 0, 0): one x symbol, two y symbols and two joint pairs
        # carry probability, so M=4 walks 2 symbols, not 3: the x-marginal
        # reads its 1 class, not C(6, 4) = 15, off the joint law's walk
        walked = []

        def recording(n_symbols, m):
            walked.append(n_symbols)
            return _type_classes(n_symbols, m)

        monkeypatch.setattr(typicality, "_type_classes", recording)
        model = DiscreteJointModel(
            (0, 1, 2), (0, 1), np.array([1.0, 0.0, 0.0]),
            np.array([[0.25, 0.75], [1.0, 0.0], [0.0, 1.0]]),
        )
        typical_set_census(model, TypicalityParams(0.25, 4))
        assert walked == [2]
        assert_matches_brute_force(model, 4, 0.25)


class TestWalkCap:
    """The cap counts the symbols a walk builds, K * C(M+K, M-1), and checks
    every walk of a call before any of them runs."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize("n, m", [(1, 5), (2, 7), (4, 11), (11, 6), (3, 2), (5, 1)])
    def test_count_is_the_symbols_built(self, monkeypatch, n, m, block):
        built = [n]  # the level-1 rows, one symbol each
        append = typicality._append_symbol

        def counting(*args):
            out = append(*args)
            built[0] += out[0].size
            return out

        monkeypatch.setattr(typicality, "_append_symbol", counting)
        monkeypatch.setattr(typicality, "CLASS_BLOCK", block)
        for _ in _type_classes(n, m):
            pass
        assert built[0] == n * math.comb(m + n, m - 1)

    @pytest.mark.parametrize("model, k, m_max", [
        (DiscreteJointModel((0,), (0,), np.array([1.0]), np.array([[1.0]])), 1, 4471),
        (build_bsc_model(0.25), 4, 47),
    ], ids=["one-pair", "bsc25"])
    def test_edges_at_the_default_cap(self, model, k, m_max):
        # SAP and the census's joint walk go over the joint law's k pairs
        assert k * math.comb(m_max + k, m_max - 1) <= 10**7 < k * math.comb(m_max + 1 + k, m_max)
        sap_max = TypicalityParams(0.25, m_max)
        sap = _symbol_law(model, DecisionRule.SAP)
        p_f, _, _ = fano_sums(model, sap_max, sap)[1]
        assert 0.0 <= p_f < 1.0
        params = TypicalityParams(0.25, m_max + 1)
        for call in (
            lambda: typical_set_census(model, params),
            lambda: fano_sums(model, params, sap),
        ):
            with pytest.raises(EnumerationTooLargeError, match=rf"= {k}\*C\({m_max + 1 + k}, "):
                call()

    def test_huge_count_is_never_formed(self):
        # C(10^9 + 10^6, 10^6 + 1) would take hours; min(M-1, K+1) >= 24 refuses at once
        huge = r"= 1000000\*C\(1001000000, 999999999\)"
        with pytest.raises(EnumerationTooLargeError, match=huge):
            _check_walk(10**6, 10**9)

    def test_census_checks_every_walk_before_walking(self, monkeypatch):
        # coin10 at M=5: the prior's walk builds 13,650 symbols and the
        # y-marginal's 20,020, but the joint law's 65 pairs build 59,598,175
        walked = []

        def recording(n_symbols, m):
            walked.append(n_symbols)
            return _type_classes(n_symbols, m)

        monkeypatch.setattr(typicality, "_type_classes", recording)
        with pytest.raises(EnumerationTooLargeError, match=r"= 65\*C\(70, 4\)"):
            typical_set_census(build_coin_model(10, 0.4), TypicalityParams(0.25, 5))
        assert walked == []


BSC25_DOC = build_bsc_model(0.25).to_json_dict()
PRIOR_100_DOC = {
    "hypothesis_values": [0, 1, 2], "observation_values": [0, 1], "prior": [1.0, 0.0, 0.0],
    "likelihood": [[0.25, 0.75], [1.0, 0.0], [0.0, 1.0]],
}
# (name, model file document or coin (N, theta), extensions)
SHARED_CASES = [
    ("bsc25", BSC25_DOC, [*range(1, 13), 40]),
    ("coin3", (3, 0.4), range(1, 6)),
    ("coin5", (5, 0.4), range(1, 4)),
    ("prior100", PRIOR_100_DOC, range(1, 5)),
]


def model_argv(spec, tmp_path):
    """The enumerate flags naming the model: --coin, or a model file written to tmp_path."""
    if isinstance(spec, tuple):
        return ["--coin", *map(str, spec)]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    return ["--model-file", str(path)]


def fresh_model(spec):
    if isinstance(spec, tuple):
        return build_coin_model(*spec)
    return DiscreteJointModel.from_json_dict(spec)


def recorded_walks(monkeypatch):
    """The support sizes of the _type_classes walks made from here on."""
    walked = []

    def recording(n_symbols, m):
        walked.append(n_symbols)
        return _type_classes(n_symbols, m)

    monkeypatch.setattr(typicality, "_type_classes", recording)
    return walked


class TestSharedWalks:
    """titest enumerate walks the type classes once, at its largest law's
    support size, for the census and the Fano audit together, and prints
    what separate calls give."""

    @pytest.mark.parametrize("rule", list(DecisionRule), ids=lambda r: r.value)
    @pytest.mark.parametrize(
        "spec, ms", [case[1:] for case in SHARED_CASES], ids=[case[0] for case in SHARED_CASES]
    )
    def test_enumerate_equals_separate_calls(self, spec, ms, rule, tmp_path, capsys):
        flags = model_argv(spec, tmp_path)
        for m in ms:
            argv = ["enumerate", *flags, "--m", str(m), "--epsilon", "0.25", "--rule", rule.value]
            assert cli.main(argv) == 0
            params = TypicalityParams(epsilon=0.25, extension=m)
            want = cli._render_json({
                "census": typical_set_census(fresh_model(spec), params),
                "fano": extended_fano_check(fresh_model(spec), rule, params),
            })
            assert capsys.readouterr().out == want, m

    @pytest.mark.parametrize("spec, rule, m, walks", [
        (BSC25_DOC, "sap", 11, [4]),
        # the prior (3 points), the y-marginal and the MAP law (4 each) read
        # the joint law's walk over 9 pairs
        ((3, 0.4), "map", 5, [9]),
    ], ids=["bsc25-sap", "coin3-map"])
    def test_enumerate_walks_the_largest_law_once(
        self, spec, rule, m, walks, tmp_path, monkeypatch, capsys
    ):
        flags = model_argv(spec, tmp_path)
        walked = recorded_walks(monkeypatch)
        assert cli.main(["enumerate", *flags, "--m", str(m), "--rule", rule]) == 0
        assert walked == walks
        capsys.readouterr()

    def test_refused_enumerate_walks_nothing(self, monkeypatch, capsys):
        monkeypatch.delenv("TI_TEST_ENUM_CAP", raising=False)
        walked = recorded_walks(monkeypatch)
        assert cli.main(["enumerate", "--coin", "10", "0.4", "--m", "5", "--rule", "map"]) == 3
        assert walked == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "titest: error: K*C(M+K, M-1) = 65*C(70, 4) symbols exceed the enumeration cap "
            "10000000; use Monte Carlo trials instead\n"
        )

    def test_sap_audit_adds_no_band_work_to_the_census(self, monkeypatch):
        # one _rate gather per law of distinct content: SAP's decided-pair law
        # is the census's joint law, so one pass bands it once for both, and
        # bsc25's prior and y-marginal are equal laws too, one gather at K=2
        rated = []
        rate = typicality._rate

        def counting(*args):
            rated.append(args)
            return rate(*args)

        monkeypatch.setattr(typicality, "_rate", counting)
        model, params = build_bsc_model(0.25), TypicalityParams(0.25, 11)
        typical_set_census(model, params)
        assert [args[0].shape for args in rated] == [(1, 2), (3, 4)]
        rated.clear()
        fano_sums(model, params, _symbol_law(model, DecisionRule.SAP), census=True)
        assert [args[0].shape for args in rated] == [(1, 2), (3, 4)]
        rated.clear()
        fano_sums(model, params, _symbol_law(model, DecisionRule.MAP), census=True)
        assert [args[0].shape for args in rated] == [(1, 2), (3, 4), (3, 2)]

    def test_sap_audit_builds_its_law_once(self, monkeypatch):
        # the census's joint set and the SAP audit hold one built law, not two
        # equal ones; _walk is patched where _exact_audit is defined
        home = sys.modules[cli._exact_audit.__module__]
        walk, walked = home._walk, []

        def recording(reducers, m, eps):
            reducers = list(reducers)
            walked.extend(reducers)
            return walk(reducers, m, eps)

        monkeypatch.setattr(home, "_walk", recording)
        cli._exact_audit(build_coin_model(3, 0.4), DecisionRule.SAP, TypicalityParams(0.25, 3))
        joint = [r for r in walked if isinstance(r, typicality._Totals)][-1]
        (fano,) = [r for r in walked if isinstance(r, typicality._FanoSums)]
        assert joint.law[0] is fano.law[0]

    def test_laws_share_a_band_only_when_their_content_is_equal(self, monkeypatch):
        # one support and centre, two log2 rows: the surprisals of prob, and
        # a flat log2(3) that puts every class in the band; a copy of either
        # shares its band, and the other is banded apart
        prob, eps, m = np.array([0.5, 0.25, 0.25]), 0.25, 4
        skew, flat = np.log2(prob)[None], np.full((1, 3), -math.log2(3))
        walked = recorded_walks(monkeypatch)
        laws = [(prob, skew), (prob, flat), (prob.copy(), skew.copy())]
        totals = [typicality._Totals((p, law, (1.5,)), m) for p, law in laws]
        typicality._walk(totals, m, eps)
        assert walked == [3]

        def reduced(t):
            return t.count, t.mass, t.min_p, t.max_p

        for law, got in ((skew, totals[0]), (flat, totals[1]), (skew, totals[2])):
            alone = typicality._Totals((prob, law, (1.5,)), m)
            typicality._walk([alone], m, eps)
            assert reduced(got) == reduced(alone)
        assert totals[1].count == 3**m > totals[0].count

    def test_lone_calls_walk_only_their_own_laws(self, monkeypatch):
        # the census's prior and y-marginal (2 symbols) read its joint law's
        # walk (4 pairs); the audit walks only its rule's law
        walked = recorded_walks(monkeypatch)
        params = TypicalityParams(0.25, 6)
        typical_set_census(build_bsc_model(0.25), params)
        assert walked == [4]
        walked.clear()
        extended_fano_check(build_bsc_model(0.25), DecisionRule.MAP, params)
        assert walked == [2]
