import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_census,
    oracle_conditional_members,
    oracle_entropy,
    oracle_jointly_typical,
)
from titest import (
    DiscreteJointModel,
    EnumerationTooLargeError,
    SequencePair,
    TypicalityParams,
    build_constant_model,
    build_identity_model,
    conditional_members,
    entropy,
    info_summary,
    is_jointly_typical,
    is_typical,
    posterior,
    sample_extension,
    typical_set_census,
)
from titest.typicality import resolve_enum_cap


@pytest.fixture(scope="module")
def skew_binary():
    """Binary source with prior (0.9, 0.1) and a single constant observation."""
    return DiscreteJointModel(
        (0, 1), (0,), np.array([0.9, 0.1]), np.array([[1.0], [1.0]])
    )


def params(eps, m):
    return TypicalityParams(epsilon=eps, extension=m)


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            TypicalityParams(epsilon=0.0, extension=4)
        with pytest.raises(ValueError):
            TypicalityParams(epsilon=-0.1, extension=4)
        with pytest.raises(ValueError):
            TypicalityParams(epsilon=0.1, extension=0)
        with pytest.raises(ValueError):
            TypicalityParams(epsilon=0.1, extension=2.5)

    @pytest.mark.parametrize("eps", [math.inf, math.nan])
    def test_params_reject_non_finite_epsilon(self, eps):
        with pytest.raises(ValueError, match="finite"):
            TypicalityParams(epsilon=eps, extension=4)

    def test_pair_length_mismatch(self):
        with pytest.raises(ValueError):
            SequencePair((0, 1), (0,))

    def test_pair_coerces_to_int_tuples(self):
        pair = SequencePair([np.int64(1), 2], [0, np.int64(3)])
        assert pair.x_seq == (1, 2) and pair.y_seq == (0, 3)


class TestSampleExtension:
    def test_identity_copies_x(self, identity4):
        pair = sample_extension(identity4, 64, np.random.default_rng(9))
        assert pair.x_seq == pair.y_seq

    def test_frozen_draw(self):
        from titest import build_coin_model

        model = build_coin_model(5, 0.5)
        pair = sample_extension(model, 6, np.random.default_rng(2026))
        assert pair.x_seq == (1, 4, 3, 2, 2, 4)
        assert pair.y_seq == (1, 1, 2, 1, 2, 3)

    def test_same_seed_same_pair(self, coin35):
        a = sample_extension(coin35, 10, np.random.default_rng(7))
        b = sample_extension(coin35, 10, np.random.default_rng(7))
        assert a == b

    def test_rejects_empty(self, coin35):
        with pytest.raises(ValueError):
            sample_extension(coin35, 0, np.random.default_rng(0))

    def test_symbol_frequencies_match_model(self, coin10):
        # 10^4 pairs of length 10 = 10^5 symbols per margin
        rng = np.random.default_rng(31)
        x_counts = np.zeros(10)
        y_counts = np.zeros(11)
        for _ in range(10_000):
            pair = sample_extension(coin10, 10, rng)
            for v in pair.x_seq:
                x_counts[v - 1] += 1
            for v in pair.y_seq:
                y_counts[v] += 1
        n = 100_000
        for freq, p in zip(x_counts / n, coin10.prior):
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n) + 1e-4
        for freq, p in zip(y_counts / n, coin10.y_marginal):
            assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / n) + 1e-4


class TestIsTypical:
    def test_uniform_binary_always_typical(self, bsc25):
        for seq in itertools.product((0, 1), repeat=6):
            ok, rate = is_typical(seq, bsc25, "X", params(0.01, 6))
            assert ok and rate == pytest.approx(1.0, abs=1e-12)

    def test_skewed_all_heavy_sequence(self, skew_binary):
        # rate -log2(0.9) = 0.152 vs H = 0.469: deviation 0.317
        ok, rate = is_typical((0,) * 20, skew_binary, "X", params(0.2, 20))
        assert not ok
        assert rate == pytest.approx(-math.log2(0.9), abs=1e-9)
        ok2, _ = is_typical((0,) * 20, skew_binary, "X", params(0.35, 20))
        assert ok2

    def test_zero_probability_symbol_is_inf_and_false(self):
        model = build_constant_model(2, y_dist=(1.0, 0.0))
        ok, rate = is_typical((0, 1, 0), model, "Y", params(5.0, 3))
        assert not ok and rate == math.inf

    def test_which_validation(self, coin10):
        with pytest.raises(ValueError):
            is_typical((1, 1), coin10, "Z", params(0.1, 2))

    def test_length_validation(self, coin10):
        with pytest.raises(ValueError):
            is_typical((1, 1, 1), coin10, "X", params(0.1, 2))

    def test_boundary_tie_classified_non_typical(self, skew_binary):
        seq = (0,) * 10
        h = entropy(skew_binary.prior)
        dev = abs(-math.log2(0.9) - h)
        assert not is_typical(seq, skew_binary, "X", params(dev, 10)).typical
        # within the documented 1e-12 band: still a boundary hit
        assert not is_typical(seq, skew_binary, "X", params(dev + 5e-13, 10)).typical
        assert is_typical(seq, skew_binary, "X", params(dev + 1e-9, 10)).typical


class TestIsJointlyTypical:
    def test_identity_diagonal_pair(self, identity4):
        pair = SequencePair((0, 1, 2, 3, 1, 2), (0, 1, 2, 3, 1, 2))
        v = is_jointly_typical(pair, identity4, params(0.05, 6))
        assert v.jointly_typical and v.x_typical and v.y_typical
        assert v.joint_rate == pytest.approx(2.0, abs=1e-12)

    def test_identity_mismatch_is_infinite(self, identity4):
        pair = SequencePair((0, 1, 2, 3), (0, 1, 2, 0))
        v = is_jointly_typical(pair, identity4, params(10.0, 4))
        assert not v.jointly_typical
        assert v.joint_rate == math.inf
        assert v.joint_deviation == math.inf

    def test_verdict_flags_consistent(self, bsc25):
        rng = np.random.default_rng(5)
        p = params(0.25, 8)
        for _ in range(50):
            pair = sample_extension(bsc25, 8, rng)
            v = is_jointly_typical(pair, bsc25, p)
            assert v.jointly_typical == (
                v.x_deviation < 0.25 and v.y_deviation < 0.25 and v.joint_deviation < 0.25
            )
            if v.jointly_typical:
                assert v.x_typical and v.y_typical

    def test_matches_oracle_on_sampled_pairs(self, coin10):
        rng = np.random.default_rng(17)
        prior = list(coin10.prior)
        lik = [list(r) for r in coin10.likelihood]
        p = params(0.3, 5)
        for _ in range(200):
            pair = sample_extension(coin10, 5, rng)
            x_idx = [v - 1 for v in pair.x_seq]
            y_idx = list(pair.y_seq)
            want = oracle_jointly_typical(prior, lik, x_idx, y_idx, 0.3)
            assert is_jointly_typical(pair, coin10, p).jointly_typical == want

    @given(st.floats(0.05, 0.5), st.floats(0.3, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_epsilon_monotonicity(self, eps_lo, gap):
        model = build_identity_model(3)
        rng = np.random.default_rng(int(eps_lo * 1e6) % 2**31)
        pair = sample_extension(model, 6, rng)
        lo = is_jointly_typical(pair, model, params(eps_lo, 6))
        hi = is_jointly_typical(pair, model, params(eps_lo + gap, 6))
        if lo.jointly_typical:
            assert hi.jointly_typical


@st.composite
def models_and_observations(draw):
    """A <= 3 x 3 model with exact zeros and permuted labels, an M <= 6, and
    an observation index sequence (zero-probability symbols included)."""
    n_x = draw(st.integers(1, 3))
    n_y = draw(st.integers(1, 3))

    def weights(n):
        w = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
        return [v / sum(w) for v in w]

    prior = weights(n_x)
    likelihood = [weights(n_y) for _ in range(n_x)]
    model = DiscreteJointModel(
        hypothesis_values=tuple(draw(st.permutations(range(n_x)))),
        observation_values=tuple(draw(st.permutations(range(10, 10 + n_y)))),
        prior=np.array(prior),
        likelihood=np.array(likelihood),
    )
    m = draw(st.integers(1, 6))
    y_idx = tuple(draw(st.lists(st.integers(0, n_y - 1), min_size=m, max_size=m)))
    return model, prior, likelihood, y_idx


class TestConditionalMembers:
    def test_identity_singleton(self, identity4):
        y = (2, 0, 1, 3, 2)
        members = conditional_members(y, identity4, params(0.1, 5))
        assert members == [y]

    def test_constant_channel_full_cube(self):
        model = build_constant_model(2)
        members = conditional_members((0,) * 6, model, params(0.1, 6))
        assert len(members) == 64

    def test_bsc_fixed_y_matches_oracle_and_bounds(self, bsc25):
        p = params(0.25, 8)
        y = (0,) * 8
        members = conditional_members(y, bsc25, p)
        want = oracle_conditional_members([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]], y, 8, 0.25)
        assert [tuple(m) for m in members] == want
        assert len(members) == 92
        # cardinality window: (1-eps) 2^{M(H(X|Y)-2eps)} .. 2^{M(H(X|Y)+2eps)}
        h_xgy = info_summary(bsc25).h_x_given_y
        assert (1 - 0.25) * 2 ** (8 * (h_xgy - 0.5)) < len(members)
        assert len(members) < 2 ** (8 * (h_xgy + 0.5))

    @settings(max_examples=150, deadline=None)
    @given(case=models_and_observations(), eps=st.sampled_from([0.1, 0.25]))
    def test_random_models_match_oracle(self, case, eps):
        model, prior, likelihood, y_idx = case
        m = len(y_idx)
        y = tuple(model.observation_values[b] for b in y_idx)
        members = conditional_members(y, model, params(eps, m))
        want = oracle_conditional_members(prior, likelihood, y_idx, m, eps)
        assert members == [tuple(model.hypothesis_values[a] for a in x) for x in want]

    def test_conditional_surprisal_bounds(self, bsc25):
        # each member's conditional probability sits inside 2^{-M(H(X|Y)+-2eps)}
        p = params(0.25, 8)
        y = (0, 1, 0, 0, 1, 1, 0, 1)
        h_xgy = info_summary(bsc25).h_x_given_y
        members = conditional_members(y, bsc25, p)
        assert members
        for x_seq in members:
            prob = 1.0
            for xm, ym in zip(x_seq, y):
                prob *= posterior(bsc25, ym).probs[xm]
            assert 2 ** (-8 * (h_xgy + 0.5)) < prob < 2 ** (-8 * (h_xgy - 0.5))

    def test_atypical_y_gives_empty_set(self, skew_binary):
        model = DiscreteJointModel(
            (0, 1), (0, 1), np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.9, 0.1]])
        )
        # all-rare observation sequence violates the y-marginal condition
        members = conditional_members((1,) * 12, model, params(0.25, 12))
        assert members == []

    def test_cap_enforced(self, coin10):
        with pytest.raises(EnumerationTooLargeError):
            conditional_members((4,) * 10, coin10, params(0.25, 10))

    def test_cap_env_override(self, bsc25, monkeypatch):
        monkeypatch.setenv("TI_TEST_ENUM_CAP", "10")
        with pytest.raises(EnumerationTooLargeError):
            conditional_members((0,) * 8, bsc25, params(0.25, 8))

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
    def test_cap_env_must_be_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv("TI_TEST_ENUM_CAP", value)
        with pytest.raises(ValueError, match="TI_TEST_ENUM_CAP"):
            resolve_enum_cap()

    def test_explicit_cap_argument(self, bsc25):
        with pytest.raises(EnumerationTooLargeError):
            conditional_members((0,) * 8, bsc25, params(0.25, 8), cap=100)


class TestCensus:
    def test_uniform_binary_identity(self):
        model = build_identity_model(2)
        c = typical_set_census(model, params(0.25, 4))
        assert c.sizes["x"] == 16 and c.masses["x"] == pytest.approx(1.0, abs=1e-12)
        assert c.sizes["y"] == 16 and c.sizes["joint"] == 16
        assert c.masses["joint"] == pytest.approx(1.0, abs=1e-12)
        assert c.bound("x_mass_lower").holds
        assert c.bound("x_count_upper").holds

    def test_bsc_m8_structure(self, bsc25):
        c = typical_set_census(bsc25, params(0.25, 8))
        assert c.sizes == {"x": 256, "y": 256, "joint": 23552}
        assert c.masses["x"] == pytest.approx(1.0, abs=1e-12)
        assert c.masses["y"] == pytest.approx(1.0, abs=1e-12)
        assert c.masses["joint"] == pytest.approx(0.7860717773, abs=1e-9)
        # conditional sets tile the joint census: 256 typical y times 92
        assert c.sizes["joint"] == 256 * 92

    def test_bsc_m8_bounds(self, bsc25):
        c = typical_set_census(bsc25, params(0.25, 8))
        for name in (
            "x_mass_lower", "y_mass_lower", "joint_mass_lower",
            "x_member_prob_lower", "x_member_prob_upper",
            "joint_member_prob_lower", "joint_member_prob_upper",
            "x_count_upper", "y_count_upper",
        ):
            assert c.bound(name).holds, name
        # M = 8 reaches the reported threshold, so the standard lower bound
        # must hold; the printed H+eps variant provably cannot here, which is
        # exactly why both readings are reported
        assert c.m_min == 8
        assert c.bound("x_count_lower").holds
        assert c.bound("y_count_lower").holds
        assert not c.bound("x_count_lower_printed").holds

    def test_matches_oracle_small_bsc(self, bsc25):
        c = typical_set_census(bsc25, params(0.3, 5))
        want = oracle_census([0.5, 0.5], [[0.75, 0.25], [0.25, 0.75]], 5, 0.3)
        assert c.sizes == want["sizes"]
        for key in ("x", "y", "joint"):
            assert c.masses[key] == pytest.approx(want["masses"][key], abs=1e-9)

    def test_matches_oracle_skewed(self, skew_binary):
        c = typical_set_census(skew_binary, params(0.1, 12))
        want = oracle_census([0.9, 0.1], [[1.0], [1.0]], 12, 0.1)
        assert c.sizes == want["sizes"]
        assert c.masses["x"] == pytest.approx(want["masses"]["x"], abs=1e-9)
        assert c.sizes["x"] == 12
        assert c.masses["x"] == pytest.approx(0.3766, abs=5e-4)

    def test_mass_increases_on_documented_pair(self, skew_binary):
        # pointwise monotonicity in M is false for this source (lattice
        # effects around the entropy), so the increase is pinned on a
        # specific verified pair instead of asserted in general
        lo = typical_set_census(skew_binary, params(0.1, 12))
        hi = typical_set_census(skew_binary, params(0.1, 23))
        assert hi.masses["x"] > lo.masses["x"]
        assert hi.masses["x"] == pytest.approx(0.4921, abs=5e-4)

    def test_sizes_monotone_in_epsilon(self, bsc25):
        small = typical_set_census(bsc25, params(0.15, 6))
        big = typical_set_census(bsc25, params(0.3, 6))
        for key in ("x", "y", "joint"):
            assert small.sizes[key] <= big.sizes[key]
            assert small.masses[key] <= big.masses[key] + 1e-12

    def test_cap_enforced(self, coin10):
        with pytest.raises(EnumerationTooLargeError):
            typical_set_census(coin10, params(0.25, 8))

    def test_json_schema(self, bsc25):
        doc = typical_set_census(bsc25, params(0.25, 4)).to_json_dict()
        assert set(doc) == {"m", "epsilon", "sizes", "masses", "m_min", "bounds"}
        assert all(set(b) == {"name", "lhs", "rhs", "holds"} for b in doc["bounds"])


class TestAepLadder:
    def test_sampled_typical_fraction_climbs_the_ladder(self, skew_binary):
        """Sampled fraction of typical x-sequences along M = 8, 64, 256, 1024.

        Exact masses are 0.383, 0.593, 0.906, 0.999: increasing on this
        geometric ladder (though not pointwise in M) and eventually above
        1 - eps. The sampled fractions must track that shape.
        """
        rng = np.random.default_rng(40)
        p1 = 0.9
        h = -(p1 * math.log2(p1) + (1 - p1) * math.log2(1 - p1))
        fractions = []
        first_m = None
        for m in (8, 64, 256, 1024):
            pars = params(0.1, m)
            exact = 0.0
            for j in range(m + 1):
                rate = -((m - j) * math.log2(p1) + j * math.log2(1 - p1)) / m
                if abs(rate - h) < 0.1 - 1e-12:
                    exact += math.comb(m, j) * p1 ** (m - j) * (1 - p1) ** j
            hits = 0
            trials = 2000
            for _ in range(trials):
                pair = sample_extension(skew_binary, m, rng)
                if is_typical(pair.x_seq, skew_binary, "X", pars).typical:
                    hits += 1
            frac = hits / trials
            sigma = math.sqrt(exact * (1 - exact) / trials)
            assert abs(frac - exact) < 4 * sigma + 1e-9, m
            fractions.append(frac)
            if first_m is None and frac > 1 - 0.1:
                first_m = m
        assert fractions[0] < fractions[1] < fractions[2] < fractions[3]
        assert fractions[-1] > 1 - 0.1
        print(f"\n[AEP] sampled fraction first exceeds 1-eps at M={first_m}")
