"""The chunked trial streams against numpy's own per-trial generators.

Trial i of an experiment runs on default_rng(SeedSequence([seed, i])). The
block kernel computes those streams for a whole chunk of trial indices at
once, re-implementing SeedSequence and PCG64 in numpy array arithmetic; the
per-trial construction is the oracle. A numpy release that changed either
algorithm would fail here first.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_experiment import reference_block
from titest import DecisionRule, TypicalityParams, build_coin_model
from titest import experiment
from titest.experiment import (
    _STREAM_BYTES,
    _STREAM_CHUNK,
    _pcg64_uniforms,
    _run_block,
    _trial_uniforms,
    _uint32_words,
)
from titest.rules import _symbol_law


def oracle_rows(seed, lo, hi, width):
    rows = [
        np.random.default_rng(np.random.SeedSequence([seed, i])).random(width)
        for i in range(lo, hi)
    ]
    return np.array(rows).reshape(hi - lo, width)


def chunked_rows(seed, lo, hi, width):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no uint overflow warning may escape
        chunks = list(_trial_uniforms(seed, lo, hi, width))
    for chunk in chunks:
        assert 1 <= len(chunk) <= _STREAM_CHUNK and chunk.shape[1] == width
        assert len(chunk) == 1 or chunk.nbytes <= _STREAM_BYTES
    # a chunk never holds indices on both sides of 2^32
    starts = np.cumsum([lo] + [len(c) for c in chunks])
    assert not any(a < 2**32 < b for a, b in zip(starts[:-1], starts[1:]))
    return np.concatenate(chunks)


@st.composite
def trial_ranges(draw):
    n = draw(st.sampled_from([1, _STREAM_CHUNK - 1, _STREAM_CHUNK, _STREAM_CHUNK + 1]))
    lo = draw(
        st.one_of(
            st.integers(0, 2**33),
            # ranges that start below 2^32 and end at or above it
            st.integers(1, n).map(lambda back: 2**32 - back),
            st.sampled_from([0, 2**31, 2**32 - 1, 2**32, 2**33]),
        )
    )
    return lo, lo + n


class TestTrialStreams:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.one_of(st.integers(0, 2**130 - 1), st.sampled_from([0, 2**32 - 1, 2**32])),
        bounds=trial_ranges(),
        width=st.integers(1, 40),
    )
    def test_bit_identical_to_per_trial_generators(self, seed, bounds, width):
        lo, hi = bounds
        got = chunked_rows(seed, lo, hi, width)
        want = oracle_rows(seed, lo, hi, width)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 2**64 + 1, 2**96 + 12345, 2**130 - 1])
    def test_seed_word_counts(self, seed):
        # 1 to 5 seed words; five words take SeedSequence's extra-word mixing
        for lo in (0, 2**32 - 2):
            got = chunked_rows(seed, lo, lo + 4, 30)
            assert got.view(np.uint64).tolist() == oracle_rows(seed, lo, lo + 4, 30).view(
                np.uint64
            ).tolist()

    @pytest.mark.parametrize(
        "rows, width",
        [
            (rows, width)
            for rows in (1, 3, 43, 436, 1000, _STREAM_CHUNK)
            for width in (1, 2, 7, 30, 33, 300, 3001, 30_000)
            # the chunks _trial_uniforms makes: at most 1 MiB unless one row is larger
            if rows == 1 or 8 * rows * width <= _STREAM_BYTES
        ],
    )
    @pytest.mark.parametrize("lo", [0, 2**32])
    def test_jumps_of_many_draws_per_lane(self, rows, width, lo):
        # a chunk of few rows steps each lane B draws at a time (B up to
        # _STREAM_CHUNK // rows), so long rows and partial last jumps are checked
        index = np.arange(lo, lo + rows, dtype=np.uint64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _pcg64_uniforms(_uint32_words(2026), index, width)
        want = oracle_rows(2026, lo, lo + rows, width)
        assert got.T.flags.c_contiguous  # draw-major: one draw of every row is contiguous
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0), None])
    def test_bad_seed_raises_as_seed_sequence(self, seed):
        with pytest.raises(Exception) as numpy_error:
            np.random.SeedSequence([seed, 0])
        with pytest.raises(numpy_error.type):
            list(_trial_uniforms(seed, 0, 2, 3))

    @pytest.mark.parametrize(
        "rule, lo, n",
        [
            (DecisionRule.SAP, 0, _STREAM_CHUNK + 1),
            (DecisionRule.MAP, 2**32 - 5000, 2 * _STREAM_CHUNK + 1),
        ],
    )
    def test_block_past_the_stream_chunk(self, rule, lo, n):
        model = build_coin_model(4, 0.4)
        params = TypicalityParams(epsilon=0.25, extension=3)
        (got,) = _run_block([(model, _symbol_law(model, rule), params)], 2026, lo, lo + n)
        want = reference_block(model, rule, 0.25, 3, 2026, lo, lo + n)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.fixture
def chunk_log(monkeypatch):
    """Records (first index, rows, width) of every chunk and fills it with
    zeros instead of computing its uniforms."""
    log = []

    def recording(seed_words, index, width):
        log.append((int(index[0]), len(index), width))
        return np.zeros((len(index), width))

    monkeypatch.setattr(experiment, "_pcg64_uniforms", recording)
    return log


class TestChunkBytes:
    @pytest.mark.parametrize(
        "width, rows",
        [(2, _STREAM_CHUNK), (30, _STREAM_CHUNK), (32, _STREAM_CHUNK), (33, 3971),
         (30_000, 4), (2**17, 1), (2**18, 1)],
    )
    def test_rows_per_chunk(self, chunk_log, width, rows):
        # 4,096 rows up to 32 doubles a row (every acceptance width), then
        # about 1 MiB a chunk, and never less than one row
        list(_trial_uniforms(3, 0, 2 * rows + 1, width))
        assert chunk_log == [(0, rows, width), (rows, rows, width), (2 * rows, 1, width)]

    def test_sap_at_m_ten_thousand(self, chunk_log):
        # a SAP trial at M=10^4 reads 3*10^4 doubles: 4 rows (960 KB) a
        # chunk, where a 4,096-row chunk would take 983 MB
        model = build_coin_model(10, 0.4)
        params = TypicalityParams(epsilon=0.25, extension=10_000)
        sap = _symbol_law(model, DecisionRule.SAP)
        ((success, _, _),) = _run_block([(model, sap, params)], 7, 0, 10)
        assert len(success) == 10
        assert chunk_log == [(0, 4, 30_000), (4, 4, 30_000), (8, 2, 30_000)]

    def test_small_chunks_never_straddle_2_to_32(self, chunk_log):
        list(_trial_uniforms(3, 2**32 - 6, 2**32 + 3, 30_000))
        assert chunk_log == [
            (2**32 - 6, 4, 30_000), (2**32 - 2, 2, 30_000), (2**32, 3, 30_000)
        ]
