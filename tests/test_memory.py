"""Traced peak memory of the trial kernel and the exact walk, per draw.

tracemalloc counts numpy's array buffers, so a kernel's traced peak above
what was live when it started is a deterministic count of the bytes its
temporaries hold at once, for one numpy version. Each bound sits halfway
between the peak of a kernel that gathered a law's three rates as one (3,
B, M) array, and so held two gathered (B, M) arrays and more besides, and
the peak of one that gathers a single (B, M) array at a time, measured
with numpy 2.4. A numpy release may allocate its temporaries otherwise,
so these tests are not run against the oldest supported numpy.
"""

import tracemalloc

import pytest

from titest import DecisionRule, TypicalityParams, build_bsc_model, build_coin_model
from titest.experiment import _run_block
from titest.rules import _symbol_law
from titest.typicality import _exact_audit


def traced_peak(fn) -> int:
    """Bytes fn holds at its traced peak, above those traced when it starts."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


class TestKernelMemory:
    @pytest.mark.parametrize(
        "rule, m, trials, bound",
        [
            # bytes per drawn symbol: 80.5 at the (3, B, M) gather, 55.0 now
            (DecisionRule.SAP, 10, 4096, 67.7),
            (DecisionRule.SAP, 100_000, 1, 60.7),  # 72.2 and 49.2
            (DecisionRule.MAP, 10, 4096, 50.2),  # 56.2 and 44.2
            (DecisionRule.MAP, 100_000, 1, 44.5),  # 48.0 and 41.0
        ],
        ids=["sap-chunk", "sap-row", "map-chunk", "map-row"],
    )
    def test_trial_chunk_peak_per_draw(self, rule, m, trials, bound):
        # coin10: a 4,096-trial chunk at M=10 and a one-row chunk at M=10^5,
        # each one chunk of the stream; the first call builds the model's guides
        model = build_coin_model(10, 0.4)
        experiments = [(model, _symbol_law(model, rule), TypicalityParams(0.25, m))]
        _run_block(experiments, 0, 0, trials)
        peak = traced_peak(lambda: _run_block(experiments, 0, 0, trials))
        assert peak / (trials * m) < bound

    def test_sap_audit_walk_peak(self):
        # bsc25 at M=40, the census and the SAP audit on one walk: 19.9 MiB at
        # the (3, B, M) gather, 16.1 MiB now
        model = build_bsc_model(0.25)
        peak = traced_peak(lambda: _exact_audit(model, DecisionRule.SAP, TypicalityParams(0.25, 40)))
        assert peak / 2**20 < 18.0
