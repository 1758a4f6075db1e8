import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from titest import (
    DecisionRule,
    TypicalityParams,
    build_bsc_model,
    build_coin_model,
    build_constant_model,
    build_identity_model,
    experiment,
    extended_fano_check,
)


@pytest.fixture
def every_block_pays(monkeypatch):
    """Pin the work that pays for a block to one double, so a call splits
    into min(workers, trials) blocks and, with more than one, goes through a
    real process pool however little work it holds."""
    monkeypatch.setattr(experiment, "_BLOCK_WORK", 1)


@pytest.fixture(scope="session")
def coin10():
    return build_coin_model(10, 0.4)


@pytest.fixture(scope="session")
def coin10_fano_m10(coin10):
    """extended_fano_check of each deterministic rule at the acceptance point
    (coin10, epsilon 0.25, M=10), walked once for every module that reads it."""
    params = TypicalityParams(0.25, 10)
    return {
        rule: extended_fano_check(coin10, rule, params)
        for rule in (DecisionRule.MAP, DecisionRule.EAP, DecisionRule.MEAP)
    }


@pytest.fixture(scope="session")
def coin35():
    return build_coin_model(35, 0.4)


@pytest.fixture(scope="session")
def bsc25():
    return build_bsc_model(0.25)


@pytest.fixture(scope="session")
def identity4():
    return build_identity_model(4)


@pytest.fixture(scope="session")
def constant2():
    return build_constant_model(2)
