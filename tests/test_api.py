"""The package's public names: each behaviour has one entry point."""

import importlib

import pytest

import titest

PUBLIC = {
    "COIN_N_CAP", "DEFAULT_ENUM_CAP", "SWEEP_COLUMNS", "AchievabilityRecord", "CensusBound",
    "CensusReport", "ConverseRecord", "DecisionRule", "DiscreteJointModel",
    "EnumerationTooLargeError", "ExperimentReport", "FanoRecord",
    "InvalidDistributionError", "PosteriorColumn", "SequencePair", "SequenceTrial",
    "TypicalityCheck", "TypicalityParams", "TypicalityVerdict", "ZeroEvidenceError",
    "achievability_check", "build_bsc_model", "build_coin_model", "build_constant_model",
    "build_identity_model", "conditional_members", "converse_check", "decide",
    "decide_columns", "entropy", "error_probability", "extended_fano_check",
    "inverse_cdf_pick", "is_jointly_typical", "is_typical", "posterior", "run_experiment",
    "run_trial", "sample_extension", "sap_sample", "surprisal", "sweep", "typical_set_census",
    "__version__",
}

# each replaced by decide(rule, column, rng), extended_fano_check(...).p_f or
# the model's own fields (model.h_x, ..., model.ti)
RETIRED = ["decide_map", "decide_eap", "decide_meap", "decide_sap", "exact_failure_probability",
           "info_summary", "InfoSummary"]


def test_package_names_are_pinned():
    assert len(PUBLIC) == 44
    assert set(titest.__all__) == PUBLIC


def test_package_names_are_the_modules_lists():
    # each public name is declared once, in its module's __all__
    modules = [titest.model, titest.rules, titest.typicality, titest.experiment]
    want = [name for mod in modules for name in mod.__all__] + ["__version__"]
    assert titest.__all__ == want
    assert len(set(want)) == len(want)


@pytest.mark.parametrize(
    "module", ["titest", "titest.model", "titest.rules", "titest.experiment", "titest.typicality"]
)
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), name


@pytest.mark.parametrize("module", ["titest", "titest.model", "titest.rules", "titest.experiment"])
def test_retired_names_are_gone(module):
    mod = importlib.import_module(module)
    assert [name for name in RETIRED if hasattr(mod, name)] == []
