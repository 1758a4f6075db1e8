"""Discrete Bayesian hypothesis testing against the test-information ceiling.

The package is organized bottom-up: model (joint distributions and entropy
summaries in bits), rules (posterior decision rules and exact error
probabilities), typicality (typical-set predicates and the exact engine:
censuses and the extended Fano audit), experiment (M-extension sampling,
seeded Monte Carlo trials, achievability and converse audits, sweeps), and
cli (the titest command).

Each of the four library modules' ``__all__`` is its public API and the only
list of it: the package republishes the four lists, in that order, plus
``__version__``.
"""

from . import experiment, model, rules, typicality
from .model import *
from .rules import *
from .typicality import *
from .experiment import *

__version__ = "0.1.0"

__all__ = [*model.__all__, *rules.__all__, *typicality.__all__, *experiment.__all__, "__version__"]
