"""Dimension-adaptive fractional-order stochastic gradient descent.

Layer-wise effective dimensions computed from EMA Fisher blocks drive the
fractional exponent of the optimizer; baselines (SGD, fixed-exponent
fractional SGD), noise models, desk-scale experiment problems, and a CLI
harness round out the package.
"""

from .harness import (ConfigError, ExperimentConfig, RateFit, RunResult,
                      csv_bytes, load_config, run, seed_rate_fit, seed_sweep)
from .optim import DivergenceError

__all__ = [
    "ConfigError", "DivergenceError", "ExperimentConfig", "RateFit",
    "RunResult", "csv_bytes", "load_config", "run", "seed_rate_fit",
    "seed_sweep",
]

__version__ = "0.1.0"
