"""Two-scale effective dimension and the fractional-exponent adaptation rule.

Per layer j the effective dimension blends the nominal parameter count with
a curvature term read off the Fisher spectrum:

    d_zeta = zeta * d_j + (1 - zeta) * d_curv,
    d_curv = sum_i log(1 + eps^(zeta-1) * sqrt(lambda_i)) / |log eps^(zeta-1)|.

The running maximum over layers and iterations normalizes the per-layer
value into [0, 1], which then lowers the fractional exponent from its base:
alpha_j = alpha0 - beta * d_zeta_j / d_max, clamped to [alpha_min, alpha0].
"""

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class SedConfig:
    zeta: float = 0.7
    epsilon: float = 0.01
    alpha0: float = 0.98
    beta: float = 0.01
    alpha_min: float = 0.05
    use_normalized_fisher: bool = True

    def __post_init__(self):
        if not 2.0 / 3.0 <= self.zeta < 1.0:
            raise ValueError(f"zeta must be in [2/3, 1), got {self.zeta}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.alpha0 <= 1.0:
            raise ValueError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not 0.0 < self.alpha_min <= self.alpha0:
            raise ValueError(
                f"alpha_min must be in (0, alpha0], got {self.alpha_min}")

    @property
    def curvature_scale(self):
        """eps^(zeta-1) > 1 since eps < 1 and zeta < 1."""
        return self.epsilon ** (self.zeta - 1.0)


@dataclass(frozen=True)
class SedEstimate:
    per_layer: np.ndarray        # d_zeta per layer at the current iteration
    lower_cumulative: np.ndarray  # layer-wise cumulative increments
    d_max_running: float = 0.0

    @classmethod
    def empty(cls, n_layers):
        return cls(per_layer=np.zeros(n_layers),
                   lower_cumulative=np.zeros(n_layers),
                   d_max_running=0.0)


@dataclass(frozen=True)
class AlphaState:
    per_layer_alpha: np.ndarray


def d_curv(logdet, cfg):
    """Curvature dimension of one layer from its block's
    logdet_plus(F, cfg.curvature_scale); zero for a zero block."""
    return logdet / abs(np.log(cfg.curvature_scale))


def two_sed(logdet, d_nominal, cfg):
    if d_nominal < 1:
        raise ValueError(f"d_nominal must be >= 1, got {d_nominal}")
    return cfg.zeta * d_nominal + (1.0 - cfg.zeta) * d_curv(logdet, cfg)


def lower_2sed_accumulate(prev, logdet, cfg):
    """One layer of the cumulative variant: prev plus this layer's increment.

    The integral over earlier layers' parameters is replaced by plug-in
    evaluation at the current EMA block; `logdet` is the same spectral value
    that `d_curv` takes, so one solve per block serves both.
    """
    if prev < 0:
        raise ValueError(f"prev must be >= 0, got {prev}")
    inc = (1.0 - cfg.zeta) * logdet / abs(np.log(cfg.epsilon))
    return prev + inc


def update_dmax(sed):
    """Fold the current per-layer values into the running maximum."""
    if sed.per_layer.size:
        d_max = max(sed.d_max_running, float(np.max(sed.per_layer)))
    else:
        d_max = sed.d_max_running
    return replace(sed, d_max_running=d_max)


def adapt_alpha(sed, cfg):
    """Map effective dimensions to per-layer fractional exponents.

    Before any observation (d_max == 0) every layer keeps the base exponent,
    matching the classical first step of the optimizer.
    """
    if sed.d_max_running <= 0.0:
        alphas = np.full(sed.per_layer.shape, cfg.alpha0)
    else:
        alphas = cfg.alpha0 - cfg.beta * sed.per_layer / sed.d_max_running
        alphas = np.clip(alphas, cfg.alpha_min, cfg.alpha0)
    return AlphaState(per_layer_alpha=alphas)
