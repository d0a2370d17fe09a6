"""Two-scale effective dimension and the fractional-exponent adaptation rule.

Per layer j the effective dimension blends the nominal parameter count with
a curvature term read off the Fisher spectrum:

    d_zeta = zeta * d_j + (1 - zeta) * d_curv,
    d_curv = sum_i log(1 + eps^(zeta-1) * sqrt(lambda_i)) / |log eps^(zeta-1)|.

The running maximum over layers and iterations normalizes the per-layer
value into [0, 1], which then lowers the fractional exponent from its base:
alpha_j = alpha0 - beta * d_zeta_j / d_max, clamped to [alpha_min, alpha0].

The functions read zeta, epsilon, alpha0, beta and alpha_min from `cfg`, the
run's `ExperimentConfig`, which checks their ranges.
"""

import numpy as np


def curvature_scale(cfg):
    """eps^(zeta-1) > 1 since eps < 1 and zeta < 1."""
    return cfg.epsilon ** (cfg.zeta - 1.0)


def d_curv(logdet, cfg):
    """Curvature dimension of one layer from its block's
    logdet_plus(F, curvature_scale(cfg)); zero for a zero block."""
    return logdet / abs(np.log(curvature_scale(cfg)))


def two_sed(logdet, d_nominal, cfg):
    if d_nominal < 1:
        raise ValueError(f"d_nominal must be >= 1, got {d_nominal}")
    return cfg.zeta * d_nominal + (1.0 - cfg.zeta) * d_curv(logdet, cfg)


def adapt_alpha(dzeta, d_max, cfg):
    """Map the per-layer effective dimensions `dzeta` (layers on the last
    axis, seeds on any leading ones) and their running maximum `d_max` (one
    per seed, on a last axis of length 1) to the per-layer exponents.

    Before any observation (d_max == 0) every layer keeps the base exponent,
    matching the classical first step of the optimizer.
    """
    # d_max >= dzeta >= 0, so d_max == 0 means dzeta == 0: dividing by 1
    # instead keeps alpha0; as beta >= 0 too, no exponent exceeds alpha0
    return np.maximum(cfg.alpha0 - cfg.beta * dzeta / (d_max + (d_max <= 0.0)),
                      cfg.alpha_min)
