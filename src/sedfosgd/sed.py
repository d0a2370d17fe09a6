"""Two-scale effective dimension and the fractional-exponent adaptation rule.

Per layer j the effective dimension blends the nominal parameter count with
a curvature term read off the Fisher spectrum:

    d_zeta = zeta * d_j + (1 - zeta) * d_curv,
    d_curv = sum_i log(1 + eps^(zeta-1) * sqrt(lambda_i)) / |log eps^(zeta-1)|.

The running maximum over layers and iterations normalizes the per-layer
value into [0, 1], which then lowers the fractional exponent from its base:
alpha_j = alpha0 - beta * d_zeta_j / d_max, clamped to [alpha_min, alpha0].

The functions read zeta, epsilon, alpha0, beta and alpha_min from `cfg`, the
run's `ExperimentConfig`, which checks their ranges. `two_sed` takes floats
or arrays; the one-step chain of `exponents` runs on Python floats.
"""


def curvature_scale(cfg):
    """eps^(zeta-1), at least 1 since eps < 1 and zeta < 1; the run's config
    requires it above 1, which rounding misses when eps or zeta is near 1,
    and holds it and its |log| as `cfg.curvature`."""
    return cfg.epsilon ** (cfg.zeta - 1.0)


def d_curv(logdet, cfg):
    """Curvature dimension of one layer from its block's
    logdet_plus(F, curvature_scale(cfg)); zero for a zero block."""
    return logdet / cfg.curvature[1]


def two_sed(logdet, d_nominal, cfg):
    return cfg.zeta * d_nominal + (1.0 - cfg.zeta) * d_curv(logdet, cfg)


def adapt_alpha(dzeta, d_max, cfg):
    """Map one layer's effective dimension `dzeta` and the running maximum
    `d_max` (Python floats) to its exponent.

    Before any observation (d_max == 0) every layer keeps the base exponent,
    matching the classical first step of the optimizer.
    """
    # d_max >= dzeta >= 0, so d_max == 0 means dzeta == 0: dividing by 1
    # instead keeps alpha0; as beta >= 0 too, no exponent exceeds alpha0
    return max(cfg.alpha0 - cfg.beta * dzeta / (d_max + (d_max <= 0.0)), cfg.alpha_min)


def exponents(logdets, dims, d_max, cfg):
    """One step's dimensions (seeds x layers), their running maximum from
    `d_max` on (per seed) and exponents, from each seed's per-layer log-dets
    and the layers' nominal `dims`. On Python floats: + - * / and max round
    as they do on arrays, so these have the bits of the array formulas."""
    dzeta = [[two_sed(x, d, cfg) for x, d in zip(seed, dims)] for seed in logdets]
    peak = [max(m, *z) for m, z in zip(d_max, dzeta)]
    return dzeta, peak, [[adapt_alpha(x, m, cfg) for x in z] for z, m in zip(dzeta, peak)]
