"""Reference formulas the tests and the acceptance gate check the package
against; the run loop never calls them."""

import math

import numpy as np

from sedfosgd.noise import _stable_draws
from sedfosgd.optim import norm
from sedfosgd.sed import two_sed


def uniform(rng):
    """One draw from (0, 1] of a `noise.RngStream`."""
    return ((rng.next_u64() >> 11) + 1) * 2.0 ** -53


def gaussian(rng, mean=0.0, std=1.0):
    """One N(mean, std^2) draw by Leva's ratio of uniforms: (u, u2) pairs
    until one is accepted, whose v / u is the draw."""
    while True:
        u = uniform(rng)
        v = 1.7156 * (uniform(rng) - 0.5)
        x = u - 0.449871
        y = abs(v) + 0.386595
        q = x * x + y * (0.19600 * y - 0.25472 * x)
        if q <= 0.27597 or (q <= 0.27846 and v * v <= -4.0 * math.log(u) * u * u):
            return mean + std * (v / u)


def _open_uniform(rng):
    """One draw from (0, 1): the stream's rare 1.0 is redrawn, so every other
    draw, and the sequence after it, is unchanged."""
    u = uniform(rng)
    while u == 1.0:
        u = uniform(rng)
    return u


def alpha_stable(rng, tail, skew=0.0, scale=1.0, location=0.0):
    """One S(tail, skew, scale, location) draw by the Chambers-Mallows-Stuck
    construction (an angle, then an exponential uniform)."""
    angle = _open_uniform(rng)
    return _stable_draws(tail, skew, scale, location, [angle], [_open_uniform(rng)])[0]


def quadratic_loss_grad(theta, a_mat, b):
    """The dense quadratic f = 0.5 theta' A theta - b' theta and its gradient
    A theta - b, for one theta or a stack of them (one per seed, along the
    leading axes); `problems.quadratic_loss_grad` is its case A = diag(d),
    b = 0, the one quadratic a config builds."""
    a_theta = np.matmul(a_mat, theta[..., None])[..., 0]
    return 0.5 * np.vecdot(theta, a_theta) - np.vecdot(b, theta), a_theta - b


def delta_radius(cfg, grad_bound, alpha_max=None):
    """Fixed point R = mu0 * max(1, (delta + R)^(1 - alpha_max)) * G.

    This is the consecutive-iterate bound; the max with 1 covers the first
    classical step, whose scaling factor is exactly 1.
    """
    if alpha_max is None:
        alpha_max = cfg.alpha0
    r = cfg.mu0 * grad_bound
    for _ in range(100):
        c_delta = max(1.0, (cfg.delta + r) ** (1.0 - alpha_max))
        r_next = cfg.mu0 * c_delta * grad_bound
        if abs(r_next - r) <= 1e-15 * max(1.0, r):
            r = r_next
            break
        r = r_next
    return r


def adapt_alpha(dzeta, d_max, cfg):
    """`sed.adapt_alpha` as one array formula: the per-layer dimensions
    `dzeta` on the last axis, seeds on any leading ones, and their running
    maximum `d_max` (one per seed, on a last axis of length 1)."""
    return np.maximum(cfg.alpha0 - cfg.beta * dzeta / (d_max + (d_max <= 0.0)),
                      cfg.alpha_min)


def exponents(logdets, dims, d_max, cfg):
    """`sed.exponents` as array formulas: from log-dets (seeds, layers) and
    the running maximum before the step (seeds,), the dimensions, the new
    running maximum and the exponents, as numpy arrays."""
    dzeta = np.stack([two_sed(logdets[:, j], d, cfg) for j, d in enumerate(dims)], axis=-1)
    peak = np.maximum(d_max, dzeta.max(axis=-1))
    return dzeta, peak, adapt_alpha(dzeta, peak[:, None], cfg)


def logdet_plus(m, s, diagonal=False):
    """`mathkit.logdet_plus` in its first order: the eigenvalues reversed
    into non-increasing order before the elementwise chain, not after."""
    w = m if diagonal else np.linalg.eigvalsh(m)[..., ::-1]
    return np.log1p(s * np.sqrt(np.maximum(w, 0.0))).sum(axis=-1)


def step(layers, steps, grads, mu, alphas, cfg):
    """`optim.step` out of place, one seed and layer at a time: theta -
    (mu / Gamma(2 - alpha)) * ((|Delta theta| + delta)^(1 - alpha) * g), or
    with the layer's step norm in "layer-norm" mode; returns the new layers
    and their steps new - theta."""
    new_layers, new_steps = [], []
    for j, (th, d, g) in enumerate(zip(layers, steps, grads)):
        new = np.empty_like(th)
        for k in range(len(th)):
            a = alphas[j][k]
            base = (norm([d[k]]) if cfg.scaling_mode == "layer-norm" else np.abs(d[k]))
            new[k] = th[k] - (mu / math.gamma(2.0 - a)) * ((base + cfg.delta) ** (1.0 - a) * g[k])
        new_layers.append(new)
        new_steps.append(new - th)
    return new_layers, new_steps
