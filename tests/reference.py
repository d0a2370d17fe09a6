"""Reference formulas the tests and the acceptance gate check the package
against; the run loop never calls them."""

import math

from sedfosgd.noise import _stable_draws


def uniform(rng):
    """One draw from (0, 1] of a `noise.RngStream`."""
    return ((rng.next_u64() >> 11) + 1) * 2.0 ** -53


def gaussian(rng, mean=0.0, std=1.0):
    """One N(mean, std^2) draw via Box-Muller (two uniforms consumed)."""
    u1 = uniform(rng)
    u2 = uniform(rng)
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    if std == 0.0:
        return mean
    return mean + std * z


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
