"""Reproducible random sources.

A counter-based splitmix64 stream gives bitwise-identical sequences across
platforms, which the determinism requirements depend on. On top of it sit a
Box-Muller Gaussian and a Chambers-Mallows-Stuck alpha-stable sampler
(1-parameterization).

The block draws (`next_u64s`, `uniforms`, `gaussians`) return the same bits as
the matching number of scalar calls. They use numpy only for wrapping uint64
arithmetic and IEEE-exact float operations (`*`, `+`, `sqrt`); `log` and `cos`
go through `math`, because numpy's SIMD versions may round differently.
"""

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _mix_block(z):
    """`_mix` over a uint64 array, in place (multiplications wrap mod 2^64)."""
    shifted = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= np.uint64(factor)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


class RngStream:
    """Seeded splitmix64 generator. Single-owner mutable state."""

    def __init__(self, seed):
        self._state = int(seed) & _MASK64

    def next_u64(self):
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def uniform(self):
        """One draw from (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * _INV_2_53

    def next_u64s(self, n):
        """The next `n` outputs as a uint64 array, equal to `n` `next_u64()`
        calls, which leaves the state where those calls would."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix_block(z)

    def uniforms(self, n):
        """The next `n` draws from (0, 1] as a float64 array, equal to `n`
        `uniform()` calls."""
        z = self.next_u64s(n)
        z >>= np.uint64(11)
        z += np.uint64(1)
        u = z.astype(np.float64)  # exact: every value is at most 2^53
        u *= _INV_2_53
        return u


def gaussian(rng, mean=0.0, std=1.0):
    """One N(mean, std^2) draw via Box-Muller (two uniforms consumed)."""
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    u1 = rng.uniform()
    u2 = rng.uniform()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    if std == 0.0:
        return mean
    return mean + std * z


def gaussians(rng, n, mean=0.0, std=1.0):
    """`n` N(mean, std^2) draws as a float64 array, equal to `n` `gaussian`
    calls (2n uniforms consumed, taken as (u1, u2) pairs in stream order)."""
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    u = rng.uniforms(2 * n)
    if std == 0.0:
        return np.full(n, mean, dtype=np.float64)
    radius = np.fromiter(map(math.log, u[0::2].tolist()), np.float64, n)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = u[1::2]
    angle *= 2.0 * math.pi
    z = radius * np.fromiter(map(math.cos, angle.tolist()), np.float64, n)
    z *= std
    z += mean
    return z


@dataclass(frozen=True)
class StableParams:
    """S(alpha_tail, skew, scale, location) in the 1-parameterization."""

    alpha_tail: float
    skew: float = 0.0
    scale: float = 1.0
    location: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha_tail <= 2.0:
            raise ValueError(f"alpha_tail must be in (0, 2], got {self.alpha_tail}")
        if not -1.0 <= self.skew <= 1.0:
            raise ValueError(f"skew must be in [-1, 1], got {self.skew}")
        if not self.scale > 0.0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


def _open_uniform(rng):
    """One draw from (0, 1): the stream's rare 1.0 is redrawn, so every other
    draw, and the sequence after it, is unchanged."""
    u = rng.uniform()
    while u == 1.0:
        u = rng.uniform()
    return u


def alpha_stable(rng, p):
    """One stable draw by the Chambers-Mallows-Stuck construction.

    At alpha_tail = 2 this reduces to N(location, 2 * scale^2); at
    alpha_tail = 1, skew = 0 it is a scaled Cauchy. A draw beyond the float
    range (possible for a small alpha_tail) is an infinity of its sign.
    """
    return _stable_draws(p, [_open_uniform(rng)], [_open_uniform(rng)])[0]


def alpha_stables(rng, p, n):
    """`n` draws as a float64 array, equal to `n` `alpha_stable` calls: the
    2n uniforms are one `uniforms(2n)` block, unless it holds an exact 1.0;
    then the stream state is restored and the draws are made one by one."""
    state, u = rng._state, rng.uniforms(2 * n)
    if np.any(u == 1.0):
        rng._state = state
        return np.array([alpha_stable(rng, p) for _ in range(n)], dtype=np.float64)
    return np.array(_stable_draws(p, u[0::2].tolist(), u[1::2].tolist()), dtype=np.float64)


def _stable_draws(p, angles, exps):
    """The draws (a list) of the (angle, exponential) uniform pairs in (0, 1);
    the constants t, b0 and s depend on `p` only."""
    a = p.alpha_tail
    b = p.skew
    t = b * math.tan(math.pi * a / 2.0)
    b0 = math.atan(t) / a
    s = (1.0 + t * t) ** (1.0 / (2.0 * a))
    half_pi = math.pi / 2.0
    out = []
    for u1, u2 in zip(angles, exps):
        u = math.pi * (u1 - 0.5)  # uniform on (-pi/2, pi/2)
        w = -math.log(u2)         # Exp(1), never 0
        if a == 1.0:
            x = (1.0 / half_pi) * (
                (half_pi + b * u) * math.tan(u)
                - b * math.log((half_pi * w * math.cos(u)) / (half_pi + b * u))
            )
            # 1-parameterization shift for the alpha = 1 skewed case
            out.append(p.scale * x + p.location
                       + (1.0 / half_pi) * b * p.scale * math.log(p.scale))
            continue
        try:
            x = (
                s
                * math.sin(a * (u + b0))
                / math.cos(u) ** (1.0 / a)
                * (math.cos(u - a * (u + b0)) / w) ** ((1.0 - a) / a)
            )
        except (OverflowError, ZeroDivisionError):  # or cos(u)^(1/a) underflowed
            x = math.copysign(math.inf, math.sin(a * (u + b0)))
        out.append(p.scale * x + p.location)
    return out
