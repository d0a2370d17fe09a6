"""Reproducible random sources.

A counter-based splitmix64 stream gives bitwise-identical sequences across
platforms, which the determinism requirements depend on. On top of it sit a
Box-Muller Gaussian and a Chambers-Mallows-Stuck alpha-stable sampler
(1-parameterization).
"""

import math
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def _mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


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

    def spawn(self, index):
        """Independent stream for parallel run `index` (seed XOR index hash)."""
        return RngStream(self._state ^ _mix(int(index) & _MASK64))


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
    alpha_tail = 1, skew = 0 it is a scaled Cauchy.
    """
    a = p.alpha_tail
    b = p.skew
    u = math.pi * (_open_uniform(rng) - 0.5)  # uniform on (-pi/2, pi/2)
    w = -math.log(_open_uniform(rng))         # Exp(1), never 0

    if a == 1.0:
        half_pi = math.pi / 2.0
        x = (1.0 / half_pi) * (
            (half_pi + b * u) * math.tan(u)
            - b * math.log((half_pi * w * math.cos(u)) / (half_pi + b * u))
        )
        # 1-parameterization shift for the alpha = 1 skewed case
        return p.scale * x + p.location + (1.0 / half_pi) * b * p.scale * math.log(p.scale)

    t = b * math.tan(math.pi * a / 2.0)
    b0 = math.atan(t) / a
    s = (1.0 + t * t) ** (1.0 / (2.0 * a))
    x = (
        s
        * math.sin(a * (u + b0))
        / math.cos(u) ** (1.0 / a)
        * (math.cos(u - a * (u + b0)) / w) ** ((1.0 - a) / a)
    )
    return p.scale * x + p.location
