"""Reproducible random sources.

A counter-based splitmix64 stream gives bitwise-identical sequences across
platforms, which the determinism requirements depend on. The package's only
samplers are block draws on it (`uniforms`, Leva's ratio-of-uniforms
`gaussians`, Chambers-Mallows-Stuck `alpha_stables`), each with the bits of
the scalar draws in `tests/reference.py`. They use numpy only for wrapping
uint64 arithmetic and IEEE-exact float operations (`+`, `-`, `*`, `/`, `abs`);
`log` and the trigonometry go through `math`, because numpy's SIMD versions may
round differently (`gaussians` needs `log` for 0.85 % of its candidates only).
"""

import math

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

    def next_u64s(self, n):
        """The next `n` outputs as a uint64 array, equal to `n` `next_u64()`
        calls, which leaves the state where those calls would."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + n * _GOLDEN) & _MASK64
        return _mix_block(z)

    def uniforms(self, n):
        """The next `n` draws from (0, 1] as a float64 array: ((z >> 11) + 1)
        * 2^-53 of each of the next `n` outputs z."""
        z = self.next_u64s(n)
        z >>= np.uint64(11)
        z += np.uint64(1)
        u = z.astype(np.float64)  # exact: every value is at most 2^53
        u *= _INV_2_53
        return u


def gaussians(rng, n, mean=0.0, std=1.0):
    """`n` N(mean, std^2) draws by Leva's ratio of uniforms, as a float64
    array: the v / u of the accepted candidate pairs (u, u2), v = 1.7156 (u2 -
    0.5), decided a block of about 1.38 n pairs at a time. The stream is set
    back to just after the last pair taken, so it ends where `n` scalar draws
    end. A draw beyond the float range is an infinity of its sign."""
    start, taken, parts, need = rng._state, 0, [], n
    while need > 0:
        m = int(1.38 * need) + 16
        w = rng.uniforms(2 * m)
        u, v = w[0::2], 1.7156 * (w[1::2] - 0.5)
        x, y = u - 0.449871, np.abs(v) + 0.386595
        q = x * x + y * (0.19600 * y - 0.25472 * x)
        keep = q <= 0.27597
        edge = np.flatnonzero(~keep & (q <= 0.27846))  # near the boundary: exact test
        keep[edge] = [b * b <= -4.0 * math.log(a) * a * a
                      for a, b in zip(u[edge].tolist(), v[edge].tolist())]
        hits = np.flatnonzero(keep)[:need]
        need -= hits.size
        taken += int(hits[-1]) + 1 if need == 0 else m
        parts.append(v[hits] / u[hits])
    rng._state = (start + 2 * taken * _GOLDEN) & _MASK64
    z = np.concatenate([np.empty(0), *parts])
    with np.errstate(over="ignore"):
        z *= std
        z += mean
    return z


def alpha_stables(rng, n, tail, skew=0.0, scale=1.0, location=0.0):
    """`n` S(tail, skew, scale, location) draws (1-parameterization) by the
    Chambers-Mallows-Stuck construction, as a float64 array; at tail = 2 it
    is N(location, 2 * scale^2), at tail = 1, skew = 0 a scaled Cauchy. A
    draw beyond the float range (possible for a small tail) is an infinity
    of its sign. The block's rare exact 1.0s are dropped and the shortfall
    drawn until 2n uniforms from (0, 1) remain, taken as (angle,
    exponential) pairs; the stream ends after the last one taken."""
    u = rng.uniforms(2 * n)
    u = u[u != 1.0]
    while u.size < 2 * n:
        more = rng.uniforms(2 * n - u.size)
        u = np.concatenate([u, more[more != 1.0]])
    return np.array(_stable_draws(tail, skew, scale, location,
                                  u[0::2].tolist(), u[1::2].tolist()), dtype=np.float64)


def _stable_draws(a, b, scale, location, angles, exps):
    """The draws (a list) of S(a, b, scale, location) from the (angle,
    exponential) uniform pairs in (0, 1); the constants t, b0 and s depend on
    the parameters only."""
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
            out.append(scale * x + location
                       + (1.0 / half_pi) * b * scale * math.log(scale))
            continue
        try:
            x = (
                s
                * math.sin(a * (u + b0))
                / math.cos(u) ** (1.0 / a)
                # the cosine of (-pi/2, pi/2) can round below 0 near tail 1, skew +-1
                * (abs(math.cos(u - a * (u + b0))) / w) ** ((1.0 - a) / a)
            )
        except (OverflowError, ZeroDivisionError):  # or cos(u)^(1/a) underflowed
            x = math.copysign(math.inf, math.sin(a * (u + b0)))
        out.append(scale * x + location)
    return out
