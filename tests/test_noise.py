import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from sedfosgd.noise import (RngStream, StableParams, alpha_stable, gaussian,
                            gaussians)

# seeds at 0, at the top of the range and past 2^63, where the state and the
# counter arithmetic wrap
WRAP_SEEDS = [0, 2**64 - 1, 2**63 + 5]


class TestRngStream:
    def test_same_seed_bitwise_identical(self):
        a = RngStream(1234)
        b = RngStream(1234)
        assert [a.next_u64() for _ in range(10_000)] == \
               [b.next_u64() for _ in range(10_000)]

    def test_uniform_range(self):
        rng = RngStream(5)
        xs = [rng.uniform() for _ in range(10_000)]
        assert all(0.0 < x <= 1.0 for x in xs)

    def test_spawn_differs_from_parent(self):
        rng = RngStream(7)
        child = rng.spawn(1)
        assert [rng.next_u64() for _ in range(100)] != \
               [child.next_u64() for _ in range(100)]


class TestBlockStream:
    """The block draws against the scalar stream, which is the reference."""

    def test_reference_vector(self):
        # splitmix64 outputs for seed 1234567, pinned so that the scalar and
        # block streams cannot drift together
        expected = [6457827717110365317, 3203168211198807973,
                    9817491932198370423, 4593380528125082431,
                    16408922859458223821]
        scalar = RngStream(1234567)
        assert [scalar.next_u64() for _ in range(5)] == expected
        assert RngStream(1234567).next_u64s(5).tolist() == expected

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_next_u64s_equals_scalar_calls(self, seed, n):
        block, scalar = RngStream(seed), RngStream(seed)
        z = block.next_u64s(n)
        assert z.dtype == np.uint64 and z.shape == (n,)
        assert z.tolist() == [scalar.next_u64() for _ in range(n)]
        assert block._state == scalar._state

    @pytest.mark.parametrize("seed", WRAP_SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 1000])
    def test_uniforms_equal_scalar_calls(self, seed, n):
        block, scalar = RngStream(seed), RngStream(seed)
        u = block.uniforms(n)
        assert u.dtype == np.float64 and u.shape == (n,)
        assert u.tolist() == [scalar.uniform() for _ in range(n)]
        assert block._state == scalar._state

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RngStream(0).next_u64s(-1)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300),
           mean=st.floats(-1e6, 1e6), std=st.floats(0.0, 1e6))
    def test_gaussians_equal_scalar_calls(self, seed, n, mean, std):
        block, scalar = RngStream(seed), RngStream(seed)
        got = gaussians(block, n, mean, std)
        want = np.array([gaussian(scalar, mean, std) for _ in range(n)],
                        dtype=np.float64)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert block.uniform() == scalar.uniform()

    def test_zero_std_is_exact_after_2n_draws(self):
        rng, ref = RngStream(3), RngStream(3)
        got = gaussians(rng, 7, 3.25, 0.0)
        assert got.tolist() == [3.25] * 7
        ref.uniforms(14)
        assert rng.next_u64() == ref.next_u64()

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussians(RngStream(0), 4, 0.0, -1.0)


class TestGaussian:
    def test_zero_std_is_exact(self):
        rng = RngStream(0)
        assert gaussian(rng, 3.25, 0.0) == 3.25

    def test_fixed_seed_repeatable(self):
        x1 = gaussian(RngStream(42), 0.0, 1.0)
        x2 = gaussian(RngStream(42), 0.0, 1.0)
        assert x1 == x2

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian(RngStream(0), 0.0, -1.0)

    def test_law_of_large_numbers(self):
        rng = RngStream(2024)
        draws = np.array([gaussian(rng) for _ in range(100_000)])
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.var() - 1.0) <= 0.03


def _symmetric_stable_cdf(x, alpha, scale):
    """Gil-Pelaez inversion of the symmetric stable characteristic function."""
    def integrand(t):
        return math.sin(x * t) * math.exp(-((scale * t) ** alpha)) / t

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return 0.5 + val / math.pi


class TestAlphaStable:
    def test_params_validated(self):
        with pytest.raises(ValueError):
            StableParams(alpha_tail=2.5)
        with pytest.raises(ValueError):
            StableParams(alpha_tail=1.8, skew=1.5)
        with pytest.raises(ValueError):
            StableParams(alpha_tail=1.8, scale=0.0)

    def test_tail_two_is_gaussian(self):
        # one-sample KS against N(location, 2 * scale^2); seed fixed so the
        # test is deterministic
        rng = RngStream(314159)
        p = StableParams(alpha_tail=2.0, skew=0.0, scale=0.7, location=0.3)
        draws = np.array([alpha_stable(rng, p) for _ in range(100_000)])
        res = stats.kstest(draws, "norm", args=(0.3, 0.7 * math.sqrt(2.0)))
        assert res.pvalue > 0.01

    def test_tail_one_is_cauchy(self):
        rng = RngStream(2718)
        p = StableParams(alpha_tail=1.0, skew=0.0, scale=1.0, location=1.5)
        draws = np.array([alpha_stable(rng, p) for _ in range(100_000)])
        assert abs(np.median(draws) - 1.5) <= 0.02

    def test_heavy_tail_quantiles_vs_cf_inversion(self):
        alpha, scale = 1.8, 0.5
        rng = RngStream(777)
        p = StableParams(alpha_tail=alpha, skew=0.0, scale=scale)
        draws = np.array([alpha_stable(rng, p) for _ in range(100_000)])
        for q in (0.25, 0.5, 0.75):
            expected = optimize.brentq(
                lambda x: _symmetric_stable_cdf(x, alpha, scale) - q, -10.0, 10.0)
            got = np.quantile(draws, q)
            assert got == pytest.approx(expected, abs=0.02)


class _Stub:
    """A stream that replays fixed uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def uniform(self):
        return self.values.pop(0)


class TestStableBoundary:
    # uniform() can return exactly 1.0, which would make the exponential
    # draw w = 0 (division by zero, or log(0) at tail 1) or put u on pi/2
    @pytest.mark.parametrize("tail,skew", [(1.8, 0.0), (1.0, 0.0), (1.0, -1.0)])
    def test_unit_draw_is_redrawn(self, tail, skew):
        p = StableParams(alpha_tail=tail, skew=skew, scale=0.5)
        expected = alpha_stable(_Stub([0.3, 0.6]), p)
        assert math.isfinite(expected)
        assert alpha_stable(_Stub([0.3, 1.0, 0.6]), p) == expected
        assert alpha_stable(_Stub([1.0, 0.3, 0.6]), p) == expected

    def test_two_draws_per_sample(self):
        # without a 1.0 the sampler consumes exactly its two uniforms, so the
        # stream after it is unchanged
        rng, ref = RngStream(11), RngStream(11)
        p = StableParams(alpha_tail=1.5, scale=0.5)
        for _ in range(1000):
            alpha_stable(rng, p)
            ref.uniform()
            ref.uniform()
        assert rng.next_u64() == ref.next_u64()
