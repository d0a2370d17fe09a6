import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from sedfosgd.noise import RngStream, alpha_stables, gaussians

from reference import alpha_stable, gaussian, uniform

# seeds at 0, at the top of the range and past 2^63, where the state and the
# counter arithmetic wrap
WRAP_SEEDS = [0, 2**64 - 1, 2**63 + 5]
# a seed whose first Gaussian block of 1000 draws falls short of 1000
# accepted candidates, so the sampler draws a second block
SHORT_SEED = 13


class TestRngStream:
    def test_same_seed_bitwise_identical(self):
        a = RngStream(1234)
        b = RngStream(1234)
        assert [a.next_u64() for _ in range(10_000)] == \
               [b.next_u64() for _ in range(10_000)]

    def test_uniform_range(self):
        xs = RngStream(5).uniforms(10_000)
        assert np.all((0.0 < xs) & (xs <= 1.0))


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
        assert u.tolist() == [uniform(scalar) for _ in range(n)]
        assert block._state == scalar._state

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 5000),
           mean=st.floats(-1e6, 1e6), std=st.floats(0.0, 1e6))
    # std 0 takes the general path: each draw is mean + 0 * z
    @example(seed=3, n=300, mean=0.0, std=0.0)
    @example(seed=2**64 - 1, n=300, mean=1.5, std=0.0)
    @example(seed=2**63 + 5, n=300, mean=-2.0, std=0.0)
    @example(seed=0, n=300, mean=-0.0, std=0.0)
    @example(seed=7, n=0, mean=1.0, std=2.0)
    @example(seed=2**64 - 1, n=5000, mean=0.0, std=1.0)
    @example(seed=SHORT_SEED, n=1000, mean=0.5, std=3.0)
    def test_gaussians_equal_scalar_calls(self, seed, n, mean, std):
        block, scalar = RngStream(seed), RngStream(seed)
        got = gaussians(block, n, mean, std)
        want = np.array([gaussian(scalar, mean, std) for _ in range(n)],
                        dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block._state == scalar._state

    def test_zero_std_is_exact_and_ends_after_its_last_pair(self):
        # the 7 draws of seed 3 take 10 candidate pairs; the stream is set
        # back to just after the 10th, not left at the end of the block
        rng, ref = RngStream(3), RngStream(3)
        got = gaussians(rng, 7, 3.25, 0.0)
        assert got.tolist() == [3.25] * 7
        ref.uniforms(20)
        assert rng.next_u64() == ref.next_u64()

    def test_a_short_first_block_draws_another(self):
        # the first block for 1000 draws holds int(1.38 * 1000) + 16 = 1396
        # candidate pairs; at SHORT_SEED the 1000th accepted pair is pair 1406
        # (`test_gaussians_equal_scalar_calls` checks the draws at this seed)
        block, after = RngStream(SHORT_SEED), RngStream(SHORT_SEED)
        gaussians(block, 1000)
        after.uniforms(2 * 1406)
        assert block._state == after._state

    def test_pinned_block(self):
        # the bits of a long block and the stream after it; numpy's float
        # arithmetic and the stream's integer arithmetic decide all but the
        # 0.85 % of candidates near the boundary, which take `math.log`
        rng = RngStream(1)
        z = gaussians(rng, 100_000)
        assert hashlib.sha256(z.tobytes()).hexdigest() == (
            "6b618df911a1cb30d46826f33acfa053039a737c2e210ec5e9d0321aa291259e")
        assert rng._state == 5229663311418843853

    def test_draw_beyond_float_range_is_infinite(self):
        # at std = 1e308 a standard draw z overflows once |z| > 1.79, and
        # does so without a warning (pytest turns warnings into errors)
        z = gaussians(RngStream(0), 200)
        got = gaussians(RngStream(0), 200, 0.0, 1e308)
        over, small = np.abs(z) > 2.0, np.abs(z) < 1.5
        assert over.any() and small.any()
        assert np.array_equal(got[over], np.copysign(np.inf, z[over]))
        assert got[small].tobytes() == (z[small] * 1e308).tobytes()


class TestGaussian:
    def test_law_of_large_numbers(self):
        draws = gaussians(RngStream(2024), 100_000)
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.var() - 1.0) <= 0.03


def _symmetric_stable_cdf(x, alpha, scale):
    """Gil-Pelaez inversion of the symmetric stable characteristic function."""
    def integrand(t):
        return math.sin(x * t) * math.exp(-((scale * t) ** alpha)) / t

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=400)
    return 0.5 + val / math.pi


class TestAlphaStable:
    def test_tail_two_is_gaussian(self):
        # one-sample KS against N(location, 2 * scale^2); seed fixed so the
        # test is deterministic
        draws = alpha_stables(RngStream(314159), 100_000, 2.0, 0.0, 0.7, 0.3)
        res = stats.kstest(draws, "norm", args=(0.3, 0.7 * math.sqrt(2.0)))
        assert res.pvalue > 0.01

    def test_tail_one_is_cauchy(self):
        draws = alpha_stables(RngStream(2718), 100_000, 1.0, 0.0, 1.0, 1.5)
        assert abs(np.median(draws) - 1.5) <= 0.02

    def test_heavy_tail_quantiles_vs_cf_inversion(self):
        alpha, scale = 1.8, 0.5
        draws = alpha_stables(RngStream(777), 100_000, alpha, 0.0, scale)
        for q in (0.25, 0.5, 0.75):
            expected = optimize.brentq(
                lambda x: _symmetric_stable_cdf(x, alpha, scale) - q, -10.0, 10.0)
            got = np.quantile(draws, q)
            assert got == pytest.approx(expected, abs=0.02)


# a splitmix64 output whose uniform is exactly 1.0 (its top 53 bits all set)
ONE = 2**64 - 1


class _Script(RngStream):
    """A stream that replays fixed outputs; its state is the position."""

    def __init__(self, outputs):
        self.outputs, self._state = list(outputs), 0

    def next_u64(self):
        self._state += 1
        return self.outputs[self._state - 1]

    def next_u64s(self, n):
        self._state += n
        return np.array(self.outputs[self._state - n:self._state], dtype=np.uint64)


def _outputs(*uniforms):
    """The stream outputs whose uniforms are the given values, up to 2^-53
    (1.0 exactly)."""
    return [(round(u * 2**53) - 1) << 11 for u in uniforms]


class TestStableBoundary:
    # a uniform can be exactly 1.0, which would make the exponential draw
    # w = 0 (division by zero, or log(0) at tail 1) or put u on pi/2
    @pytest.mark.parametrize("tail,skew", [(1.8, 0.0), (1.0, 0.0), (1.0, -1.0)])
    def test_unit_draw_is_redrawn(self, tail, skew):
        expected = alpha_stables(_Script(_outputs(0.3, 0.6)), 1, tail, skew, 0.5)
        assert np.isfinite(expected).all()
        for uniforms in ((0.3, 1.0, 0.6), (1.0, 0.3, 0.6), (1.0, 1.0, 0.3, 1.0, 0.6)):
            stream = _Script(_outputs(*uniforms))
            assert alpha_stables(stream, 1, tail, skew, 0.5).tobytes() == expected.tobytes()
            assert stream._state == len(uniforms)

    @pytest.mark.parametrize("uniforms,sign", [
        ([0.6, 0.999], 1.0), ([0.4, 0.999], -1.0),  # a power overflows
        ([0.999, 0.3], 1.0), ([0.001, 0.3], -1.0),  # cos(u)^(1/a) underflows to 0
    ])
    def test_draw_beyond_float_range_is_infinite(self, uniforms, sign):
        stream = _Script(_outputs(*uniforms))
        assert alpha_stables(stream, 1, 0.005, 0.0, 0.5)[0] == sign * math.inf

    @pytest.mark.parametrize("tail", [1.0 + 2**-40, 1.1, 1.3])
    def test_angle_at_an_end_keeps_the_power_real(self, tail):
        # at skew +-1 and tail just above 1, the cosine's argument lies in
        # (-pi/2, pi/2) but rounds past its end for an angle uniform of 2^-52
        # (or 1 - 2^-52 at skew -1); the cosine, just below 0, would raise
        # the power to a complex value; the two draws mirror each other
        low = alpha_stables(_Script(_outputs(2**-52, 0.6)), 1, tail, 1.0, 0.5)
        high = alpha_stables(_Script(_outputs(1 - 2**-52, 0.6)), 1, tail, -1.0, 0.5)
        assert np.isfinite(low).all() and high.tobytes() == (-low).tobytes()

    def test_two_draws_per_sample(self):
        # without a 1.0 the sampler consumes exactly its 2n uniforms, so the
        # stream after it is unchanged
        rng, ref = RngStream(11), RngStream(11)
        alpha_stables(rng, 1000, 1.5, 0.0, 0.5)
        ref.uniforms(2000)
        assert rng.next_u64() == ref.next_u64()


class TestStableBlock:
    """`alpha_stables` against `n` reference scalar `alpha_stable` calls."""

    # tails 0.3 and 0.005 draw values beyond the float range (infinities)
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 300),
           tail=st.sampled_from([2.0, 1.8, 1.0, 0.3, 0.005]),
           skew=st.sampled_from([0.0, 0.7, -1.0]), scale=st.floats(0.1, 2.0),
           location=st.floats(-1.0, 1.0))
    def test_block_equals_scalar_calls(self, seed, n, tail, skew, scale, location):
        block, scalar = RngStream(seed), RngStream(seed)
        got = alpha_stables(block, n, tail, skew, scale, location)
        want = np.array([alpha_stable(scalar, tail, skew, scale, location)
                         for _ in range(n)], dtype=np.float64)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tobytes() == want.tobytes()
        assert block._state == scalar._state

    @pytest.mark.parametrize("tail,skew", [(1.8, 0.0), (1.0, 0.7), (0.005, 0.0)])
    @pytest.mark.parametrize("ones", [
        [3],           # inside the first block (of 6 outputs)
        [5],           # the first block's last value
        [2, 6],        # in the first block and in its one-value redraw
        [0, 4, 6, 7],  # two in the first block, both of the two redrawn
    ], ids=["inside", "last", "in-redraw", "all-redrawn"])
    def test_exact_ones_are_dropped_and_redrawn(self, tail, skew, ones):
        outputs = RngStream(17).next_u64s(12).tolist()
        for i in ones:
            outputs[i] = ONE
        block, scalar = _Script(outputs), _Script(outputs)
        got = alpha_stables(block, 3, tail, skew, 0.5)
        want = np.array([alpha_stable(scalar, tail, skew, 0.5) for _ in range(3)])
        assert got.tobytes() == want.tobytes()
        # the 2n = 6 values taken are the first six that are not 1.0
        assert block._state == scalar._state == 6 + len(ones)
