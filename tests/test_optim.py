import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd import optim
from sedfosgd.fisher import FisherBlock
from sedfosgd.harness import ConfigError, ExperimentConfig
from sedfosgd.noise import RngStream, gaussians
from sedfosgd.optim import (DivergenceError, clip_gradients, fisher_diagnostics, norm,
                            step_size)
from sedfosgd.problems import ar_generate, ar_loss_grad

import reference
from reference import delta_radius


def cfg(**kw):
    return ExperimentConfig(problem="ar", optimizer="2sedfosgd", iterations=1,
                            mu0=kw.pop("mu0", 0.1), **kw)


def step(layers, steps, grads, mu, alphas, c, t):
    """`optim.step` on a stack of one seed, whose divergence raises its
    DivergenceError as a run of one seed does."""
    new, moved = optim.step([v[None] for v in layers], [d[None] for d in steps],
                            [g[None] for g in grads], mu,
                            [[float(a)] for a in alphas], c)
    for exc in optim.diverged(new, t).values():
        raise exc
    return [v[0] for v in new], [d[0] for d in moved]


def start(*layers):
    """Layers and their (zero) last steps before a run's first step."""
    layers = [np.asarray(v, dtype=float) for v in layers]
    return layers, [np.zeros_like(v) for v in layers]


def deltas(steps):
    """Per-layer norm of the last steps, as the trace logs it."""
    return [float(norm([d])) for d in steps]


def sgd_step(layers, steps, grads, mu):
    return step(layers, steps, grads, mu, np.ones(len(layers)), cfg(), 1)


def adaptive_step(layers, steps, grads, blocks, d_max, c, t):
    """What the harness does for 2sedfosgd at step t >= 2: fold and solve
    the step's diagnostics, then step at the exponents they give (a stack
    of one seed)."""
    _, (d_max,), (alpha,) = optim.adaptive_exponents([g[None] for g in grads], blocks,
                                                      [d_max], c)
    layers, steps = step(layers, steps, grads, step_size(t - 1, c.mu0), alpha, c, t)
    return layers, steps, d_max, alpha


class TestStepSize:
    def test_first_step(self):
        assert step_size(1, 0.3) == 0.3

    def test_quarter(self):
        assert step_size(4, 0.3) == pytest.approx(0.15, rel=1e-12)

    def test_sum_bound(self):
        mu0 = 0.7
        total = sum(step_size(t, mu0) for t in range(1, 101))
        assert total <= mu0 * (2 * math.sqrt(100) - 1)


class TestSgdStep:
    def test_zero_gradient(self):
        layers, steps = sgd_step(*start([1.0, 2.0]), [np.zeros(2)], 0.5)
        assert np.array_equal(layers[0], [1.0, 2.0])
        assert np.array_equal(steps[0], [0.0, 0.0])

    def test_arithmetic(self):
        layers, steps = sgd_step(*start([1.0, 2.0]), [np.array([1.0, -1.0])], 0.5)
        assert np.array_equal(layers[0], [0.5, 2.5])
        assert np.array_equal(steps[0], [-0.5, 0.5])

    def test_contraction_on_quadratic(self):
        # f = ||theta||^2 / 2, fixed step 0.1: theta_t = 0.9^t * theta_0
        layers, steps = start([1.0, 1.0])
        for _ in range(100):
            layers, steps = sgd_step(layers, steps, [layers[0].copy()], 0.1)
        assert np.allclose(layers[0], 0.9 ** 100 * np.ones(2), rtol=1e-10)

    def test_nonfinite_gradient_rejected(self):
        # the step does not re-check gradients; the non-finite parameters it
        # would produce are rejected at the step's own index
        with pytest.raises(DivergenceError, match="layer 1 at step 1") as err:
            sgd_step(*start([0.0], [0.0, 0.0]),
                     [np.zeros(1), np.array([np.inf, 0.0])], 0.1)
        assert err.value.step_index == 1


class TestFosgdStep:
    def _warm_state(self, theta, prev):
        theta = np.asarray(theta, dtype=float)
        return [theta], [theta - np.asarray(prev, dtype=float)]

    def test_alpha_one_reduces_to_sgd_bitwise(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        prev = rng.standard_normal(5)
        g = rng.standard_normal(5)
        layers, steps = self._warm_state(theta, prev)
        mu = 0.0173
        for mode in ("elementwise", "layer-norm"):
            frac, _ = step(layers, steps, [g], mu, [1.0], cfg(scaling_mode=mode), 4)
            assert np.array_equal(frac[0], theta - mu * g)

    def test_stationary_scaling_factor(self):
        # theta == prev: factor is delta^(1-alpha) / Gamma(2-alpha) exactly
        delta = 1e-6
        layers, steps = self._warm_state([1.0, 2.0], [1.0, 2.0])
        g = np.array([1.0, -2.0])
        out, _ = step(layers, steps, [g], 1.0, [0.5], cfg(delta=delta), 2)
        factor = delta ** 0.5 / math.gamma(1.5)
        assert np.allclose(out[0], layers[0] - factor * g, rtol=1e-12)
        assert factor == pytest.approx(1e-3 / 0.8862269254527580, rel=1e-10)

    def test_larger_delta_gives_larger_step(self):
        g = np.array([1.0])
        small = self._warm_state([1.0], [0.9])
        big = self._warm_state([1.0], [0.0])
        c = cfg()
        out_small, _ = step(*small, [g], 0.1, [0.5], c, 2)
        out_big, _ = step(*big, [g], 0.1, [0.5], c, 2)
        assert abs(out_big[0][0] - big[0][0][0]) > \
               abs(out_small[0][0] - small[0][0][0])

    def test_stall_freedom(self):
        layers, steps = self._warm_state([1.0], [1.0])
        out, _ = step(layers, steps, [np.array([2.0])], 0.1, [0.7], cfg(), 2)
        assert out[0][0] != layers[0][0]

    def test_layer_norm_mode(self):
        layers, steps = self._warm_state([1.0, 1.0], [0.0, 0.5])
        c = cfg(scaling_mode="layer-norm", delta=1e-6)
        g = np.array([1.0, 1.0])
        out, _ = step(layers, steps, [g], 1.0, [0.5], c, 2)
        factor = (np.linalg.norm([1.0, 0.5]) + 1e-6) ** 0.5 / math.gamma(1.5)
        assert np.allclose(out[0], layers[0] - factor * g, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered in vecdot")
    def test_layer_norm_of_a_huge_finite_step(self):
        # |theta - prev|^2 overflows although the step is finite; the norm
        # (5e200) and the step it scales stay finite
        layers, steps = self._warm_state([0.0, 0.0], [-3e200, -4e200])
        assert deltas(steps) == [pytest.approx(5e200, rel=1e-12)]
        g = np.array([1.0, -1.0])
        out, _ = step(layers, steps, [g], 1.0, [0.5], cfg(scaling_mode="layer-norm"), 2)
        factor = (5e200 + 1e-6) ** 0.5 / math.gamma(1.5)
        assert np.allclose(out[0], -factor * g, rtol=1e-12)

    def test_alpha_out_of_range_rejected(self):
        # the exponent range is checked once, when the config is built
        for bad in (1.5, 0.0, -0.2):
            with pytest.raises(ConfigError):
                ExperimentConfig(problem="ar", optimizer="fosgd", iterations=10,
                                 alpha0=bad)


def ar_regressors(seed=7, n=300):
    """The regressor rows and targets of a Gaussian-noise AR(2) simulation."""
    return ar_generate(np.array([1.5, -0.7]),
                       gaussians(RngStream(seed), n + 2, 0.0, math.sqrt(0.5)))


def fisher_blocks(layers, decay):
    return [FisherBlock.zeros(j, v.shape[0], decay, stack=(1,)) for j, v in enumerate(layers)]


class TestTwoSedFosgdStep:
    def test_beta_zero_matches_fixed_exponent(self):
        phi, y = ar_regressors()
        c = cfg(mu0=0.1, alpha0=0.98, beta=0.0)
        la, sa = start(np.zeros(2))
        lb, sb = start(np.zeros(2))
        _, ga = ar_loss_grad(la[0], phi[0], y[0])
        la, sa = sgd_step(la, sa, [ga], c.mu0)
        lb, sb = sgd_step(lb, sb, [ga], c.mu0)
        blocks = fisher_blocks(la, 0.1)
        d_max = 0.0
        for t in range(1, 30):
            _, g = ar_loss_grad(la[0], phi[t], y[t])
            la, sa, d_max, _ = adaptive_step(la, sa, [g], blocks, d_max, c, t + 1)
            _, g2 = ar_loss_grad(lb[0], phi[t], y[t])
            assert np.array_equal(g, g2)
            lb, sb = step(lb, sb, [g2], step_size(t, c.mu0), [0.98], c, t + 1)
            assert np.array_equal(la[0], lb[0])

    def test_constant_dimension_pins_alpha(self):
        # constant gradient direction: normalized Fisher is constant, so the
        # exponent settles at alpha0 - beta immediately
        c = cfg(mu0=0.01, alpha0=0.9, beta=0.2)
        g = np.array([0.6, 0.8])
        layers, steps = sgd_step(*start([1.0, 1.0]), [g], c.mu0)
        blocks = fisher_blocks(layers, 0.1)
        d_max = 0.0
        for t in range(2, 7):
            layers, steps, d_max, alpha = adaptive_step(layers, steps, [g], blocks,
                                                        d_max, c, t)
            # roundoff in the eigen-decomposition of the rescaled EMA block
            # perturbs the ratio at the 1e-9 level
            assert alpha[0] == pytest.approx(0.7, abs=1e-6)

    def test_against_straight_line_reference(self):
        # independent re-implementation of the full adaptive loop, written
        # directly from the update equations with no shared code
        phi, y = ar_regressors(seed=7)
        mu0, delta, gamma_ema = 0.1, 1e-6, 0.1
        zeta, eps, alpha0, beta = 0.7, 0.01, 0.98, 0.01
        s = eps ** (zeta - 1.0)

        theta_prev = np.zeros(2)
        _, g0 = ar_loss_grad(theta_prev, phi[0], y[0])
        theta = theta_prev - mu0 * g0
        fhat = np.zeros((2, 2))
        d_max = 0.0
        ref_traj = []
        for t in range(1, 6):
            _, g = ar_loss_grad(theta, phi[t], y[t])
            fhat = (1 - gamma_ema) * fhat + gamma_ema * np.outer(g, g)
            tr = np.trace(fhat)
            fnorm = (2.0 / tr) * fhat if tr > 1e-12 else np.zeros((2, 2))
            lam = np.maximum(np.linalg.eigvalsh(fnorm), 0.0)
            dcurv = np.sum(np.log1p(s * np.sqrt(lam))) / abs(np.log(s))
            dz = zeta * 2 + (1 - zeta) * dcurv
            d_max = max(d_max, dz)
            a = min(max(alpha0 - beta * dz / d_max, 0.05), alpha0)
            mu = mu0 / math.sqrt(t)
            factor = (np.abs(theta - theta_prev) + delta) ** (1 - a)
            theta, theta_prev = theta - (mu / math.gamma(2 - a)) * factor * g, theta
            ref_traj.append(theta.copy())

        c = cfg(mu0=mu0, alpha0=alpha0, beta=beta)
        layers, steps = start(np.zeros(2))
        _, g0b = ar_loss_grad(layers[0], phi[0], y[0])
        layers, steps = sgd_step(layers, steps, [g0b], mu0)
        blocks = fisher_blocks(layers, gamma_ema)
        d_max = 0.0
        for t in range(1, 6):
            _, g = ar_loss_grad(layers[0], phi[t], y[t])
            layers, steps, d_max, _ = adaptive_step(layers, steps, [g], blocks,
                                                    d_max, c, t + 1)
            assert np.abs(layers[0] - ref_traj[t - 1]).max() <= 1e-12


class TestFactorBounds:
    def test_effective_step_and_gamma_ranges(self):
        # log every applied per-layer factor over an AR run and check the
        # analysis band, including the true gamma-denominator range
        phi, y = ar_regressors(seed=11)
        c = cfg(mu0=0.1, alpha0=0.98, beta=0.01, alpha_min=0.05)
        layers, steps = start(np.zeros(2))
        _, g = ar_loss_grad(layers[0], phi[0], y[0])
        layers, steps = sgd_step(layers, steps, [g], c.mu0)
        blocks = fisher_blocks(layers, 0.1)
        d_max = 0.0
        alpha_min, alpha0 = c.alpha_min, c.alpha0
        for t in range(1, 200):
            _, g = ar_loss_grad(layers[0], phi[t], y[t])
            delta_prev = np.abs(steps[0])
            mu = step_size(t, c.mu0)
            layers, steps, d_max, alpha = adaptive_step(layers, steps, [g], blocks,
                                                        d_max, c, t + 1)
            a = float(alpha[0])
            denom = math.gamma(2.0 - a)
            assert 0.88 <= denom <= 1.0
            eff = mu * (delta_prev + c.delta) ** (1.0 - a) / denom
            lo = mu * c.delta ** (1.0 - alpha_min) / 1.6
            # the gamma denominator truly lives in [0.8856, 1], not the
            # nominal [1, 1.6], so the upper band divides by its real minimum
            hi = mu * (c.delta + delta_prev.max()) ** (1.0 - alpha0) / 0.8856
            assert np.all(eff >= lo - 1e-15)
            assert np.all(eff <= hi + 1e-15)


class TestBoundedIterates:
    def test_zero_gradients(self):
        layers, steps = start(np.zeros(3))
        traj = [steps]
        for _ in range(5):
            layers, steps = sgd_step(layers, steps, [np.zeros(3)], 0.1)
            traj.append(steps)
        bound = delta_radius(cfg(mu0=0.1), 1.0) * (1 + 1e-12)
        assert all(d <= bound for s in traj for d in deltas(s))

    def test_single_full_size_step(self):
        c = cfg(mu0=0.1)
        g = np.array([3.0, 4.0])  # norm 5
        _, steps = sgd_step(*start(np.zeros(2)), [g], c.mu0)
        assert deltas(steps)[0] == pytest.approx(0.5, rel=1e-12)
        assert deltas(steps)[0] <= delta_radius(c, 5.0) * (1 + 1e-12)

    def test_radius_covers_classical_step(self):
        c = cfg(mu0=0.1, alpha0=0.98)
        assert delta_radius(c, 5.0) >= c.mu0 * 5.0

    def test_adaptive_run_stays_bounded(self):
        phi, y = ar_regressors(seed=5, n=220)
        c = cfg(mu0=0.1, alpha0=0.98, beta=0.01, grad_clip=10.0)
        layers, steps = start(np.zeros(2))
        _, g = ar_loss_grad(layers[0], phi[0], y[0])
        layers, steps = sgd_step(layers, steps, clip_gradients([g], 10.0)[0], c.mu0)
        blocks = fisher_blocks(layers, 0.1)
        d_max = 0.0
        traj = [steps]
        for t in range(1, 200):
            _, g = ar_loss_grad(layers[0], phi[t], y[t])
            layers, steps, d_max, _ = adaptive_step(
                layers, steps, clip_gradients([g], 10.0)[0], blocks, d_max, c, t + 1)
            traj.append(steps)
        bound = delta_radius(c, 10.0) * (1 + 1e-12)
        assert all(d <= bound for s in traj for d in deltas(s))


class TestClip:
    def test_noop_below_bound(self):
        g = [np.array([0.3, 0.4])]
        out, norms = clip_gradients(g, 1.0)
        assert out is g and norms == [float(np.linalg.norm(g[0]))]
        assert clip_gradients(g, None) == (g, None)

    def test_scales_to_bound(self):
        out, norms = clip_gradients([np.array([3.0, 4.0])], 1.0)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, rel=1e-12)
        assert norms == [5.0]

    @pytest.mark.filterwarnings("ignore:overflow encountered in vecdot")
    def test_global_norm_of_overflowing_squares(self):
        # |g|^2 overflows to inf although g is finite; bound / inf would zero it
        g = [np.array([1e200, 1.0]), np.array([-1e200])]
        out, _ = clip_gradients(g, 10.0)
        assert out[0][0] == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-12)
        assert out[1][0] == pytest.approx(-10.0 / math.sqrt(2.0), rel=1e-12)


@st.composite
def gradient_chunks(draw):
    """A gradient sequence over 1 or 2 layers of 1 to 12 parameters and 1 to
    3 seeds, whose fold count runs past the dimension of the smaller layer
    (so its Gram turns dense inside a chunk), some seeds folding zeros as a
    blown seed does, and a chunk width of 1 to 17 steps."""
    dims = draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))
    seeds = draw(st.integers(1, 3))
    steps = draw(st.integers(1, 2 * min(dims) + 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3, size=(steps, seeds, 1))
    zeros = rng.random((steps, seeds, 1)) < draw(st.sampled_from([0.0, 0.3]))
    grads = [[np.where(zeros[w], 0.0, scale[w] * rng.standard_normal((seeds, d)))
              for d in dims] for w in range(steps)]
    return (dims, seeds, grads, draw(st.integers(1, 17)), draw(st.booleans()),
            draw(st.sampled_from(["full", "diagonal"])))


class TestChunkedDiagnostics:
    """Fixed-exponent runs fold their Fisher diagnostics a chunk of steps at
    a time; every chunk width gives the bits of one step at a time, which
    are those of 2sedfosgd's one-step fold on Python floats."""

    @settings(max_examples=80, deadline=None)
    @given(gradient_chunks())
    def test_chunks_keep_the_bits_of_single_steps(self, drawn):
        dims, seeds, grads, width, normalized, mode = drawn
        c = cfg(normalize_fisher=normalized)
        results = []
        for w in (1, width, None):  # None: adaptive_exponents
            blocks = [FisherBlock.zeros(j, d, 0.1, mode=mode, stack=(seeds,))
                      for j, d in enumerate(dims)]
            d_max, dzetas, peaks = np.zeros(seeds), [], []
            for lo in range(0, len(grads), w or 1):
                if w is None:
                    dzeta, peak, _ = optim.adaptive_exponents(grads[lo], blocks,
                                                              d_max.tolist(), c)
                    dzeta, peak = np.array([dzeta]), np.array([peak])
                else:
                    dzeta, peak = fisher_diagnostics(grads[lo:lo + w], blocks, d_max, c)
                dzetas.append(dzeta)
                peaks.append(peak)
                d_max = peak[-1]
            results.append((np.concatenate(dzetas).tobytes(), np.concatenate(peaks).tobytes(),
                            [(b.matrix.tobytes(), None if b.rows is None else b.rows.tobytes())
                             for b in blocks]))
        assert results[0] == results[1] == results[2]


def wild(rng, shape, share):
    """Normal entries across six decades, about `share` of them replaced by
    a huge, infinite, nan or signed-zero value."""
    v = 10.0 ** rng.uniform(-3, 3, size=shape) * rng.standard_normal(shape)
    odd = rng.random(shape) < share
    v[odd] = rng.choice([1e300, -1e300, np.inf, -np.inf, np.nan, 0.0, -0.0], size=odd.sum())
    return v


@st.composite
def step_inputs(draw):
    """A stack of 1 to 4 seeds of 1 to 3 layers (1 to 20 parameters each),
    with huge, non-finite or signed-zero layers, steps and gradients in some
    draws, exponents in (0, 1] shared by the seeds, per seed, all 1, all 1 on
    some layers (which take no power), or mixed with 1 (per layer a list of
    per-seed floats, as a run passes them), a scaling mode and a delta."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    share = draw(st.sampled_from([0.0, 0.0, 0.1, 0.5]))
    layers = [wild(rng, (seeds, d), share) for d in dims]
    steps = [wild(rng, (seeds, d), share) for d in dims]
    grads = [wild(rng, (seeds, d), share) for d in dims]
    unit = st.floats(0.0, 1.0, exclude_min=True)
    kind = draw(st.sampled_from(["shared", "per seed", "one", "one per layer", "mixed"]))
    if kind == "shared":
        alphas = np.tile([draw(unit) for _ in dims], (seeds, 1))
    elif kind == "one":
        alphas = np.ones((seeds, len(dims)))
    elif kind == "one per layer":
        alphas = np.tile([draw(st.sampled_from([1.0, draw(unit)])) for _ in dims], (seeds, 1))
    else:
        alphas = np.array([[draw(unit) for _ in dims] for _ in range(seeds)])
        if kind == "mixed":
            alphas[rng.random(alphas.shape) < 0.5] = 1.0
    c = cfg(scaling_mode=draw(st.sampled_from(["elementwise", "layer-norm"])),
            delta=draw(st.sampled_from([1e-6, 0.118, 3.0])))
    return layers, steps, grads, draw(st.sampled_from([0.01, 0.5, 62.9])), alphas.T.tolist(), c


class TestStepBits:
    """`optim.step` computes in one buffer per layer; it keeps the bits of the
    out-of-place formula taken a seed at a time, non-finite values and
    exponent 1 included."""

    @settings(max_examples=150, deadline=None)
    @given(step_inputs())
    def test_equals_the_out_of_place_formula(self, drawn):
        layers, steps, grads, mu, alphas, c = drawn
        with np.errstate(all="ignore"):
            got = optim.step(layers, steps, grads, mu, alphas, c)
            want = reference.step(layers, steps, grads, mu, alphas, c)
        for g, w in zip(got, want):
            assert [v.tobytes() for v in g] == [v.tobytes() for v in w]
