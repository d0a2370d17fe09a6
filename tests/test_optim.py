import math

import numpy as np
import pytest

from sedfosgd.harness import ConfigError, ExperimentConfig
from sedfosgd.mathkit import gamma
from sedfosgd.noise import RngStream
from sedfosgd.optim import (DivergenceError, OptimConfig, ParamState,
                            bounded_iterate_check, clip_gradients, delta_radius,
                            make_fisher_blocks, observe_fisher_sed, step,
                            step_size)
from sedfosgd.problems import ArModel, GaussianNoise, ar_generate, ar_loss_grad
from sedfosgd.sed import SedConfig, SedEstimate


def cfg(**kw):
    sed_kw = {k: kw.pop(k) for k in ("alpha0", "beta", "alpha_min") if k in kw}
    return OptimConfig(mu0=kw.pop("mu0", 0.1), sed_cfg=SedConfig(**sed_kw), **kw)


def sgd_step(state, grads, mu):
    return step(state, grads, mu, np.ones(state.n_layers), cfg())


def adaptive_step(state, grads, blocks, sed, c):
    """What the harness does for 2sedfosgd: observe, then step at the new exponents."""
    sed, alpha = observe_fisher_sed(grads, blocks, sed, c.sed_cfg)
    state = step(state, grads, step_size(state.t, c.mu0), alpha.per_layer_alpha, c)
    return state, sed, alpha


class TestStepSize:
    def test_first_step(self):
        assert step_size(1, 0.3) == 0.3

    def test_quarter(self):
        assert step_size(4, 0.3) == pytest.approx(0.15, rel=1e-12)

    def test_sum_bound(self):
        mu0 = 0.7
        total = sum(step_size(t, mu0) for t in range(1, 101))
        assert total <= mu0 * (2 * math.sqrt(100) - 1)

    def test_rejects_t_zero(self):
        with pytest.raises(ValueError):
            step_size(0, 0.1)


class TestSgdStep:
    def test_zero_gradient(self):
        state = ParamState.init([np.array([1.0, 2.0])])
        out = sgd_step(state, [np.zeros(2)], 0.5)
        assert np.array_equal(out.layers[0], [1.0, 2.0])
        assert out.t == 1

    def test_arithmetic(self):
        state = ParamState.init([np.array([1.0, 2.0])])
        out = sgd_step(state, [np.array([1.0, -1.0])], 0.5)
        assert np.array_equal(out.layers[0], [0.5, 2.5])
        assert np.array_equal(out.prev_layers[0], [1.0, 2.0])

    def test_contraction_on_quadratic(self):
        # f = ||theta||^2 / 2, fixed step 0.1: theta_t = 0.9^t * theta_0
        state = ParamState.init([np.array([1.0, 1.0])])
        for _ in range(100):
            state = sgd_step(state, [state.layers[0].copy()], 0.1)
        assert np.allclose(state.layers[0], 0.9 ** 100 * np.ones(2), rtol=1e-10)

    def test_nonfinite_gradient_rejected(self):
        # the step does not re-check gradients; the non-finite parameters it
        # would produce are rejected on acceptance
        state = ParamState.init([np.zeros(2)])
        with pytest.raises(DivergenceError):
            sgd_step(state, [np.array([np.inf, 0.0])], 0.1)


class TestFosgdStep:
    def _warm_state(self, theta, prev):
        return ParamState(layers=(np.asarray(theta, dtype=float),),
                          prev_layers=(np.asarray(prev, dtype=float),), t=1)

    def test_alpha_one_reduces_to_sgd_bitwise(self):
        rng = np.random.default_rng(0)
        theta = rng.standard_normal(5)
        prev = rng.standard_normal(5)
        g = rng.standard_normal(5)
        state = ParamState(layers=(theta,), prev_layers=(prev,), t=3)
        mu = 0.0173
        for mode in ("elementwise", "layer-norm"):
            frac = step(state, [g], mu, [1.0], cfg(scaling_mode=mode))
            assert np.array_equal(frac.layers[0], theta - mu * g)

    def test_stationary_scaling_factor(self):
        # theta == prev: factor is delta^(1-alpha) / Gamma(2-alpha) exactly
        delta = 1e-6
        state = self._warm_state([1.0, 2.0], [1.0, 2.0])
        g = np.array([1.0, -2.0])
        out = step(state, [g], 1.0, [0.5], cfg(delta=delta))
        factor = delta ** 0.5 / gamma(1.5)
        assert np.allclose(out.layers[0], state.layers[0] - factor * g, rtol=1e-12)
        assert factor == pytest.approx(1e-3 / 0.8862269254527580, rel=1e-10)

    def test_larger_delta_gives_larger_step(self):
        g = np.array([1.0])
        small = self._warm_state([1.0], [0.9])
        big = self._warm_state([1.0], [0.0])
        c = cfg()
        out_small = step(small, [g], 0.1, [0.5], c)
        out_big = step(big, [g], 0.1, [0.5], c)
        assert abs(out_big.layers[0][0] - big.layers[0][0]) > \
               abs(out_small.layers[0][0] - small.layers[0][0])

    def test_stall_freedom(self):
        state = self._warm_state([1.0], [1.0])
        out = step(state, [np.array([2.0])], 0.1, [0.7], cfg())
        assert out.layers[0][0] != state.layers[0][0]

    def test_layer_norm_mode(self):
        state = self._warm_state([1.0, 1.0], [0.0, 0.5])
        c = cfg(scaling_mode="layer-norm", delta=1e-6)
        g = np.array([1.0, 1.0])
        out = step(state, [g], 1.0, [0.5], c)
        factor = (np.linalg.norm([1.0, 0.5]) + 1e-6) ** 0.5 / gamma(1.5)
        assert np.allclose(out.layers[0], state.layers[0] - factor * g, rtol=1e-12)

    def test_requires_warm_start(self):
        state = ParamState.init([np.zeros(2)])
        with pytest.raises(ValueError):
            step(state, [np.zeros(2)], 0.1, [0.9], cfg())

    def test_alpha_out_of_range_rejected(self):
        # the exponent range is checked once, when the config is built
        for bad in (1.5, 0.0, -0.2):
            with pytest.raises(ConfigError):
                ExperimentConfig(problem="ar", optimizer="fosgd", iterations=10,
                                 fixed_alpha=bad)


def ar_regressors(seed=7, n=300):
    model = ArModel(coeffs=np.array([1.5, -0.7]),
                    noise=GaussianNoise(math.sqrt(0.5)), horizon=n + 2)
    return ar_generate(model, RngStream(seed))


class TestTwoSedFosgdStep:
    def test_beta_zero_matches_fixed_exponent(self):
        regs = ar_regressors()
        c = cfg(mu0=0.1, alpha0=0.98, beta=0.0)
        sa = ParamState.init([np.zeros(2)])
        sb = ParamState.init([np.zeros(2)])
        _, ga = ar_loss_grad(sa.layers[0], regs[0])
        sa = sgd_step(sa, [ga], c.mu0)
        sb = sgd_step(sb, [ga], c.mu0)
        blocks = make_fisher_blocks(sa, 0.1)
        sed = SedEstimate.empty(1)
        for t in range(1, 30):
            _, g = ar_loss_grad(sa.layers[0], regs[t])
            sa, sed, _ = adaptive_step(sa, [g], blocks, sed, c)
            _, g2 = ar_loss_grad(sb.layers[0], regs[t])
            assert np.array_equal(g, g2)
            sb = step(sb, [g2], step_size(sb.t, c.mu0), [0.98], c)
            assert np.array_equal(sa.layers[0], sb.layers[0])

    def test_constant_dimension_pins_alpha(self):
        # constant gradient direction: normalized Fisher is constant, so the
        # exponent settles at alpha0 - beta immediately
        c = cfg(mu0=0.01, alpha0=0.9, beta=0.2)
        state = ParamState.init([np.array([1.0, 1.0])])
        g = np.array([0.6, 0.8])
        state = sgd_step(state, [g], c.mu0)
        blocks = make_fisher_blocks(state, 0.1)
        sed = SedEstimate.empty(1)
        for _ in range(5):
            state, sed, alpha = adaptive_step(state, [g], blocks, sed, c)
            # roundoff in the eigen-decomposition of the rescaled EMA block
            # perturbs the ratio at the 1e-9 level
            assert alpha.per_layer_alpha[0] == pytest.approx(0.7, abs=1e-6)

    def test_against_straight_line_reference(self):
        # independent re-implementation of the full adaptive loop, written
        # directly from the update equations with no shared code
        regs = ar_regressors(seed=7)
        mu0, delta, gamma_ema = 0.1, 1e-6, 0.1
        zeta, eps, alpha0, beta = 0.7, 0.01, 0.98, 0.01
        s = eps ** (zeta - 1.0)

        theta_prev = np.zeros(2)
        _, g0 = ar_loss_grad(theta_prev, regs[0])
        theta = theta_prev - mu0 * g0
        fhat = np.zeros((2, 2))
        d_max = 0.0
        ref_traj = []
        for t in range(1, 6):
            _, g = ar_loss_grad(theta, regs[t])
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
        state = ParamState.init([np.zeros(2)])
        _, g0b = ar_loss_grad(state.layers[0], regs[0])
        state = sgd_step(state, [g0b], mu0)
        blocks = make_fisher_blocks(state, gamma_ema)
        sed = SedEstimate.empty(1)
        for t in range(1, 6):
            _, g = ar_loss_grad(state.layers[0], regs[t])
            state, sed, _ = adaptive_step(state, [g], blocks, sed, c)
            assert np.abs(state.layers[0] - ref_traj[t - 1]).max() <= 1e-12


class TestFactorBounds:
    def test_effective_step_and_gamma_ranges(self):
        # log every applied per-layer factor over an AR run and check the
        # analysis band, including the true gamma-denominator range
        regs = ar_regressors(seed=11)
        c = cfg(mu0=0.1, alpha0=0.98, beta=0.01, alpha_min=0.05)
        state = ParamState.init([np.zeros(2)])
        _, g = ar_loss_grad(state.layers[0], regs[0])
        state = sgd_step(state, [g], c.mu0)
        blocks = make_fisher_blocks(state, 0.1)
        sed = SedEstimate.empty(1)
        alpha_min, alpha0 = c.sed_cfg.alpha_min, c.sed_cfg.alpha0
        for t in range(1, 200):
            _, g = ar_loss_grad(state.layers[0], regs[t])
            delta_prev = np.abs(state.layers[0] - state.prev_layers[0])
            mu = step_size(state.t, c.mu0)
            state, sed, alpha = adaptive_step(state, [g], blocks, sed, c)
            a = float(alpha.per_layer_alpha[0])
            denom = gamma(2.0 - a)
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
        state = ParamState.init([np.zeros(3)])
        traj = [state]
        for _ in range(5):
            state = sgd_step(state, [np.zeros(3)], 0.1)
            traj.append(state)
        assert bounded_iterate_check(traj, cfg(mu0=0.1), grad_bound=1.0)

    def test_single_full_size_step(self):
        c = cfg(mu0=0.1)
        g = np.array([3.0, 4.0])  # norm 5
        state = sgd_step(ParamState.init([np.zeros(2)]), [g], c.mu0)
        assert state.deltas()[0] == pytest.approx(0.5, rel=1e-12)
        assert bounded_iterate_check([state], c, grad_bound=5.0)

    def test_radius_covers_classical_step(self):
        c = cfg(mu0=0.1, alpha0=0.98)
        assert delta_radius(c, 5.0) >= c.mu0 * 5.0

    def test_adaptive_run_stays_bounded(self):
        regs = ar_regressors(seed=5, n=220)
        c = cfg(mu0=0.1, alpha0=0.98, beta=0.01, grad_clip=10.0)
        state = ParamState.init([np.zeros(2)])
        _, g = ar_loss_grad(state.layers[0], regs[0])
        state = sgd_step(state, clip_gradients([g], 10.0), c.mu0)
        blocks = make_fisher_blocks(state, 0.1)
        sed = SedEstimate.empty(1)
        traj = [state]
        for t in range(1, 200):
            _, g = ar_loss_grad(state.layers[0], regs[t])
            state, sed, _ = adaptive_step(
                state, clip_gradients([g], 10.0), blocks, sed, c)
            traj.append(state)
        assert bounded_iterate_check(traj, c, grad_bound=10.0)


class TestClip:
    def test_noop_below_bound(self):
        g = [np.array([0.3, 0.4])]
        assert clip_gradients(g, 1.0) is g

    def test_scales_to_bound(self):
        out = clip_gradients([np.array([3.0, 4.0])], 1.0)
        assert np.linalg.norm(out[0]) == pytest.approx(1.0, rel=1e-12)
