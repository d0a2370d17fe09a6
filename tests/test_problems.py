import math

import numpy as np
import pytest

from sedfosgd.noise import RngStream, StableParams, alpha_stable, gaussian
from sedfosgd.problems import (GenerationError, IdxFormatError, LabeledBatch,
                               MlpSpec, ar_generate, ar_loss_grad, load_idx,
                               mlp_init_layers, mlp_loss_grad,
                               quadratic_loss_grad, write_idx)

AR_COEFFS = np.array([1.5, -0.7])


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def gaussian_noise(n, std, seed=0):
    """`n` N(0, std^2) draws, one scalar `gaussian` call each."""
    rng = RngStream(seed)
    return [gaussian(rng, 0.0, std) for _ in range(n)]


class TestArGenerate:
    def test_zero_noise_zero_start_is_all_zero(self):
        phi, y = ar_generate(AR_COEFFS, np.zeros(50))
        assert np.all(y == 0.0) and np.all(phi == 0.0)

    def test_pair_count(self):
        phi, y = ar_generate(AR_COEFFS, gaussian_noise(40, 1.0, seed=1))
        assert phi.shape == (38, 2) and y.shape == (38,)

    def test_rows_are_lag_windows(self):
        # row r holds (y(k-1), ..., y(k-p)) of its target y(k), k = p + 1 + r
        phi, y = ar_generate(np.array([0.5, -0.2, 0.1]), gaussian_noise(30, 1.0))
        for r in range(1, y.size):
            assert phi[r, 0] == y[r - 1]
            assert np.array_equal(phi[r, 1:], phi[r - 1, :-1])

    def test_coeffs_and_horizon_checked(self):
        with pytest.raises(ValueError, match="horizon"):
            ar_generate(AR_COEFFS, np.ones(2))
        with pytest.raises(ValueError, match="vector"):
            ar_generate(np.eye(2), np.ones(10))
        with pytest.raises(ValueError, match="vector"):
            ar_generate(AR_COEFFS, np.ones((10, 1)))

    def test_noiseless_decay(self):
        # roots of z^2 - 1.5 z + 0.7 are inside the unit circle
        roots = np.roots([1.0, -1.5, 0.7])
        assert np.all(np.abs(roots) < 1.0)
        # impulse response: y(1) = 1, y(2) = 1.5, y(3) = 1.5 * 1.5 - 0.7 * 1
        impulse = np.zeros(200)
        impulse[0] = 1.0
        phi, y = ar_generate(AR_COEFFS, impulse)
        assert np.array_equal(phi[0], [1.5, 1.0]) and y[0] == 1.5 * 1.5 - 0.7
        y_p = phi[0, 0]  # y(2), first output with a full lag window
        assert abs(y[-1]) < abs(y_p)

    def test_yule_walker_autocovariance(self):
        # stationary solution: rho1 = a1/(1-a2), gamma0 = s^2/(1 - a1 rho1 - a2 rho2)
        a1, a2, s2 = 1.5, -0.7, 0.5
        rho1 = a1 / (1 - a2)
        rho2 = a1 * rho1 + a2
        g0 = s2 / (1 - a1 * rho1 - a2 * rho2)
        expected = [g0, g0 * rho1, g0 * rho2]

        _, y = ar_generate(AR_COEFFS, gaussian_noise(5000, math.sqrt(s2), seed=3))
        y = y - y.mean()
        for lag, want in enumerate(expected):
            got = float(np.mean(y[lag:] * y[: y.size - lag]))
            assert got == pytest.approx(want, rel=0.10)

    def test_explosive_noise_raises_with_index(self):
        with pytest.raises(GenerationError, match="index"):
            ar_generate(np.array([2.5]), gaussian_noise(400, 1e150, seed=9))

    def test_infinite_sample_raises_at_its_index(self):
        noise = np.ones(30)
        noise[6] = -math.inf
        with pytest.raises(GenerationError, match="at index 7$") as exc:
            ar_generate(AR_COEFFS, noise)
        assert exc.value.sample_index == 7

    def test_stable_noise_runs(self):
        rng = RngStream(4)
        params = StableParams(alpha_tail=1.8, scale=0.5)
        phi, y = ar_generate(AR_COEFFS, [alpha_stable(rng, params) for _ in range(100)])
        assert phi.shape == (98, 2) and y.shape == (98,)


class TestArLossGrad:
    def test_exact_fit(self):
        phi = np.array([1.0, 2.0])
        loss, grad = ar_loss_grad(AR_COEFFS, phi, float(AR_COEFFS @ phi))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_hand_arithmetic(self):
        loss, grad = ar_loss_grad(np.zeros(2), np.array([1.0, 0.0]), 2.0)
        assert loss == 2.0
        assert np.array_equal(grad, [-2.0, 0.0])

    def test_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            phi = rng.standard_normal(3)
            y = float(rng.standard_normal())
            theta = rng.standard_normal(3)
            _, grad = ar_loss_grad(theta, phi, y)
            fd = central_diff(lambda x: ar_loss_grad(x, phi, y)[0], theta)
            assert np.allclose(grad, fd, rtol=1e-6, atol=1e-8)


class TestQuadratic:
    def test_origin(self):
        f, g = quadratic_loss_grad(np.zeros(2), np.eye(2), np.zeros(2))
        assert f == 0.0 and np.all(g == 0.0)

    def test_hand_arithmetic(self):
        f, g = quadratic_loss_grad(np.ones(2), np.diag([2.0, 8.0]), np.zeros(2))
        assert f == 5.0
        assert np.array_equal(g, [2.0, 8.0])

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.standard_normal((3, 3))
            a_mat = a @ a.T
            b = rng.standard_normal(3)
            theta = rng.standard_normal(3)
            _, g = quadratic_loss_grad(theta, a_mat, b)
            fd = central_diff(lambda x: quadratic_loss_grad(x, a_mat, b)[0], theta)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_loss_grad(np.ones(2), np.eye(3), np.zeros(3))


class TestMlp:
    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_init_equals_scalar_draws(self, seed):
        spec = MlpSpec(widths=(7, 5, 3), init_scale=0.3)
        ref = RngStream(seed)
        expected = []
        for n_in, n_out in zip(spec.widths[:-1], spec.widths[1:]):
            w = [(2.0 * ref.uniform() - 1.0) * spec.init_scale
                 for _ in range(n_in * n_out)]
            expected.append(np.array(w + [0.0] * n_out))
        rng = RngStream(seed)
        layers = mlp_init_layers(spec, rng)
        assert [v.tobytes() for v in layers] == [v.tobytes() for v in expected]
        assert rng.next_u64() == ref.next_u64()

    def test_uniform_loss_at_zero_weights(self):
        spec = MlpSpec(widths=(4, 6, 5))
        layers = [np.zeros_like(v) for v in mlp_init_layers(spec, RngStream(0))]
        batch = LabeledBatch(np.random.default_rng(0).uniform(0, 1, (7, 4)),
                             np.arange(7) % 5)
        loss, _ = mlp_loss_grad(spec, layers, batch)
        assert loss == pytest.approx(math.log(5), rel=1e-12)

    def test_large_margin_loss_vanishes(self):
        # direct softmax evaluation: margin 20 puts the loss below 1e-3
        spec = MlpSpec(widths=(2, 3))
        layers = [np.zeros_like(v) for v in mlp_init_layers(spec, RngStream(0))]
        # weights map x = (1, 0) to logits (20, 0, 0)
        layers[0][0] = 20.0
        batch = LabeledBatch(np.array([[1.0, 0.0]]), np.array([0]))
        loss, _ = mlp_loss_grad(spec, layers, batch)
        assert loss < 1e-3

    def test_finite_differences(self):
        spec = MlpSpec(widths=(8, 16, 4))
        rng = RngStream(123)
        nprng = np.random.default_rng(2)
        layers = mlp_init_layers(spec, rng)
        batch = LabeledBatch(nprng.uniform(0, 1, (5, 8)),
                             nprng.integers(0, 4, 5))
        _, grads = mlp_loss_grad(spec, layers, batch)
        for j in range(spec.n_layers):
            def f(vec, j=j):
                trial = [v.copy() for v in layers]
                trial[j] = vec
                return mlp_loss_grad(spec, trial, batch)[0]
            fd = central_diff(f, layers[j].copy())
            denom = max(1.0, np.abs(fd).max())
            assert np.abs(grads[j] - fd).max() / denom <= 1e-4

    def test_shape_mismatch(self):
        spec = MlpSpec(widths=(4, 3))
        layers = [np.zeros_like(v) for v in mlp_init_layers(spec, RngStream(0))]
        batch = LabeledBatch(np.zeros((2, 5)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            mlp_loss_grad(spec, layers, batch)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(widths=(4,))


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        labels = np.array([1, 7], dtype=np.uint8)
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(ip, lp, images, labels)
        batch = load_idx(ip, lp)
        assert np.array_equal(batch.labels, [1, 7])
        back = (batch.inputs.reshape(2, 3, 3) * 255.0).round().astype(np.uint8)
        assert np.array_equal(back, images)
        assert batch.inputs.min() >= 0.0 and batch.inputs.max() <= 1.0

    def test_bad_magic(self, tmp_path):
        import struct
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", 2050, 1, 3, 3) + b"\0" * 9)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 1) + b"\0")
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(str(path), str(lp))

    def test_truncated_payload(self, tmp_path):
        import struct
        path = tmp_path / "trunc.idx"
        path.write_bytes(struct.pack(">iiii", 2051, 2, 3, 3) + b"\0" * 10)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 2) + b"\0\0")
        with pytest.raises(IdxFormatError, match="expected 18 bytes, got 10"):
            load_idx(str(path), str(lp))

    def test_count_mismatch(self, tmp_path):
        import struct
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 2051, 2, 2, 2) + b"\0" * 8)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 3) + b"\0" * 3)
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(str(ip), str(lp))
