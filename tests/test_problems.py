import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd import cli, harness
from sedfosgd.noise import RngStream, alpha_stables, gaussians
from sedfosgd.problems import (WEIGHT_SCALE, GenerationError, IdxFormatError,
                               ar_generate, ar_loss_grad, load_idx, mlp_init_layers,
                               mlp_loss_grad, mlp_predict, quadratic_loss_grad,
                               write_idx)

from conftest import make_synthetic_digits
import reference
from reference import uniform

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
    """`n` N(0, std^2) draws from the stream of `seed`."""
    return gaussians(RngStream(seed), n, 0.0, std)


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
        phi, y = ar_generate(AR_COEFFS, alpha_stables(RngStream(4), 100, 1.8, scale=0.5))
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
        f, g = quadratic_loss_grad(np.zeros(2), np.ones(2))
        assert f == 0.0 and np.all(g == 0.0)

    def test_hand_arithmetic(self):
        f, g = quadratic_loss_grad(np.ones(2), np.array([2.0, 8.0]))
        assert f == 5.0
        assert np.array_equal(g, [2.0, 8.0])

    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            diag = rng.exponential(size=3)
            theta = rng.standard_normal(3)
            _, g = quadratic_loss_grad(theta, diag)
            fd = central_diff(lambda x: quadratic_loss_grad(x, diag)[0], theta)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            quadratic_loss_grad(np.ones(2), np.ones(3))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(), (1,), (3,), (2, 2)]),
           st.integers(1, 8), st.sampled_from([0.0, 0.0, 0.2, 0.5]))
    def test_equals_the_dense_form(self, seed, stack, dim, odd):
        # against 0.5 theta' A theta - b' theta and A theta - b with A = diag(d),
        # b = 0, on stacks with zero, tiny, huge and overflowing entries of d
        # and theta: where theta is finite, f has its bits and the gradient has
        # them up to the sign of a zero, which the driver's noise row erases (a
        # noise draw is never -0.0, so adding it is adding +0.0 or a nonzero);
        # elsewhere both are non-finite in the same seeds (the dense form's
        # 0 * inf spreads nan over the seed's gradient)
        rng = np.random.default_rng(seed)
        diag = rng.exponential(size=dim) * rng.choice([0.0, 1e-300, 1.0, 1e150, 1e300], dim)
        theta = rng.standard_normal(stack + (dim,)) * rng.choice(
            [-0.0, 0.0, 1e-310, 1.0, 1e155, 1e300], stack + (dim,))
        odd_entries = rng.random(theta.shape) < odd
        theta[odd_entries] = rng.choice([np.inf, -np.inf, np.nan], odd_entries.sum())
        with np.errstate(all="ignore"):
            f, g = quadratic_loss_grad(theta, diag)
            f_ref, g_ref = reference.quadratic_loss_grad(theta, np.diag(diag), np.zeros(dim))
        finite = np.isfinite(theta).all(axis=-1)
        assert f.shape == f_ref.shape and g.shape == g_ref.shape
        assert f[finite].tobytes() == f_ref[finite].tobytes()
        assert (g[finite] + 0.0).tobytes() == (g_ref[finite] + 0.0).tobytes()
        assert np.array_equal(np.isfinite(f), np.isfinite(f_ref))
        assert np.array_equal(np.isfinite(g).all(axis=-1), np.isfinite(g_ref).all(axis=-1))


class TestMlp:
    @pytest.mark.parametrize("seed", [0, 2**63 + 5])
    def test_init_equals_scalar_draws(self, seed):
        widths = (7, 5, 3)
        ref = RngStream(seed)
        expected = []
        for n_in, n_out in zip(widths[:-1], widths[1:]):
            w = [(2.0 * uniform(ref) - 1.0) * WEIGHT_SCALE
                 for _ in range(n_in * n_out)]
            expected.append(np.array(w + [0.0] * n_out))
        rng = RngStream(seed)
        layers = mlp_init_layers(widths, rng)
        assert [v.tobytes() for v in layers] == [v.tobytes() for v in expected]
        assert rng.next_u64() == ref.next_u64()

    def test_uniform_loss_at_zero_weights(self):
        widths = (4, 6, 5)
        layers = [np.zeros_like(v) for v in mlp_init_layers(widths, RngStream(0))]
        batch = (np.random.default_rng(0).uniform(0, 1, (7, 4)), np.arange(7) % 5)
        loss, _ = mlp_loss_grad(widths, layers, *batch)
        assert loss == pytest.approx(math.log(5), rel=1e-12)

    def test_large_margin_loss_vanishes(self):
        # direct softmax evaluation: margin 20 puts the loss below 1e-3
        widths = (2, 3)
        layers = [np.zeros_like(v) for v in mlp_init_layers(widths, RngStream(0))]
        # weights map x = (1, 0) to logits (20, 0, 0)
        layers[0][0] = 20.0
        loss, _ = mlp_loss_grad(widths, layers, np.array([[1.0, 0.0]]), np.array([0]))
        assert loss < 1e-3

    def test_finite_differences(self):
        widths = (8, 16, 4)
        rng = RngStream(123)
        nprng = np.random.default_rng(2)
        layers = mlp_init_layers(widths, rng)
        batch = (nprng.uniform(0, 1, (5, 8)), nprng.integers(0, 4, 5))
        _, grads = mlp_loss_grad(widths, layers, *batch)
        for j in range(len(layers)):
            def f(vec, j=j):
                trial = [v.copy() for v in layers]
                trial[j] = vec
                return mlp_loss_grad(widths, trial, *batch)[0]
            fd = central_diff(f, layers[j].copy())
            denom = max(1.0, np.abs(fd).max())
            assert np.abs(grads[j] - fd).max() / denom <= 1e-4

    @pytest.mark.parametrize("widths", [(8, 16, 4), (6, 3), (5, 7, 6, 3)])
    def test_stack_equals_per_seed_calls(self, widths):
        # 3 seeds with their own weights and batches: the stacked call has
        # each seed's bits of its own 2-D call
        nprng = np.random.default_rng(7)
        per_seed = [mlp_init_layers(widths, RngStream(seed)) for seed in (1, 2, 3)]
        batches = [(nprng.uniform(0, 1, (9, widths[0])),
                    nprng.integers(0, widths[-1], 9)) for _ in range(3)]
        layers = [np.array(vs) for vs in zip(*per_seed)]
        inputs, labels = (np.array(a) for a in zip(*batches))
        loss, grads = mlp_loss_grad(widths, layers, inputs, labels)
        predictions = mlp_predict(widths, layers, inputs)
        assert loss.shape == (3,) and predictions.shape == (3, 9)
        for k, (own, batch) in enumerate(zip(per_seed, batches)):
            own_loss, own_grads = mlp_loss_grad(widths, own, *batch)
            assert loss[k].tobytes() == own_loss.tobytes()
            assert [g[k].tobytes() for g in grads] == [g.tobytes() for g in own_grads]
            assert (predictions[k].tobytes()
                    == mlp_predict(widths, own, batch[0]).tobytes())

    def test_shape_mismatch(self):
        widths = (4, 3)
        layers = [np.zeros_like(v) for v in mlp_init_layers(widths, RngStream(0))]
        with pytest.raises(ValueError):
            mlp_loss_grad(widths, layers, np.zeros((2, 5)), np.zeros(2, dtype=int))


class TestIdx:
    def test_round_trip(self, tmp_path):
        images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        labels = np.array([1, 7], dtype=np.uint8)
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(ip, lp, images, labels)
        inputs, got = load_idx(ip, lp)
        # the pixels come back as the bytes written, one image a row, the labels as ints
        assert got.dtype.kind == "i" and np.array_equal(got, [1, 7])
        assert inputs.dtype == np.uint8 and inputs.shape == (2, 9)
        assert np.array_equal(inputs, images.reshape(2, 9))

    def test_driver_scales_each_batch(self, tmp_path, monkeypatch):
        # the MLP driver's batches and holdout are astype(float) / 255.0 of
        # the uint8 rows they gather, bit for bit, over every byte value
        images, labels = make_synthetic_digits(n=300)
        images.reshape(-1)[:256] = np.arange(256)
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(ip, lp, images, labels)
        pixels, _ = load_idx(ip, lp)
        config = harness.ExperimentConfig(problem="mlp", optimizer="sgd", iterations=3,
                                          mlp_images=ip, mlp_labels=lp, mlp_batch=256)
        driver = harness._MlpDriver(config, [RngStream(0), RngStream(1)])
        seen = []
        monkeypatch.setattr(harness.problems_mod, "mlp_loss_grad",
                            lambda widths, layers, inputs, labels: seen.append(inputs))
        monkeypatch.setattr(harness.problems_mod, "mlp_predict",
                            lambda widths, layers, inputs: seen.append(inputs) or labels[:1])
        for t in (1, 2):
            driver.loss_grad(driver.init_layers, t)
        driver.holdout_accuracy(driver.init_layers)
        n_train, batch = len(labels) - driver.n_hold, np.arange(256)
        wanted = [driver.orders[:, driver.n_hold + (t * 256 + batch) % n_train] for t in (0, 1)]
        wanted.append(driver.orders[:, :driver.n_hold])
        assert len(seen) == 3 and set(range(256)) <= set(pixels[wanted[0]].reshape(-1).tolist())
        for got, rows in zip(seen, wanted):
            assert got.tobytes() == (pixels[rows].astype(float) / 255.0).tobytes()

    def test_bad_magic(self, tmp_path):
        import struct
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">iiii", 2050, 1, 3, 3) + b"\0" * 9)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 1) + b"\0")
        with pytest.raises(IdxFormatError, match="bad magic"):
            load_idx(str(path), str(lp))

    def test_truncated_header(self, tmp_path):
        import struct
        path = tmp_path / "short.idx"
        path.write_bytes(struct.pack(">i", 2051) + b"\0\0")  # 6 of the 16 header bytes
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 1) + b"\0")
        with pytest.raises(IdxFormatError, match="truncated header, expected 16 bytes, got 6"):
            load_idx(str(path), str(lp))

    def test_truncated_payload(self, tmp_path):
        import struct
        path = tmp_path / "trunc.idx"
        path.write_bytes(struct.pack(">iiii", 2051, 2, 3, 3) + b"\0" * 10)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 2) + b"\0\0")
        with pytest.raises(IdxFormatError, match="expected 18 bytes, got 10"):
            load_idx(str(path), str(lp))

    @pytest.mark.parametrize("dims", [(0, 3, 3), (2, 0, 3), (2, 3, 0)])
    def test_no_pixels(self, tmp_path, capsys, dims):
        # no images, rows or columns: refused from the header's dims, with
        # one error line that names the image file, and no trace written
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        write_idx(ip, lp, np.zeros(dims), np.zeros(dims[0]))
        message = f"{ip}: no pixels, {dims[0]} images of {dims[1]} x {dims[2]}"
        with pytest.raises(IdxFormatError) as exc:
            load_idx(ip, lp)
        assert str(exc.value) == message
        cfg, out = tmp_path / "mlp.cfg", str(tmp_path / "t.csv")
        cfg.write_text("problem = mlp\noptimizer = sgd\niterations = 5\n"
                       f"mlp_images = {ip}\nmlp_labels = {lp}\n")
        assert cli.main(["run", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("dims, payload", [
        ((2**32 - 1, 2**32 - 1, 4), 4),  # (-1, -1, 4) read as signed
        ((2**31, 2**31, 4), 0),  # a count of 2**64, which np.prod wraps to 0
    ])
    def test_header_dims_are_unsigned(self, tmp_path, capsys, dims, payload):
        # the count of a huge header is exact, so the file is refused as
        # truncated, with one error line that names it, and no trace written
        import struct
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        with open(ip, "wb") as fh:
            fh.write(struct.pack(">iIII", 2051, *dims) + b"\0" * payload)
        with open(lp, "wb") as fh:
            fh.write(struct.pack(">ii", 2049, 1) + b"\0")
        message = (f"{ip}: truncated payload, expected {math.prod(dims)} bytes, "
                   f"got {payload}")
        with pytest.raises(IdxFormatError) as exc:
            load_idx(ip, lp)
        assert str(exc.value) == message
        cfg, out = tmp_path / "mlp.cfg", str(tmp_path / "t.csv")
        cfg.write_text("problem = mlp\noptimizer = sgd\niterations = 5\n"
                       f"mlp_images = {ip}\nmlp_labels = {lp}\n")
        assert cli.main(["run", "--config", str(cfg), "--out", out]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not os.path.exists(out)

    def test_write_refuses_images_that_are_not_a_stack(self, tmp_path):
        ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
        with pytest.raises(ValueError, match="expected"):
            write_idx(ip, lp, np.zeros((2, 9)), np.zeros(2))
        assert not os.path.exists(ip) and not os.path.exists(lp)

    def test_count_mismatch(self, tmp_path):
        import struct
        ip = tmp_path / "im.idx"
        ip.write_bytes(struct.pack(">iiii", 2051, 2, 2, 2) + b"\0" * 8)
        lp = tmp_path / "lb.idx"
        lp.write_bytes(struct.pack(">ii", 2049, 3) + b"\0" * 3)
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_idx(str(ip), str(lp))
