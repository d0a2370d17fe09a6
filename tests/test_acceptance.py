"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
and asserting both the stated tolerance and its runtime budget."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import sqrtm

from sedfosgd import sed
from sedfosgd.harness import (ExperimentConfig, csv_bytes, derive_seed,
                              rate_fit, run, running_min, _ArDriver)
from sedfosgd.mathkit import logdet_plus
from sedfosgd.noise import RngStream, StableParams, alpha_stable
from sedfosgd.problems import (LabeledBatch, MlpSpec, ar_loss_grad,
                               mlp_init_layers, mlp_loss_grad,
                               quadratic_loss_grad)

from reference import delta_radius


_CAPSYS = None


@pytest.fixture(autouse=True)
def _verdict_channel(capsys):
    # lets _Budget print its verdict line past pytest's capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


class _Budget:
    """Times a criterion and emits its single PASS/FAIL line."""

    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        line = (f"[criterion {self.number:2d}] {verdict} "
                f"({elapsed:.2f}s / {self.seconds:.0f}s budget) {self.label}")
        if _CAPSYS is not None:
            with _CAPSYS.disabled():
                print(line, flush=True)
        else:
            print(line, flush=True)
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} overran its budget: "
                f"{elapsed:.2f}s >= {self.seconds}s")
        return False


AR_BASE = ExperimentConfig(problem="ar", optimizer="2sedfosgd", iterations=2000,
                           seed=7, mu0=0.1)


def test_criterion_01_reduction_identities():
    with _Budget(1, "reduction identities are bitwise", 1.0):
        cfg = replace(AR_BASE, iterations=50)
        adaptive = run(replace(cfg, beta=0.0))
        fixed = run(replace(cfg, optimizer="fosgd"))
        assert csv_bytes(adaptive) == csv_bytes(fixed)

        classical = run(replace(cfg, optimizer="fosgd", alpha0=1.0))
        plain = run(replace(cfg, optimizer="sgd"))
        assert csv_bytes(classical) == csv_bytes(plain)


def test_criterion_02_ar_recovery_gaussian():
    with _Budget(2, "AR coefficient recovery under Gaussian noise", 30.0):
        truth = np.array(AR_BASE.ar_coeffs)
        seeds = [derive_seed(AR_BASE.seed, i) for i in range(20)]
        # least-squares oracle on the identical regressor streams
        driver = _ArDriver(AR_BASE, [RngStream(seed) for seed in seeds])
        errs, ls_errs = [], []
        for i, result in enumerate(run(AR_BASE, seeds=seeds)):
            errs.append(np.abs(result.final_layers[0] - truth))
            theta_ls = np.linalg.lstsq(driver.phi[i], driver.y[i], rcond=None)[0]
            ls_errs.append(np.abs(theta_ls - truth))
        med = np.median(np.stack(errs), axis=0)
        med_ls = np.median(np.stack(ls_errs), axis=0)
        assert np.all(med < 0.05), f"median errors {med}"
        assert np.all(med_ls < 0.05), f"oracle median errors {med_ls}"


def test_criterion_03_ar_stable_paired_dominance():
    with _Budget(3, "adaptive beats fixed exponent under heavy tails", 60.0):
        # larger base rate + stronger adaptation: the exponent rule earns its
        # keep by damping the heavy-tail noise floor, not the transient
        base = replace(AR_BASE, noise="stable", grad_clip=10.0,
                       mu0=0.5, beta=0.05)
        seeds = [derive_seed(base.seed, i) for i in range(20)]
        adaptive = [result.summary["final_err_norm"]
                    for result in run(base, seeds=seeds)]
        fixed = [result.summary["final_err_norm"]
                 for result in run(replace(base, optimizer="fosgd"), seeds=seeds)]
        assert np.median(adaptive) <= np.median(fixed), (
            f"median {np.median(adaptive)} vs {np.median(fixed)}")


def test_criterion_04_rate_check_quadratic():
    with _Budget(4, "log-log rate on the clipped noisy quadratic", 60.0):
        base = ExperimentConfig(problem="quadratic", optimizer="2sedfosgd",
                                iterations=2000, seed=11, mu0=0.3,
                                quad_noise_std=5.0, grad_clip=10.0)
        gap_traces = []
        for result in run(base, seeds=[derive_seed(base.seed, i) for i in range(20)]):
            col = result.header.index("gap")
            gap_traces.append([row[col] for row in result.rows])
        mean_gap = np.mean(np.array(gap_traces), axis=0)
        fit = rate_fit(running_min(mean_gap))
        assert -0.75 <= fit.slope <= -0.35, f"slope {fit.slope}"


def test_criterion_05_sed_bound_under_clipping():
    with _Budget(5, "dimension estimate bounded by the clip level", 10.0):
        g_clip = 3.0
        cfg = replace(AR_BASE, iterations=500, grad_clip=g_clip,
                      normalize_fisher=False)
        result = run(cfg)
        d_j = len(cfg.ar_coeffs)
        s = sed.curvature_scale(cfg)
        ceiling = (cfg.zeta * d_j
                   + (1 - cfg.zeta) * d_j * math.log(1 + s * g_clip)
                   / abs(math.log(s)))
        col = result.header.index("dzeta_l0")
        values = np.array([row[col] for row in result.rows])
        assert np.all(values <= ceiling + 1e-9), f"max {values.max()} > {ceiling}"


def test_criterion_06_bounded_iterates():
    with _Budget(6, "consecutive-iterate norms inside the fixed-point radius", 10.0):
        g_clip = 3.0
        cfg = replace(AR_BASE, iterations=500, grad_clip=g_clip)
        result = run(cfg)
        radius = delta_radius(cfg, g_clip, alpha_max=cfg.alpha_min)
        col = result.header.index("delta_norm_l0")
        deltas = np.array([row[col] for row in result.rows])
        assert np.all(deltas <= radius * (1 + 1e-12)), (
            f"max delta {deltas.max()} > {radius}")


def test_criterion_07_curvature_form_equivalence():
    with _Budget(7, "spectral and dense curvature dimensions agree", 5.0):
        cfg = replace(AR_BASE, zeta=0.7, epsilon=0.01)
        s = sed.curvature_scale(cfg)
        rng = np.random.default_rng(13)
        for _ in range(100):
            dim = int(rng.integers(1, 17))
            a = rng.standard_normal((dim, dim))
            m = a @ a.T
            sign, logdet = np.linalg.slogdet(np.eye(dim) + s * sqrtm(m))
            assert sign > 0
            dense = logdet / abs(math.log(s))
            assert sed.d_curv(logdet_plus(m, s), cfg) == pytest.approx(
                dense, abs=1e-9 * max(1.0, dense))


def _central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def _fd_close(analytic, fd, rtol=1e-4):
    denom = max(1.0, float(np.abs(fd).max()))
    return float(np.abs(analytic - fd).max()) / denom <= rtol


def test_criterion_08_gradient_oracles():
    with _Budget(8, "analytic gradients match central differences", 30.0):
        nprng = np.random.default_rng(17)
        for _ in range(100):
            phi = nprng.standard_normal(3)
            y = float(nprng.standard_normal())
            theta = nprng.standard_normal(3)
            _, g = ar_loss_grad(theta, phi, y)
            assert _fd_close(g, _central_diff(
                lambda x: ar_loss_grad(x, phi, y)[0], theta))
        for _ in range(100):
            a = nprng.standard_normal((3, 3))
            a_mat = a @ a.T
            b = nprng.standard_normal(3)
            theta = nprng.standard_normal(3)
            _, g = quadratic_loss_grad(theta, a_mat, b)
            assert _fd_close(g, _central_diff(
                lambda x: quadratic_loss_grad(x, a_mat, b)[0], theta))
        spec = MlpSpec(widths=(6, 8, 4))
        for k in range(100):
            layers = mlp_init_layers(spec, RngStream(1000 + k))
            batch = LabeledBatch(nprng.uniform(0, 1, (3, 6)),
                                 nprng.integers(0, 4, 3))
            _, grads = mlp_loss_grad(spec, layers, batch)
            for j in range(spec.n_layers):
                def f(vec, j=j):
                    trial = [v.copy() for v in layers]
                    trial[j] = vec
                    return mlp_loss_grad(spec, trial, batch)[0]
                assert _fd_close(grads[j],
                                 _central_diff(f, layers[j].copy()))


def test_criterion_09_noise_sampler():
    with _Budget(9, "stable sampler limits: Gaussian KS and Cauchy median", 5.0):
        rng = RngStream(314159)
        p2 = StableParams(alpha_tail=2.0, skew=0.0, scale=0.7, location=0.3)
        draws = np.array([alpha_stable(rng, p2) for _ in range(100_000)])
        res = stats.kstest(draws, "norm", args=(0.3, 0.7 * math.sqrt(2.0)))
        assert res.pvalue > 0.01, f"KS p-value {res.pvalue}"

        rng = RngStream(2718)
        p1 = StableParams(alpha_tail=1.0, skew=0.0, scale=1.0, location=1.5)
        draws = np.array([alpha_stable(rng, p1) for _ in range(100_000)])
        assert abs(np.median(draws) - 1.5) <= 0.02


def test_criterion_10_mlp_holdout_accuracy(synthetic_idx):
    with _Budget(10, "image classifier holdout accuracy", 300.0):
        ip, lp = synthetic_idx
        # 1000 images, 0.2 holdout -> 800 training examples;
        # batch 32 -> 25 iterations per epoch, 50 for two epochs
        base = ExperimentConfig(problem="mlp", optimizer="2sedfosgd",
                                iterations=50, seed=5, mu0=0.5,
                                mlp_images=ip, mlp_labels=lp, mlp_limit=1000)
        adaptive, fixed = [], []
        for i in range(3):
            seed = derive_seed(base.seed, i)
            adaptive.append(run(replace(base, seed=seed))
                            .summary["holdout_accuracy"])
            fixed.append(run(replace(base, seed=seed, optimizer="fosgd"))
                         .summary["holdout_accuracy"])
        assert np.median(adaptive) >= 0.80, f"accuracies {adaptive}"
        assert np.median(adaptive) >= np.median(fixed) - 0.02, (
            f"{adaptive} vs {fixed}")


def test_criterion_11_determinism(tmp_path):
    with _Budget(11, "identical configs write identical CSV bytes", 5.0):
        cfg = replace(AR_BASE, iterations=200)
        p1, p2 = str(tmp_path / "one.csv"), str(tmp_path / "two.csv")
        run(replace(cfg, out=p1))
        run(replace(cfg, out=p2))
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
