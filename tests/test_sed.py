import math

import numpy as np
import pytest
from scipy.linalg import sqrtm

from sedfosgd.fisher import FisherBlock, ema_update, spectral_operand
from sedfosgd.harness import ExperimentConfig
from sedfosgd.mathkit import logdet_plus
from sedfosgd.optim import fisher_diagnostics
from sedfosgd.sed import adapt_alpha, curvature_scale, d_curv, two_sed


def config(**kw):
    return ExperimentConfig(problem="ar", optimizer="2sedfosgd", iterations=1, **kw)


CFG = config(zeta=0.7, epsilon=0.01)


def ld(m, cfg=CFG):
    """The one spectral solve per block that the dimension functions take."""
    return logdet_plus(m, curvature_scale(cfg))


class TestConfig:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            config(zeta=0.5)
        with pytest.raises(ValueError):
            config(epsilon=1.0)
        with pytest.raises(ValueError):
            config(alpha0=1.2)
        with pytest.raises(ValueError):
            config(alpha_min=0.0)

    def test_curvature_scale_above_one(self):
        assert curvature_scale(CFG) == pytest.approx(0.01 ** (-0.3), rel=1e-12)
        assert curvature_scale(CFG) > 1.0


class TestDCurv:
    def test_zero_matrix(self):
        assert d_curv(ld(np.zeros((3, 3))), CFG) == 0.0

    def test_identity_closed_form(self):
        s = 0.01 ** (-0.3)
        expected = 4 * math.log(1 + s) / abs(math.log(s))
        assert d_curv(ld(np.eye(4)), CFG) == pytest.approx(expected, rel=1e-12)

    def test_single_eigenvalue_closed_form(self):
        lam = 2.7
        s = curvature_scale(CFG)
        expected = math.log(1 + s * math.sqrt(lam)) / abs(math.log(s))
        got = d_curv(ld(np.diag([lam, 0.0, 0.0, 0.0])), CFG)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_diagonal_vector_input(self):
        v = np.array([2.7, 0.0, 0.0, 0.0])
        assert d_curv(ld(v), CFG) == pytest.approx(d_curv(ld(np.diag(v)), CFG),
                                                   rel=1e-12)

    def test_eigenvalue_domination_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lo = rng.uniform(0, 3, size=5)
            hi = lo + rng.uniform(0, 2, size=5)
            assert d_curv(ld(np.diag(hi)), CFG) >= d_curv(ld(np.diag(lo)), CFG)

    def test_eigenvalue_form_matches_dense_logdet(self):
        # equivalence of the spectral sum and the dense determinant route
        rng = np.random.default_rng(1)
        s = curvature_scale(CFG)
        for _ in range(20):
            dim = int(rng.integers(1, 17))
            a = rng.standard_normal((dim, dim))
            m = a @ a.T
            sign, logdet = np.linalg.slogdet(np.eye(dim) + s * sqrtm(m))
            assert sign > 0
            dense = logdet / abs(math.log(s))
            assert d_curv(ld(m), CFG) == pytest.approx(dense, abs=1e-9 * max(1.0, dense))


class TestTwoSed:
    def test_zero_fisher(self):
        assert two_sed(ld(np.zeros((10, 10))), 10, CFG) == pytest.approx(7.0, rel=1e-12)

    def test_zeta_to_one_limit(self):
        cfg = config(zeta=1 - 1e-9, epsilon=0.01)
        assert two_sed(ld(np.zeros((4, 4)), cfg), 4, cfg) == pytest.approx(4.0, abs=1e-6)

    def test_composition_with_d_curv(self):
        expected = 0.7 * 4 + 0.3 * d_curv(ld(np.eye(4)), CFG)
        assert two_sed(ld(np.eye(4)), 4, CFG) == pytest.approx(expected, rel=1e-12)

    def test_bound_under_gradient_norm_cap(self):
        # EMA stream with ||g|| <= cap keeps the (raw-Fisher) value below the
        # closed-form ceiling at every iteration
        cap = 3.0
        d = 4
        s = curvature_scale(CFG)
        ceiling = CFG.zeta * d + (1 - CFG.zeta) * d * math.log(1 + s * cap) / abs(math.log(s))
        rng = np.random.default_rng(2)
        block = FisherBlock.zeros(0, d, decay=0.1)
        for _ in range(200):
            g = rng.standard_normal(d)
            g *= min(1.0, cap / np.linalg.norm(g))
            ema_update(block, g)
            assert two_sed(ld(block.matrix), d, CFG) <= ceiling + 1e-9


class TestUpdateDmax:
    """The running maximum `fisher_diagnostics` folds the new dimensions into."""

    def _observe(self, grads, d_max, dims=(2, 5)):
        blocks = [FisherBlock.zeros(j, d, decay=0.1) for j, d in enumerate(dims)]
        dzeta, peak = fisher_diagnostics([grads], blocks, d_max, CFG)
        return dzeta[0], peak[0]

    def test_takes_new_max(self):
        # a 5-dim layer's d_zeta is at least zeta * 5 = 3.5, above 3
        dzeta, d_max = self._observe([np.ones(2), np.ones(5)], 3.0)
        assert dzeta[1] > dzeta[0] and dzeta[1] > 3.0
        assert d_max == dzeta[1]

    def test_unchanged_when_below(self):
        dzeta, d_max = self._observe([np.ones(2), np.ones(5)], 100.0)
        assert np.all(dzeta < 100.0)
        assert d_max == 100.0

    def test_running_sequence(self):
        # a zero gradient shrinks the block, so d_zeta falls and the
        # maximum holds
        block = [FisherBlock.zeros(0, 2, decay=0.5)]
        d_max = 0.0
        seen, values = [], []
        for g in ([1.0, 0.0], [0.0, 3.0], [0.0, 0.0], [0.0, 0.0]):
            dzeta, peak = fisher_diagnostics([[np.array(g)]], block, d_max,
                                             config(normalize_fisher=False))
            d_max = peak[0]
            values.append(dzeta[0, 0])
            seen.append(d_max)
        assert values[0] < values[1] and values[1] > values[2] > values[3]
        assert seen == [values[0], values[1], values[1], values[1]]


class TestAdaptAlpha:
    def test_ratio_one_gives_base_minus_beta(self):
        cfg = config(alpha0=0.9, beta=0.2)
        alpha = adapt_alpha(np.array([5.0]), 5.0, cfg)
        assert alpha[0] == pytest.approx(0.7, rel=1e-12)

    def test_ratio_zero_gives_base(self):
        cfg = config(alpha0=0.9, beta=0.2)
        assert adapt_alpha(np.array([0.0]), 5.0, cfg)[0] == 0.9

    def test_half_ratio_arithmetic(self):
        cfg = config(alpha0=0.98, beta=0.01)
        alpha = adapt_alpha(np.array([2.0]), 4.0, cfg)
        assert alpha[0] == pytest.approx(0.975, rel=1e-12)

    def test_no_observation_gives_base(self):
        cfg = config(alpha0=0.98, beta=0.01)
        alpha = adapt_alpha(np.array([0.0, 0.0]), 0.0, cfg)
        assert np.all(alpha == 0.98)

    def test_clamped_to_floor(self):
        cfg = config(alpha0=0.5, beta=10.0, alpha_min=0.05)
        assert adapt_alpha(np.array([5.0]), 5.0, cfg)[0] == 0.05

    def test_scale_invariance(self):
        cfg = config(alpha0=0.98, beta=0.01)
        a1 = adapt_alpha(np.array([2.0, 3.0]), 4.0, cfg)
        a2 = adapt_alpha(np.array([20.0, 30.0]), 40.0, cfg)
        assert np.allclose(a1, a2, rtol=1e-12)

    def test_monotone_in_dimension(self):
        cfg = config(alpha0=0.98, beta=0.01)
        values = [adapt_alpha(np.array([v]), 10.0, cfg)[0]
                  for v in (0.0, 2.0, 5.0, 10.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_within_bounds(self):
        cfg = config(alpha0=0.98, beta=0.5, alpha_min=0.1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            per = rng.uniform(0, 10, size=3)
            alpha = adapt_alpha(per, 10.0, cfg)
            assert np.all(alpha >= 0.1) and np.all(alpha <= 0.98)


class TestNormalizedPipeline:
    def test_sed_from_normalized_ema_block(self):
        # constant gradient: the normalized block is constant, so the
        # per-layer value is constant across iterations
        g = np.array([1.0, 2.0])
        block = FisherBlock.zeros(0, 2, decay=0.1)
        values = []
        for _ in range(5):
            ema_update(block, g)
            values.append(two_sed(ld(spectral_operand(block, True)), 2, CFG))
        assert np.allclose(values, values[0], rtol=1e-12)

    def test_rank_limited_block_solves_its_gram(self, monkeypatch):
        # while a 330-dim block holds k < 330 gradients, the one solve per
        # step is k x k
        solver = np.linalg.eigvalsh
        shapes = []

        def spy(m):
            shapes.append(np.shape(m))
            return solver(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        blocks = [FisherBlock.zeros(0, 330, decay=0.1)]
        d_max = 0.0
        rng = np.random.default_rng(4)
        for _ in range(6):
            _, peak = fisher_diagnostics([[rng.standard_normal(330)]], blocks, d_max, CFG)
            d_max = peak[0]
        assert shapes == [(k, k) for k in range(1, 7)]
        assert blocks[0].matrix.shape == (6, 6)
        assert blocks[0].rows.shape == (6, 330)
