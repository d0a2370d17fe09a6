import math

import numpy as np
import pytest

from sedfosgd.fisher import FisherBlock, ema_update, normalize
from sedfosgd.mathkit import logdet_plus, sqrt_psd
from sedfosgd.optim import observe_fisher_sed
from sedfosgd.sed import (SedConfig, SedEstimate, adapt_alpha, d_curv,
                          lower_2sed_accumulate, two_sed, update_dmax)

CFG = SedConfig(zeta=0.7, epsilon=0.01)


def ld(m, cfg=CFG):
    """The one spectral solve per block that the dimension functions take."""
    return logdet_plus(m, cfg.curvature_scale)


class TestConfig:
    def test_domain_checks(self):
        with pytest.raises(ValueError):
            SedConfig(zeta=0.5)
        with pytest.raises(ValueError):
            SedConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            SedConfig(alpha0=1.2)
        with pytest.raises(ValueError):
            SedConfig(alpha_min=0.0)

    def test_curvature_scale_above_one(self):
        assert CFG.curvature_scale == pytest.approx(0.01 ** (-0.3), rel=1e-12)
        assert CFG.curvature_scale > 1.0


class TestDCurv:
    def test_zero_matrix(self):
        assert d_curv(ld(np.zeros((3, 3))), CFG) == 0.0

    def test_identity_closed_form(self):
        s = 0.01 ** (-0.3)
        expected = 4 * math.log(1 + s) / abs(math.log(s))
        assert d_curv(ld(np.eye(4)), CFG) == pytest.approx(expected, rel=1e-12)

    def test_single_eigenvalue_closed_form(self):
        lam = 2.7
        s = CFG.curvature_scale
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
        s = CFG.curvature_scale
        for _ in range(20):
            dim = int(rng.integers(1, 17))
            a = rng.standard_normal((dim, dim))
            m = a @ a.T
            sign, logdet = np.linalg.slogdet(np.eye(dim) + s * sqrt_psd(m))
            assert sign > 0
            dense = logdet / abs(math.log(s))
            assert d_curv(ld(m), CFG) == pytest.approx(dense, abs=1e-9 * max(1.0, dense))


class TestTwoSed:
    def test_zero_fisher(self):
        assert two_sed(ld(np.zeros((10, 10))), 10, CFG) == pytest.approx(7.0, rel=1e-12)

    def test_zeta_to_one_limit(self):
        cfg = SedConfig(zeta=1 - 1e-9, epsilon=0.01)
        assert two_sed(ld(np.zeros((4, 4)), cfg), 4, cfg) == pytest.approx(4.0, abs=1e-6)

    def test_composition_with_d_curv(self):
        expected = 0.7 * 4 + 0.3 * d_curv(ld(np.eye(4)), CFG)
        assert two_sed(ld(np.eye(4)), 4, CFG) == pytest.approx(expected, rel=1e-12)

    def test_bound_under_gradient_norm_cap(self):
        # EMA stream with ||g|| <= cap keeps the (raw-Fisher) value below the
        # closed-form ceiling at every iteration
        cap = 3.0
        d = 4
        s = CFG.curvature_scale
        ceiling = CFG.zeta * d + (1 - CFG.zeta) * d * math.log(1 + s * cap) / abs(math.log(s))
        rng = np.random.default_rng(2)
        block = FisherBlock.zeros(0, d, decay=0.1)
        for _ in range(200):
            g = rng.standard_normal(d)
            g *= min(1.0, cap / np.linalg.norm(g))
            block = ema_update(block, g)
            assert two_sed(ld(block.matrix), d, CFG) <= ceiling + 1e-9


class TestLower2Sed:
    def test_zero_fisher_zero_prev(self):
        assert lower_2sed_accumulate(0.0, ld(np.zeros((3, 3))), CFG) == 0.0

    def test_single_layer_closed_form(self):
        s = CFG.curvature_scale
        expected = 0.3 * 2 * math.log(1 + s) / math.log(100.0)
        got = lower_2sed_accumulate(0.0, ld(np.eye(2)), CFG)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_three_identical_layers_linear(self):
        inc = lower_2sed_accumulate(0.0, ld(np.eye(2)), CFG)
        acc = 0.0
        for _ in range(3):
            acc = lower_2sed_accumulate(acc, ld(np.eye(2)), CFG)
        assert acc == pytest.approx(3 * inc, rel=1e-12)

    def test_negative_prev_rejected(self):
        with pytest.raises(ValueError):
            lower_2sed_accumulate(-1.0, ld(np.eye(2)), CFG)


class TestUpdateDmax:
    def test_takes_new_max(self):
        sed = SedEstimate(per_layer=np.array([3.0, 5.0]),
                          lower_cumulative=np.zeros(2), d_max_running=4.0)
        assert update_dmax(sed).d_max_running == 5.0

    def test_unchanged_when_below(self):
        sed = SedEstimate(per_layer=np.array([1.0, 2.0]),
                          lower_cumulative=np.zeros(2), d_max_running=4.0)
        assert update_dmax(sed).d_max_running == 4.0

    def test_running_sequence(self):
        sed = SedEstimate.empty(1)
        seen = []
        for v in (2.0, 7.0, 4.0, 6.0):
            sed = SedEstimate(per_layer=np.array([v]),
                              lower_cumulative=np.zeros(1),
                              d_max_running=sed.d_max_running)
            sed = update_dmax(sed)
            seen.append(sed.d_max_running)
        assert seen == [2.0, 7.0, 7.0, 7.0]


class TestAdaptAlpha:
    def _sed(self, per_layer, d_max):
        per_layer = np.asarray(per_layer, dtype=float)
        return SedEstimate(per_layer=per_layer,
                           lower_cumulative=np.zeros_like(per_layer),
                           d_max_running=d_max)

    def test_ratio_one_gives_base_minus_beta(self):
        cfg = SedConfig(alpha0=0.9, beta=0.2)
        alpha = adapt_alpha(self._sed([5.0], 5.0), cfg)
        assert alpha.per_layer_alpha[0] == pytest.approx(0.7, rel=1e-12)

    def test_ratio_zero_gives_base(self):
        cfg = SedConfig(alpha0=0.9, beta=0.2)
        assert adapt_alpha(self._sed([0.0], 5.0), cfg).per_layer_alpha[0] == 0.9

    def test_half_ratio_arithmetic(self):
        cfg = SedConfig(alpha0=0.98, beta=0.01)
        alpha = adapt_alpha(self._sed([2.0], 4.0), cfg)
        assert alpha.per_layer_alpha[0] == pytest.approx(0.975, rel=1e-12)

    def test_no_observation_gives_base(self):
        cfg = SedConfig(alpha0=0.98, beta=0.01)
        alpha = adapt_alpha(self._sed([0.0, 0.0], 0.0), cfg)
        assert np.all(alpha.per_layer_alpha == 0.98)

    def test_clamped_to_floor(self):
        cfg = SedConfig(alpha0=0.5, beta=10.0, alpha_min=0.05)
        assert adapt_alpha(self._sed([5.0], 5.0), cfg).per_layer_alpha[0] == 0.05

    def test_scale_invariance(self):
        cfg = SedConfig(alpha0=0.98, beta=0.01)
        a1 = adapt_alpha(self._sed([2.0, 3.0], 4.0), cfg).per_layer_alpha
        a2 = adapt_alpha(self._sed([20.0, 30.0], 40.0), cfg).per_layer_alpha
        assert np.allclose(a1, a2, rtol=1e-12)

    def test_monotone_in_dimension(self):
        cfg = SedConfig(alpha0=0.98, beta=0.01)
        values = [adapt_alpha(self._sed([v], 10.0), cfg).per_layer_alpha[0]
                  for v in (0.0, 2.0, 5.0, 10.0)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_within_bounds(self):
        cfg = SedConfig(alpha0=0.98, beta=0.5, alpha_min=0.1)
        rng = np.random.default_rng(3)
        for _ in range(50):
            per = rng.uniform(0, 10, size=3)
            alpha = adapt_alpha(self._sed(per, 10.0), cfg).per_layer_alpha
            assert np.all(alpha >= 0.1) and np.all(alpha <= 0.98)


class TestNormalizedPipeline:
    def test_sed_from_normalized_ema_block(self):
        # constant gradient: the normalized block is constant, so the
        # per-layer value is constant across iterations
        g = np.array([1.0, 2.0])
        block = FisherBlock.zeros(0, 2, decay=0.1)
        values = []
        for _ in range(5):
            block = ema_update(block, g)
            values.append(two_sed(ld(normalize(block, 2)), 2, CFG))
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
        sed = SedEstimate.empty(1)
        rng = np.random.default_rng(4)
        for _ in range(6):
            sed, _ = observe_fisher_sed([rng.standard_normal(330)], blocks, sed, CFG)
        assert shapes == [(k, k) for k in range(1, 7)]
        assert blocks[0].gram.shape == (6, 6)
