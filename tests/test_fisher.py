import numpy as np
import pytest

from sedfosgd.fisher import FisherBlock, ema_update, normalize, trace
from sedfosgd.mathkit import eig_sym, logdet_plus


def fixed_stream(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(dim) for _ in range(n)]


def direct_weighted_sum(grads, gamma):
    """Straight evaluation of the EMA as a weighted sum of outer products."""
    dim = grads[0].size
    total = np.zeros((dim, dim))
    t = len(grads)
    for s, g in enumerate(reversed(grads)):  # s = 0 is the newest gradient
        total += gamma * (1 - gamma) ** s * np.outer(g, g)
    return total


class TestEmaUpdate:
    def test_full_decay_one_is_outer_product(self):
        g = np.array([1.0, -2.0, 0.5])
        block = FisherBlock.zeros(0, 3, decay=1.0)
        block = ema_update(block, g)
        assert np.array_equal(block.matrix, np.outer(g, g))
        assert block.weight_mass == 1.0

    def test_zero_gradient_scales_and_advances_mass(self):
        block = FisherBlock.zeros(0, 2, decay=0.25)
        block = ema_update(block, np.array([2.0, 0.0]))
        before = block.matrix.copy()
        mass_before = block.weight_mass
        block = ema_update(block, np.zeros(2))
        assert np.allclose(block.matrix, 0.75 * before)
        assert block.weight_mass > mass_before

    def test_matches_direct_summation(self):
        grads = fixed_stream(50, 4, seed=1)
        block = FisherBlock.zeros(0, 4, decay=0.1)
        for g in grads:
            block = ema_update(block, g)
        expected = direct_weighted_sum(grads, 0.1)
        assert np.abs(block.matrix - expected).max() <= 1e-12

    def test_dimension_mismatch(self):
        block = FisherBlock.zeros(0, 3, decay=0.1)
        with pytest.raises(ValueError):
            ema_update(block, np.zeros(4))
        with pytest.raises(ValueError):
            ema_update(block, np.zeros((3, 1)))

    def test_rejects_nonfinite_gradient(self):
        # the run loop stops non-finite gradients before the EMA; a block
        # built from one anyway is refused by the spectral solve, full or diagonal
        for mode in ("full", "diagonal"):
            block = ema_update(FisherBlock.zeros(0, 2, decay=0.1, mode=mode),
                               np.array([1.0, np.nan]))
            with pytest.raises(ValueError):
                logdet_plus(block.matrix, 1.0)

    def test_diagonal_equals_diag_of_full(self):
        grads = fixed_stream(30, 5, seed=2)
        full = FisherBlock.zeros(0, 5, decay=0.2, mode="full")
        diag = FisherBlock.zeros(0, 5, decay=0.2, mode="diagonal")
        for g in grads:
            full = ema_update(full, g)
            diag = ema_update(diag, g)
        assert np.array_equal(diag.matrix, np.diag(full.matrix))

    def test_auto_diagonal_above_threshold(self):
        assert FisherBlock.zeros(0, 513, decay=0.1).mode == "diagonal"
        assert FisherBlock.zeros(0, 512, decay=0.1).mode == "full"

    def test_weight_mass_monotone_to_one(self):
        block = FisherBlock.zeros(0, 2, decay=0.1)
        prev = 0.0
        for g in fixed_stream(200, 2, seed=3):
            block = ema_update(block, g)
            assert block.weight_mass > prev
            prev = block.weight_mass
        assert prev == pytest.approx(1.0, abs=1e-9)

    def test_psd_preserved(self):
        block = FisherBlock.zeros(0, 4, decay=0.3)
        for g in fixed_stream(40, 4, seed=4):
            block = ema_update(block, g)
            w = eig_sym(block.matrix).eigenvalues
            assert w.min() >= -1e-10 * trace(block)

    def test_trace_bound_under_gradient_bound(self):
        # deterministic version of the EMA trace bound: ||g||^2 <= B keeps
        # the trace <= B forever
        b = 4.0
        rng = np.random.default_rng(5)
        block = FisherBlock.zeros(0, 3, decay=0.15)
        for _ in range(100):
            g = rng.standard_normal(3)
            g *= np.sqrt(b) / max(1.0, np.linalg.norm(g))
            block = ema_update(block, g)
            assert trace(block) <= b + 1e-12


class TestTrace:
    def test_zero_block(self):
        assert trace(FisherBlock.zeros(0, 3, decay=0.5)) == 0.0

    def test_single_full_weight_update(self):
        g = np.array([3.0, 4.0])
        block = ema_update(FisherBlock.zeros(0, 2, decay=1.0), g)
        assert trace(block) == pytest.approx(25.0, rel=1e-12)

    def test_matches_weighted_norm_sum(self):
        grads = fixed_stream(50, 3, seed=6)
        block = FisherBlock.zeros(0, 3, decay=0.1)
        for g in grads:
            block = ema_update(block, g)
        expected = sum(0.1 * 0.9 ** s * float(g @ g)
                       for s, g in enumerate(reversed(grads)))
        assert trace(block) == pytest.approx(expected, abs=1e-12)


class TestNormalize:
    def test_identity_fixed_point(self):
        block = FisherBlock(0, "full", np.eye(3), decay=0.1, weight_mass=1.0)
        assert np.allclose(normalize(block, 3), np.eye(3))

    def test_zero_block_maps_to_zero(self):
        block = FisherBlock.zeros(0, 4, decay=0.1)
        assert np.all(normalize(block, 4) == 0.0)

    def test_rescales_trace(self):
        block = FisherBlock(0, "full", np.diag([1.0, 3.0]), decay=0.1, weight_mass=1.0)
        assert np.allclose(normalize(block, 2), np.diag([0.5, 1.5]))

    def test_output_trace_equals_nominal(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        block = FisherBlock(0, "full", a @ a.T, decay=0.1, weight_mass=1.0)
        assert np.trace(normalize(block, 5)) == pytest.approx(5.0, abs=1e-10)

    def test_diagonal_mode(self):
        block = FisherBlock(0, "diagonal", np.array([1.0, 3.0]), decay=0.1,
                            weight_mass=1.0)
        assert np.allclose(normalize(block, 2), [0.5, 1.5])
