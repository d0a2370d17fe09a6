import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd.fisher import FisherBlock, ema_update, spectral_operand
from sedfosgd.harness import ExperimentConfig
from sedfosgd.mathkit import logdet_plus
from sedfosgd.sed import curvature_scale

SCALE = curvature_scale(ExperimentConfig(problem="ar", optimizer="2sedfosgd",
                                         iterations=1))


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
        ema_update(block, g)
        assert np.array_equal(block.matrix, np.outer(g, g))

    def test_zero_gradient_scales_and_advances_mass(self):
        block = FisherBlock.zeros(0, 2, decay=0.25)
        ema_update(block, np.array([2.0, 0.0]))
        before = block.matrix.copy()
        ema_update(block, np.zeros(2))
        assert np.allclose(block.matrix, 0.75 * before)

    def test_matches_direct_summation(self):
        grads = fixed_stream(50, 4, seed=1)
        block = FisherBlock.zeros(0, 4, decay=0.1)
        for g in grads:
            ema_update(block, g)
        expected = direct_weighted_sum(grads, 0.1)
        assert np.abs(block.matrix - expected).max() <= 1e-12

    def test_dimension_mismatch(self):
        block = FisherBlock.zeros(0, 3, decay=0.1)
        with pytest.raises(ValueError):
            ema_update(block, np.zeros(4))
        with pytest.raises(ValueError):
            ema_update(block, np.zeros((3, 1)))

    def test_rejects_nonfinite_gradient(self):
        # the run loop stops non-finite gradients before the EMA; one that
        # reaches it anyway is refused there, full or diagonal, so the
        # spectral solve never sees a non-finite block
        for mode in ("full", "diagonal"):
            block = FisherBlock.zeros(0, 2, decay=0.1, mode=mode)
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError, match="finite"):
                    ema_update(block, np.array([1.0, bad]))

    def test_diagonal_equals_diag_of_full(self):
        grads = fixed_stream(30, 5, seed=2)
        full = FisherBlock.zeros(0, 5, decay=0.2, mode="full")
        diag = FisherBlock.zeros(0, 5, decay=0.2, mode="diagonal")
        for g in grads:
            ema_update(full, g)
            ema_update(diag, g)
        assert np.array_equal(diag.matrix, np.diag(full.matrix))

    def test_auto_diagonal_above_threshold(self):
        assert FisherBlock.zeros(0, 513, decay=0.1).mode == "diagonal"
        assert FisherBlock.zeros(0, 512, decay=0.1).mode == "full"

    @pytest.mark.parametrize("dim", [2, 32, 330])
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_fold_in_place_equals_the_ema_expression(self, dim, mode):
        # the in-place *= / += fold gives the bits of
        # (1 - gamma) * old + gamma * v (x) v, in the same array
        block = FisherBlock.zeros(0, dim, decay=0.1, mode=mode)
        matrix = block.matrix
        for v in fixed_stream(dim + 2, dim, seed=dim):
            if mode == "full":
                expected = (1.0 - 0.1) * block.matrix + 0.1 * np.outer(v, v)
            else:
                expected = (1.0 - 0.1) * block.matrix + 0.1 * v * v
            ema_update(block, v)
            assert block.matrix is matrix
            assert block.matrix.tobytes() == expected.tobytes()

    def test_psd_preserved(self):
        block = FisherBlock.zeros(0, 4, decay=0.3)
        for g in fixed_stream(40, 4, seed=4):
            ema_update(block, g)
            w = np.linalg.eigvalsh(block.matrix)
            assert w.min() >= -1e-10 * np.trace(block.matrix)

    def test_trace_bound_under_gradient_bound(self):
        # deterministic version of the EMA trace bound: ||g||^2 <= B keeps
        # the trace <= B forever
        b = 4.0
        rng = np.random.default_rng(5)
        block = FisherBlock.zeros(0, 3, decay=0.15)
        for _ in range(100):
            g = rng.standard_normal(3)
            g *= np.sqrt(b) / max(1.0, np.linalg.norm(g))
            ema_update(block, g)
            assert np.trace(block.matrix) <= b + 1e-12


class TestTrace:
    def test_zero_block(self):
        assert np.trace(FisherBlock.zeros(0, 3, decay=0.5).matrix) == 0.0

    def test_single_full_weight_update(self):
        g = np.array([3.0, 4.0])
        block = FisherBlock.zeros(0, 2, decay=1.0)
        ema_update(block, g)
        assert np.trace(block.matrix) == pytest.approx(25.0, rel=1e-12)

    def test_matches_weighted_norm_sum(self):
        grads = fixed_stream(50, 3, seed=6)
        block = FisherBlock.zeros(0, 3, decay=0.1)
        for g in grads:
            ema_update(block, g)
        expected = sum(0.1 * 0.9 ** s * float(g @ g)
                       for s, g in enumerate(reversed(grads)))
        assert np.trace(block.matrix) == pytest.approx(expected, abs=1e-12)


class TestNormalize:
    def test_identity_fixed_point(self):
        block = FisherBlock(0, "full", np.eye(3), decay=0.1)
        assert np.allclose(spectral_operand(block, True), np.eye(3))

    def test_zero_block_maps_to_zero(self):
        # a zero block and one whose trace is at the 1e-12 floor
        for scale in (0.0, 1e-13):
            block = FisherBlock(0, "full", scale * np.eye(4), decay=0.1)
            assert np.all(spectral_operand(block, True) == 0.0)

    def test_rescales_trace(self):
        block = FisherBlock(0, "full", np.diag([1.0, 3.0]), decay=0.1)
        assert np.allclose(spectral_operand(block, True), np.diag([0.5, 1.5]))

    def test_output_trace_equals_nominal(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        block = FisherBlock(0, "full", a @ a.T, decay=0.1)
        assert np.trace(spectral_operand(block, True)) == pytest.approx(5.0, abs=1e-10)

    def test_diagonal_mode(self):
        block = FisherBlock(0, "diagonal", np.array([1.0, 3.0]), decay=0.1)
        assert np.allclose(spectral_operand(block, True), [0.5, 1.5])


def _ema_weights(decay, n):
    """EMA weights of n folds from zero, oldest first."""
    return decay * (1 - decay) ** np.arange(n - 1, -1, -1)


def _solve_tolerance(op, reference, s):
    """First-order bound on |logdet_plus(op, s) - sum log1p(s * reference)|.

    A backward-stable symmetric solve moves each eigenvalue by at most
    delta = n eps ||op||, so its square root moves by at most
    min(sqrt(delta), delta / root); `reference` holds the exact roots.
    """
    n = op.shape[0]
    delta = 4 * n * np.finfo(float).eps * max(np.linalg.norm(op), 1e-300)
    roots = np.zeros(n)
    roots[:min(n, reference.size)] = np.sort(reference)[::-1][:n]
    with np.errstate(divide="ignore"):
        per_root = np.minimum(np.sqrt(delta), delta / roots)
    return s * float(np.sum(per_root))


class TestRankLimitedFactor:
    def test_factor_dropped_at_dim_folds(self):
        block = FisherBlock.zeros(0, 5, decay=0.2)
        for k, g in enumerate(fixed_stream(8, 5, seed=8), start=1):
            ema_update(block, g)
            if k < 5:
                assert block.rows.shape == (k, 5)
                assert block.gram.shape == (k, k)
                assert spectral_operand(block, True).shape == (k, k)
            else:
                assert block.rows is None and block.gram is None
                assert spectral_operand(block, False) is block.matrix

    def test_diagonal_blocks_carry_no_factor(self):
        for block in (FisherBlock.zeros(0, 5, decay=0.2, mode="diagonal"),
                      FisherBlock.zeros(0, 600, decay=0.2)):
            assert block.rows is None and block.gram is None
            for g in fixed_stream(3, block.dim, seed=9):
                ema_update(block, g)
                assert block.rows is None and block.gram is None
                assert spectral_operand(block, False) is block.matrix

    @pytest.mark.parametrize("k", [1, 5, 49])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_exact_low_rank_spectrum(self, k, normalized):
        # F = Q diag(lam) Q^T with orthonormal Q, built by k folds of
        # g_i = sqrt(lam_i / w_i) q_i
        dim, decay = 330, 0.1
        rng = np.random.default_rng(k)
        q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
        lam = rng.uniform(0.5, 5.0, size=k)
        w = _ema_weights(decay, k)
        block = FisherBlock.zeros(0, dim, decay=decay)
        for i in range(k):
            ema_update(block, np.sqrt(lam[i] / w[i]) * q[:, i])
        if normalized:
            lam = lam * dim / lam.sum()
        expected = float(np.sum(np.log1p(SCALE * np.sqrt(lam))))
        op = spectral_operand(block, normalized)
        assert op.shape == (k, k)
        assert logdet_plus(op, SCALE) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 40), extra=st.integers(1, 3),
           decay=st.floats(0.05, 1.0), normalized=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_logdet_matches_singular_values(self, dim, extra, decay,
                                            normalized, seed):
        # across the switch to the dense block, the solve follows
        # sum log1p(s * sigma_i) over the singular values of W^{1/2} G
        grads = np.random.default_rng(seed).standard_normal((dim + extra, dim))
        block = FisherBlock.zeros(0, dim, decay=decay, mode="full")
        for n in range(1, dim + extra + 1):
            ema_update(block, grads[n - 1])
            weighted = np.sqrt(_ema_weights(decay, n))[:, None] * grads[:n]
            sigma = np.linalg.svd(weighted, compute_uv=False)
            if normalized:
                sigma = sigma * np.sqrt(dim / np.trace(block.matrix))
            expected = float(np.sum(np.log1p(SCALE * sigma)))
            op = spectral_operand(block, normalized)
            assert op.shape == ((n, n) if n < dim else (dim, dim))
            got = logdet_plus(op, SCALE)
            tol = _solve_tolerance(op, sigma, SCALE) + 1e-12 * expected
            assert abs(got - expected) <= tol, (n, got, expected, tol)
