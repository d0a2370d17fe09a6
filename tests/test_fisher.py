import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedfosgd import fisher
from sedfosgd.fisher import FisherBlock, ema_update
from sedfosgd.harness import ExperimentConfig, derive_seed, run
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


def fold(block, grads, normalized=True):
    """`ema_update` of a chunk of steps (a list, or an array with the steps
    on its first axis); returns the steps' log-dets."""
    return ema_update(block, np.asarray(grads, dtype=float), SCALE, normalized)


class TestEmaUpdate:
    def test_full_decay_one_is_outer_product(self):
        # one fold: the factor is g itself and the Gram g . g; at the d-th
        # fold the dense block is g (x) g
        g = np.array([1.0, -2.0, 0.5])
        block = FisherBlock.zeros(0, 3, decay=1.0)
        fold(block, [g])
        assert np.array_equal(block.rows, g[None, :])
        assert np.array_equal(block.matrix, [[g @ g]])
        fold(block, [g, g])
        assert block.rows is None
        assert np.array_equal(block.matrix, np.outer(g, g))

    def test_zero_gradient_scales_and_advances_mass(self):
        # the Gram scales and gains a zero row and column; after the d-th
        # fold the dense block scales
        block = FisherBlock.zeros(0, 3, decay=0.25)
        fold(block, [[2.0, 0.0, 0.0]])
        before = block.matrix.copy()
        fold(block, [np.zeros(3)])
        assert np.allclose(block.matrix, np.pad(0.75 * before, (0, 1)))
        fold(block, [np.zeros(3)])
        before = block.matrix.copy()
        assert before.shape == (3, 3)
        fold(block, [np.zeros(3)])
        assert np.allclose(block.matrix, 0.75 * before)

    def test_matches_direct_summation(self):
        # one chunk of 50 steps, through the switch to the dense block
        grads = fixed_stream(50, 4, seed=1)
        block = FisherBlock.zeros(0, 4, decay=0.1)
        fold(block, grads)
        expected = direct_weighted_sum(grads, 0.1)
        assert np.abs(block.matrix - expected).max() <= 1e-12

    def test_diagonal_equals_diag_of_full(self):
        grads = fixed_stream(30, 5, seed=2)
        full = FisherBlock.zeros(0, 5, decay=0.2, mode="full")
        diag = FisherBlock.zeros(0, 5, decay=0.2, mode="diagonal")
        fold(full, grads)
        fold(diag, grads)
        assert np.array_equal(diag.matrix, np.diag(full.matrix))

    def test_auto_diagonal_above_threshold(self):
        assert FisherBlock.zeros(0, 513, decay=0.1).mode == "diagonal"
        assert FisherBlock.zeros(0, 512, decay=0.1).mode == "full"
        # a chunk is sized by the entries of one step's dense or diagonal matrix
        assert FisherBlock.zeros(0, 513, decay=0.1).step_entries == 513
        assert FisherBlock.zeros(0, 512, decay=0.1).step_entries == 512 ** 2

    @pytest.mark.parametrize("dim", [2, 32, 330])
    def test_gram_fold_equals_the_factor_expression(self, dim):
        # before its d-th fold a full block scales its weighted rows by
        # sqrt(1 - gamma) and appends sqrt(gamma) v, and its Gram by 1 - gamma,
        # gaining the new row's products; each step solves its Gram alone;
        # after the d-th fold it folds densely
        block = FisherBlock.zeros(0, dim, decay=0.1)
        for n, v in enumerate(fixed_stream(dim + 2, dim, seed=dim), start=1):
            rows, gram = block.rows, block.matrix
            got = fold(block, [v], normalized=False)
            if n == dim:
                assert block.rows is None and block.matrix.shape == (dim, dim)
            if n > dim:
                expected = (1.0 - 0.1) * gram + 0.1 * np.outer(v, v)
                assert block.matrix.tobytes() == expected.tobytes()
            if n >= dim:
                continue
            new_row = np.sqrt(0.1) * v
            assert block.rows.tobytes() == np.concatenate(
                [np.sqrt(1.0 - 0.1) * rows, new_row[None, :]]).tobytes()
            assert block.matrix[:-1, :-1].tobytes() == ((1.0 - 0.1) * gram).tobytes()
            assert block.matrix[:-1, -1].tobytes() == block.matrix[-1, :-1].tobytes()
            assert np.allclose(block.matrix[-1], block.rows @ new_row, rtol=1e-14)
            if n in (1, dim // 2, dim - 1):  # the solves are the slow part
                assert got.tobytes() == np.array([logdet_plus(block.matrix, SCALE)]).tobytes()

    @pytest.mark.parametrize("dim", [2, 32, 330])
    @pytest.mark.parametrize("mode", ["full", "diagonal"])
    def test_fold_in_place_equals_the_ema_expression(self, dim, mode):
        # the block folds a chunk of 1 .. 6 steps: each step gives
        # the bits of (1 - gamma) * M + gamma * v (x) v (diagonal:
        # (1 - gamma) * M + gamma * v * v) from the step before, and its
        # log-det is the solve of that matrix alone (scaled by dim / trace
        # if normalized)
        rng = np.random.default_rng(dim)
        a = rng.standard_normal((dim, dim))
        block = FisherBlock(0, mode, a @ a.T if mode == "full" else a[0] * a[0], decay=0.1)
        for width, normalized in [(w, n) for n in (False, True) for w in range(1, 7)]:
            chunk = rng.standard_normal((width, dim))
            m, expected = block.matrix, []
            for v in chunk:
                if mode == "full":
                    m = (1.0 - 0.1) * m + 0.1 * np.outer(v, v)
                else:
                    m = (1.0 - 0.1) * m + 0.1 * v * v
                op = m
                if normalized:
                    op = dim / (np.trace(m) if mode == "full" else m.sum()) * m
                expected.append(logdet_plus(op, SCALE, mode == "diagonal"))
            got = ema_update(block, chunk, SCALE, normalized)
            assert block.matrix.tobytes() == m.tobytes()
            assert got.tobytes() == np.array(expected).tobytes()

    def test_psd_preserved(self):
        block = FisherBlock.zeros(0, 4, decay=0.3)
        for g in fixed_stream(40, 4, seed=4):
            fold(block, [g])
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
            fold(block, [g])
            assert np.trace(block.matrix) <= b + 1e-12


class TestTrace:
    def test_zero_block(self):
        assert np.trace(FisherBlock.zeros(0, 3, decay=0.5).matrix) == 0.0

    def test_single_full_weight_update(self):
        g = np.array([3.0, 4.0])
        block = FisherBlock.zeros(0, 2, decay=1.0)
        fold(block, [g])
        assert np.trace(block.matrix) == pytest.approx(25.0, rel=1e-12)

    def test_matches_weighted_norm_sum(self):
        grads = fixed_stream(50, 3, seed=6)
        block = FisherBlock.zeros(0, 3, decay=0.1)
        fold(block, grads)
        expected = sum(0.1 * 0.9 ** s * float(g @ g)
                       for s, g in enumerate(reversed(grads)))
        assert np.trace(block.matrix) == pytest.approx(expected, abs=1e-12)


def normalized_logdet(mode, matrix):
    """The normalized log-det of a block holding `matrix`: at decay 0 a zero
    gradient leaves the block as it is."""
    block = FisherBlock(0, mode, np.asarray(matrix, dtype=float), decay=0.0)
    return fold(block, np.zeros((1, block.dim)))[0]


class TestNormalize:
    def test_identity_fixed_point(self):
        assert normalized_logdet("full", np.eye(3)) == pytest.approx(
            logdet_plus(np.eye(3), SCALE), rel=1e-15)

    def test_zero_block_maps_to_zero(self):
        # a zero block and one whose trace is at the 1e-12 floor
        for scale in (0.0, 1e-13):
            assert normalized_logdet("full", scale * np.eye(4)) == 0.0
            assert normalized_logdet("diagonal", scale * np.ones(4)) == 0.0

    def test_trace_at_the_floor_maps_to_zero(self):
        # the floor is not above itself: a block whose trace is exactly 1e-12
        # is not rescaled to trace dim
        half = fisher._TRACE_FLOOR / 2
        assert normalized_logdet("full", half * np.eye(2)) == 0.0
        assert normalized_logdet("diagonal", [half, half]) == 0.0

    def test_rescales_trace(self):
        assert normalized_logdet("full", np.diag([1.0, 3.0])) == logdet_plus(
            np.diag([0.5, 1.5]), SCALE)

    def test_output_trace_equals_nominal(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        m = a @ a.T
        assert normalized_logdet("full", m) == pytest.approx(
            logdet_plus(5.0 / np.trace(m) * m, SCALE), rel=1e-14)

    def test_diagonal_mode(self):
        assert normalized_logdet("diagonal", [1.0, 3.0]) == logdet_plus(
            np.diag([0.5, 1.5]), SCALE)


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
    top = max(np.abs(op).max(initial=0.0), 1e-300)  # no underflow in the norm's squares
    delta = 4 * n * np.finfo(float).eps * max(top * np.linalg.norm(op / top), 1e-300)
    roots = np.zeros(n)
    roots[:min(n, reference.size)] = np.sort(reference)[::-1][:n]
    with np.errstate(divide="ignore"):
        per_root = np.minimum(np.sqrt(delta), delta / roots)
    return s * float(np.sum(per_root))


def _operand(matrix, dim, normalized):
    """The matrix a block's solve reads: its one matrix, with `normalized`
    scaled by dim / trace (zero at the 1e-12 trace floor)."""
    if not normalized:
        return matrix
    tr = np.trace(matrix)
    return dim / tr * matrix if tr > 1e-12 else np.zeros_like(matrix)


class TestRankLimitedFactor:
    def test_factor_dropped_at_dim_folds(self):
        block = FisherBlock.zeros(0, 5, decay=0.2)
        for k, g in enumerate(fixed_stream(8, 5, seed=8), start=1):
            fold(block, [g])
            if k < 5:
                assert block.rows.shape == (k, 5)
                assert block.matrix.shape == (k, k)
            else:
                assert block.rows is None and block.matrix.shape == (5, 5)
            assert block.dim == 5

    def test_diagonal_blocks_carry_no_factor(self):
        for block in (FisherBlock.zeros(0, 5, decay=0.2, mode="diagonal"),
                      FisherBlock.zeros(0, 600, decay=0.2)):
            assert block.rows is None and block.matrix.shape == (block.dim,)
            for g in fixed_stream(3, block.dim, seed=9):
                fold(block, [g])
                assert block.rows is None and block.matrix.shape == (block.dim,)

    @pytest.mark.parametrize("k", [1, 5, 49])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_exact_low_rank_spectrum(self, k, normalized):
        # F = Q diag(lam) Q^T with orthonormal Q, built by one chunk of k
        # folds of g_i = sqrt(lam_i / w_i) q_i
        dim, decay = 330, 0.1
        rng = np.random.default_rng(k)
        q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
        lam = rng.uniform(0.5, 5.0, size=k)
        w = _ema_weights(decay, k)
        block = FisherBlock.zeros(0, dim, decay=decay)
        got = fold(block, (np.sqrt(lam / w) * q).T, normalized)
        if normalized:
            lam = lam * dim / lam.sum()
        expected = float(np.sum(np.log1p(SCALE * np.sqrt(lam))))
        assert block.matrix.shape == (k, k)
        assert got[-1] == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 40), extra=st.integers(1, 3),
           decay=st.floats(0.05, 1.0), normalized=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_logdet_matches_singular_values(self, dim, extra, decay,
                                            normalized, seed):
        # across the switch to the dense block, inside one chunk, each step's
        # solve follows sum log1p(s * sigma_i) over the singular values of
        # W^{1/2} G
        grads = np.random.default_rng(seed).standard_normal((dim + extra, dim))
        block = FisherBlock.zeros(0, dim, decay=decay, mode="full")
        got = fold(block, grads, normalized)
        for n in range(1, dim + extra + 1):
            weighted = np.sqrt(_ema_weights(decay, n))[:, None] * grads[:n]
            sigma = np.linalg.svd(weighted, compute_uv=False)
            gram = weighted @ weighted.T if n < dim else weighted.T @ weighted
            if normalized:
                sigma = sigma * np.sqrt(dim / np.trace(gram))
            expected = float(np.sum(np.log1p(SCALE * sigma)))
            tol = (_solve_tolerance(_operand(gram, dim, normalized), sigma, SCALE)
                   + 1e-12 * expected)
            assert abs(got[n - 1] - expected) <= tol, (n, got[n - 1], expected, tol)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 40), extra=st.integers(1, 3),
           decay=st.floats(0.0, 1.0, exclude_min=True), seeds=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_one_matrix_matches_the_dense_ema(self, dim, extra, decay, seeds, seed):
        # on both sides of the d-th fold, a stacked block's one matrix is
        # exactly symmetric and gives the log-det of the dense EMA summed
        # here, within both solves' bounds
        grads = np.random.default_rng(seed).standard_normal((seeds, dim + extra, dim))
        blocks = {normalized: FisherBlock.zeros(0, dim, decay=decay, stack=(seeds,))
                  for normalized in (False, True)}
        for n in range(1, dim + extra + 1):
            w = _ema_weights(decay, n)
            dense = np.einsum("i,sij,sik->sjk", w, grads[:, :n], grads[:, :n])
            for normalized, block in blocks.items():
                got = fold(block, grads[None, :, n - 1], normalized)[0]
                m = block.matrix
                assert m.shape == (seeds,) + ((n, n) if n < dim else (dim, dim))
                assert m.tobytes() == np.swapaxes(m, -1, -2).tobytes()
                for i in range(seeds):
                    ref = _operand(dense[i], dim, normalized)
                    roots = np.sqrt(np.maximum(np.linalg.eigvalsh(ref), 0.0))
                    expected = float(np.sum(np.log1p(SCALE * roots)))
                    tol = (_solve_tolerance(_operand(m[i], dim, normalized), roots, SCALE)
                           + _solve_tolerance(ref, roots, SCALE) + 1e-12 * expected)
                    assert abs(got[i] - expected) <= tol, (n, i, got[i], expected, tol)


class TestDiagonalFallback:
    def test_diagonal_block_keeps_the_exponents_of_the_full_one(
            self, synthetic_idx, monkeypatch):
        # layer 0 of a 784-4-10 MLP has 3140 parameters, so its block is
        # diagonal; its dimensions run about 39 % above the full block's, but
        # the exponents, which divide them by their running maximum, agree
        ip, lp = synthetic_idx
        cfg = ExperimentConfig(problem="mlp", optimizer="2sedfosgd", iterations=50,
                               seed=5, mu0=0.5, mlp_images=ip, mlp_labels=lp,
                               mlp_limit=1000, mlp_hidden=4)
        seeds = [derive_seed(cfg.seed, i) for i in range(3)]
        diagonal = run(cfg, seeds=seeds)
        monkeypatch.setattr(fisher, "DIAGONAL_THRESHOLD", 3140)
        full = run(cfg, seeds=seeds)
        header = diagonal[0].header
        cols = [i for i, name in enumerate(header) if name.startswith("alpha_l")]
        assert len(cols) == 2
        for d, f in zip(diagonal, full):
            assert np.abs(d.rows[:, cols] - f.rows[:, cols]).max() <= 1e-3
            assert not np.array_equal(d.rows[:, header.index("dzeta_l0")],
                                      f.rows[:, header.index("dzeta_l0")])
