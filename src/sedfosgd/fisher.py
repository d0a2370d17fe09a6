"""Per-layer Fisher information estimates.

Blocks accumulate an exponential moving average of gradient outer products.
Layers above DIAGONAL_THRESHOLD parameters fall back to a diagonal
approximation so storage stays O(d_j) instead of O(d_j^2).

After k < d folds from zero a full block is sum_i w_i g_i g_i^T, of rank at
most k. Until the fold count reaches d, a full block also carries the
weighted gradient rows U = W^{1/2} G and their k x k Gram U U^T, which has
the same nonzero spectrum as the d x d block (AB and BA share theirs), so
`spectral_operand` can hand the eigensolver the smaller matrix exactly.
"""

from dataclasses import dataclass

import numpy as np

DIAGONAL_THRESHOLD = 512


@dataclass
class FisherBlock:
    """EMA Fisher estimate for one layer, folded in place by `ema_update`.

    `matrix` is a (d, d) array in full mode or a length-d vector of diagonal
    entries in diagonal mode. `rows` (k, d) and `gram` (k, k) hold the
    rank-limited factor of a full block built from zero by k < d folds; they
    are None otherwise.
    """

    layer_index: int
    mode: str  # "full" | "diagonal"
    matrix: np.ndarray
    decay: float
    rows: np.ndarray = None
    gram: np.ndarray = None

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def zeros(cls, layer_index, dim, decay, mode=None):
        """Zero block; `mode` defaults to diagonal above DIAGONAL_THRESHOLD.

        The run's `ExperimentConfig` checks that `decay` is in (0, 1].
        """
        if mode is None:
            mode = "diagonal" if dim > DIAGONAL_THRESHOLD else "full"
        if mode == "full":
            return cls(layer_index=layer_index, mode=mode,
                       matrix=np.zeros((dim, dim)), decay=decay,
                       rows=np.zeros((0, dim)), gram=np.zeros((0, 0)))
        if mode == "diagonal":
            return cls(layer_index=layer_index, mode=mode, matrix=np.zeros(dim),
                       decay=decay)
        raise ValueError(f"unknown mode {mode!r}")


def ema_update(block, v):
    """Fold one gradient vector into the EMA in place:
    (1-gamma) * old + gamma * v (x) v.

    This is the one check of the Fisher input: a finite gradient keeps the
    block finite and exactly symmetric, which the spectral solve relies on.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (block.dim,):
        raise ValueError(
            f"dimension mismatch: block {block.dim}, gradient {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("gradient entries must be finite")
    gamma = block.decay
    block.matrix *= 1.0 - gamma
    if block.mode == "full":
        block.matrix += gamma * np.outer(v, v)
        if block.rows is not None and block.rows.shape[0] + 1 < block.dim:
            block.rows, block.gram = _extend_factor(block.rows, block.gram, v, gamma)
        else:
            block.rows = block.gram = None
    else:
        block.matrix += gamma * v * v


def _extend_factor(rows, gram, v, gamma):
    """Rows sqrt(1-gamma) U plus sqrt(gamma) v, and their Gram in O(k d)."""
    k = rows.shape[0]
    new_row = np.sqrt(gamma) * v
    rows = np.vstack([np.sqrt(1.0 - gamma) * rows, new_row])
    cross = rows[:k] @ new_row
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = (1.0 - gamma) * gram
    out[:k, k] = cross
    out[k, :k] = cross
    out[k, k] = new_row @ new_row
    return rows, out


_TRACE_FLOOR = 1e-12


def spectral_operand(block, normalized):
    """The smallest PSD matrix whose nonzero spectrum is the block's.

    That is the k x k weighted gradient Gram while the block holds its
    rank-limited factor, else the block itself (a vector in diagonal mode).
    With `normalized`, it is scaled by dim / trace, so the block's trace
    becomes its dimension; a block whose trace is at the floor maps to zero.
    """
    operand = block.matrix if block.gram is None else block.gram
    if not normalized:
        return operand
    if block.mode == "full":
        tr = float(np.trace(block.matrix))
    else:
        tr = float(np.sum(block.matrix))
    scale = 0.0 if tr <= _TRACE_FLOOR else block.dim / tr
    return scale * operand
