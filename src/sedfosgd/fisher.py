"""Per-layer Fisher information estimates.

Blocks accumulate an exponential moving average of gradient outer products.
Layers above DIAGONAL_THRESHOLD parameters fall back to a diagonal
approximation so storage stays O(d_j) instead of O(d_j^2).

After k < d folds from zero a full block is sum_i w_i g_i g_i^T = U^T U for
the weighted gradient rows U = W^{1/2} G. Until then it holds U and, as its
one matrix, the k x k Gram U U^T, which has the nonzero spectrum and trace
of U^T U (AB and BA share theirs), so the solve is k x k and exact. The d-th
fold materialises U^T U; from then on the block folds densely.
"""

from dataclasses import dataclass

import numpy as np

DIAGONAL_THRESHOLD = 512


@dataclass
class FisherBlock:
    """EMA Fisher estimate for one layer, folded in place by `ema_update`.

    `matrix` is the block's one array, seeds on the leading axes: the (..., d)
    diagonal in diagonal mode; in full mode the (..., k, k) Gram of the
    weighted gradient rows `rows` (..., k, d) while it holds k < d folds from
    zero, else the (..., d, d) block, with `rows` None.
    """

    layer_index: int
    mode: str  # "full" | "diagonal"
    matrix: np.ndarray
    decay: float
    rows: np.ndarray = None

    @property
    def dim(self):
        return (self.matrix if self.rows is None else self.rows).shape[-1]

    @classmethod
    def zeros(cls, layer_index, dim, decay, mode=None, stack=()):
        """Zero block, one per seed of a `stack`-shaped stack; `mode` defaults
        to diagonal above DIAGONAL_THRESHOLD. The run's config checks `decay`."""
        if mode is None:
            mode = "diagonal" if dim > DIAGONAL_THRESHOLD else "full"
        if mode == "full":
            return cls(layer_index=layer_index, mode=mode, matrix=np.zeros(stack + (0, 0)),
                       decay=decay, rows=np.zeros(stack + (0, dim)))
        if mode == "diagonal":
            return cls(layer_index=layer_index, mode=mode,
                       matrix=np.zeros(stack + (dim,)), decay=decay)
        raise ValueError(f"unknown mode {mode!r}")

    def keep(self, mask):
        """Keep only the seeds of a stacked block where `mask` is true."""
        self.matrix = self.matrix[mask]
        if self.rows is not None:
            self.rows = self.rows[mask]


def ema_update(block, v):
    """Fold one gradient vector per seed into the EMA in place:
    (1-gamma) * old + gamma * v (x) v.

    This is the one check of the Fisher input: a finite gradient keeps the
    block finite and exactly symmetric, which the spectral solve relies on.
    """
    v = np.asarray(v, dtype=float)
    stack = block.matrix.shape[:-2 if block.mode == "full" else -1]
    if v.shape != stack + (block.dim,):
        raise ValueError(f"dimension mismatch: block of dim {block.dim} over seed "
                         f"stack {stack}, gradient {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("gradient entries must be finite")
    gamma = block.decay
    if block.rows is not None:
        if block.rows.shape[-2] + 1 < block.dim:
            block.rows, block.matrix = _extend_factor(block.rows, block.matrix, v, gamma)
            return
        # the d-th fold: U^T U as a sum of products is exactly symmetric
        block.matrix = np.einsum("...ki,...kj->...ij", block.rows, block.rows)
        block.rows = None
    block.matrix *= 1.0 - gamma
    if block.mode == "full":
        block.matrix += gamma * (v[..., :, None] * v[..., None, :])
    else:
        block.matrix += gamma * v * v


def _extend_factor(rows, gram, v, gamma):
    """Rows sqrt(1-gamma) U plus sqrt(gamma) v, and their Gram in O(k d)."""
    k = rows.shape[-2]
    new_row = np.sqrt(gamma) * v
    rows = np.concatenate([np.sqrt(1.0 - gamma) * rows, new_row[..., None, :]], axis=-2)
    cross = np.matmul(rows[..., :k, :], new_row[..., :, None])[..., 0]
    out = np.empty(gram.shape[:-2] + (k + 1, k + 1))
    out[..., :k, :k] = (1.0 - gamma) * gram
    out[..., :k, k] = cross
    out[..., k, :k] = cross
    out[..., k, k] = np.vecdot(new_row, new_row)
    return rows, out


_TRACE_FLOOR = 1e-12


def spectral_operand(block, normalized):
    """The block's matrix (its Gram, the block or its diagonal), which has
    the block's nonzero spectrum and trace. With `normalized`, it is scaled
    by dim / trace, so the block's trace becomes its dimension; a block
    whose trace is at the floor maps to zero. Without, it is the block's own
    array, which the next fold of a dense or diagonal block overwrites.
    """
    if not normalized:
        return block.matrix
    if block.mode == "full":
        tr = block.matrix.trace(axis1=-2, axis2=-1)[..., None, None]
    else:
        tr = block.matrix.sum(axis=-1, keepdims=True)
    if min(tr.reshape(-1).tolist()) <= _TRACE_FLOOR:
        tr = np.where(tr > _TRACE_FLOOR, tr, np.inf)  # dim / inf is 0
    return block.dim / tr * block.matrix
