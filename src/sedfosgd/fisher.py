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

    `matrix` is a (..., d, d) array in full mode or (..., d) diagonal entries
    in diagonal mode, the leading axes over seeds. `rows` (..., k, d) and
    `gram` (..., k, k) hold the rank-limited factor of a full block built
    from zero by k < d folds; they are None otherwise.
    """

    layer_index: int
    mode: str  # "full" | "diagonal"
    matrix: np.ndarray
    decay: float
    rows: np.ndarray = None
    gram: np.ndarray = None

    @property
    def dim(self):
        return self.matrix.shape[-1]

    @classmethod
    def zeros(cls, layer_index, dim, decay, mode=None, stack=()):
        """Zero block, one per seed of a `stack`-shaped stack; `mode` defaults
        to diagonal above DIAGONAL_THRESHOLD. The run's config checks `decay`."""
        if mode is None:
            mode = "diagonal" if dim > DIAGONAL_THRESHOLD else "full"
        if mode == "full":
            return cls(layer_index=layer_index, mode=mode,
                       matrix=np.zeros(stack + (dim, dim)), decay=decay,
                       rows=np.zeros(stack + (0, dim)), gram=np.zeros(stack + (0, 0)))
        if mode == "diagonal":
            return cls(layer_index=layer_index, mode=mode,
                       matrix=np.zeros(stack + (dim,)), decay=decay)
        raise ValueError(f"unknown mode {mode!r}")

    def keep(self, mask):
        """Keep only the seeds of a stacked block where `mask` is true."""
        self.matrix = self.matrix[mask]
        if self.rows is not None:
            self.rows, self.gram = self.rows[mask], self.gram[mask]


def ema_update(block, v):
    """Fold one gradient vector per seed into the EMA in place:
    (1-gamma) * old + gamma * v (x) v.

    This is the one check of the Fisher input: a finite gradient keeps the
    block finite and exactly symmetric, which the spectral solve relies on.
    """
    v = np.asarray(v, dtype=float)
    want = block.matrix.shape[:-1] if block.mode == "full" else block.matrix.shape
    if v.shape != want:
        raise ValueError(
            f"dimension mismatch: block {block.matrix.shape}, gradient {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("gradient entries must be finite")
    gamma = block.decay
    block.matrix *= 1.0 - gamma
    if block.mode == "full":
        block.matrix += gamma * (v[..., :, None] * v[..., None, :])
        if block.rows is not None and block.rows.shape[-2] + 1 < block.dim:
            block.rows, block.gram = _extend_factor(block.rows, block.gram, v, gamma)
        else:
            block.rows = block.gram = None
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
        tr = block.matrix.trace(axis1=-2, axis2=-1)[..., None, None]
    else:
        tr = block.matrix.sum(axis=-1, keepdims=True)
    if min(tr.reshape(-1).tolist()) <= _TRACE_FLOOR:
        tr = np.where(tr > _TRACE_FLOOR, tr, np.inf)  # dim / inf is 0
    return block.dim / tr * operand
