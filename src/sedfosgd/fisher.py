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


@dataclass(frozen=True)
class FisherBlock:
    """EMA Fisher estimate for one layer.

    `matrix` is a (d, d) array in full mode or a length-d vector of diagonal
    entries in diagonal mode. `weight_mass` tracks 1 - (1-decay)^t.
    `rows` (k, d) and `gram` (k, k) hold the rank-limited factor of a full
    block built from zero by k < d folds; they are None otherwise.
    """

    layer_index: int
    mode: str  # "full" | "diagonal"
    matrix: np.ndarray
    decay: float
    weight_mass: float = 0.0
    rows: np.ndarray = None
    gram: np.ndarray = None

    @property
    def dim(self):
        return self.matrix.shape[0]

    @classmethod
    def zeros(cls, layer_index, dim, decay, mode=None):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
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
    """Fold one gradient vector into the EMA: (1-gamma) * old + gamma * v (x) v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (block.dim,):
        raise ValueError(
            f"dimension mismatch: block {block.dim}, gradient {v.shape}")
    gamma = block.decay
    rows = gram = None
    if block.mode == "full":
        matrix = (1.0 - gamma) * block.matrix + gamma * np.outer(v, v)
        if block.rows is not None and block.rows.shape[0] + 1 < block.dim:
            rows, gram = _extend_factor(block.rows, block.gram, v, gamma)
    else:
        matrix = (1.0 - gamma) * block.matrix + gamma * v * v
    mass = (1.0 - gamma) * block.weight_mass + gamma
    return FisherBlock(layer_index=block.layer_index, mode=block.mode,
                       matrix=matrix, decay=gamma, weight_mass=mass,
                       rows=rows, gram=gram)


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


def trace(block):
    if block.mode == "full":
        return float(np.trace(block.matrix))
    return float(np.sum(block.matrix))


_TRACE_FLOOR = 1e-12


def _trace_scale(block, nominal_dim):
    """nominal_dim / trace, or 0 for a block whose trace is at the floor."""
    if nominal_dim != block.dim:
        raise ValueError(
            f"nominal_dim {nominal_dim} does not match block dim {block.dim}")
    tr = trace(block)
    return 0.0 if tr <= _TRACE_FLOOR else nominal_dim / tr


def normalize(block, nominal_dim):
    """Rescale so the trace equals the nominal dimension; zero block maps to zero."""
    scale = _trace_scale(block, nominal_dim)
    if scale == 0.0:
        return np.zeros_like(block.matrix)
    return scale * block.matrix


def spectral_operand(block, normalized):
    """The smallest PSD matrix whose nonzero spectrum is the block's.

    That is the k x k weighted gradient Gram while the block holds its
    rank-limited factor, else the block itself (a vector in diagonal mode).
    With `normalized`, the spectrum is that of `normalize(block, block.dim)`.
    """
    if block.gram is None:
        return normalize(block, block.dim) if normalized else block.matrix
    return _trace_scale(block, block.dim) * block.gram if normalized else block.gram
