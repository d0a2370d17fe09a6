"""Per-layer Fisher information estimates.

Blocks accumulate an exponential moving average of gradient outer products.
Layers above DIAGONAL_THRESHOLD parameters fall back to a diagonal
approximation so storage stays O(d_j) instead of O(d_j^2).
"""

from dataclasses import dataclass

import numpy as np

DIAGONAL_THRESHOLD = 512


@dataclass(frozen=True)
class FisherBlock:
    """EMA Fisher estimate for one layer.

    `matrix` is a (d, d) array in full mode or a length-d vector of diagonal
    entries in diagonal mode. `weight_mass` tracks 1 - (1-decay)^t.
    """

    layer_index: int
    mode: str  # "full" | "diagonal"
    matrix: np.ndarray
    decay: float
    weight_mass: float = 0.0

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
            matrix = np.zeros((dim, dim))
        elif mode == "diagonal":
            matrix = np.zeros(dim)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        return cls(layer_index=layer_index, mode=mode, matrix=matrix, decay=decay)


def ema_update(block, v):
    """Fold one gradient vector into the EMA: (1-gamma) * old + gamma * v (x) v."""
    v = np.asarray(v, dtype=float)
    if v.shape != (block.dim,):
        raise ValueError(
            f"dimension mismatch: block {block.dim}, gradient {v.shape}")
    gamma = block.decay
    if block.mode == "full":
        matrix = (1.0 - gamma) * block.matrix + gamma * np.outer(v, v)
    else:
        matrix = (1.0 - gamma) * block.matrix + gamma * v * v
    mass = (1.0 - gamma) * block.weight_mass + gamma
    return FisherBlock(layer_index=block.layer_index, mode=block.mode,
                       matrix=matrix, decay=gamma, weight_mass=mass)


def trace(block):
    if block.mode == "full":
        return float(np.trace(block.matrix))
    return float(np.sum(block.matrix))


_TRACE_FLOOR = 1e-12


def normalize(block, nominal_dim):
    """Rescale so the trace equals the nominal dimension; zero block maps to zero."""
    if nominal_dim != block.dim:
        raise ValueError(
            f"nominal_dim {nominal_dim} does not match block dim {block.dim}")
    tr = trace(block)
    if tr <= _TRACE_FLOOR:
        return np.zeros_like(block.matrix)
    return (nominal_dim / tr) * block.matrix
