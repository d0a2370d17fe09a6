"""Per-layer Fisher information estimates.

Blocks accumulate an exponential moving average of gradient outer products.
Layers above DIAGONAL_THRESHOLD parameters fall back to a diagonal
approximation so storage stays O(d_j) instead of O(d_j^2). Their traced
dimensions (and d_max) are the diagonal's: about 39 % above the full block's
on a 50-step 784-4-10 MLP, whose exponents still agreed within 3e-4.

After k < d folds from zero a full block is sum_i w_i g_i g_i^T = U^T U for
the weighted gradient rows U = W^{1/2} G. Until then it holds U and, as its
one matrix, the k x k Gram U U^T, which has the nonzero spectrum and trace
of U^T U (AB and BA share theirs), so the solve is k x k and exact. The d-th
fold materialises U^T U; from then on the block folds densely, each chunk
into a new stack of one array per step, which no later fold writes to.
"""

from dataclasses import dataclass

import numpy as np

from .mathkit import logdet_plus

DIAGONAL_THRESHOLD = 512
_TRACE_FLOOR = 1e-12


@dataclass
class FisherBlock:
    """EMA Fisher estimate for one layer, folded by `ema_update`.

    `matrix` is the block's one array, seeds on the leading axes: the (..., d)
    diagonal in diagonal mode; in full mode the (..., k, k) Gram of the
    weighted gradient rows `rows` (..., k, d) while it holds k < d folds from
    zero, else the (..., d, d) block, with `rows` None. A dense or diagonal
    `matrix` is a view that keeps its chunk's whole stack of steps alive.
    """

    layer_index: int
    mode: str  # "full" | "diagonal"
    matrix: np.ndarray
    decay: float
    rows: np.ndarray = None

    @property
    def dim(self):
        return (self.matrix if self.rows is None else self.rows).shape[-1]

    @property
    def step_entries(self):  # per seed, of one step's dense or diagonal matrix
        return self.dim ** 2 if self.mode == "full" else self.dim

    @classmethod
    def zeros(cls, layer_index, dim, decay, mode=None, stack=()):
        """Zero block, one per seed of a `stack`-shaped stack; `mode` defaults
        to diagonal above DIAGONAL_THRESHOLD. The run's config checks `decay`."""
        if mode is None:
            mode = "diagonal" if dim > DIAGONAL_THRESHOLD else "full"
        if mode == "full":
            return cls(layer_index, mode, np.zeros(stack + (0, 0)), decay,
                       rows=np.zeros(stack + (0, dim)))
        return cls(layer_index, mode, np.zeros(stack + (dim,)), decay)


def ema_update(block, grads, scale, normalized):
    """Fold a chunk of gradients (steps, seeds..., d) into the block in order,
    each step as (1-gamma) * old + gamma * v (x) v; returns each step's
    logdet_plus(F, scale), (steps, seeds...), with F scaled by dim / trace
    (zero at the trace floor) if `normalized`. The run loop passes finite
    chunks shaped to the block (it zeroes a blown seed's gradient), which
    keeps the block finite and exactly symmetric, as the spectral solve needs."""
    gamma, n, logdets = block.decay, 0, []  # one array per Gram step, then the stack's
    while block.rows is not None and n < len(grads):  # the Gram grows by one a step
        if block.rows.shape[-2] + 1 < block.dim:
            block.rows, block.matrix = _extend_factor(block.rows, block.matrix,
                                                      grads[n], gamma)
            logdets.append(_logdets(block, block.matrix[None], scale, normalized))
            n += 1
        else:  # the d-th fold starts from U^T U, exactly symmetric as a sum of products
            block.matrix = np.einsum("...ki,...kj->...ij", block.rows, block.rows)
            block.rows = None
    if n < len(grads):  # the dense or diagonal steps, each in its own row of the stack
        v = grads[n:]
        if block.mode == "full":
            ops = v[..., :, None] * v[..., None, :]
            ops *= gamma
        else:  # (gamma * v) * v; gamma * (v * v) rounds apart
            ops = np.multiply(v, gamma)
            ops *= v
        head = ops[0]  # in place through a view; `ops[0] +=` would also copy it back
        head += (1.0 - gamma) * block.matrix
        for i in range(1, len(ops)):
            ops[i] += (1.0 - gamma) * ops[i - 1]
        block.matrix = ops[-1]
        logdets.append(_logdets(block, ops, scale, normalized))
    return logdets[0] if len(logdets) == 1 else np.concatenate(logdets)


def _extend_factor(rows, gram, v, gamma):
    """Rows sqrt(1-gamma) U plus sqrt(gamma) v, and their Gram in O(k d), as new arrays."""
    k = rows.shape[-2]
    grown = np.empty(rows.shape[:-2] + (k + 1, rows.shape[-1]))
    np.multiply(rows, np.sqrt(1.0 - gamma), out=grown[..., :k, :])
    new_row = np.multiply(v, np.sqrt(gamma), out=grown[..., k, :])
    cross = np.matmul(grown[..., :k, :], new_row[..., :, None])[..., 0]
    out = np.empty(gram.shape[:-2] + (k + 1, k + 1))
    np.multiply(gram, 1.0 - gamma, out=out[..., :k, :k])
    out[..., :k, k] = cross
    out[..., k, :k] = cross
    out[..., k, k] = np.vecdot(new_row, new_row)
    return grown, out


def _logdets(block, ops, scale, normalized):
    """logdet_plus of each of the block's matrices `ops` (any leading axes)."""
    if normalized:
        full = block.mode == "full"
        tr = ops.trace(axis1=-2, axis2=-1) if full else ops.sum(axis=-1)
        if min(tr.reshape(-1).tolist()) <= _TRACE_FLOOR:
            tr = np.where(tr > _TRACE_FLOOR, tr, np.inf)  # dim / inf is 0
        ops = (block.dim / tr)[(..., None, None) if full else (..., None)] * ops
    return logdet_plus(ops, scale, block.mode == "diagonal")
