"""One fractional update for the whole optimizer family.

The step scales the gradient of layer j by

    (|theta_t - theta_{t-1}| + delta)^(1 - alpha_j) / Gamma(2 - alpha_j)

elementwise (or with the layer delta norm in "layer-norm" mode). The
optimizers differ only in the exponents they pass: alpha_j = 1 makes the
factor exactly 1 and the update plain SGD (bitwise), a constant alpha_j is
fixed-exponent fractional SGD, and the adaptive variant recomputes alpha_j
each step from the per-layer effective dimension of the EMA Fisher blocks.

`cfg` is the run's `ExperimentConfig`, which checks every range it holds.
"""

import math

import numpy as np

from . import fisher as fisher_mod
from . import sed as sed_mod
from .mathkit import logdet_plus


class DivergenceError(RuntimeError):
    """A step produced non-finite values; the run is aborted, not patched."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


def norm(arrays):
    """Euclidean norm over the last axis of all of `arrays`, one per seed of
    a stack, each with the bits of that seed's arrays alone (`np.vecdot`
    gives each row the bits of `np.dot`, which `einsum` does not promise).

    When the sum of squares overflows although every entry is finite, the
    norm is taken of the arrays divided by their largest magnitude and
    scaled back, so a finite vector above about 1e154 keeps a finite norm.
    The plain sum warns of the overflow unless numpy's errstate ignores it.
    """
    squares = np.vecdot(arrays[0], arrays[0])
    for v in arrays[1:]:
        squares = squares + np.vecdot(v, v)
    total = np.sqrt(squares)
    if np.inf in total.reshape(-1).tolist():  # cheaper than a reduction on a few seeds
        huge = total == np.inf
        with np.errstate(all="ignore"):
            scale = np.max([np.max(np.abs(v), axis=-1) for v in arrays], axis=0)
            scaled = [v / scale[..., None] for v in arrays]
            rescaled = scale * np.sqrt(sum(np.vecdot(w, w) for w in scaled))
        total = np.where(huge & np.isfinite(scale), rescaled, total)
    return total


def step_size(t, mu0):
    """mu0 / sqrt(t) for t >= 1 (or an array of such t)."""
    if np.any(np.asarray(t) < 1):
        raise ValueError(f"step schedule starts at t = 1, got {t}")
    return mu0 / np.sqrt(t)


def clip_gradients(grads, bound):
    """Scale each seed's whole gradient so its global norm is at most `bound`."""
    if bound is None:
        return grads
    total = norm(grads)
    if total.max() <= bound:
        return grads
    factor = bound / np.maximum(total, bound)  # exactly 1 within the bound
    return [factor[..., None] * g for g in grads]


def step(layers, steps, grads, mu, alphas, cfg, t):
    """Step `t` (1-based) of a stack of runs: per seed and layer,
    theta - (mu / Gamma(2 - alpha)) * (|Delta theta| + delta)^(1 - alpha) * g,
    where each layer is a (seeds, d) array, `steps` holds its last step
    Delta theta = theta_t - theta_{t-1} and `alphas` (seeds, layers) the
    exponents. `math.gamma`, and a power whose exponent differs between
    seeds, are taken seed by seed, so each seed gets the bits of a run of its
    own. Step 1 is classical (every exponent 1). Returns the new layers and
    their steps; `diverged` finds the seeds whose parameters are non-finite.
    """
    if [g.shape for g in grads] != [v.shape for v in layers]:
        raise ValueError(f"gradient shapes {[g.shape for g in grads]} "
                         f"!= layer shapes {[v.shape for v in layers]}")
    alphas = np.asarray(alphas, dtype=float)
    if t < 2 and np.any(alphas != 1.0):
        raise ValueError("fractional steps require one classical step first")
    new_layers, new_steps = [], []
    for th, d, g, a in zip(layers, steps, grads, alphas.T.tolist()):
        shared = len(set(a)) == 1  # one exponent for every seed
        coef = (mu / math.gamma(2.0 - a[0]) if shared
                else np.array([[mu / math.gamma(2.0 - x)] for x in a]))
        if cfg.scaling_mode == "layer-norm":
            power = np.array([[b ** (1.0 - x)] for b, x in zip(norm([d]) + cfg.delta, a)])
        elif shared:
            power = (np.abs(d) + cfg.delta) ** (1.0 - a[0])
        else:
            power = np.array([b ** (1.0 - x) for b, x in zip(np.abs(d) + cfg.delta, a)])
        new = th - coef * (power * g)
        new_layers.append(new)
        new_steps.append(new - th)
    return new_layers, new_steps


def diverged(layers, t):
    """{seed row: DivergenceError} for the seeds of a stack whose parameters
    are non-finite after step `t`, naming each one's first such layer."""
    if all(np.isfinite(v).all() for v in layers):
        return {}
    finite = np.array([np.isfinite(v).all(axis=-1) for v in layers])
    return {k: DivergenceError(
        f"non-finite parameters in layer {int(np.argmin(finite[:, k]))} at step {t}",
        step_index=t) for k in np.flatnonzero(~finite.all(axis=0)).tolist()}


def fisher_diagnostics(grads, blocks, d_max, cfg):
    """Fold a chunk of steps' gradients (per step, a list of per-layer
    gradients) into the EMA blocks in order; returns each step's dimensions
    (steps, seeds..., layers) and their running maximum from `d_max` on.
    A block's run of equal-shape operands takes one stacked `logdet_plus`,
    which solves each matrix alone: every chunk has the bits of one step at
    a time (sgd and fosgd fold many steps, 2sedfosgd one, copying nothing).
    """
    s = sed_mod.curvature_scale(cfg)
    dzeta = np.empty((len(grads),) + grads[0][0].shape[:-1] + (len(blocks),))
    for j, block in enumerate(blocks):
        ops = []
        for step_grads in grads:
            if ops and ops[-1] is block.matrix:  # the next fold overwrites it
                ops[-1] = ops[-1].copy()
            fisher_mod.ema_update(block, step_grads[j])
            ops.append(fisher_mod.spectral_operand(block, cfg.normalize_fisher))
        lo = 0
        for hi in range(1, len(ops) + 1):
            if hi == len(ops) or ops[hi].shape != ops[lo].shape:
                group = ops[lo] if hi == lo + 1 else np.stack(ops[lo:hi])
                dzeta[lo:hi, ..., j] = sed_mod.two_sed(
                    logdet_plus(group, s, block.mode == "diagonal"), block.dim, cfg)
                lo = hi
    peak = np.maximum(d_max, dzeta.max(axis=-1))
    return dzeta, peak if len(grads) == 1 else np.maximum.accumulate(peak, axis=0)
