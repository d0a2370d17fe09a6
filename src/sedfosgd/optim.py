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
    return mu0 / np.sqrt(t)


def clip_gradients(grads, bound):
    """Scale each seed's whole gradient so its global norm is at most `bound`;
    returns the gradients (`grads` itself if none is scaled) and the norms,
    one Python float per seed (None with no bound)."""
    if bound is None:
        return grads, None
    total = norm(grads)
    norms = total.reshape(-1).tolist()
    if all(x <= bound for x in norms):  # a nan norm clips, as with max()
        return grads, norms
    factor = bound / np.maximum(total, bound)  # exactly 1 within the bound
    return [factor[..., None] * g for g in grads], norms


def step(layers, steps, grads, mu, alphas, cfg):
    """One step of a stack of runs: per seed and layer,
    theta - (mu / Gamma(2 - alpha)) * (|Delta theta| + delta)^(1 - alpha) * g,
    where each layer and its gradient is a (seeds, d) array, `steps` holds
    its last step Delta theta = theta_t - theta_{t-1}, and `alphas` holds per
    layer a list of per-seed exponents, all 1 at a run's classical first step.
    `math.gamma`, and a power whose exponent differs between seeds, are taken
    seed by seed, so each seed gets the bits of a run of its own; a layer
    whose exponents are all 1 takes no power, as its factor is exactly 1.
    Returns the new layers and steps as new arrays, writing none it was
    given; `diverged` finds the seeds whose parameters are non-finite.
    """
    new_layers, new_steps = [], []
    for th, d, g, a in zip(layers, steps, grads, alphas):
        shared = len(set(a)) == 1  # one exponent for every seed
        coef = (mu / math.gamma(2.0 - a[0]) if shared
                else np.array([[mu / math.gamma(2.0 - x)] for x in a]))
        if shared and a[0] == 1.0:  # the factor is x ** 0.0, exactly 1, and 1 * g is g
            buf = g * coef
        elif cfg.scaling_mode == "layer-norm":
            buf = np.array([[b ** (1.0 - x)] for b, x in zip(norm([d]) + cfg.delta, a)]) * g
            buf *= coef
        else:  # the factor, then its products with g and the coefficient, in one new buffer
            buf = np.abs(d)
            buf += cfg.delta
            for row, x in [(buf, a[0])] if shared else zip(buf, a):  # `**=` keeps `**`'s bits
                row **= 1.0 - x
            buf *= g
            buf *= coef
        new = th - buf
        new_layers.append(new)
        new_steps.append(np.subtract(new, th, out=buf))
    return new_layers, new_steps


def diverged(layers, t):
    """{seed row: DivergenceError} for the seeds of a stack whose parameters
    are non-finite after step `t`, naming each one's first such layer."""
    # a ufunc reduce: `ndarray.all`'s Python wrapper costs more than a small stack's check
    if all(np.logical_and.reduce(np.isfinite(v), axis=None) for v in layers):
        return {}
    finite = np.array([np.isfinite(v).all(axis=-1) for v in layers])
    return {k: DivergenceError(
        f"non-finite parameters in layer {int(np.argmin(finite[:, k]))} at step {t}",
        step_index=t) for k in np.flatnonzero(~finite.all(axis=0)).tolist()}


def fisher_diagnostics(grads, blocks, d_max, cfg):
    """Fold a chunk of steps' gradients (per step, a list of per-layer
    gradients) into the EMA blocks; returns each step's dimensions (steps,
    seeds..., layers) and their running maximum from `d_max` on, with the
    bits of one step at a time (`adaptive_exponents`'s too).
    """
    dzeta = np.empty((len(grads),) + grads[0][0].shape[:-1] + (len(blocks),))
    for j, block in enumerate(blocks):
        chunk = grads[0][j][None] if len(grads) == 1 else np.array([g[j] for g in grads])
        dzeta[..., j] = sed_mod.two_sed(fisher_mod.ema_update(
            block, chunk, cfg.curvature[0], cfg.normalize_fisher), block.dim, cfg)
    peak = np.maximum(d_max, dzeta.max(axis=-1))
    return dzeta, peak if len(grads) == 1 else np.maximum.accumulate(peak, axis=0)


def adaptive_exponents(grads, blocks, d_max, cfg):
    """Fold one step's gradients (per layer, (seeds, d)) into the blocks;
    returns `sed.exponents` of their log-dets from `d_max` (a list) on."""
    logdets = zip(*(fisher_mod.ema_update(block, g[None], cfg.curvature[0],
                                          cfg.normalize_fisher).tolist()[0]
                    for block, g in zip(blocks, grads)))
    return sed_mod.exponents(logdets, [block.dim for block in blocks], d_max, cfg)
