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
    """Euclidean norm over all entries of `arrays`.

    When the sum of squares overflows although every entry is finite, the
    norm is taken of the arrays divided by their largest magnitude and
    scaled back, so a finite vector above about 1e154 keeps a finite norm.
    The plain sum warns of the overflow unless numpy's errstate ignores it,
    as it does in the run loop.
    """
    total = np.sqrt(sum(float(np.dot(v, v)) for v in arrays))
    if total == np.inf and all(np.all(np.isfinite(v)) for v in arrays):
        scale = max(float(np.max(np.abs(v))) for v in arrays)
        total = scale * np.sqrt(sum(float(np.dot(v / scale, v / scale))
                                    for v in arrays))
    return total


def step_size(t, mu0):
    """mu0 / sqrt(t) for t >= 1."""
    if t < 1:
        raise ValueError(f"step schedule starts at t = 1, got {t}")
    return mu0 / np.sqrt(t)


def clip_gradients(grads, bound):
    """Scale the whole gradient so its global norm is at most `bound`."""
    if bound is None:
        return grads
    total = norm(grads)
    if total <= bound:
        return grads
    factor = bound / total
    return [factor * g for g in grads]


def _check_shapes(layers, grads):
    if len(grads) != len(layers):
        raise ValueError(
            f"expected {len(layers)} gradient layers, got {len(grads)}")
    for j, (g, th) in enumerate(zip(grads, layers)):
        if np.shape(g) != th.shape:
            raise ValueError(
                f"layer {j} gradient shape {np.shape(g)} != {th.shape}")


def step(layers, steps, grads, mu, alphas, cfg, t):
    """Step `t` (1-based) of a run: per layer,
    theta - (mu / Gamma(2 - alpha)) * (|Delta theta| + delta)^(1 - alpha) * g,
    where `steps` holds each layer's last step Delta theta = theta_t - theta_{t-1}
    and `alphas` one exponent per layer.

    Step 1 is classical (every exponent 1). Returns the new layers and their
    steps; a non-finite parameter raises DivergenceError at step `t`.
    """
    _check_shapes(layers, grads)
    if t < 2 and np.any(np.asarray(alphas) != 1.0):
        raise ValueError("fractional steps require one classical step first")
    new_layers, new_steps = [], []
    for j, (th, d, g, a) in enumerate(zip(layers, steps, grads, alphas)):
        a = float(a)
        if cfg.scaling_mode == "elementwise":
            base = np.abs(d) + cfg.delta
        else:
            base = norm([d]) + cfg.delta
        new = th - (mu / math.gamma(2.0 - a)) * (base ** (1.0 - a) * g)
        if not np.all(np.isfinite(new)):
            raise DivergenceError(
                f"non-finite parameters in layer {j} at step {t}", step_index=t)
        new_layers.append(new)
        new_steps.append(new - th)
    return new_layers, new_steps


def observe_fisher_sed(grads, fisher_blocks, d_max, cfg):
    """Fold gradients into the EMA blocks and refresh the dimension state.

    The blocks are folded in place (single-owner state). Each block gets one
    spectral solve, on its k x k gradient Gram while it holds k < d folds,
    whose log-det yields its effective dimension. Returns the per-layer
    dimensions, the running maximum `d_max` with them folded in, and the
    exponent array they imply.
    """
    dzeta = np.empty(len(fisher_blocks))
    for j, g in enumerate(grads):
        block = fisher_blocks[j]
        fisher_mod.ema_update(block, g)
        mat = fisher_mod.spectral_operand(block, cfg.normalize_fisher)
        logdet = logdet_plus(mat, sed_mod.curvature_scale(cfg))
        dzeta[j] = sed_mod.two_sed(logdet, block.dim, cfg)
    d_max = max(d_max, float(np.max(dzeta)))
    return dzeta, d_max, sed_mod.adapt_alpha(dzeta, d_max, cfg)


def delta_radius(cfg, grad_bound, alpha_max=None):
    """Fixed point R = mu0 * max(1, (delta + R)^(1 - alpha_max)) * G.

    This is the consecutive-iterate bound; the max with 1 covers the first
    classical step, whose scaling factor is exactly 1.
    """
    if alpha_max is None:
        alpha_max = cfg.alpha0
    r = cfg.mu0 * grad_bound
    for _ in range(100):
        c_delta = max(1.0, (cfg.delta + r) ** (1.0 - alpha_max))
        r_next = cfg.mu0 * c_delta * grad_bound
        if abs(r_next - r) <= 1e-15 * max(1.0, r):
            r = r_next
            break
        r = r_next
    return r

