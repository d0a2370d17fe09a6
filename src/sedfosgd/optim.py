"""One fractional update for the whole optimizer family.

The step scales the gradient of layer j by

    (|theta_t - theta_{t-1}| + delta)^(1 - alpha_j) / Gamma(2 - alpha_j)

elementwise (or with the layer delta norm in "layer-norm" mode). The
optimizers differ only in the exponents they pass: alpha_j = 1 makes the
factor exactly 1 and the update plain SGD (bitwise), a constant alpha_j is
fixed-exponent fractional SGD, and the adaptive variant recomputes alpha_j
each step from the per-layer effective dimension of the EMA Fisher blocks.
"""

from dataclasses import dataclass, field

import numpy as np

from . import fisher as fisher_mod
from . import sed as sed_mod
from .mathkit import gamma, logdet_plus
from .sed import SedConfig, SedEstimate


class DivergenceError(RuntimeError):
    """A step produced non-finite values; the run is aborted, not patched."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class ParamState:
    layers: tuple          # tuple of 1-D arrays, one per layer
    prev_layers: tuple     # previous iterate, same shapes
    t: int = 0

    @classmethod
    def init(cls, layers):
        layers = tuple(np.asarray(v, dtype=float) for v in layers)
        return cls(layers=layers, prev_layers=tuple(v.copy() for v in layers), t=0)

    @property
    def n_layers(self):
        return len(self.layers)

    def deltas(self):
        """Per-layer norm of the last accepted step."""
        return [float(np.linalg.norm(c - p))
                for c, p in zip(self.layers, self.prev_layers)]


@dataclass(frozen=True)
class OptimConfig:
    mu0: float
    delta: float = 1e-6
    sed_cfg: SedConfig = field(default_factory=SedConfig)
    fisher_decay: float = 0.1
    scaling_mode: str = "elementwise"  # or "layer-norm"
    grad_clip: float = None

    def __post_init__(self):
        if not self.mu0 > 0:
            raise ValueError(f"mu0 must be > 0, got {self.mu0}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if self.scaling_mode not in ("elementwise", "layer-norm"):
            raise ValueError(f"unknown scaling_mode {self.scaling_mode!r}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be > 0, got {self.grad_clip}")


def step_size(t, mu0):
    """mu0 / sqrt(t) for t >= 1."""
    if t < 1:
        raise ValueError(f"step schedule starts at t = 1, got {t}")
    return mu0 / np.sqrt(t)


def clip_gradients(grads, bound):
    """Scale the whole gradient so its global norm is at most `bound`."""
    if bound is None:
        return grads
    total = np.sqrt(sum(float(np.dot(g, g)) for g in grads))
    if total <= bound:
        return grads
    factor = bound / total
    return [factor * g for g in grads]


def _check_shapes(state, grads):
    if len(grads) != state.n_layers:
        raise ValueError(
            f"expected {state.n_layers} gradient layers, got {len(grads)}")
    for j, (g, th) in enumerate(zip(grads, state.layers)):
        if np.shape(g) != th.shape:
            raise ValueError(
                f"layer {j} gradient shape {np.shape(g)} != {th.shape}")


def _accept(state, new_layers):
    for j, v in enumerate(new_layers):
        if not np.all(np.isfinite(v)):
            raise DivergenceError(
                f"non-finite parameters in layer {j} at step {state.t}",
                step_index=state.t)
    return ParamState(layers=tuple(new_layers),
                      prev_layers=state.layers,
                      t=state.t + 1)


def step(state, grads, mu, alphas, cfg):
    """theta - (mu / Gamma(2 - alpha)) * (|Delta theta| + delta)^(1 - alpha) * g
    per layer, with `alphas` holding one exponent per layer."""
    _check_shapes(state, grads)
    if state.t < 1 and np.any(np.asarray(alphas) != 1.0):
        raise ValueError("fractional steps require one classical step first")
    new_layers = []
    for th, prev, g, a in zip(state.layers, state.prev_layers, grads, alphas):
        a = float(a)
        if cfg.scaling_mode == "elementwise":
            base = np.abs(th - prev) + cfg.delta
        else:
            base = np.linalg.norm(th - prev) + cfg.delta
        new_layers.append(th - (mu / gamma(2.0 - a)) * (base ** (1.0 - a) * g))
    return _accept(state, new_layers)


def make_fisher_blocks(state, decay, mode=None):
    """Fresh zero EMA blocks matching the layer shapes of `state`."""
    return [fisher_mod.FisherBlock.zeros(j, th.shape[0], decay, mode=mode)
            for j, th in enumerate(state.layers)]


def observe_fisher_sed(grads, fisher_blocks, sed, scfg):
    """Fold gradients into the EMA blocks and refresh the dimension state.

    The block list is updated in place (single-owner state). Each block gets
    one spectral solve, on its k x k gradient Gram while it holds k < d
    folds, whose log-det yields both its effective dimension and its lower
    cumulative increment. Returns the new SedEstimate (running max
    folded in) and the exponents it implies.
    """
    per_layer = np.empty(len(fisher_blocks))
    lower = np.empty(len(fisher_blocks))
    acc = 0.0
    for j, g in enumerate(grads):
        block = fisher_blocks[j] = fisher_mod.ema_update(fisher_blocks[j], g)
        mat = fisher_mod.spectral_operand(block, scfg.use_normalized_fisher)
        logdet = logdet_plus(mat, scfg.curvature_scale)
        per_layer[j] = sed_mod.two_sed(logdet, block.dim, scfg)
        acc = lower[j] = sed_mod.lower_2sed_accumulate(acc, logdet, scfg)

    sed = SedEstimate(per_layer=per_layer, lower_cumulative=lower,
                      d_max_running=sed.d_max_running)
    sed = sed_mod.update_dmax(sed)
    return sed, sed_mod.adapt_alpha(sed, scfg)


def delta_radius(cfg, grad_bound, alpha_max=None):
    """Fixed point R = mu0 * max(1, (delta + R)^(1 - alpha_max)) * G.

    This is the consecutive-iterate bound; the max with 1 covers the first
    classical step, whose scaling factor is exactly 1.
    """
    if alpha_max is None:
        alpha_max = cfg.sed_cfg.alpha0
    r = cfg.mu0 * grad_bound
    for _ in range(100):
        c_delta = max(1.0, (cfg.delta + r) ** (1.0 - alpha_max))
        r_next = cfg.mu0 * c_delta * grad_bound
        if abs(r_next - r) <= 1e-15 * max(1.0, r):
            r = r_next
            break
        r = r_next
    return r


def bounded_iterate_check(trajectory, cfg, grad_bound):
    """True iff every consecutive-iterate layer norm stays within the
    fixed-point radius implied by the clip bound."""
    bound = delta_radius(cfg, grad_bound) * (1.0 + 1e-12)
    for state in trajectory:
        for d in state.deltas():
            if d > bound:
                return False
    return True
