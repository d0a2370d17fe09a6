"""Experiment objectives with analytic gradients.

Three desk-scale problems: streaming AR(p) coefficient identification,
convex quadratics for rate checks, and a tiny MLP classifier fed by
IDX-format image/label files.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np


class GenerationError(RuntimeError):
    """AR simulation produced a non-finite sample; carries its index."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncation, or count mismatch)."""


# --- AR(p) system identification ---

def ar_generate(coeffs, noise):
    """Filter the noise samples xi(1), ..., xi(K) through
    y(k) = sum_i a_i y(k-i) + xi(k) from zero initial conditions
    y(0) = y(-1) = ... = y(1-p) = 0.

    Returns the K - p regressor rows `phi` (each the lagged outputs
    (y(k-1), ..., y(k-p))) and their targets `y` (y(k)), for the k whose
    lag window is all simulated outputs. A non-finite output, from a
    non-finite sample or from growth past the float range, raises
    GenerationError with its index k.
    """
    a = np.asarray(coeffs, dtype=float)
    xi = np.asarray(noise, dtype=float)
    if a.ndim != 1 or xi.ndim != 1:
        raise ValueError(f"coeffs and noise must be vectors, got shapes "
                         f"{a.shape} and {xi.shape}")
    p, horizon = a.size, xi.size
    if horizon <= p:
        raise ValueError(f"horizon must exceed the order, got K={horizon}, p={p}")
    lags = a.tolist()
    y = [0.0] * p  # y(1-p), ..., y(0); y(k) is appended at y[p - 1 + k]
    for k, sample in enumerate(xi.tolist(), start=1):
        acc = 0.0
        for i, a_i in enumerate(lags, start=1):
            acc += a_i * y[-i]
        y.append(acc + sample)
        if not math.isfinite(y[-1]):
            raise GenerationError(f"non-finite output at index {k}",
                                  sample_index=k)
    y = np.array(y)
    phi = np.column_stack([y[2 * p - i:p + horizon - i] for i in range(1, p + 1)])
    return phi, y[2 * p:]


def ar_loss_grad(theta_hat, phi, y):
    """Squared prediction error and its gradient for one regressor row `phi`
    and its target `y`, or for a stack of them (one per seed, along the
    leading axes)."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != phi.shape:
        raise ValueError(
            f"shape mismatch: theta {theta_hat.shape}, phi {phi.shape}")
    minus_e = np.vecdot(phi, theta_hat) - y  # the bits of -(y - phi theta)
    return 0.5 * minus_e * minus_e, minus_e[..., None] * phi


# --- Convex quadratic ---

def quadratic_loss_grad(theta, a_mat, b):
    """f = 0.5 theta' A theta - b' theta and its gradient, for one theta or
    a stack of them (one per seed, along the leading axes)."""
    theta = np.asarray(theta, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    d = theta.shape[-1]
    if a_mat.shape != (d, d) or b.shape != (d,):
        raise ValueError(
            f"shape mismatch: A {a_mat.shape}, b {b.shape}, theta {theta.shape}")
    with np.errstate(over="ignore"):  # overflow -> inf, callers treat as divergence
        a_theta = np.matmul(a_mat, theta[..., None])[..., 0]
        f = 0.5 * np.vecdot(theta, a_theta) - np.vecdot(b, theta)
        return f, a_theta - b


# --- Tiny MLP classifier ---

@dataclass(frozen=True)
class MlpSpec:
    widths: tuple          # (input, hidden..., classes); ReLU between layers
    init_scale: float = 0.05

    def __post_init__(self):
        w = tuple(int(x) for x in self.widths)
        if len(w) < 2 or any(x < 1 for x in w):
            raise ValueError(f"need at least two positive widths, got {w}")
        object.__setattr__(self, "widths", w)

    @property
    def n_layers(self):
        return len(self.widths) - 1


@dataclass(frozen=True)
class LabeledBatch:
    inputs: np.ndarray   # (seeds..., batch, features), values in [0, 1]
    labels: np.ndarray   # (seeds..., batch) integer class ids

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if x.ndim < 2 or x.shape[:-1] != y.shape:
            raise ValueError(
                f"inconsistent batch shapes: inputs {x.shape}, labels {y.shape}")
        if y.size and y.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    def __len__(self):
        return self.labels.shape[-1]


def mlp_init_layers(spec, rng):
    """Uniform(-scale, scale) weights, zero biases, flattened per layer."""
    layers = []
    for i in range(spec.n_layers):
        n_in, n_out = spec.widths[i], spec.widths[i + 1]
        w = rng.uniforms(n_in * n_out)
        w *= 2.0
        w -= 1.0
        w *= spec.init_scale
        layers.append(np.concatenate([w, np.zeros(n_out)]))
    return layers


def _unpack(spec, layer_vec, i):
    n_in, n_out = spec.widths[i], spec.widths[i + 1]
    w = layer_vec[..., :n_in * n_out].reshape(*layer_vec.shape[:-1], n_in, n_out)
    return w, layer_vec[..., None, n_in * n_out:]


def _forward(spec, layers, inputs):
    """Each layer's input, then the logits; ReLU between layers."""
    acts = [inputs]
    for i in range(spec.n_layers):
        w, b = _unpack(spec, layers[i], i)
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < spec.n_layers - 1 else z)
    return acts


def mlp_loss_grad(spec, layers, batch):
    """Mean softmax cross-entropy and flat per-layer gradients, for one batch
    or a stack of them (one per seed, along the leading axes of the layers
    and the batch)."""
    if len(layers) != spec.n_layers:
        raise ValueError(
            f"expected {spec.n_layers} parameter layers, got {len(layers)}")
    if batch.inputs.shape[-1] != spec.widths[0]:
        raise ValueError(
            f"input width {batch.inputs.shape[-1]} != {spec.widths[0]}")
    acts = _forward(spec, layers, batch.inputs)
    logits = acts.pop()
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    total = expz.sum(axis=-1, keepdims=True)
    onehot = batch.labels[..., None] == np.arange(logits.shape[-1])
    picked = shifted[onehot].reshape(batch.labels.shape)
    loss = -np.mean(picked - np.log(total[..., 0]), axis=-1)

    # backward: delta is d loss / d logits, then each layer's pre-activations
    delta = expz / total
    delta -= onehot
    delta /= len(batch)
    grads = [None] * spec.n_layers
    for i in range(spec.n_layers - 1, -1, -1):
        gw = acts[i].mT @ delta
        grads[i] = np.concatenate([gw.reshape(*gw.shape[:-2], -1), delta.sum(axis=-2)],
                                  axis=-1)
        if i > 0:
            w, _ = _unpack(spec, layers[i], i)
            delta = (delta @ w.mT) * (acts[i] > 0.0)
    return loss, grads


def mlp_predict(spec, layers, inputs):
    return np.argmax(_forward(spec, layers, np.asarray(inputs, dtype=float))[-1], axis=-1)


# --- IDX files (big-endian header, magic 2051 images / 2049 labels) ---

_IMAGE_MAGIC = 2051
_LABEL_MAGIC = 2049


def _read_idx(path, expected_magic, ndim):
    with open(path, "rb") as fh:
        raw = fh.read()
    header = 4 * (1 + ndim)
    if len(raw) < header:
        raise IdxFormatError(
            f"{path}: truncated header, expected {header} bytes, got {len(raw)}")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic != expected_magic:
        raise IdxFormatError(
            f"{path}: bad magic {magic}, expected {expected_magic}")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    count = int(np.prod(dims))
    payload = raw[header:]
    if len(payload) != count:
        raise IdxFormatError(
            f"{path}: truncated payload, expected {count} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair into a batch with pixels scaled to [0, 1]."""
    images = _read_idx(images_path, _IMAGE_MAGIC, ndim=3)
    labels = _read_idx(labels_path, _LABEL_MAGIC, ndim=1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    flat = images.reshape(images.shape[0], -1).astype(float) / 255.0
    return LabeledBatch(inputs=flat, labels=labels.astype(int))


def write_idx(images_path, labels_path, images, labels):
    """Write a uint8 image stack (n, rows, cols) and labels to IDX files."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3 or labels.ndim != 1 or images.shape[0] != labels.shape[0]:
        raise ValueError("expected (n, rows, cols) images and (n,) labels")
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", _IMAGE_MAGIC, *images.shape))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", _LABEL_MAGIC, labels.shape[0]))
        fh.write(labels.tobytes())
