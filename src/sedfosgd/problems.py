"""Experiment objectives with analytic gradients.

Three desk-scale problems: streaming AR(p) coefficient identification,
convex quadratics for rate checks, and a tiny MLP classifier fed by
IDX-format image/label files.
"""

import math
import struct

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
    # as Python floats: a list of an array holds numpy scalars, which warn
    # on overflow; the run passes K > p samples
    lags = np.asarray(coeffs, dtype=float).tolist()
    samples = np.asarray(noise, dtype=float).tolist()
    p, horizon = len(lags), len(samples)
    y = [0.0] * p  # y(1-p), ..., y(0); y(k) is appended at y[p - 1 + k]
    for k, sample in enumerate(samples, start=1):
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
    minus_e = np.vecdot(phi, theta_hat) - y  # the bits of -(y - phi theta)
    return 0.5 * minus_e * minus_e, minus_e[..., None] * phi


# --- Convex quadratic ---

def quadratic_loss_grad(theta, diag):
    """f = 0.5 theta' diag(d) theta and its gradient d * theta, for one theta
    or a stack of them (one per seed, along the leading axes). An overflow
    gives inf (callers own the errstate and treat it as divergence)."""
    a_theta = diag * theta
    return 0.5 * np.vecdot(theta, a_theta), a_theta


# --- Tiny MLP classifier ---
#
# An MLP is its `widths` (input, hidden..., classes), with ReLU between
# layers, and one flat (weights, biases) parameter vector per layer. A batch
# is its float `inputs` (seeds..., batch, features), values in [0, 1], and
# its integer class `labels` (seeds..., batch).

WEIGHT_SCALE = 0.05  # initial weights are uniform on (-WEIGHT_SCALE, WEIGHT_SCALE)


def mlp_init_layers(widths, rng):
    """Uniform(-WEIGHT_SCALE, WEIGHT_SCALE) weights, zero biases, flattened per layer."""
    layers = []
    for n_in, n_out in zip(widths, widths[1:]):
        w = rng.uniforms(n_in * n_out)
        w *= 2.0
        w -= 1.0
        w *= WEIGHT_SCALE
        layers.append(np.concatenate([w, np.zeros(n_out)]))
    return layers


def _unpack(widths, layer_vec, i):
    n_in, n_out = widths[i], widths[i + 1]
    w = layer_vec[..., :n_in * n_out].reshape(*layer_vec.shape[:-1], n_in, n_out)
    return w, layer_vec[..., None, n_in * n_out:]


def _forward(widths, layers, inputs):
    """Each layer's input, then the logits; ReLU between layers."""
    acts = [inputs]
    for i in range(len(layers)):
        w, b = _unpack(widths, layers[i], i)
        z = acts[-1] @ w + b
        acts.append(np.maximum(z, 0.0) if i < len(layers) - 1 else z)
    return acts


def mlp_loss_grad(widths, layers, inputs, labels):
    """Mean softmax cross-entropy, flat per-layer gradients and the batch
    accuracy of the same logits (the bits `mlp_predict` gives), for one batch
    or a stack of them (one per seed, along the leading axes of the layers
    and the batch)."""
    acts = _forward(widths, layers, inputs)
    logits = acts.pop()
    accuracy = np.mean(np.argmax(logits, axis=-1) == labels, axis=-1)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    total = expz.sum(axis=-1, keepdims=True)
    onehot = labels[..., None] == np.arange(logits.shape[-1])
    picked = shifted[onehot].reshape(labels.shape)
    loss = -np.mean(picked - np.log(total[..., 0]), axis=-1)

    # backward: delta is d loss / d logits, then each layer's pre-activations
    delta = expz / total
    delta -= onehot
    delta /= labels.shape[-1]
    grads = [np.empty(v.shape) for v in layers]
    for i in range(len(layers) - 1, -1, -1):  # into views of each flat gradient
        gw, gb = _unpack(widths, grads[i], i)
        np.matmul(acts[i].mT, delta, out=gw)
        np.sum(delta, axis=-2, keepdims=True, out=gb)
        if i > 0:
            w, _ = _unpack(widths, layers[i], i)
            delta = (delta @ w.mT) * (acts[i] > 0.0)
    return loss, grads, accuracy


def mlp_predict(widths, layers, inputs):
    return np.argmax(_forward(widths, layers, inputs)[-1], axis=-1)


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
    dims = struct.unpack(f">{ndim}I", raw[4:header])  # unsigned, as the format's are
    count = math.prod(dims)  # exact: np.prod wraps past 2**63
    if len(raw) - header != count:
        raise IdxFormatError(
            f"{path}: truncated payload, expected {count} bytes, got {len(raw) - header}")
    return np.frombuffer(raw, np.uint8, count, offset=header).reshape(dims)


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair as its uint8 pixel rows, one image a row
    (a read-only view of the file's bytes), and its int labels."""
    images = _read_idx(images_path, _IMAGE_MAGIC, ndim=3)
    labels = _read_idx(labels_path, _LABEL_MAGIC, ndim=1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"count mismatch: {images.shape[0]} images vs {labels.shape[0]} labels")
    if 0 in images.shape:  # the header's dims, as _read_idx shaped the pixels
        raise IdxFormatError(f"{images_path}: no pixels, {images.shape[0]} images "
                             f"of {images.shape[1]} x {images.shape[2]}")
    return images.reshape(images.shape[0], -1), labels.astype(int)


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
