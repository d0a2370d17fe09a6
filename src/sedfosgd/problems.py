"""Experiment objectives with analytic gradients.

Three desk-scale problems: streaming AR(p) coefficient identification,
convex quadratics for rate checks, and a tiny MLP classifier fed by
IDX-format image/label files.
"""

import struct
from dataclasses import dataclass

import numpy as np

from . import noise as noise_mod


class GenerationError(RuntimeError):
    """AR simulation produced a non-finite sample; carries its index."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class IdxFormatError(ValueError):
    """Malformed IDX file (bad magic, truncation, or count mismatch)."""


# ---------------------------------------------------------------------------
# AR(p) system identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianNoise:
    std: float

    def sample(self, rng):
        return noise_mod.gaussian(rng, 0.0, self.std)


@dataclass(frozen=True)
class StableNoise:
    params: noise_mod.StableParams

    def sample(self, rng):
        return noise_mod.alpha_stable(rng, self.params)


@dataclass(frozen=True)
class ArModel:
    coeffs: np.ndarray   # (a_1, ..., a_p)
    noise: object        # GaussianNoise | StableNoise
    horizon: int

    def __post_init__(self):
        a = np.asarray(self.coeffs, dtype=float)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("coeffs must be a non-empty vector")
        object.__setattr__(self, "coeffs", a)
        if self.horizon <= a.size:
            raise ValueError(
                f"horizon must exceed the order, got K={self.horizon}, p={a.size}")

    @property
    def order(self):
        return self.coeffs.size


@dataclass(frozen=True)
class Regressor:
    phi: np.ndarray  # lagged outputs (y(k-1), ..., y(k-p))
    y: float


def ar_generate(model, rng, initial=None):
    """Simulate y(k) = sum_i a_i y(k-i) + xi(k).

    Initial conditions y(0), y(-1), ..., y(1-p) default to zero; `initial`
    overrides them as (y(0), ..., y(1-p)). Returns the K - p regressor/target
    pairs for which a full lag window of simulated outputs exists.
    """
    p = model.order
    a = model.coeffs
    pre = np.zeros(p) if initial is None else np.asarray(initial, dtype=float)
    if pre.shape != (p,):
        raise ValueError(f"initial must have length {p}, got shape {pre.shape}")

    def past(k, i):
        # y(k - i) with y(0), y(-1), ... taken from the initial conditions
        return y[k - i] if k - i >= 1 else pre[i - k]

    y = np.zeros(model.horizon + 1)  # index 0 unused; history lives in `pre`
    with np.errstate(over="ignore"):  # overflow is detected and reported below
        for k in range(1, model.horizon + 1):
            acc = 0.0
            for i in range(1, p + 1):
                acc += a[i - 1] * past(k, i)
            y[k] = acc + model.noise.sample(rng)
            if not np.isfinite(y[k]):
                raise GenerationError(f"non-finite output at index {k}",
                                      sample_index=k)
    out = []
    for k in range(p + 1, model.horizon + 1):
        phi = np.array([y[k - i] for i in range(1, p + 1)])
        out.append(Regressor(phi=phi, y=float(y[k])))
    return out


def ar_loss_grad(theta_hat, r):
    """Squared prediction error and its gradient for one regressor."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    if theta_hat.shape != r.phi.shape:
        raise ValueError(
            f"shape mismatch: theta {theta_hat.shape}, phi {r.phi.shape}")
    e = r.y - float(r.phi @ theta_hat)
    return 0.5 * e * e, -e * r.phi


# ---------------------------------------------------------------------------
# Convex quadratic
# ---------------------------------------------------------------------------

def quadratic_loss_grad(theta, a_mat, b):
    """f = 0.5 theta' A theta - b' theta and its gradient."""
    theta = np.asarray(theta, dtype=float)
    a_mat = np.asarray(a_mat, dtype=float)
    b = np.asarray(b, dtype=float)
    if a_mat.shape != (theta.size, theta.size) or b.shape != theta.shape:
        raise ValueError(
            f"shape mismatch: A {a_mat.shape}, b {b.shape}, theta {theta.shape}")
    with np.errstate(over="ignore"):  # overflow -> inf, callers treat as divergence
        a_theta = a_mat @ theta
        f = 0.5 * float(theta @ a_theta) - float(b @ theta)
        return f, a_theta - b


# ---------------------------------------------------------------------------
# Tiny MLP classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MlpSpec:
    widths: tuple          # (input, hidden..., classes)
    activation: str = "relu"
    init_scale: float = 0.05

    def __post_init__(self):
        w = tuple(int(x) for x in self.widths)
        if len(w) < 2 or any(x < 1 for x in w):
            raise ValueError(f"need at least two positive widths, got {w}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "widths", w)

    @property
    def n_layers(self):
        return len(self.widths) - 1

    def layer_dims(self):
        """Flat parameter count per layer: weights plus biases."""
        return [self.widths[i] * self.widths[i + 1] + self.widths[i + 1]
                for i in range(self.n_layers)]


@dataclass(frozen=True)
class LabeledBatch:
    inputs: np.ndarray   # (batch, features), values in [0, 1]
    labels: np.ndarray   # (batch,) integer class ids

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.labels, dtype=int)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"inconsistent batch shapes: inputs {x.shape}, labels {y.shape}")
        if y.size and y.min() < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "labels", y)

    def __len__(self):
        return self.labels.shape[0]


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
    w = layer_vec[: n_in * n_out].reshape(n_in, n_out)
    b = layer_vec[n_in * n_out:]
    return w, b


def mlp_loss_grad(spec, layers, batch):
    """Mean softmax cross-entropy and flat per-layer gradients."""
    if len(layers) != spec.n_layers:
        raise ValueError(
            f"expected {spec.n_layers} parameter layers, got {len(layers)}")
    if batch.inputs.shape[1] != spec.widths[0]:
        raise ValueError(
            f"input width {batch.inputs.shape[1]} != {spec.widths[0]}")
    n = len(batch)

    # forward
    acts = [batch.inputs]
    pre = []
    h = batch.inputs
    for i in range(spec.n_layers):
        w, b = _unpack(spec, layers[i], i)
        z = h @ w + b
        pre.append(z)
        if i < spec.n_layers - 1:
            h = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
            acts.append(h)

    logits = pre[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    idx = np.arange(n)
    loss = float(-np.mean(shifted[idx, batch.labels]
                          - np.log(expz.sum(axis=1))))

    # backward
    grads = [None] * spec.n_layers
    delta = probs.copy()
    delta[idx, batch.labels] -= 1.0
    delta /= n
    for i in range(spec.n_layers - 1, -1, -1):
        w, _ = _unpack(spec, layers[i], i)
        gw = acts[i].T @ delta
        gb = delta.sum(axis=0)
        grads[i] = np.concatenate([gw.ravel(), gb])
        if i > 0:
            upstream = delta @ w.T
            if spec.activation == "relu":
                delta = upstream * (pre[i - 1] > 0.0)
            else:
                delta = upstream * (1.0 - np.tanh(pre[i - 1]) ** 2)
    return loss, grads


def mlp_predict(spec, layers, inputs):
    h = np.asarray(inputs, dtype=float)
    for i in range(spec.n_layers):
        w, b = _unpack(spec, layers[i], i)
        z = h @ w + b
        if i < spec.n_layers - 1:
            h = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
        else:
            h = z
    return np.argmax(h, axis=1)


# ---------------------------------------------------------------------------
# IDX file format (big-endian header, magic 2051 images / 2049 labels)
# ---------------------------------------------------------------------------

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
