"""Experiment runner: config parsing, the optimizer loop, CSV traces,
seed sweeps, and the log-log convergence-rate fit.

Configs are flat `key = value` text files (`#` starts a comment). Every
run is fully determined by its config, including the CSV bytes it writes.
"""

import contextlib
import math
import numbers
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fisher as fisher_mod
from . import optim as optim_mod
from . import problems as problems_mod
from . import sed as sed_mod
from .noise import RngStream, _mix, alpha_stables, gaussians
from .optim import DivergenceError
from .problems import GenerationError


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


_OPTIMIZERS = ("sgd", "fosgd", "2sedfosgd")


def _real(x):
    """A finite real number, not a bool (nor an int beyond the float range)."""
    try:
        return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:
        return False


def _shown(value, text=repr):
    """text(value), or, for an int past the 4300 digits that text takes, its size"""
    try:
        return text(value)
    except ValueError:  # such an int, or a container holding one
        if isinstance(value, int):
            return f"{'-' if value < 0 else ''}<int of {abs(value).bit_length()} bits>"
        return f"<{type(value).__name__} holding an int of over 4300 digits>"


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}
_KINDS = {  # per field annotation: the test its values pass, its name, its parse from text
    int: (lambda x: isinstance(x, numbers.Integral) and not isinstance(x, bool), "an integer",
          int),
    float: (_real, "a finite number", float),
    bool: (lambda x: isinstance(x, (bool, np.bool_)), "true or false",
           lambda raw: _BOOLS[raw.lower()]),
    str: (lambda x: isinstance(x, str), "a string", str),
    tuple: (lambda x: isinstance(x, tuple) and all(map(_real, x)), "a tuple of finite numbers",
            lambda raw: tuple(float(x) for x in raw.split(","))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    optimizer: str
    iterations: int
    seed: int = 0
    out: str = None

    mu0: float = 0.01
    delta: float = 1e-6
    alpha0: float = 0.98
    beta: float = 0.01
    zeta: float = 0.7
    epsilon: float = 0.01
    alpha_min: float = 0.05
    fisher_decay: float = 0.1
    scaling_mode: str = "elementwise"
    grad_clip: float = None
    normalize_fisher: bool = True

    noise: str = "gaussian"
    noise_std: float = math.sqrt(0.5)
    stable_tail: float = 1.8
    stable_skew: float = 0.0
    stable_scale: float = 0.5
    stable_location: float = 0.0

    ar_coeffs: tuple = (1.5, -0.7)

    quad_diag: tuple = (1.0, 10.0)
    quad_noise_std: float = 1.0

    mlp_images: str = None
    mlp_labels: str = None
    mlp_hidden: int = 32
    mlp_batch: int = 32
    mlp_holdout: float = 0.2
    mlp_limit: int = 0  # 0 means use every example

    def __post_init__(self):
        for f in fields(self):  # each value by its annotation; a None default admits None
            value = getattr(self, f.name)
            holds, kind, _ = _KINDS[f.type]
            if not holds(value) and not (value is None and f.default is None):
                raise ConfigError(f"{f.name} must be {kind}, got {_shown(value)}")
        # (holds, message) in the order the checks are reported; a message is
        # formatted from the fields only if its check fails
        checks = (
            (self.problem in _DRIVERS,
             f"problem must be one of {tuple(_DRIVERS)}, got {{problem!r}}"),
            (self.optimizer in _OPTIMIZERS,
             f"optimizer must be one of {_OPTIMIZERS}, got {{optimizer!r}}"),
            (self.iterations >= 1, "iterations must be >= 1, got {iterations}"),
            (self.noise in ("gaussian", "stable"),
             "noise must be gaussian or stable, got {noise!r}"),
            (0.0 <= self.mlp_holdout < 1.0, "mlp_holdout must be in [0, 1), got {mlp_holdout}"),
            (self.mlp_batch >= 1, "mlp_batch must be >= 1, got {mlp_batch}"),
            (self.mlp_hidden >= 1, "mlp_hidden must be >= 1, got {mlp_hidden}"),
            (self.noise_std >= 0, "noise_std must be >= 0, got {noise_std}"),
            (self.quad_noise_std >= 0, "quad_noise_std must be >= 0, got {quad_noise_std}"),
            (0.0 < self.stable_tail <= 2.0, "stable_tail must be in (0, 2], got {stable_tail}"),
            (-1.0 <= self.stable_skew <= 1.0, "stable_skew must be in [-1, 1], got {stable_skew}"),
            (self.stable_scale > 0, "stable_scale must be > 0, got {stable_scale}"),
            (2.0 / 3.0 <= self.zeta < 1.0, "zeta must be in [2/3, 1), got {zeta}"),
            (0.0 < self.epsilon < 1.0, "epsilon must be in (0, 1), got {epsilon}"),
            (not (2.0 / 3.0 <= self.zeta < 1.0 and 0.0 < self.epsilon < 1.0)
             or sed_mod.curvature_scale(self) > 1.0,
             "epsilon ** (zeta - 1) must exceed 1, got 1.0 at epsilon={epsilon}, zeta={zeta}"),
            (0.0 < self.alpha0 <= 1.0, "alpha0 must be in (0, 1], got {alpha0}"),
            (self.beta >= 0.0, "beta must be >= 0, got {beta}"),
            (0.0 < self.alpha_min <= self.alpha0,
             "alpha_min must be in (0, alpha0], got {alpha_min}"),
            (self.mu0 > 0, "mu0 must be > 0, got {mu0}"),
            (self.delta > 0, "delta must be > 0, got {delta}"),
            (self.scaling_mode in ("elementwise", "layer-norm"),
             "unknown scaling_mode {scaling_mode!r}"),
            (self.grad_clip is None or self.grad_clip > 0,
             "grad_clip must be > 0, got {grad_clip}"),
            (0.0 < self.fisher_decay <= 1.0, "fisher_decay must be in (0, 1], got {fisher_decay}"),
            (len(self.ar_coeffs) >= 1, "ar_coeffs must be non-empty, got {ar_coeffs}"),
            (len(self.quad_diag) >= 1 and min(self.quad_diag) >= 0,
             "quad_diag must be non-negative, got {quad_diag}"),
            (self.mlp_limit >= 0,
             "mlp_limit must be >= 0 (0 uses every example), got {mlp_limit}"),
            (self.problem != "mlp" or bool(self.mlp_images and self.mlp_labels),
             "mlp problem requires mlp_images and mlp_labels paths"),
        )
        for holds, message in checks:
            if not holds:
                raise ConfigError(message.format_map(
                    {f.name: _shown(getattr(self, f.name), str) for f in fields(self)}))
        scale = sed_mod.curvature_scale(self)  # it and its |log| (d_curv's divisor), once a run
        object.__setattr__(self, "curvature", (scale, float(abs(np.log(scale)))))


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _typed_pair(text, where):
    """Split `key = value` and parse the value by its key's annotation (`_KINDS`);
    a `float` key whose default is None also takes `none`."""
    key, sep, raw = (part.strip() for part in text.partition("="))
    if not sep:
        raise ConfigError(f"{where}: expected key = value, got {text!r}")
    f = _FIELDS.get(key)
    if f is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if f.type is float and f.default is None and raw.lower() == "none":
        return key, None
    try:
        return key, _KINDS[f.type][2](raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(
            f"{key}: could not parse {raw!r} as {f.type.__name__}") from exc


def parse_config_text(text):
    """Parse `key = value` lines into a typed key/value dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if stripped:
            key, value = _typed_pair(stripped, f"line {lineno}")
            out[key] = value
    return out


def load_config(path, overrides=None):
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config_text(fh.read())
    if overrides:
        raw.update(overrides)
    if "problem" not in raw or "optimizer" not in raw or "iterations" not in raw:
        raise ConfigError("config must set problem, optimizer, and iterations")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def parse_overrides(pairs):
    return dict(_typed_pair(pair, "override") for pair in pairs or ())


# --- Problem drivers ---

@contextlib.contextmanager
def _iteration_sized(config):  # numpy's size errors, from arrays of a row per iteration
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"iterations={config.iterations} is too large to allocate") from exc


class _ArDriver:
    """Streaming AR identification: one regressor per iteration. Each seed
    simulates its own data; one that blows up is kept in `failed` (by its
    position in `rngs`) and has zero rows here."""

    def __init__(self, config, rngs):
        self.true_coeffs = np.asarray(config.ar_coeffs, dtype=float)
        p = self.true_coeffs.size
        n = config.iterations + p
        self.failed, data = {}, []
        with _iteration_sized(config):
            for i, rng in enumerate(rngs):
                noise = (gaussians(rng, n, 0.0, config.noise_std) if config.noise == "gaussian"
                         else alpha_stables(rng, n, config.stable_tail, config.stable_skew,
                                            config.stable_scale, config.stable_location))
                try:
                    data.append(problems_mod.ar_generate(self.true_coeffs, noise))
                except GenerationError as exc:
                    self.failed[i] = exc
                    data.append((np.zeros((n - p, p)), np.zeros(n - p)))
            self.phi = np.array([phi for phi, _ in data])
            self.y = np.array([y for _, y in data])
        self.init_layers = [np.zeros((len(data), p))]
        self.metric_names = (*(f"err_a{i + 1}" for i in range(p)), "err_norm")

    def loss_grad(self, layers, t):
        loss, g = problems_mod.ar_loss_grad(layers[0], self.phi[:, t - 1],
                                            self.y[:, t - 1])
        return loss, [g]

    def metrics(self, layers, out):
        # the layers of any steps (seeds, steps..., p) into out (seeds, steps..., m)
        err = layers[0] - self.true_coeffs
        np.abs(err, out=out[..., :-1])
        out[..., -1] = optim_mod.norm([err])


class _QuadraticDriver:
    """Convex quadratic with additive Gaussian gradient noise. Each seed draws
    its noise into its part of one buffer, a block of rows (about 4096
    numbers, no more rows than the run has left) at step 1 and after each
    full block, from its own stream; that feeds nothing else, so a step's
    noise row is the same as if it were drawn one number at a time."""

    def __init__(self, config, rngs):
        self.diag = diag = np.asarray(config.quad_diag, dtype=float)
        self.noise_std, self.iterations = config.quad_noise_std, config.iterations
        self.failed, self.rngs = {}, rngs
        self.metric_names = ("gap",)
        self._noise = np.empty((len(rngs), min(max(1, 4096 // diag.size), self.iterations),
                                diag.size))
        self.init_layers = [np.ones((len(self.rngs), diag.size))]

    def loss_grad(self, layers, t):
        f, g = problems_mod.quadratic_loss_grad(layers[0], self.diag)
        i = (t - 1) % self._noise.shape[1]
        if i == 0:  # the seeds run out together
            rows = min(self._noise.shape[1], self.iterations - t + 1)
            for k, rng in enumerate(self.rngs):
                self._noise[k, :rows] = gaussians(rng, rows * self.diag.size, 0.0,
                                                  self.noise_std).reshape(rows, -1)
        return f, [g + self._noise[:, i]]

    def metrics(self, layers, out):
        # quad_diag >= 0, so the minimum is 0 at the origin and the gap is f itself;
        # `run` asks for the last row's only, as each row before's is the next loss
        out[:, 0] = problems_mod.quadratic_loss_grad(layers[0], self.diag)[0]


class _MlpDriver:
    """Mini-batch classification over an IDX image/label pair. Each seed
    shuffles the examples its own way: `orders` holds one index order per
    seed into the one copy of the uint8 pixel rows, and a step gathers the
    stack's batches from it for one gradient call, as `rows / 255.0`."""

    def __init__(self, config, rngs):
        inputs, labels = problems_mod.load_idx(config.mlp_images, config.mlp_labels)
        n = min(config.mlp_limit or len(labels), len(labels))
        self.n_hold = int(round(config.mlp_holdout * n))
        if not 0 < self.n_hold < n:
            raise ConfigError(
                f"mlp_holdout={config.mlp_holdout} splits {n} examples into {self.n_hold} "
                f"holdout and {n - self.n_hold} training; both must be non-empty")
        self.inputs, self.labels = inputs[:n], labels[:n]
        self.widths = widths = (inputs.shape[1], config.mlp_hidden, int(labels.max()) + 1)
        self.batch_size, self.failed = config.mlp_batch, {}
        self.metric_names = ("batch_accuracy",)
        self.orders = np.empty((len(rngs), n), dtype=np.intp)
        self.init_layers = [np.empty((len(rngs), (a + 1) * b)) for a, b in zip(widths, widths[1:])]
        for k, rng in enumerate(rngs):
            self.orders[k] = _shuffled_indices(n, rng)
            for v, init in zip(self.init_layers, problems_mod.mlp_init_layers(widths, rng)):
                v[k] = init

    def loss_grad(self, layers, t):
        n_train = len(self.labels) - self.n_hold
        start = ((t - 1) * self.batch_size) % n_train
        rows = self.orders[:, self.n_hold + (start + np.arange(self.batch_size)) % n_train]
        self._step_batch = self.inputs[rows] / 255.0, self.labels[rows]
        return problems_mod.mlp_loss_grad(self.widths, layers, *self._step_batch)

    def _accuracies(self, layers, inputs, labels):
        return np.mean(problems_mod.mlp_predict(self.widths, layers, inputs) == labels,
                       axis=-1)

    def metrics(self, layers, out):
        out[:, 0] = self._accuracies(layers, *self._step_batch)

    def holdout_accuracy(self, layers):
        rows = self.orders[:, :self.n_hold]
        return self._accuracies(layers, self.inputs[rows] / 255.0, self.labels[rows])


def _shuffled_indices(n, rng):
    """Deterministic Fisher-Yates permutation driven by the run's stream."""
    order = list(range(n))
    draws = rng.next_u64s(max(n - 1, 0)).tolist()
    for i, z in zip(range(n - 1, 0, -1), draws):
        j = z % (i + 1)
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.intp)


_DRIVERS = {"ar": _ArDriver, "quadratic": _QuadraticDriver, "mlp": _MlpDriver}


# --- The run loop ---

# a run's chunks: up to this many steps, as many as keep their operands in this many bytes
_CHUNK_STEPS, _CHUNK_BYTES = 256, 1 << 18

@dataclass
class RunResult:
    header: list
    rows: np.ndarray      # (iterations, columns) float64, one row per iteration
    final_layers: list
    summary: dict


def run(config, seeds=None, *, trace=True):
    """Execute one experiment; writes the CSV trace if `out` is set, its rows
    when the run returns or diverges (then up to the step that diverged, and
    none when its AR data blows up at set-up); any other error removes it.
    The summary only lands next to it (as `<out>.summary`) after a success.

    With `seeds` (and no `out`), runs the config once per seed in lock-step
    and returns, per seed, its RunResult or the DivergenceError or
    GenerationError that ended its run; the other seeds go on, and an ended
    seed stays in the stack, unread, until they do. Each result has the bits
    of a run of its seed alone: that run is a stack of one.

    With `trace=False`, it skips what only the trace reads: sgd and fosgd fold
    no Fisher block, and of the metrics only the quadratic's `gap` and the
    last row's are filled; the `delta_norm_l*` stay 0, as do sgd's and fosgd's
    `dzeta_l*` and `d_max` (2sedfosgd's exponents read them).
    """
    stack = [config.seed] if seeds is None else list(seeds)
    if seeds is not None and config.out:
        raise ValueError("only a run of one seed writes a trace file")
    driver = _DRIVERS[config.problem](config, [RngStream(seed) for seed in stack])
    # t, mu, loss, each layer's alpha, dzeta and delta_norm, d_max (a fold reads the row
    # before's; step 1 folds nothing) and, from metric_col on, the driver's metrics
    header = ["t", "mu", "loss", *(f"{name}_l{j}" for j in range(len(driver.init_layers))
                                   for name in ("alpha", "dzeta", "delta_norm")),
              "d_max", *driver.metric_names]
    metric_col = 3 * len(driver.init_layers) + 4
    with _iteration_sized(config):  # the rows are the run's record
        rows = np.zeros((len(stack), config.iterations, len(header)))
    outcomes = dict(driver.failed)  # seed position -> the error that ended it

    # the run state, one row per seed, an ended one's too (it folds zero
    # gradients): each layer, its last step and its EMA Fisher block
    layers = list(driver.init_layers)
    steps = [np.zeros_like(v) for v in layers]
    blocks = [fisher_mod.FisherBlock.zeros(j, v.shape[1], config.fisher_decay,
                                           stack=v.shape[:1]) for j, v in enumerate(layers)]
    adaptive, ar = config.optimizer == "2sedfosgd", config.problem == "ar"
    # what only the trace reads waits for the flush of a chunk of steps:
    # `chunk` keeps each step's steps (and, for AR, layers), `pending` sgd's
    # and fosgd's gradients until folded (2sedfosgd folds at once)
    chunk, pending = [], []
    entries = (1 + ar) * sum(v.shape[1] for v in layers) + (  # per seed and step
        0 if adaptive else sum(b.step_entries for b in blocks))
    width = min(_CHUNK_STEPS, max(1, _CHUNK_BYTES // (8 * max(len(stack), 1) * entries)))
    # the MLP's traced batch accuracy reads the step's batch, so it is taken per
    # step; AR's traced metrics are flushed, and every run's last row is taken last
    stepwise = trace and config.problem == "mlp"

    # t and the step size: mu0 at the classical first step, then mu0 / sqrt(t - 1)
    rows[:, :, 0] = np.arange(1, config.iterations + 1)
    rows[:, :, 1] = mus = np.concatenate(
        [[config.mu0], optim_mod.step_size(np.arange(1, config.iterations), config.mu0)])
    mus = mus.tolist()  # as Python floats, for the steps
    # the optimizers differ only in their exponents: 1 at the classical first
    # step and for sgd, alpha0 for fosgd, and for 2sedfosgd the adaptive ones,
    # which each step writes into its row; a step takes per-layer lists of
    # per-seed floats, sgd's and fosgd's built once (step 1's, then the rest's)
    alpha = 1.0 if config.optimizer == "sgd" else config.alpha0
    rows[:, :, 3:metric_col - 1:3] = alpha
    rows[:, 0, 3:metric_col - 1:3] = 1.0
    fixed = [[[x] * len(stack)] * len(layers) for x in (1.0, alpha)]

    def flush(t):  # fold the chunk's gradients, then fill its trace-only columns
        lo, hi = t - len(chunk), t  # the rows of steps lo + 1 .. t
        if pending:  # the rows of steps first + 1 .. hi; the row before holds d_max
            first = hi - len(pending)
            dzeta, peak = optim_mod.fisher_diagnostics(
                pending, blocks, rows[:, first - 1, metric_col - 1], config)
            rows[:, first:hi, 4:metric_col - 1:3] = dzeta.swapaxes(0, 1)
            rows[:, first:hi, metric_col - 1] = peak.T
            pending.clear()
        # (seeds, steps, d) views of contiguous rows, each with the bits of np.dot
        stacked = [v[0][:, None] if len(v) == 1 else np.array(v).swapaxes(0, 1)
                   for v in zip(*chunk)]
        for j, d in enumerate(stacked[:len(blocks)]):
            rows[:, lo:hi, 5 + 3 * j] = optim_mod.norm([d])
        if stacked[len(blocks):]:  # AR's layers
            driver.metrics(stacked[len(blocks):], rows[:, lo:hi, metric_col:])
        chunk.clear()

    # a trace file is left only by a run that returns or diverges
    writer = _TraceWriter(config.out, header) if config.out else None
    try:
        # an overflow or invalid operation leaves inf or nan instead of a
        # warning; the checks below report it as a divergence at its step
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, config.iterations + 1 if len(outcomes) < len(stack) else 1):
                last = t == config.iterations
                row = rows[:, t - 1]
                row[:, 2], grads = driver.loss_grad(layers, t)
                grads, blown = optim_mod.clip_gradients(grads, row[:, 2].tolist(),
                                                        config.grad_clip, t)
                # every optimizer logs the same Fisher/dimension diagnostics
                # after the classical first step, which folds nothing
                exponents = fixed[t > 1]
                if t > 1 and adaptive:  # from the d_max of the row before
                    dzeta, peak, alphas = optim_mod.adaptive_exponents(
                        grads, blocks, rows[:, t - 2, metric_col - 1].tolist(), config)
                    row[:, 4:metric_col - 1:3], row[:, metric_col - 1] = dzeta, peak
                    row[:, 3:metric_col - 1:3], exponents = alphas, list(zip(*alphas))
                elif t > 1 and trace:
                    pending.append(grads)
                layers, steps = optim_mod.step(layers, steps, grads, mus[t - 1], exponents, config)
                if trace:
                    chunk.append(steps + layers if ar else steps)

                # a seed's first failure ends it (its loss or gradient's before
                # its parameters'); the checks flag it again later
                for k, exc in {**optim_mod.diverged(layers, t), **blown}.items():
                    outcomes.setdefault(k, exc)
                ended = len(outcomes) == len(stack)
                if ended or last or len(chunk) == width:
                    flush(t)
                if ended:
                    break
                if stepwise or last:
                    driver.metrics(layers, row[:, metric_col:])
            holdout = driver.holdout_accuracy(layers) if config.problem == "mlp" else None
        if config.problem == "quadratic":  # its gap is the next row's loss
            rows[:, :-1, metric_col] = rows[:, 1:, 2]
        if writer:  # a run that diverged at step s keeps rows 1 .. s - 1; one whose
            # data blew up at set-up (a GenerationError, no step) keeps none
            writer.close(rows[0], config.iterations if not outcomes
                         else getattr(outcomes[0], "step_index", 1) - 1)
    except BaseException:  # a failed solve or allocation, an interrupt: no trace
        if writer:
            writer.discard()
        raise

    for k in set(range(len(stack))) - set(outcomes):
        if not np.isfinite(rows[k, -1, metric_col:]).all():
            # the quadratic's last gap is the loss at step T + 1: one that is
            # not finite ends the run as that step's loss check would
            t = config.iterations + 1
            outcomes[k] = DivergenceError(f"non-finite loss or gradient at step {t}",
                                          step_index=t)
            continue
        losses = rows[k, :, 2]
        # min_loss is the first of equal minima, as a running min() keeps it
        summary = {"iterations": float(config.iterations), "final_loss": float(losses[-1]),
                   "min_loss": float(losses[np.argmin(losses)])}
        summary.update((f"final_{name}", float(x))
                       for name, x in zip(header[metric_col:], rows[k, -1, metric_col:]))
        if holdout is not None:
            summary["holdout_accuracy"] = float(holdout[k])
        outcomes[k] = RunResult(header, rows[k], [v[k] for v in layers], summary)
    if seeds is not None:
        return [outcomes[i] for i in range(len(stack))]
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    if writer:
        with open(config.out + ".summary", "w", encoding="utf-8") as fh:
            fh.write(summary_text(outcomes[0].summary))
    return outcomes[0]


def summary_text(summary):
    """A run's summary as `<out>.summary` holds it and `sedfosgd run` prints it."""
    return "".join(f"{key} = {value!r}\n" for key, value in summary.items())


class _TraceWriter:
    """CSV trace file: the header when the run starts, its rows at the end;
    `discard` removes it instead."""

    def __init__(self, path, header):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):  # an older run's summary
            os.remove(path + ".summary")
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(",".join(header) + "\n")

    def write_row(self, row):
        """Writes one row of Python floats."""
        self._fh.write(_row_line(row))

    def close(self, rows, n):
        """Writes rows[:n] of a (steps, columns) array, each by write_row,
        and closes the file."""
        with self._fh:
            for row in rows[:n]:  # one row's floats at a time, not the whole trace's
                self.write_row(row.tolist())

    def discard(self):
        """Closes the file and removes it."""
        self._fh.close()
        os.remove(self._fh.name)


def _row_line(row):
    """One trace line of a row of Python floats, each by its `repr`."""
    return ",".join(map(repr, row)) + "\n"


def csv_bytes(result):
    """The exact bytes `run` writes for this result's trace."""
    lines = [",".join(result.header) + "\n"]
    lines += [_row_line(row.tolist()) for row in result.rows]  # one row's floats at a time
    return "".join(lines).encode("utf-8")


# --- Rate fit and seed sweeps ---

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window_start: int  # first t of the fit window [window_start, T]
    points: int        # number of (t, gap) points fitted, T - window_start + 1


def running_min(series):
    return np.minimum.accumulate(np.asarray(series, dtype=float))


_MIN_FIT_POINTS = 50


def rate_fit(running_min_gaps):
    """Least-squares slope of log(gap) vs log(t) over the tail window [T/10, T]."""
    series = np.asarray(running_min_gaps, dtype=float)
    if series.size < _MIN_FIT_POINTS:
        raise ValueError(f"need at least {_MIN_FIT_POINTS} points, got {series.size}")
    if np.any(series <= 0):
        t = int(np.argmax(series <= 0))
        raise ValueError(f"the running minimum is {series[t]} at t={t + 1}; it must be > 0")
    t = np.arange(1, series.size + 1)
    lo = max(1, series.size // 10)
    x = np.log(t[lo - 1:])
    y = np.log(series[lo - 1:])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - float(np.sum(resid ** 2)) / ss_tot)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, window_start=lo, points=x.size)


def derive_seed(base_seed, index):
    """Per-run seed for sweeps: base XOR hash(index); index 0 keeps the base."""
    return (int(base_seed) ^ _mix(index)) & ((1 << 64) - 1)


@dataclass(frozen=True)
class SweepFailure:
    """One seed whose run diverged at a step or whose data blew up at a sample."""
    seed: int
    kind: str  # "step" | "sample"
    index: int
    message: str

    def __str__(self):
        return f"seed={self.seed} {self.kind}={self.index} {self.message}"


@dataclass
class SweepResult:
    seeds: list
    summaries: list     # one summary dict per successful run
    failed: list        # one SweepFailure per failed run
    aggregate: dict     # per-metric mean/median/iqr

    @property
    def failures(self):
        return len(self.failed)


# seeds per lock-step stack in sweeps and rate fits: a stack's state and
# rows grow with it, so this bounds their memory whatever the seed count
_STACK = 8


def _seed_runs(config, n_seeds):
    """(seed, RunResult or the error that ended its run) for `n_seeds`
    derived seeds in index order, run in stacks of up to _STACK seeds
    without the trace-only columns, which sweeps and rate fits never read:
    their summaries and gap (or loss) columns are those of `run`."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    seeds = [derive_seed(config.seed, i) for i in range(n_seeds)]
    stacks = (seeds[lo:lo + _STACK] for lo in range(0, n_seeds, _STACK))
    return ((seed, outcome) for chunk in stacks
            for seed, outcome in zip(chunk, run(replace(config, out=None), seeds=chunk,
                                                  trace=False)))


def _ending(error):
    """(kind, index) of the DivergenceError or GenerationError that ended a seed's run"""
    if isinstance(error, DivergenceError):
        return "step", error.step_index
    return "sample", error.sample_index


def seed_sweep(config, n_seeds):
    seeds, summaries, failed = [], [], []
    for seed, outcome in _seed_runs(config, n_seeds):
        seeds.append(seed)
        if isinstance(outcome, Exception):
            failed.append(SweepFailure(seed, *_ending(outcome), str(outcome)))
        else:
            summaries.append(outcome.summary)
    aggregate = {}
    for key in summaries[0] if summaries else ():
        vals = np.array([s[key] for s in summaries if key in s])
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        with np.errstate(over="ignore"):  # the sum of finite values can overflow,
            mean = vals.mean()
        if math.isinf(mean):  # and then their shares of the mean add up to it
            mean = (vals / vals.size).sum()
        aggregate[key] = {"mean": float(mean), "median": float(med), "iqr": float(q3 - q1)}
    return SweepResult(seeds=seeds, summaries=summaries,
                       failed=failed, aggregate=aggregate)


def seed_rate_fit(config, n_seeds):
    """Rate fit of the running minimum of the gap (or loss) series, averaged
    over `n_seeds` derived seeds; the lowest-index seed that diverges ends
    the fit with its error, whose message starts with `seed=<seed>`."""
    runs = _seed_runs(config, n_seeds)
    if config.iterations < _MIN_FIT_POINTS:
        raise ConfigError(f"iterations must be >= {_MIN_FIT_POINTS} for a rate "
                          f"fit, got {config.iterations}")
    total = shares = 0.0
    for seed, outcome in runs:
        if isinstance(outcome, Exception):
            raise type(outcome)(f"seed={seed} {outcome}", _ending(outcome)[1]) from outcome
        gaps = outcome.rows[:, outcome.header.index("gap" if "gap" in outcome.header
                                                    else "loss")]
        with np.errstate(over="ignore"):  # the sum of finite gaps can overflow,
            total = total + gaps  # in seed order
        shares = shares + gaps / n_seeds  # and then their shares add up to the mean
    return rate_fit(running_min(np.where(np.isinf(total), shares, total / n_seeds)))
