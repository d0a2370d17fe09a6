"""Experiment runner: config parsing, the optimizer loop, CSV traces,
seed sweeps, and the log-log convergence-rate fit.

Configs are flat `key = value` text files (`#` starts a comment). Every
run is fully determined by its config, including the CSV bytes it writes.
"""

import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from . import fisher as fisher_mod
from . import optim as optim_mod
from . import problems as problems_mod
from . import sed as sed_mod
from .noise import RngStream, StableParams, _mix, alpha_stables, gaussians
from .optim import DivergenceError
from .problems import GenerationError


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


_PROBLEMS = ("ar", "quadratic", "mlp")
_OPTIMIZERS = ("sgd", "fosgd", "2sedfosgd")


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
        for f in fields(self):
            value = getattr(self, f.name)
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
        # (holds, message) in the order the checks are reported
        checks = (
            (self.problem in _PROBLEMS,
             f"problem must be one of {_PROBLEMS}, got {self.problem!r}"),
            (self.optimizer in _OPTIMIZERS,
             f"optimizer must be one of {_OPTIMIZERS}, got {self.optimizer!r}"),
            (self.iterations >= 1, f"iterations must be >= 1, got {self.iterations}"),
            (self.noise in ("gaussian", "stable"),
             f"noise must be gaussian or stable, got {self.noise!r}"),
            (0.0 <= self.mlp_holdout < 1.0,
             f"mlp_holdout must be in [0, 1), got {self.mlp_holdout}"),
            (self.mlp_batch >= 1, f"mlp_batch must be >= 1, got {self.mlp_batch}"),
            (self.mlp_hidden >= 1, f"mlp_hidden must be >= 1, got {self.mlp_hidden}"),
            (self.noise_std >= 0, f"noise_std must be >= 0, got {self.noise_std}"),
            (self.quad_noise_std >= 0,
             f"quad_noise_std must be >= 0, got {self.quad_noise_std}"),
            (0.0 < self.stable_tail <= 2.0,
             f"stable_tail must be in (0, 2], got {self.stable_tail}"),
            (-1.0 <= self.stable_skew <= 1.0,
             f"stable_skew must be in [-1, 1], got {self.stable_skew}"),
            (self.stable_scale > 0, f"stable_scale must be > 0, got {self.stable_scale}"),
            (2.0 / 3.0 <= self.zeta < 1.0, f"zeta must be in [2/3, 1), got {self.zeta}"),
            (0.0 < self.epsilon < 1.0, f"epsilon must be in (0, 1), got {self.epsilon}"),
            (0.0 < self.alpha0 <= 1.0, f"alpha0 must be in (0, 1], got {self.alpha0}"),
            (self.beta >= 0.0, f"beta must be >= 0, got {self.beta}"),
            (0.0 < self.alpha_min <= self.alpha0,
             f"alpha_min must be in (0, alpha0], got {self.alpha_min}"),
            (self.mu0 > 0, f"mu0 must be > 0, got {self.mu0}"),
            (self.delta > 0, f"delta must be > 0, got {self.delta}"),
            (self.scaling_mode in ("elementwise", "layer-norm"),
             f"unknown scaling_mode {self.scaling_mode!r}"),
            (self.grad_clip is None or self.grad_clip > 0,
             f"grad_clip must be > 0, got {self.grad_clip}"),
            (0.0 < self.fisher_decay <= 1.0,
             f"fisher_decay must be in (0, 1], got {self.fisher_decay}"),
            (len(self.ar_coeffs) >= 1, f"ar_coeffs must be non-empty, got {self.ar_coeffs}"),
            (len(self.quad_diag) >= 1 and min(self.quad_diag) >= 0,
             f"quad_diag must be non-negative, got {self.quad_diag}"),
            (self.mlp_limit >= 0,
             f"mlp_limit must be >= 0 (0 uses every example), got {self.mlp_limit}"),
            (self.problem != "mlp" or bool(self.mlp_images and self.mlp_labels),
             "mlp problem requires mlp_images and mlp_labels paths"),
        )
        for holds, message in checks:
            if not holds:
                raise ConfigError(message)


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _typed_pair(text, where):
    """Split `key = value` and type the value by the key's field annotation:
    `int`, `float`, `str`, `bool` or `tuple` (of floats); a `float` key whose
    default is None also takes `none`."""
    key, sep, raw = (part.strip() for part in text.partition("="))
    if not sep:
        raise ConfigError(f"{where}: expected key = value, got {text!r}")
    f = _FIELDS.get(key)
    if f is None:
        raise ConfigError(f"{where}: unknown key {key!r}")
    if f.type is str:
        return key, raw
    if f.type is float and f.default is None and raw.lower() == "none":
        return key, None
    try:
        if f.type is bool:
            return key, _BOOLS[raw.lower()]
        if f.type is tuple:
            return key, tuple(float(x) for x in raw.split(","))
        return key, f.type(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(
            f"{key}: could not parse {raw!r} as {f.type.__name__}") from exc


def parse_config_text(text):
    """Parse `key = value` lines into a typed key/value dict."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
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

class _ArDriver:
    """Streaming AR identification: one regressor per iteration. Each seed
    simulates its own data; one that blows up is kept in `failed` (by its
    position in `rngs`) and has no rows here."""

    def __init__(self, config, rngs):
        self.true_coeffs = np.asarray(config.ar_coeffs, dtype=float)
        p = self.true_coeffs.size
        n = config.iterations + p
        params = StableParams(alpha_tail=config.stable_tail, skew=config.stable_skew,
                              scale=config.stable_scale, location=config.stable_location)
        self.failed, data = {}, []
        for i, rng in enumerate(rngs):
            noise = (gaussians(rng, n, 0.0, config.noise_std) if config.noise == "gaussian"
                     else alpha_stables(rng, params, n))
            try:
                data.append(problems_mod.ar_generate(self.true_coeffs, noise))
            except GenerationError as exc:
                self.failed[i] = exc
        self.phi = np.array([phi for phi, _ in data]).reshape(len(data), n - p, p)
        self.y = np.array([y for _, y in data]).reshape(len(data), n - p)
        self.init_layers = [np.zeros((len(data), p))]

    def loss_grad(self, layers, t):
        loss, g = problems_mod.ar_loss_grad(layers[0], self.phi[:, t - 1],
                                            self.y[:, t - 1])
        return loss, [g]

    def keep(self, mask):
        self.phi, self.y = self.phi[mask], self.y[mask]

    def metric_names(self):
        return [f"err_a{i + 1}" for i in range(self.true_coeffs.size)] + ["err_norm"]

    def metrics(self, layers, out, last):
        err = layers[0] - self.true_coeffs
        np.abs(err, out=out[:, :-1])
        out[:, -1] = optim_mod.norm([err])


class _QuadraticDriver:
    """Convex quadratic with additive Gaussian gradient noise. Each seed draws
    its noise a block of rows (about 2048 numbers) at a time from its own
    stream, which feeds nothing else, so a step's noise row is the same as
    if it were drawn one number at a time."""

    def __init__(self, config, rngs):
        diag = np.asarray(config.quad_diag, dtype=float)
        self.a_mat = np.diag(diag)
        self.b = np.zeros(diag.size)
        self.noise_std = config.quad_noise_std
        self.failed, self.rngs, self._next_row = {}, list(rngs), 0
        self._noise_rows = np.empty((len(self.rngs), 0, diag.size))
        self._gap = np.empty(len(self.rngs))  # the next loss goes here (see metrics)
        self.init_layers = [np.ones((len(self.rngs), diag.size))]

    def loss_grad(self, layers, t):
        f, g = problems_mod.quadratic_loss_grad(layers[0], self.a_mat, self.b)
        self._gap[:] = f
        if self._next_row == self._noise_rows.shape[1]:  # the seeds run out together
            rows, d = max(1, 2048 // g.shape[1]), g.shape[1]
            self._noise_rows = np.array([gaussians(rng, rows * d, 0.0, self.noise_std)
                                         .reshape(rows, d) for rng in self.rngs])
            self._next_row = 0
        noisy = g + self._noise_rows[:, self._next_row]
        self._next_row += 1
        return f, [noisy]

    def keep(self, mask):
        self.rngs = [rng for rng, kept in zip(self.rngs, mask) if kept]
        self._noise_rows = self._noise_rows[mask]

    def metric_names(self):
        return ["gap"]

    def metrics(self, layers, out, last):
        # b = 0, so the minimum is 0 at the origin and the gap is f itself:
        # the next step's loss_grad evaluates it on these layers and fills it in
        self._gap = out[:, 0]
        if last:
            self._gap[:] = problems_mod.quadratic_loss_grad(layers[0], self.a_mat, self.b)[0]


class _MlpDriver:
    """Mini-batch classification over an IDX image/label pair. Each seed
    shuffles the examples its own way (an index order into the one copy of
    the data), so the gradient is one call per seed."""

    def __init__(self, config, rngs):
        data = problems_mod.load_idx(config.mlp_images, config.mlp_labels)
        n = min(config.mlp_limit or len(data), len(data))
        self.n_hold = int(round(config.mlp_holdout * n))
        if not 0 < self.n_hold < n:
            raise ConfigError(
                f"mlp_holdout={config.mlp_holdout} splits {n} examples into {self.n_hold} "
                f"holdout and {n - self.n_hold} training; both must be non-empty")
        self.inputs, self.labels = data.inputs[:n], data.labels[:n]
        self.spec = problems_mod.MlpSpec(widths=(
            data.inputs.shape[1], config.mlp_hidden, int(data.labels.max()) + 1))
        self.batch_size = config.mlp_batch
        self.failed, self.orders, inits = {}, [], []
        for rng in rngs:
            self.orders.append(_shuffled_indices(n, rng))
            inits.append(problems_mod.mlp_init_layers(self.spec, rng))
        self.init_layers = [np.array(vs) for vs in zip(*inits)]

    def _batch(self, rows):
        return problems_mod.LabeledBatch(self.inputs[rows], self.labels[rows])

    def loss_grad(self, layers, t):
        n_train = len(self.labels) - self.n_hold
        start = ((t - 1) * self.batch_size) % n_train
        idx = [self.n_hold + (start + i) % n_train for i in range(self.batch_size)]
        self._batches = [self._batch(order[idx]) for order in self.orders]
        losses, grads = [], []
        for k, batch in enumerate(self._batches):
            loss, g = problems_mod.mlp_loss_grad(self.spec, [v[k] for v in layers], batch)
            losses.append(loss)
            grads.append(g)
        return np.array(losses), [np.array(gs) for gs in zip(*grads)]

    def keep(self, mask):
        self.orders, self._batches = ([x for x, kept in zip(xs, mask) if kept]
                                      for xs in (self.orders, self._batches))

    def metric_names(self):
        return ["batch_accuracy"]

    def _accuracies(self, layers, batches):
        return [float(np.mean(problems_mod.mlp_predict(
            self.spec, [v[k] for v in layers], batch.inputs) == batch.labels))
            for k, batch in enumerate(batches)]

    def metrics(self, layers, out, last):
        out[:, 0] = self._accuracies(layers, self._batches)

    def holdout_accuracy(self, layers):
        return self._accuracies(layers, [self._batch(o[:self.n_hold]) for o in self.orders])


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

# sgd and fosgd fold the Fisher diagnostics of up to 256 steps at once:
_CHUNK_BYTES = 1 << 18  # as many as keep the chunk's operands in this many bytes

@dataclass
class RunResult:
    header: list
    rows: np.ndarray      # (iterations, columns) float64, one row per iteration
    final_layers: list
    summary: dict


def _fmt(x):
    return repr(float(x))


def trace_header(driver):
    cols = ["t", "mu", "loss"]
    for j in range(len(driver.init_layers)):
        cols += [f"alpha_l{j}", f"dzeta_l{j}", f"delta_norm_l{j}"]
    return cols + ["d_max"] + driver.metric_names()


def run(config, seeds=None):
    """Execute one experiment; writes the CSV trace if `out` is set, its rows
    when the run ends, however it ends (up to the step that diverged); the
    summary only lands next to it (as `<out>.summary`) after a success.

    With `seeds` (and no `out`), runs the config once per seed in lock-step
    and returns, per seed, its RunResult or the DivergenceError or
    GenerationError that ended its run; the other seeds go on. Each result
    has the bits of a run of its seed alone: that run is a stack of one.
    """
    stack = [config.seed] if seeds is None else list(seeds)
    if seeds is not None and config.out:
        raise ValueError("only a run of one seed writes a trace file")
    driver = _DRIVERS[config.problem](config, [RngStream(seed) for seed in stack])
    outcomes = dict(driver.failed)  # seed position -> the error that ended it
    alive = np.array([i for i in range(len(stack)) if i not in outcomes], dtype=int)
    if seeds is None and outcomes:
        raise outcomes[0]

    # the run state, one row per seed of `alive` (no step runs without one):
    # each layer, its last step, its EMA Fisher block, the dimensions' max
    layers = list(driver.init_layers)
    steps = [np.zeros_like(v) for v in layers]
    blocks = [fisher_mod.FisherBlock.zeros(j, v.shape[1], config.fisher_decay,
                                           stack=v.shape[:1]) for j, v in enumerate(layers)]
    d_max = np.zeros(alive.size)
    # the optimizers differ only in their exponents: 1 for sgd, alpha0 for
    # fosgd, and the adaptive ones (chosen each step below) for 2sedfosgd
    adaptive = config.optimizer == "2sedfosgd"
    fixed = np.full((alive.size, len(layers)),
                    1.0 if config.optimizer == "sgd" else config.alpha0)
    # the gradients of the steps not folded yet: 2sedfosgd folds each step's
    # at once, sgd and fosgd (which only trace the diagnostics) a chunk
    pending, width = [], 1 if adaptive else min(256, max(1, _CHUNK_BYTES // (8 * max(
        alive.size, 1) * sum(b.dim ** 2 if b.mode == "full" else b.dim for b in blocks))))

    header = trace_header(driver)
    metric_col = 3 * len(layers) + 4
    # step 1 folds nothing, so its dimensions and d_max stay 0
    rows = np.zeros((alive.size, config.iterations, len(header)))
    # t and the step size: mu0 at the classical first step, then mu0 / sqrt(t - 1)
    rows[:, :, 0] = np.arange(1, config.iterations + 1)
    rows[:, :, 1] = np.concatenate(
        [[config.mu0], optim_mod.step_size(np.arange(1, config.iterations), config.mu0)])
    writer = _TraceWriter(config.out, header) if config.out else None
    # a trace is one seed's rows (in view after it leaves), the first `done` whole
    trace, done = rows[0] if writer else None, 0

    def diagnose(t):  # the pending steps' (up to t) diagnostics, into their rows
        nonlocal d_max, done
        dzeta, peak = optim_mod.fisher_diagnostics(pending, blocks, d_max, config)
        rows[:, t - len(pending):t, 4:metric_col - 1:3] = dzeta.swapaxes(0, 1)
        rows[:, t - len(pending):t, metric_col - 1] = peak.T
        pending.clear()
        d_max, done = peak[-1], t - 1  # the next loss is in
        return dzeta, peak

    try:
        # an overflow or invalid operation leaves inf or nan instead of a
        # warning; the checks below report it as a divergence at its step
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, config.iterations + 1 if alive.size else 1):
                loss, raw = driver.loss_grad(layers, t)
                # a row is whole once its chunk is folded and the next loss is in
                if not pending:
                    done = t - 1
                grads = optim_mod.clip_gradients(raw, config.grad_clip)
                # catch blow-ups before the Fisher outer product can overflow:
                # |g|^2 is finite exactly when every entry is and the squares
                # do not overflow, as they cannot within an unused clip bound;
                # a blown seed folds a zero gradient until it leaves below
                blown = ~np.isfinite(loss)
                for g in grads if grads is not raw or config.grad_clip is None else ():
                    blown |= ~np.isfinite(np.vecdot(g, g))
                blown_rows = blown.nonzero()[0].tolist()
                if blown_rows:
                    grads = [np.where(blown[:, None], 0.0, g) for g in grads]
                if t == 1:
                    # classical first step, before any Fisher update
                    alphas = np.ones_like(fixed)
                else:
                    # every optimizer logs the same Fisher/dimension diagnostics
                    pending.append(grads)
                    if len(pending) == width or t == config.iterations:
                        dzeta, peak = diagnose(t)
                    alphas = (sed_mod.adapt_alpha(dzeta[0], peak[0, :, None], config)
                              if adaptive else fixed)
                layers, steps = optim_mod.step(layers, steps, grads, rows[0, t - 1, 1],
                                               alphas, config, t)

                # a seed that diverged at this step leaves the stack
                failed = optim_mod.diverged(layers, t)
                failed.update((k, DivergenceError(f"non-finite loss or gradient at step {t}",
                                                  step_index=t)) for k in blown_rows)
                if failed:
                    if pending:  # fold the chunk before its seeds part
                        diagnose(t)
                    outcomes.update((int(alive[k]), exc) for k, exc in failed.items())
                    keep = ~np.isin(np.arange(alive.size), list(failed))
                    alive, loss, alphas, fixed, d_max, rows = (
                        x[keep] for x in (alive, loss, alphas, fixed, d_max, rows))
                    layers, steps = [v[keep] for v in layers], [v[keep] for v in steps]
                    for owner in (driver, *blocks):
                        owner.keep(keep)
                    if not alive.size:
                        break

                row = rows[:, t - 1]
                row[:, 2] = loss
                row[:, 3:metric_col - 1:3] = alphas
                for j, d in enumerate(steps):
                    row[:, 5 + 3 * j] = optim_mod.norm([d])
                driver.metrics(layers, row[:, metric_col:], t == config.iterations)
            done = config.iterations if alive.size else done
    finally:
        if writer:
            writer.close(trace, done)

    names = driver.metric_names()
    holdout = driver.holdout_accuracy(layers) if config.problem == "mlp" else None
    for k, i in enumerate(alive.tolist()):
        losses = rows[k, :, 2]
        # min_loss is the first of equal minima, as a running min() keeps it
        summary = {"iterations": float(config.iterations), "final_loss": float(losses[-1]),
                   "min_loss": float(losses[np.argmin(losses)])}
        summary.update((f"final_{name}", float(x))
                       for name, x in zip(names, rows[k, -1, metric_col:]))
        if holdout:
            summary["holdout_accuracy"] = holdout[k]
        outcomes[i] = RunResult(header, rows[k], [v[k] for v in layers], summary)
    if seeds is not None:
        return [outcomes[i] for i in range(len(stack))]
    if isinstance(outcomes[0], Exception):
        raise outcomes[0]
    if writer:
        with open(config.out + ".summary", "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {_fmt(value)}\n"
                          for key, value in outcomes[0].summary.items())
    return outcomes[0]


class _TraceWriter:
    """CSV trace file: the header when the run starts, its rows at the end."""

    def __init__(self, path, header):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(",".join(header) + "\n")

    def write_row(self, row):
        """Writes one row of Python floats."""
        self._fh.write(",".join(map(repr, row)) + "\n")

    def close(self, rows, n):
        """Writes rows[:n] of a (steps, columns) array, each by write_row,
        and closes the file."""
        with self._fh:
            for row in rows[:n]:  # one row's floats at a time, not the whole trace's
                self.write_row(row.tolist())


def csv_bytes(result):
    """The exact bytes `run` writes for this result's trace."""
    lines = [",".join(result.header)]
    lines += [",".join(_fmt(x) for x in row) for row in result.rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


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
        raise ValueError("series must be strictly positive")
    t = np.arange(1, series.size + 1)
    lo = max(1, series.size // 10)
    x = np.log(t[lo - 1:])
    y = np.log(series[lo - 1:])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - float(np.sum(resid ** 2)) / ss_tot)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=min(1.0, r2), window_start=lo, points=x.size)


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
    derived seeds in index order, run in stacks of up to _STACK seeds."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    seeds = [derive_seed(config.seed, i) for i in range(n_seeds)]
    stacks = (seeds[lo:lo + _STACK] for lo in range(0, n_seeds, _STACK))
    return ((seed, outcome) for chunk in stacks
            for seed, outcome in zip(chunk, run(replace(config, out=None), seeds=chunk)))


def seed_sweep(config, n_seeds):
    seeds, summaries, failed = [], [], []
    for seed, outcome in _seed_runs(config, n_seeds):
        seeds.append(seed)
        if isinstance(outcome, DivergenceError):
            failed.append(SweepFailure(seed, "step", outcome.step_index, str(outcome)))
        elif isinstance(outcome, GenerationError):
            failed.append(SweepFailure(seed, "sample", outcome.sample_index, str(outcome)))
        else:
            summaries.append(outcome.summary)
    aggregate = {}
    for key in summaries[0] if summaries else ():
        vals = np.array([s[key] for s in summaries if key in s])
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        aggregate[key] = {"mean": float(vals.mean()), "median": float(med),
                          "iqr": float(q3 - q1)}
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
    series = None
    for seed, outcome in runs:
        if isinstance(outcome, Exception):
            index = getattr(outcome, "step_index", getattr(outcome, "sample_index", None))
            raise type(outcome)(f"seed={seed} {outcome}", index) from outcome
        gaps = outcome.rows[:, outcome.header.index("gap" if "gap" in outcome.header
                                                    else "loss")]
        series = gaps if series is None else series + gaps  # in seed order
    return rate_fit(running_min(series / n_seeds))
