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
from .noise import RngStream, StableParams, _mix, alpha_stable, gaussians
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


# ---------------------------------------------------------------------------
# Problem drivers
# ---------------------------------------------------------------------------

class _ArDriver:
    """Streaming AR identification: one regressor per iteration."""

    def __init__(self, config, rng):
        self.true_coeffs = np.asarray(config.ar_coeffs, dtype=float)
        p = self.true_coeffs.size
        n = config.iterations + p
        if config.noise == "gaussian":
            noise = gaussians(rng, n, 0.0, config.noise_std)
        else:
            params = StableParams(
                alpha_tail=config.stable_tail, skew=config.stable_skew,
                scale=config.stable_scale, location=config.stable_location)
            noise = [alpha_stable(rng, params) for _ in range(n)]
        self.phi, self.y = problems_mod.ar_generate(self.true_coeffs, noise)
        self.init_layers = [np.zeros(p)]

    def loss_grad(self, layers, t):
        loss, g = problems_mod.ar_loss_grad(layers[0], self.phi[t - 1],
                                            self.y[t - 1])
        return loss, [g]

    def metric_names(self):
        return [f"err_a{i + 1}" for i in range(self.true_coeffs.size)] + ["err_norm"]

    def metrics(self, layers):
        err = layers[0] - self.true_coeffs
        return list(np.abs(err)) + [float(optim_mod.norm([err]))]


class _QuadraticDriver:
    """Convex quadratic with additive Gaussian gradient noise.

    The noise is drawn a block of rows at a time (about 2048 numbers) from the
    run's stream, which feeds nothing else, so each step's noise row is the
    same as if it were drawn one number at a time.
    """

    def __init__(self, config, rng):
        diag = np.asarray(config.quad_diag, dtype=float)
        self.a_mat = np.diag(diag)
        self.b = np.zeros(diag.size)
        self.noise_std = config.quad_noise_std
        self.rng = rng
        self._noise_rows = np.empty((0, diag.size))
        self._next_row = 0
        self.init_layers = [np.ones(diag.size)]
        self.f_star = 0.0  # b = 0, minimum at the origin

    def loss_grad(self, layers, t):
        f, g = problems_mod.quadratic_loss_grad(layers[0], self.a_mat, self.b)
        if self._next_row == len(self._noise_rows):
            rows = max(1, 2048 // g.size)
            self._noise_rows = gaussians(self.rng, rows * g.size, 0.0,
                                         self.noise_std).reshape(rows, g.size)
            self._next_row = 0
        noisy = g + self._noise_rows[self._next_row]
        self._next_row += 1
        return f, [noisy]

    def metric_names(self):
        return ["gap"]

    def metrics(self, layers):
        f, _ = problems_mod.quadratic_loss_grad(layers[0], self.a_mat, self.b)
        return [f - self.f_star]


class _MlpDriver:
    """Mini-batch classification over an IDX image/label pair."""

    def __init__(self, config, rng):
        data = problems_mod.load_idx(config.mlp_images, config.mlp_labels)
        n = len(data)
        if config.mlp_limit and config.mlp_limit < n:
            n = config.mlp_limit
        order = _shuffled_indices(n, rng)
        inputs = data.inputs[:n][order]
        labels = data.labels[:n][order]
        n_hold = int(round(config.mlp_holdout * n))
        if not 0 < n_hold < n:
            raise ConfigError(
                f"mlp_holdout={config.mlp_holdout} splits {n} examples into {n_hold} "
                f"holdout and {n - n_hold} training; both must be non-empty")
        self.holdout = problems_mod.LabeledBatch(inputs[:n_hold], labels[:n_hold])
        self.train = problems_mod.LabeledBatch(inputs[n_hold:], labels[n_hold:])
        classes = int(data.labels.max()) + 1
        self.spec = problems_mod.MlpSpec(
            widths=(inputs.shape[1], config.mlp_hidden, classes))
        self.batch_size = config.mlp_batch
        self.init_layers = problems_mod.mlp_init_layers(self.spec, rng)

    def loss_grad(self, layers, t):
        n_train = len(self.train)
        start = ((t - 1) * self.batch_size) % n_train
        idx = [(start + i) % n_train for i in range(self.batch_size)]
        batch = problems_mod.LabeledBatch(self.train.inputs[idx],
                                          self.train.labels[idx])
        self._last_batch = batch
        return problems_mod.mlp_loss_grad(self.spec, layers, batch)

    def metric_names(self):
        return ["batch_accuracy"]

    def metrics(self, layers):
        pred = problems_mod.mlp_predict(self.spec, layers, self._last_batch.inputs)
        return [float(np.mean(pred == self._last_batch.labels))]

    def holdout_accuracy(self, layers):
        pred = problems_mod.mlp_predict(self.spec, layers, self.holdout.inputs)
        return float(np.mean(pred == self.holdout.labels))


def _shuffled_indices(n, rng):
    """Deterministic Fisher-Yates permutation driven by the run's stream."""
    order = list(range(n))
    draws = rng.next_u64s(max(n - 1, 0)).tolist()
    for i, z in zip(range(n - 1, 0, -1), draws):
        j = z % (i + 1)
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.intp)


_DRIVERS = {"ar": _ArDriver, "quadratic": _QuadraticDriver, "mlp": _MlpDriver}


# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    header: list
    rows: list            # list of lists of floats, one per iteration
    final_layers: list
    summary: dict


def _fmt(x):
    return repr(float(x))


def trace_header(driver):
    cols = ["t", "mu", "loss"]
    for j in range(len(driver.init_layers)):
        cols += [f"alpha_l{j}", f"dzeta_l{j}", f"delta_norm_l{j}"]
    cols.append("d_max")
    cols += driver.metric_names()
    return cols


def run(config):
    """Execute one experiment; writes the CSV trace if `out` is set.

    The trace file is written row by row; the summary only lands next to it
    (as `<out>.summary`) after the whole run succeeded.
    """
    rng = RngStream(config.seed)
    driver = _DRIVERS[config.problem](config, rng)

    # the run state: each layer, its last step theta_t - theta_{t-1}, its
    # EMA Fisher block, and the running maximum of the effective dimensions
    layers = list(driver.init_layers)
    steps = [np.zeros_like(v) for v in layers]
    blocks = [fisher_mod.FisherBlock.zeros(j, v.shape[0], config.fisher_decay)
              for j, v in enumerate(layers)]
    dzeta = np.zeros(len(layers))
    d_max = 0.0
    # the optimizers differ only in their exponents: 1 for sgd, alpha0 for
    # fosgd, and the adaptive ones (chosen each step below) for 2sedfosgd
    ones = np.ones(len(layers))
    constant = ones if config.optimizer == "sgd" else np.full(len(layers), config.alpha0)

    header = trace_header(driver)
    rows = []
    min_loss = math.inf
    writer = _TraceWriter(config.out, header) if config.out else None

    try:
        # an overflow or invalid operation leaves inf or nan instead of a
        # warning; the checks below report it as a divergence at its step
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(1, config.iterations + 1):
                loss, grads = driver.loss_grad(layers, t)
                grads = optim_mod.clip_gradients(grads, config.grad_clip)
                # catch blow-ups before the Fisher outer product can overflow
                blown = not math.isfinite(loss) or any(
                    not np.all(np.isfinite(g)) or float(g @ g) == math.inf
                    for g in grads)
                if blown:
                    raise DivergenceError(
                        f"non-finite loss or gradient at step {t}", step_index=t)
                if t == 1:
                    # classical first step at the base rate, before any Fisher update
                    mu, alphas = config.mu0, ones
                else:
                    # every optimizer logs the same Fisher/dimension diagnostics
                    dzeta, d_max, adaptive = optim_mod.observe_fisher_sed(
                        grads, blocks, d_max, config)
                    mu = optim_mod.step_size(t - 1, config.mu0)
                    alphas = adaptive if config.optimizer == "2sedfosgd" else constant
                layers, steps = optim_mod.step(layers, steps, grads, mu, alphas,
                                               config, t)

                min_loss = min(min_loss, loss)
                row = [float(t), mu, loss]
                for j, d in enumerate(steps):
                    row += [float(alphas[j]), float(dzeta[j]),
                            float(optim_mod.norm([d]))]
                row.append(d_max)
                row += [float(m) for m in driver.metrics(layers)]
                rows.append(row)
                if writer:
                    writer.write_row(row)
    finally:
        if writer:
            writer.close()

    summary = {
        "iterations": float(config.iterations),
        "final_loss": rows[-1][2],
        "min_loss": float(min_loss),
    }
    for name, value in zip(driver.metric_names(), rows[-1][-len(driver.metric_names()):]):
        summary[f"final_{name}"] = float(value)
    if config.problem == "mlp":
        summary["holdout_accuracy"] = driver.holdout_accuracy(layers)

    if writer:
        _write_summary(config.out + ".summary", summary)
    return RunResult(header=header, rows=rows, final_layers=layers, summary=summary)


class _TraceWriter:
    """Row-at-a-time CSV writer; each row is flushed as one write."""

    def __init__(self, path, header):
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8", newline="")
        self._fh.write(",".join(header) + "\n")

    def write_row(self, row):
        self._fh.write(",".join(_fmt(x) for x in row) + "\n")

    def close(self):
        self._fh.close()


def _write_summary(path, summary):
    lines = [f"{key} = {_fmt(value)}" for key, value in summary.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def csv_bytes(result):
    """The exact bytes `run` writes for this result's trace."""
    lines = [",".join(result.header)]
    lines += [",".join(_fmt(x) for x in row) for row in result.rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Rate fit and seed sweeps
# ---------------------------------------------------------------------------

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


def seed_sweep(config, n_seeds):
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    seeds, summaries, failed = [], [], []
    for i in range(n_seeds):
        seed = derive_seed(config.seed, i)
        seeds.append(seed)
        sub = replace(config, seed=seed, out=None)
        try:
            summaries.append(run(sub).summary)
        except DivergenceError as exc:
            failed.append(SweepFailure(seed, "step", exc.step_index, str(exc)))
        except GenerationError as exc:
            failed.append(SweepFailure(seed, "sample", exc.sample_index, str(exc)))
    aggregate = {}
    if summaries:
        keys = summaries[0].keys()
        for key in keys:
            vals = np.array([s[key] for s in summaries if key in s])
            q1, med, q3 = np.percentile(vals, [25, 50, 75])
            aggregate[key] = {"mean": float(vals.mean()), "median": float(med),
                              "iqr": float(q3 - q1)}
    return SweepResult(seeds=seeds, summaries=summaries,
                       failed=failed, aggregate=aggregate)


def seed_rate_fit(config, n_seeds):
    """Rate fit of the running minimum of the gap (or loss) series, averaged
    over `n_seeds` derived seeds; a seed that diverges ends the fit with its
    error, whose message starts with `seed=<seed>`."""
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if config.iterations < _MIN_FIT_POINTS:
        raise ConfigError(f"iterations must be >= {_MIN_FIT_POINTS} for a rate "
                          f"fit, got {config.iterations}")
    series = None
    for i in range(n_seeds):
        seed = derive_seed(config.seed, i)
        try:
            result = run(replace(config, seed=seed, out=None))
        except DivergenceError as exc:
            raise DivergenceError(f"seed={seed} {exc}",
                                  step_index=exc.step_index) from exc
        except GenerationError as exc:
            raise GenerationError(f"seed={seed} {exc}",
                                  sample_index=exc.sample_index) from exc
        col = result.header.index("gap" if "gap" in result.header else "loss")
        gaps = [row[col] for row in result.rows]
        series = gaps if series is None else [a + b for a, b in zip(series, gaps)]
    return rate_fit(running_min([x / n_seeds for x in series]))
