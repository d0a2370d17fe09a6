"""Call tracing for the benchmark's traced run, installed from outside the package.

`Tracer` wraps every binding of each public function of the sedfosgd modules
(including names other modules imported directly, such as `sed.logdet_plus`,
`optim.gamma`), the public methods of their classes (so `noise.RngStream`
methods are traced wherever the class is used), one private hook,
`harness._TraceWriter.write_row`, and numpy's symmetric eigensolvers. A name a
refactor removed is skipped and listed, never an error.

Spans are aggregated in memory per name (calls, total time, self time = total
minus child spans). On top of the spans a few counters are kept where the work
happens: gradient calls mark step boundaries, eigensolver calls count solves,
`RngStream.next_u64` counts draws, `fisher.ema_update` records block modes and
sizes, and the trace-row hook counts rows and bytes.
"""

import functools
import importlib
import inspect
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("mathkit", "noise", "fisher", "sed", "optim", "problems", "harness", "cli")
ROW_HOOK = "harness._TraceWriter.write_row"
GRADIENT_FUNCS = ("problems.ar_loss_grad", "problems.quadratic_loss_grad",
                  "problems.mlp_loss_grad")
EIG_SOLVERS = ("eigh", "eigvalsh")
# names the per-layer metrics rely on; reported as skipped when absent
EXPECTED = ("harness.run", "noise.RngStream.next_u64", "fisher.ema_update",
            ROW_HOOK, *GRADIENT_FUNCS,
            *(f"numpy.linalg.{name}" for name in EIG_SOLVERS))


class Tracer:
    """Installs wrappers on entry, restores every original binding on exit."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.wrapped = []
        self.skipped = []
        self._stack = []      # child time accumulated by each open span
        self._restore = []
        self._hooks = {"harness.run": self._hook_run,
                       "noise.RngStream.next_u64": self._hook_draw,
                       "fisher.ema_update": self._hook_ema,
                       ROW_HOOK: self._hook_row}
        for name in GRADIENT_FUNCS:
            self._hooks[name] = self._hook_gradient

        self.steps = 0
        self.step_gaps_s = []
        self.run_setup_s = []
        self.setup_draws = []
        self.block_modes = []  # one {layer: mode} dict per run
        self.draws = 0
        self.grad_s = 0.0
        self.solves = 0
        self.unique_solves = 0
        self.solve_s = 0.0
        self.solve_n3 = 0
        self.ema_bytes = 0
        self.rows = 0
        self.row_bytes = 0
        self._run_start = None
        self._run_draws = 0
        self._last_tick = None
        self._solved = set()  # matrices solved since the last gradient call

    # -- installation -------------------------------------------------------

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self._uninstall()
        return False

    def _install(self):
        package = importlib.import_module("sedfosgd")
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"sedfosgd.{short}")
            except ImportError:
                self.skipped.append(f"sedfosgd.{short}")

        replacements = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    replacements[obj] = self._wrap(f"{short}.{name}", obj)
        for ns in (package, *modules.values()):
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replacements:
                    self._rebind(ns, name, replacements[obj])

        for short, mod in modules.items():
            for cname, cls in list(vars(mod).items()):
                if (cname.startswith("_") or not inspect.isclass(cls)
                        or cls.__module__ != mod.__name__):
                    continue
                for attr, val in list(vars(cls).items()):
                    if not attr.startswith("_"):
                        self._wrap_method(cls, attr, val, f"{short}.{cname}.{attr}")
        writer = getattr(modules.get("harness"), "_TraceWriter", None)
        if writer is not None and "write_row" in vars(writer):
            self._wrap_method(writer, "write_row", vars(writer)["write_row"], ROW_HOOK)

        for name in EIG_SOLVERS:
            solver = getattr(np.linalg, name, None)
            if solver is not None:
                self._rebind(np.linalg, name, self._solver(solver))
                self.wrapped.append(f"numpy.linalg.{name}")

        self.skipped += [name for name in EXPECTED if name not in self.wrapped]

    def _uninstall(self):
        while self._restore:
            ns, name, original = self._restore.pop()
            setattr(ns, name, original)

    def _rebind(self, ns, name, value):
        self._restore.append((ns, name, getattr(ns, name)))
        setattr(ns, name, value)

    def _wrap_method(self, cls, attr, val, qualname):
        if inspect.isfunction(val):
            self._rebind(cls, attr, self._wrap(qualname, val))
        elif isinstance(val, (classmethod, staticmethod)):
            self._rebind(cls, attr, type(val)(self._wrap(qualname, val.__func__)))

    def _wrap(self, qualname, fn):
        self.wrapped.append(qualname)
        wrapped = self._span(qualname, fn)
        hook = self._hooks.get(qualname)
        return hook(wrapped) if hook else wrapped

    def _span(self, qualname, fn):
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[qualname] += 1
                total_s[qualname] += elapsed
                self_s[qualname] += elapsed - child
        return span

    # -- counters -----------------------------------------------------------

    def _hook_run(self, fn):
        def run(*args, **kwargs):
            self._run_start = perf_counter()
            self._run_draws = self.draws
            self._last_tick = None
            self.block_modes.append({})
            return fn(*args, **kwargs)
        return functools.wraps(fn)(run)

    def _hook_gradient(self, fn):
        # a gradient call is one made by a harness problem's `loss_grad`;
        # the quadratic problem also calls its oracle to report the gap
        def gradient(*args, **kwargs):
            if sys._getframe(1).f_code.co_name != "loss_grad":
                return fn(*args, **kwargs)
            self._tick()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.grad_s += perf_counter() - start
        return functools.wraps(fn)(gradient)

    def _tick(self):
        now = perf_counter()
        if self._last_tick is None:
            if self._run_start is not None:
                self.run_setup_s.append(now - self._run_start)
                self.setup_draws.append(self.draws - self._run_draws)
        else:
            self.step_gaps_s.append(now - self._last_tick)
        self._last_tick = now
        self.steps += 1
        self._solved.clear()

    def _hook_draw(self, fn):
        def next_u64(*args, **kwargs):
            self.draws += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(next_u64)

    def _hook_ema(self, fn):
        def ema_update(block, *args, **kwargs):
            self.ema_bytes += block.matrix.nbytes
            if self.block_modes:
                self.block_modes[-1][block.layer_index] = block.mode
            return fn(block, *args, **kwargs)
        return functools.wraps(fn)(ema_update)

    def _hook_row(self, fn):
        def write_row(writer, row, *args, **kwargs):
            self.rows += 1
            self.row_bytes += len(",".join(repr(float(x)) for x in row)) + 1
            return fn(writer, row, *args, **kwargs)
        return functools.wraps(fn)(write_row)

    def _solver(self, fn):
        def solve(a, *args, **kwargs):
            a = np.asarray(a)
            key = (a.shape, hash(a.tobytes()))
            if key not in self._solved:
                self._solved.add(key)
                self.unique_solves += 1
            self.solves += 1
            self.solve_n3 += a.shape[-1] ** 3
            start = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                self.solve_s += perf_counter() - start
        return functools.wraps(fn)(solve)

    # -- per-layer metrics --------------------------------------------------

    def metrics(self, traced_time, untraced_time):
        """Per-layer metrics as {name: (value, unit)}; per-step values divide by gradient calls.

        `traced_time` and `untraced_time` are the same runs' times with and
        without the tracer, in any one unit.
        """
        steps = max(self.steps, 1)
        out = {}
        for short in MODULES:
            names = [n for n in self.calls if n.split(".", 1)[0] == short]
            out[f"{short}.self_us_per_step"] = (
                1e6 * sum(self.self_s[n] for n in names) / steps, "us")
            out[f"{short}.calls_per_step"] = (
                sum(self.calls[n] for n in names) / steps, "count")

        out["mathkit.eig_solves_per_step"] = (self.solves / steps, "count")
        out["mathkit.unique_solve_ratio"] = (
            self.unique_solves / self.solves if self.solves else 0.0, "ratio")
        out["mathkit.eig_n3_per_step"] = (self.solve_n3 / steps, "count")
        out["mathkit.eig_us_per_solve"] = (
            1e6 * self.solve_s / self.solves if self.solves else 0.0, "us")

        setup_draws = sum(self.setup_draws)
        out["noise.u64_draws_per_step"] = ((self.draws - setup_draws) / steps, "count")
        out["noise.setup_draws"] = (_median(self.setup_draws), "count")

        out["fisher.ema_bytes_per_step"] = (self.ema_bytes / steps, "B")
        out["fisher.full_blocks"] = (_median(
            [sum(m == "full" for m in modes.values()) for modes in self.block_modes]), "count")
        out["fisher.diagonal_blocks"] = (_median(
            [sum(m == "diagonal" for m in modes.values()) for modes in self.block_modes]), "count")

        rows = self.rows
        out["harness.run_setup_ms"] = (1e3 * _median(self.run_setup_s), "ms")
        out["harness.trace_bytes_per_step"] = (self.row_bytes / steps, "B")
        out["harness.trace_write_us_per_row"] = (
            1e6 * self.total_s[ROW_HOOK] / rows if rows else 0.0, "us")
        gaps = sorted(self.step_gaps_s)
        out["harness.step_us_p50"] = (1e6 * _median(gaps), "us")
        out["harness.step_us_p99"] = (1e6 * _percentile(gaps, 0.99), "us")
        out["harness.step_samples"] = (len(gaps), "count")

        out["problems.grad_us_per_step"] = (1e6 * self.grad_s / steps, "us")
        out["trace.overhead_share"] = (
            traced_time / untraced_time - 1.0 if untraced_time > 0 else 0.0, "ratio")
        return out


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
