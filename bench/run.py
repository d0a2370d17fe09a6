"""Benchmark of the sedfosgd package, run from the root of a source checkout.

    python3 bench/run.py                      # every workload, tracing off
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in one process with BLAS pinned to one thread, as a closed
loop of back-to-back runs for `--seconds` seconds. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs the same loop untraced, then again under
the call tracer, and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it repeat the metrics by name and unit and record
the run environment. Failed runs are listed on standard error.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("ar_heavy", "mlp_digits", "quad_ratefit")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# run_all's limit per workload: set-up plus a generous multiple of --seconds
# (a traced run times its loop twice, the second time under the tracer)
SETUP_ALLOWANCE_S = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the timed loop (at least one seed group runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken configs for the smoke test; skips quality tolerances")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sedfosgd", "__init__.py")):
        print(f"error: no sedfosgd package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, SRC)
    import numpy as np
    import sedfosgd
    import workloads
    import tracer
    if not os.path.abspath(sedfosgd.__file__).startswith(SRC + os.sep):
        print(f"error: imported sedfosgd from {sedfosgd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        with workloads.CLOCK:
            result = measure(args, workdir, import_s, workloads, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another benchmark process still uses it
    print("env " + json.dumps(environment(np)))
    print(json.dumps(result))
    return 0


def measure(args, workdir, import_s, workloads, tracer):
    cls = workloads.WORKLOADS[args.workload]
    clock = workloads.CLOCK
    import_ref = import_s / clock.kernel_s
    setup_times = []   # raw wall seconds of each set-up
    setup_refs = []    # the same in reference-kernel times
    ledger = None
    for rep in range(1 if args.tiny else SETUP_REPEATS):
        start = clock.stamp()
        wl = cls(os.path.join(workdir, f"setup{rep}"), args.seed, args.tiny)
        wl.prepare()
        if ledger is None:
            ledger = workloads.Ledger(wl)
        ledger.workload = wl
        ledger.record(wl.spec(0), first=True)  # warm-up run of the first config
        seconds, units = clock.since(start)
        setup_times.append(seconds)
        setup_refs.append(units)

    print(f"workload {wl.name} seed={args.seed} trace={args.trace}")
    if args.trace:
        untraced, n_runs = workloads.closed_loop(ledger, args.seconds / 2)
        with tracer.Tracer() as tr:
            traced, _ = workloads.closed_loop(ledger, 0, count=n_runs)
        ledger.check_quality(untraced)
        ledger.check_quality(traced)
        print(f"traced {len(tr.wrapped)} names: {' '.join(tr.wrapped)}")
        print(f"skipped: {' '.join(tr.skipped) or 'none'}")
        metrics = tr.metrics(sum(o.ref_units for _, o in traced),
                             sum(o.ref_units for _, o in untraced))
    else:
        outcomes, _ = workloads.closed_loop(ledger, args.seconds)
        metrics = end_to_end(import_ref, setup_refs, outcomes, clock.NOMINAL_S)
        seconds = [o.seconds for _, o in outcomes]
        quality, per_run = ledger.check_quality(outcomes)
        print("  printed only (not in the JSON line):")
        report_line("steps_per_s", median([o.steps / o.seconds for _, o in outcomes]), "1/s",
                    "higher; raw wall time")
        report_line("run_s_p50", median(seconds), "s", f"lower; raw wall time, n={len(seconds)}")
        report_line("ref_s_p50", median([o.seconds / o.ref_units for _, o in outcomes]), "s",
                    "mean reference-kernel time in a run")
        report_line("setup_wall_s", import_s + median(setup_times), "s",
                    "lower; raw wall time, set-ups "
                    + " ".join(f"{t:.4g}" for t in setup_times))
        report_line(wl.quality_name, quality, wl.quality_unit,
                    f"{wl.quality_better}; median of {len(per_run)} "
                    f"{workloads.QUALITY_OPTIMIZER} runs, range "
                    f"{min(per_run, default=0):.4g} to {max(per_run, default=0):.4g}")
        print("  metrics:")

    for name, (value, unit) in metrics.items():
        report_line(name, value, unit)
    report_line("fail_share", ledger.failed / ledger.attempted, "ratio",
                f"{ledger.failed} of {ledger.attempted} runs")
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def end_to_end(import_ref, setup_refs, outcomes, nominal_s):
    """Times are in reference-kernel times (see workloads.RefClock); set-up
    is converted to seconds on a host where the kernel takes `nominal_s`."""
    return {
        "setup_s": ((import_ref + median(setup_refs)) * nominal_s, "s"),
        "steps_per_ref": (median([o.steps / o.ref_units for _, o in outcomes]), "1/ref"),
        "run_ref_p50": (median([o.ref_units for _, o in outcomes]), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def report_line(name, value, unit, note=""):
    print(f"  {name:<32} {value:>16.6g} {unit:<6} {note}".rstrip())


def environment(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas_version = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": nproc, "commit": git_commit()}


def git_commit():
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on the host
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_all(args):
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    timeout = SETUP_ALLOWANCE_S + 4 * args.seconds
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {timeout:.0f} s", file=sys.stderr)
            return 1
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
