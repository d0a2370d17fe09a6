"""Byte gate: does the working tree write what another commit writes?

    python tests/bytegate.py --against REV [--tiny]

Runs every invocation of `bytegate_matrix.txt` through `cli.main` twice: once
with the package of REV (taken out with `git archive` into a temporary
directory) and once with the working tree's `src/`. Each tree runs in its own
process with `PYTHONPATH=<tree>/src`, each invocation in a fresh directory.
The gate compares the sha256 of every file an invocation leaves, its stdout,
its stderr (warnings as `Category: message`, without the file and line they
come from) and its exit code. It also keeps a sha256 per header column of each
`*.csv` file and per key of each `*.summary` file, so that for a trace or
summary both trees wrote it names the columns or keys that differ. An
invocation that runs longer than `LIMIT` seconds is stopped and differs,
whatever the other tree does. The gate prints each invocation that differs,
then one `identical N/M` line, and exits 1 when any differs.

Both trees run on one host, with the same Python, numpy and BLAS, because
those can change the last bits of a trace between hosts whatever the code.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tarfile
import tempfile
import warnings

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
MATRIX = os.path.join(TESTS, "bytegate_matrix.txt")
# seconds one invocation may run; the slowest line of the matrix takes a few
LIMIT = 60
TIMED_OUT = "timed out"


def matrix(tiny=False):
    """The (line number, argv text, config text) of each invocation."""
    out = []
    with open(MATRIX, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if tiny and not line.startswith("tiny "):
                continue
            argv, _, config = line.removeprefix("tiny ").partition(" | ")
            out.append((lineno, argv.strip(), config.replace("\\n", "\n")))
    return out


def archive(rev, dest):
    """The `src/` of `rev`, taken out into `dest`; returns `dest`."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as fh:
        if hasattr(tarfile, "data_filter"):
            fh.extractall(dest, filter="data")
        else:
            fh.extractall(dest)
    return dest


def _start(tree, workdir, tiny):
    """A worker process that runs the matrix on `tree`'s package in `workdir`."""
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    args = [sys.executable, os.path.abspath(__file__), "--worker", tree]
    return subprocess.Popen(args + ["--tiny"] * tiny, cwd=workdir, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _finish(proc, workdir):
    log = proc.communicate()[0]
    if proc.returncode != 0:
        raise RuntimeError(f"the worker in {workdir} exited {proc.returncode}:\n{log}")
    with open(os.path.join(workdir, "results.json"), encoding="utf-8") as fh:
        return json.load(fh)


def compare(old_tree, new_tree, tiny=False):
    """Runs the matrix on both trees, at once; returns the invocations with
    the parts that differ, as (line number, argv, config, [(part, old, new)])."""
    with tempfile.TemporaryDirectory(prefix="bytegate-") as tmp:
        dirs = [os.path.join(tmp, side) for side in ("old", "new")]
        procs = [_start(tree, d, tiny) for tree, d in zip((old_tree, new_tree), dirs)]
        old, new = [_finish(proc, d) for proc, d in zip(procs, dirs)]
    differs = []
    for (lineno, argv, config), a, b in zip(matrix(tiny), old, new):
        parts = _parts(a, b)
        if parts:
            differs.append((lineno, argv, config, parts))
    return differs


def _parts(a, b):
    """The (part, old, new) in which two results of one invocation differ; a
    timed-out invocation differs in its code, as it wrote nothing to compare.
    The `columns` part, when the CSV or summary files differ, is a
    {file: [column or key]} of those that differ in each such file both trees
    wrote."""
    parts = [(key, a[key], b[key]) for key in ("code", "stdout", "stderr", "files")
             if a[key] != b[key] or (key == "code" and a[key] == TIMED_OUT)]
    old, new = a.get("columns", {}), b.get("columns", {})
    moved = {name: [col for col in {**old[name], **new[name]}
                    if old[name].get(col) != new[name].get(col)]
             for name in old.keys() & new.keys() if old[name] != new[name]}
    if moved:
        parts.append(("columns", None, dict(sorted(moved.items()))))
    return parts


class _Overran(BaseException):
    """Raised in an invocation that runs past `LIMIT`; not an `Exception`, so
    the package's own handlers do not catch it."""


def _overrun(signum, frame):
    raise _Overran


def _invoke(cli, argv):
    """(exit code, stdout, stderr) of one in-process `cli.main` call."""
    out, err = io.StringIO(), io.StringIO()
    handler = signal.signal(signal.SIGALRM, _overrun)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # shown as in a fresh process: once per place, here without that place
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, category, *_, **__: sys.stderr.write(
            f"{category.__name__}: {message}\n")
        signal.setitimer(signal.ITIMER_REAL, LIMIT)
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code or 0
        except Exception as exc:  # a traceback: the contract allows none
            code = f"raised {type(exc).__name__}"
            err.write(f"{type(exc).__name__}: {exc}\n")
        except _Overran:
            code = TIMED_OUT
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
    return code, out.getvalue(), err.getvalue()


def _columns(path):
    """{header column: sha256 of its values, one a line} of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        header, *rows = [line.split(",") for line in fh.read().splitlines()] or [[]]
    return {name: hashlib.sha256("\n".join(row[j] if j < len(row) else ""
                                            for row in rows).encode()).hexdigest()
            for j, name in enumerate(header)}


def _keys(path):
    """{key: sha256 of its value} of a `key = value` summary file."""
    with open(path, encoding="utf-8") as fh:
        pairs = [line.partition(" = ") for line in fh.read().splitlines()]
    return {key: hashlib.sha256(value.encode()).hexdigest() for key, _, value in pairs}


def _work(tree, tiny):
    """Runs the matrix in the current directory with `tree`'s package and
    writes `results.json` there."""
    import numpy as np

    import sedfosgd
    from conftest import make_synthetic_digits
    from sedfosgd import cli
    from sedfosgd.problems import write_idx

    if not os.path.abspath(sedfosgd.__file__).startswith(os.path.join(tree, "src") + os.sep):
        raise SystemExit(f"imported sedfosgd from {sedfosgd.__file__}, not from {tree}")
    root = os.getcwd()
    write_idx("digits-images.idx", "digits-labels.idx", *make_synthetic_digits())
    write_idx("empty-images.idx", "empty-labels.idx", np.zeros((0, 28, 28)), np.zeros(0))
    with open("truncated.idx", "wb") as fh:
        fh.write(b"\0\0\x08")
    results = []
    for lineno, argv, config in matrix(tiny):
        case = os.path.join(root, f"line{lineno:04d}")
        os.makedirs(case)
        os.chdir(case)
        with open("c.cfg", "w", encoding="utf-8") as fh:
            fh.write(config + "\n")
        code, stdout, stderr = _invoke(cli, shlex.split(argv))
        # an error may name a path, which is under this worker's own directory
        stdout, stderr = (text.replace(root, "<root>") for text in (stdout, stderr))
        files, columns = {}, {}
        for dirpath, _, names in os.walk("."):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path)] = hashlib.sha256(fh.read()).hexdigest()
                if name.endswith(".csv"):
                    columns[os.path.relpath(path)] = _columns(path)
                elif name.endswith(".summary"):
                    columns[os.path.relpath(path)] = _keys(path)
        results.append({"code": code, "stdout": stdout, "stderr": stderr,
                        "files": dict(sorted(files.items())), "columns": columns})
        os.chdir(root)
        shutil.rmtree(case)
    with open("results.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def _shown(part, value):
    if part == "files":
        return ", ".join(f"{name} {sha[:12]}" for name, sha in value.items()) or "none"
    return repr(value)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bytegate", description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", help="the commit to compare with")
    parser.add_argument("--tiny", action="store_true", help="only the lines marked tiny")
    parser.add_argument("--worker", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        _work(args.worker, args.tiny)
        return 0
    if not args.against:
        parser.error("--against REV is required")
    with tempfile.TemporaryDirectory(prefix="bytegate-tree-") as tmp:
        differs = compare(archive(args.against, tmp), ROOT, args.tiny)
    for lineno, argv_text, config, parts in differs:
        print(f"differs: line {lineno}: {argv_text} | {config!r}")
        for part, old, new in parts:
            if part == "columns":
                print("  columns: " + "; ".join(f"{name} {' '.join(cols)}"
                                                for name, cols in new.items()))
            else:
                print(f"  {part}: {_shown(part, old)} -> {_shown(part, new)}")
    total = len(matrix(args.tiny))
    print(f"identical {total - len(differs)}/{total}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
