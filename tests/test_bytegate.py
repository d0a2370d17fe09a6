"""The byte gate's tiny matrix, run twice on the package of HEAD, writes the
same bytes each time: the matrix is deterministic and the gate compares what
it should. Outside a git checkout there is no HEAD to take out."""

import os
import signal
import subprocess

import pytest

import bytegate


def _checkout():
    """Whether the repository is the top of a git checkout with a HEAD commit."""
    try:
        top = subprocess.run(["git", "-C", bytegate.ROOT, "rev-parse", "--show-toplevel",
                              "--verify", "HEAD"], capture_output=True, check=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return os.path.realpath(top.stdout.splitlines()[0]) == os.path.realpath(bytegate.ROOT)


@pytest.mark.skipif(not _checkout(), reason="not a git checkout with a HEAD commit")
def test_head_against_head_is_identical(tmp_path):
    tree = bytegate.archive("HEAD", str(tmp_path / "head"))
    assert os.path.isfile(os.path.join(tree, "src", "sedfosgd", "cli.py"))
    cases = bytegate.matrix(tiny=True)
    assert 10 <= len(cases) < len(bytegate.matrix())
    assert bytegate.compare(tree, tree, tiny=True) == []


def test_an_invocation_past_the_limit_is_stopped_and_differs(monkeypatch):
    class Spin:  # a `cli` whose main never returns
        @staticmethod
        def main(argv):
            while True:
                pass

    monkeypatch.setattr(bytegate, "LIMIT", 0.2)
    code, out, err = bytegate._invoke(Spin, [])
    assert (code, out, err) == (bytegate.TIMED_OUT, "", "")
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # both trees timing out still differs: neither wrote anything to compare
    result = {"code": code, "stdout": out, "stderr": err, "files": {}}
    assert bytegate._parts(result, dict(result)) == [("code", code, code)]
    assert bytegate._parts(dict(result, code=0), dict(result, code=0)) == []


def test_differing_csv_files_name_their_columns(tmp_path):
    texts = {"old": "t,loss,batch_accuracy\n1.0,2.0,0.5\n2.0,1.5,0.25\n",
             "new": "t,loss,batch_accuracy\n1.0,2.0,0.5\n2.0,1.5,0.125\n",
             "header": "t,loss,batch_accuracy\n", "empty": ""}
    columns = {}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        columns[name] = bytegate._columns(str(tmp_path / name))
    assert list(columns["old"]) == ["t", "loss", "batch_accuracy"] and columns["empty"] == {}
    assert len(set(columns["header"].values())) == 1
    # a summary's keys are named as a trace's columns are
    summaries = {"old": "iterations = 2.0\nfinal_batch_accuracy = 0.25\n",
                 "new": "iterations = 2.0\nfinal_batch_accuracy = 0.125\n"}
    keys = {}
    for name, text in summaries.items():
        (tmp_path / f"{name}.summary").write_text(text)
        keys[name] = bytegate._keys(str(tmp_path / f"{name}.summary"))
    assert list(keys["old"]) == ["iterations", "final_batch_accuracy"]
    old = {"code": 0, "stdout": "", "stderr": "", "files": {"t.csv": "a", "t.csv.summary": "b"},
           "columns": {"t.csv": columns["old"], "t.csv.summary": keys["old"]}}
    new = dict(old, files={"t.csv": "c", "t.csv.summary": "d"},
               columns={"t.csv": columns["new"], "t.csv.summary": keys["new"]})
    assert bytegate._parts(old, new) == [
        ("files", old["files"], new["files"]),
        ("columns", None, {"t.csv": ["batch_accuracy"],
                           "t.csv.summary": ["final_batch_accuracy"]})]
    assert bytegate._parts(old, dict(old)) == []
