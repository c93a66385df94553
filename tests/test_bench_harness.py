"""Tests for the benchmark harness's history file (benchmarks/_harness.py).

``emit_json`` appends one entry per run to ``BENCH_SUMMARY.json``'s
``history``; each new entry carries when (``utc``), where (``host``)
and at which revision (``rev``) it ran, and whether its tree held
changes outside the bench outputs (``dirty``), and the earlier history
is kept as it was.  The harness paths are pointed at a temporary
directory, so the checkout's own summary is never touched; the dirty
check runs in a throwaway repository.
"""

import datetime
import importlib.util
import json
import pathlib
import platform
import subprocess

import pytest

from repro.backends import numpy_or_none

_HARNESS = (pathlib.Path(__file__).resolve().parent.parent
            / "benchmarks" / "_harness.py")


@pytest.fixture()
def harness(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("_harness", _HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    monkeypatch.setattr(module, "SUMMARY_PATH",
                        tmp_path / "BENCH_SUMMARY.json")
    return module


def _history(harness):
    return json.loads(harness.SUMMARY_PATH.read_text())["history"]


def test_emit_json_appends_stamped_entries_and_keeps_history(harness):
    earlier = {"bench": "old", "params": {"quick": True}, "speedup": 1.5}
    harness.SUMMARY_PATH.write_text(json.dumps({"history": [earlier]}))
    harness.emit_json("alpha", {"params": {"quick": True},
                                "speedup": 2.0})
    harness.emit_json("beta", {"params": {"quick": False,
                                          "clients": 3}})
    history = _history(harness)
    assert history[0] == earlier
    assert [e["bench"] for e in history[1:]] == ["alpha", "beta"]
    assert history[2]["clients"] == 3
    numpy = numpy_or_none()
    for entry in history[1:]:
        stamp = datetime.datetime.fromisoformat(entry["utc"])
        assert stamp.utcoffset() == datetime.timedelta(0)
        assert stamp.microsecond == 0
        assert entry["rev"] == harness.git_revision(_HARNESS.parent)
        assert entry["dirty"] == harness.git_dirty(_HARNESS.parent)
        host = entry["host"]
        assert sorted(host) == ["nproc", "numpy", "python"]
        assert host["nproc"] >= 1
        assert host["python"] == platform.python_version()
        assert host["numpy"] == (
            numpy.__version__ if numpy is not None else None)


def test_no_numpy_reads_none(harness, monkeypatch):
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    harness.emit_json("gamma", {"params": None})
    (entry,) = _history(harness)
    assert entry["host"]["numpy"] is None


def test_revision_is_none_outside_a_checkout(harness, tmp_path):
    assert harness.git_revision(tmp_path) is None


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench",
                    "-c", "user.email=bench@example.invalid",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


@pytest.fixture()
def checkout(tmp_path):
    """A throwaway repository with one commit of a module and the
    two bench outputs."""
    repo = tmp_path / "checkout"
    results = repo / "benchmarks" / "results"
    results.mkdir(parents=True)
    (results / "alpha.json").write_text("{}\n")
    (repo / "BENCH_SUMMARY.json").write_text("{}\n")
    (repo / "module.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "seed")
    return repo


def test_dirty_ignores_only_the_bench_outputs(harness, checkout):
    assert harness.git_dirty(checkout) is False
    results = checkout / "benchmarks" / "results"
    (results / "alpha.json").write_text('{"speedup": 2.0}\n')
    (results / "beta.json").write_text("{}\n")
    (checkout / "BENCH_SUMMARY.json").write_text('{"history": []}\n')
    assert harness.git_dirty(checkout) is False
    assert harness.git_dirty(results) is False  # from a subdirectory
    (checkout / "module.py").write_text("x = 2\n")
    assert harness.git_dirty(results) is True
    _git(checkout, "checkout", "--", "module.py")
    assert harness.git_dirty(checkout) is False
    (checkout / "benchmarks" / "bench_new.py").write_text("")
    assert harness.git_dirty(checkout) is True


def test_dirty_is_none_outside_a_checkout(harness, tmp_path):
    assert harness.git_dirty(tmp_path) is None


def test_quick_runs_write_under_results_quick(harness):
    """A ``--quick`` smoke never overwrites a full run's snapshot, and
    the summary folds the full run only; history keeps both runs."""
    harness.emit("alpha", [{"run": "full"}], "ALPHA")
    harness.emit_json("alpha", {"params": {"quick": False},
                                "speedup": 2.0})
    harness.emit("alpha", [{"run": "smoke"}], "ALPHA", quick=True)
    harness.emit_json("alpha", {"params": {"quick": True},
                                "speedup": 9.0})
    full, quick = harness.RESULTS_DIR, harness.RESULTS_DIR / "quick"
    assert json.loads((full / "alpha.json").read_text())["speedup"] == 2.0
    assert json.loads((quick / "alpha.json").read_text())["speedup"] == 9.0
    assert "full" in (full / "alpha.txt").read_text()
    assert "smoke" in (quick / "alpha.txt").read_text()
    summary = json.loads(harness.SUMMARY_PATH.read_text())
    assert summary["speedups"] == {"alpha": 2.0}
    assert summary["benches"]["alpha"]["speedup"] == 2.0
    assert [e["quick"] for e in summary["history"]] == [False, True]


def test_quick_results_are_gitignored():
    root = _HARNESS.parent.parent
    try:
        done = subprocess.run(
            ["git", "check-ignore", "-q",
             "benchmarks/results/quick/alpha.json"],
            cwd=root, capture_output=True, check=False)
    except OSError:
        pytest.skip("git unavailable")
    if done.returncode == 128:
        pytest.skip("not a git checkout")
    assert done.returncode == 0
