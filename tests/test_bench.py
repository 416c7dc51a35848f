"""``scripts/bench.py`` in throwaway git repositories: ``pairs`` against a
stub perfbench, and ``cold`` against copies of this checkout's sources and
stock fixture."""

import importlib.util
import json
import shutil
import subprocess
import sys

import pytest
from conftest import REPO

STUB = '''\
import json, os, pathlib
tree = pathlib.Path(__file__).resolve().parent.parent
side = (tree / "side.txt").read_text().strip()
log = pathlib.Path(os.environ["BENCH_STUB_LOG"])
k = log.read_text().split().count(side) if log.exists() else 0
with open(log, "a") as fh:
    fh.write(side + "\\n")
speed = float((tree / "speed.txt").read_text())
print(f"stamp python=3 nproc=1 git=x src_sha256={side}")
print("sha256 " + "0" * 64 + " stock-x.jsonl")
print("probe median=8.5 ms n=3; times are scaled")
metrics = {"run_steps_per_s": speed + k, "setup_s": 1.0 + k % 2, "resume_ms_p50": 5.0}
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {n: {"value": v, "unit": "u"} for n, v in metrics.items()}}))
'''

DECLARED = {
    "run_seconds": 22,
    "end_to_end": [
        {"name": "run_steps_per_s", "unit": "steps/s", "better": "higher", "bound": 0.24},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "resume_ms_p50", "unit": "ms", "better": "lower", "bound": 0.24},
    ],
}


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout


def test_pairs_alternate_sides_and_write_the_claim(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "scripts").mkdir()
    shutil.copy(REPO / "scripts" / "bench.py", repo / "scripts" / "bench.py")
    (repo / "perfbench" / "run.py").write_text(STUB)
    (repo / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    (repo / "side.txt").write_text("base\n")
    (repo / "speed.txt").write_text("100\n")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "side.txt").write_text("change\n")
    (repo / "speed.txt").write_text("110\n")
    monkeypatch.setenv("BENCH_STUB_LOG", str(tmp_path / "order.log"))
    monkeypatch.setenv("TMPDIR", str(tmp_path))

    subprocess.run([sys.executable, "scripts/bench.py", "pairs", "--base", "HEAD",
                    "--workload", "stock-long", "--pairs", "4", "--seed", "3", "--label", "t"],
                   cwd=repo, check=True, capture_output=True, text=True)

    assert (tmp_path / "order.log").read_text().split() == [
        "base", "change", "change", "base", "base", "change", "change", "base"]
    claim = json.loads((repo / "BENCH_t.json").read_text())
    assert (claim["label"], claim["seed"], claim["seconds"], claim["pairs"]) == ("t", 3, 22, 4)
    assert claim["base"] == {"rev": _git(repo, "rev-parse", "HEAD").strip()}
    assert claim["change"]["dirty"] is True
    assert set(claim["stamps"]) == {"python", "nproc"}
    stock = claim["workloads"]["stock-long"]
    assert stock["hashes_match"] is True
    assert stock["failed"] == {"base": 0, "change": 0}
    assert stock["src_sha256"] == {"base": ["base"], "change": ["change"]}
    assert stock["probe_ms"] == {"base": [8.5] * 4, "change": [8.5] * 4}

    steps = stock["metrics"]["run_steps_per_s"]
    assert steps["base"] == {"median": 101.5, "q1": 100.75, "q3": 102.25,
                             "values": [100.0, 101.0, 102.0, 103.0]}
    assert steps["change"]["median"] == 111.5
    assert steps["ratio"] == 111.5 / 101.5
    assert (steps["wins"], steps["pairs"], steps["bound"]) == (4, 4, 0.24)
    assert steps["unresolved"] is False
    setup = stock["metrics"]["setup_s"]
    assert (setup["wins"], setup["unresolved"]) == (0, True)  # ties win nothing
    resume = stock["metrics"]["resume_ms_p50"]
    assert (resume["wins"], resume["ratio"], resume["unresolved"]) == (0, 1.0, False)

    # the base checkout is gone again
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["order.log", "repo"]


def _cold_repo(tmp_path, monkeypatch):
    """A git repository holding this checkout's ``bench.py``, sources and
    stock fixture, committed, with temporary files kept under ``tmp_path``."""
    repo = tmp_path / "repo"
    shutil.copytree(REPO / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(REPO / "fixtures" / "stock-50d", repo / "fixtures" / "stock-50d")
    shutil.copy(REPO / "fixtures" / "stock-replay.yaml", repo / "fixtures")
    (repo / "scripts").mkdir()
    shutil.copy(REPO / "scripts" / "bench.py", repo / "scripts" / "bench.py")
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    return repo


def _cold(repo):
    return subprocess.run([sys.executable, "scripts/bench.py", "cold", "--base", "HEAD",
                           "--pairs", "2", "--label", "t"],
                          cwd=repo, capture_output=True, text=True, timeout=120)


def test_cold_resume_alternates_two_trees_and_checks_every_resumed_log(tmp_path, monkeypatch):
    repo = _cold_repo(tmp_path, monkeypatch)
    done = _cold(repo)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stderr.splitlines() == [f"bench: cold resume pair {pair}/2 {side}" for pair, side in
                                        [(1, "base"), (1, "change"), (2, "change"), (2, "base")]]
    claim = json.loads((repo / "BENCH_t.json").read_text())
    head = _git(repo, "rev-parse", "HEAD").strip()
    assert claim["base"] == {"rev": head}
    assert claim["change"] == {"rev": head, "dirty": False}
    assert (claim["label"], claim["pairs"], claim["logs_match"]) == ("t", 2, True)
    assert set(claim["stamps"]) == {"python", "nproc"}
    resume = claim["metrics"]["cold_resume_s"]
    for side in ("base", "change"):
        spread = resume[side]
        assert len(spread["values"]) == 2 and all(v > 0 for v in spread["values"])
        assert spread["q1"] <= spread["median"] <= spread["q3"]
    assert resume["ratio"] == resume["change"]["median"] / resume["base"]["median"]
    assert resume["pairs"] == 2 and 0 <= resume["wins"] <= 2
    # the base checkout and every log are gone again
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["repo"]


def test_cold_refuses_trees_that_write_different_logs(tmp_path, monkeypatch):
    repo = _cold_repo(tmp_path, monkeypatch)
    baselines = repo / "src" / "tradefolio" / "agents" / "baselines.py"
    text = baselines.read_text(encoding="utf-8")
    changed = text.replace('"equal weight across all assets"', '"one over n"')
    assert changed != text
    baselines.write_text(changed, encoding="utf-8")
    done = _cold(repo)
    assert done.returncode == 1
    assert "the base and the working tree write different logs" in done.stderr
    assert not (repo / "BENCH_t.json").exists()
    assert _git(repo, "worktree", "list", "--porcelain").count("worktree ") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["repo"]


def test_a_timed_resume_must_rewrite_each_log_to_its_uninterrupted_bytes(tmp_path):
    spec = importlib.util.spec_from_file_location("bench", REPO / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    config = tmp_path / "stock.yaml"
    text = (REPO / "fixtures" / "stock-replay.yaml").read_text(encoding="utf-8")
    text = text.replace("store: stock-50d", f"store: {REPO / 'fixtures' / 'stock-50d'}")
    config.write_text(text.replace("out_dir: ../runs/stock-demo", f"out_dir: {tmp_path / 'runs'}"),
                      encoding="utf-8")
    bench.time_daily_run(REPO / "src", config, {})
    logs = {p: p.read_bytes() for p in sorted((tmp_path / "runs").glob("*.jsonl"))}
    assert len(logs) == 3
    assert bench.time_daily_run(REPO / "src", config, logs) > 0

    tampered = next(iter(logs))
    logs[tampered] = logs[tampered][:-1] + b" \n"  # a last record the run never wrote
    with pytest.raises(SystemExit, match="a resumed log differs from the uninterrupted one"):
        bench.time_daily_run(REPO / "src", config, logs)
