#!/usr/bin/env python3
"""Measure a change against a base revision, in alternating pairs.

Run from the repository root:

    python3 scripts/bench.py pairs --base REV --workload stock-long --pairs 10 \\
        --seed 11 --label my-change
    python3 scripts/bench.py cold --base REV --pairs 12 --label my-change-cold

Both subcommands check REV out with ``git worktree add`` into a
temporary directory, run each pair on the base checkout and on the
working tree, flipping which side goes first each pair, and write
``BENCH_<label>.json`` at the repository root. That file records the
label, the pair count and order, both revisions, whether the working
tree was dirty, and stamps: Python and nproc. Per metric it holds both
sides' medians, quartiles and raw values, the change's median over the
base's, and the pairs the change won (ties count for neither side). The
worktree is removed when the script ends.

``pairs`` runs ``python3 perfbench/run.py --trace 0`` for each workload;
every run lasts the ``run_seconds`` that ``BENCHMARK.json`` sets. Per
end-to-end metric it adds the metric's bound and ``unresolved``: the
base's own quartile spread, over its median, exceeds the bound. It also
records whether every ``sha256`` line matched across all runs, the
operations that failed, and each side's probe medians and source digests.

``cold`` times what a daily run from cron pays: each side replays
``fixtures/stock-replay.yaml`` once into its own ``out_dir``, and each
timing cuts the last record from every log and runs
``python -m tradefolio.cli run`` in a fresh process over that side's
``src`` (see ``time_daily_run``). Every resumed log must equal its
uninterrupted bytes, and both sides must write the same logs; otherwise
it exits 1 and writes no file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, TypeVar

ROOT = Path(__file__).resolve().parent.parent
STOCK_CONFIG = ROOT / "fixtures" / "stock-replay.yaml"
_PROBE = re.compile(r"^probe median=([0-9.eE+-]+) ms")
_SOURCES = re.compile(r"^stamp .*\bsrc_sha256=(\w+)")

T = TypeVar("T")


def _git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``: its metrics, output
    hashes, failed operations, probe median and source digest."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"bench: perfbench in {tree} printed no result (exit {proc.returncode})"
                         f"\n{proc.stdout}{proc.stderr}") from None
    probe = next((float(m.group(1)) for m in map(_PROBE.match, lines) if m), None)
    sources = next((m.group(1) for m in map(_SOURCES.match, lines) if m), None)
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "hashes": sorted(line for line in lines if line.startswith("sha256 ")),
        "failed": result["failed"],
        "probe_ms": probe,
        "src_sha256": sources,
    }


def time_daily_run(src: Path, config: Path, logs: dict[Path, bytes]) -> float:
    """Seconds of one ``python -m tradefolio.cli run --config CONFIG`` in a
    fresh process over the package in ``src``, after the last record of
    each log in ``logs`` is cut: interpreter start, imports, store load
    and one step, as a daily run from cron pays. Exits 1 if the run fails
    or a resumed log differs from its bytes in ``logs``."""
    for path, data in logs.items():
        path.write_bytes(b"".join(data.splitlines(keepends=True)[:-1]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "tradefolio.cli", "run", "--config", str(config)],
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=config.parent,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"bench: run over {src} failed\n{done.stdout}{done.stderr}")
    if any(path.read_bytes() != data for path, data in logs.items()):
        raise SystemExit(f"bench: over {src}, a resumed log differs from the uninterrupted one")
    return elapsed


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _compare(base: list[float], change: list[float], higher: bool) -> dict:
    """Both sides' spreads over aligned pairs, the change's median over
    the base's, and the pairs the change won."""
    b, c = _spread(base), _spread(change)
    return {"base": b, "change": c, "ratio": c["median"] / b["median"],
            "wins": sum((y > x) if higher else (y < x) for x, y in zip(base, change)),
            "pairs": len(base)}


def summarize(declared: list[dict], base: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric, ``_compare`` of the two sides' runs and
    whether the base's spread exceeds the bound."""
    out = {}
    for metric in declared:
        name = metric["name"]
        compared = _compare([run["metrics"][name] for run in base],
                            [run["metrics"][name] for run in change], metric["better"] == "higher")
        b = compared["base"]
        out[name] = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
                     **compared,
                     "unresolved": (b["q3"] - b["q1"]) / b["median"] > metric["bound"]}
    return out


def _alternate(pairs: int, what: str, run: Callable[[str], T]) -> dict[str, list[T]]:
    """``run(side)`` once per side in each pair, the side that goes first
    flipping every pair."""
    runs: dict[str, list[T]] = {"base": [], "change": []}
    for i in range(pairs):
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            print(f"bench: {what} pair {i + 1}/{pairs} {side}", file=sys.stderr)
            runs[side].append(run(side))
    return runs


def _claim(args: argparse.Namespace, measure: Callable[[Path], dict]) -> Path:
    """``measure(scratch)`` with ``args.base`` checked out at
    ``scratch / "base"``, written to ``BENCH_<label>.json`` beside the
    revisions and stamps."""
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change = {"rev": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))}
    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    _git("worktree", "add", "--detach", str(scratch / "base"), base_rev)
    try:
        measured = measure(scratch)
    finally:
        _git("worktree", "remove", "--force", str(scratch / "base"))
        shutil.rmtree(scratch, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "pairs": args.pairs,
        "order": "base first in odd-numbered pairs, change first in even-numbered ones",
        "base": {"rev": base_rev},
        "change": change,
        "stamps": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        **measured,
    }, indent=2) + "\n", encoding="utf-8")
    return out


def pairs(args: argparse.Namespace) -> Path:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]

    def workload(tree: Path, name: str) -> dict:
        runs = _alternate(args.pairs, name, lambda side: run_perfbench(
            tree if side == "base" else ROOT, name, args.seed, seconds))
        hashes = {tuple(run["hashes"]) for side in runs.values() for run in side}
        return {
            "hashes_match": len(hashes) == 1,
            "failed": {side: sum(run["failed"] for run in r) for side, r in runs.items()},
            "probe_ms": {side: [run["probe_ms"] for run in r] for side, r in runs.items()},
            "src_sha256": {side: sorted({run["src_sha256"] for run in r})
                           for side, r in runs.items()},
            "metrics": summarize(declared["end_to_end"], runs["base"], runs["change"]),
        }

    return _claim(args, lambda scratch: {
        "seed": args.seed,
        "seconds": seconds,
        "workloads": {name: workload(scratch / "base", name) for name in args.workload},
    })


def cold(args: argparse.Namespace) -> Path:
    def measure(scratch: Path) -> dict:
        text = re.sub(r"(?m)^store: (.*)", lambda m: f"store: {STOCK_CONFIG.parent / m[1]}",
                      STOCK_CONFIG.read_text(encoding="utf-8"))
        sides = {}
        for side, src in (("base", scratch / "base" / "src"), ("change", ROOT / "src")):
            config = scratch / f"{side}.yaml"
            config.write_text(re.sub(r"(?m)^out_dir: .*", f"out_dir: {scratch / side}", text),
                              encoding="utf-8")
            time_daily_run(src, config, {})
            sides[side] = src, config, {p: p.read_bytes()
                                        for p in sorted((scratch / side).glob("*.jsonl"))}
        base_logs, change_logs = ({p.name: data for p, data in logs.items()}
                                  for _, _, logs in sides.values())
        if base_logs != change_logs:
            raise SystemExit("bench: the base and the working tree write different logs")
        seconds = _alternate(args.pairs, "cold resume", lambda side: time_daily_run(*sides[side]))
        return {"logs_match": True, "metrics": {"cold_resume_s": {
            "unit": "s", "better": "lower",
            **_compare(seconds["base"], seconds["change"], higher=False)}}}

    return _claim(args, measure)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--base", required=True, help="the revision to compare against")
    common.add_argument("--pairs", type=int, required=True)
    common.add_argument("--label", required=True)
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("pairs", parents=[common],
                            help="alternate base and change perfbench runs")
    p.add_argument("--workload", required=True, action="append",
                   help="a perfbench workload; repeat for more than one")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(measure=pairs)
    commands.add_parser("cold", parents=[common], help="alternate base and change daily resumes"
                        ).set_defaults(measure=cold)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' and '-'")
    print(args.measure(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
