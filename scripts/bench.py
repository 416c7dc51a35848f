#!/usr/bin/env python3
"""Measure a change against a base revision with perfbench, in pairs.

Run from the repository root:

    python3 scripts/bench.py pairs --base REV --workload stock-long --pairs 10 \\
        --seed 11 --label my-change

``pairs`` checks REV out with ``git worktree add`` into a temporary
directory, then runs ``python3 perfbench/run.py --trace 0`` for each
workload, alternating the base checkout and the working tree and
flipping which side goes first each pair. Every run lasts the
``run_seconds`` that ``BENCHMARK.json`` sets. It writes
``BENCH_<label>.json`` at the repository root. For each end-to-end
metric that file holds both sides' medians, quartiles and raw values,
the change's median over the base's, the pairs the change won (ties
count for neither side), the metric's bound, and ``unresolved``: the
base's own quartile spread, over its median, exceeds the bound. It also
records whether every ``sha256`` line matched across all runs, the
operations that failed, each side's probe medians and source digests,
and stamps: Python, nproc and both revisions. The worktree is removed
when the script ends.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_PROBE = re.compile(r"^probe median=([0-9.eE+-]+) ms")
_SOURCES = re.compile(r"^stamp .*\bsrc_sha256=(\w+)")


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


def _spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarize(declared: list[dict], base: list[dict], change: list[dict]) -> dict:
    """Per end-to-end metric, both sides' spreads over aligned pairs of
    runs, the change's wins and whether the base's spread exceeds the
    bound."""
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        b = [run["metrics"][name] for run in base]
        c = [run["metrics"][name] for run in change]
        b_spread, c_spread = _spread(b), _spread(c)
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "base": b_spread,
            "change": c_spread,
            "ratio": c_spread["median"] / b_spread["median"],
            "wins": wins,
            "pairs": len(b),
            "unresolved": (b_spread["q3"] - b_spread["q1"]) / b_spread["median"] > metric["bound"],
        }
    return out


def pairs(args: argparse.Namespace) -> Path:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    change = {"rev": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))}
    scratch = Path(tempfile.mkdtemp(prefix="bench-"))
    tree = scratch / "base"
    _git("worktree", "add", "--detach", str(tree), base_rev)
    try:
        workloads = {}
        for workload in args.workload:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    print(f"bench: {workload} pair {i + 1}/{args.pairs} {side}", file=sys.stderr)
                    runs[side].append(run_perfbench(tree if side == "base" else ROOT,
                                                    workload, args.seed, seconds))
            hashes = {tuple(run["hashes"]) for side in runs.values() for run in side}
            workloads[workload] = {
                "hashes_match": len(hashes) == 1,
                "failed": {side: sum(run["failed"] for run in r) for side, r in runs.items()},
                "probe_ms": {side: [run["probe_ms"] for run in r] for side, r in runs.items()},
                "src_sha256": {side: sorted({run["src_sha256"] for run in r})
                               for side, r in runs.items()},
                "metrics": summarize(declared["end_to_end"], runs["base"], runs["change"]),
            }
    finally:
        _git("worktree", "remove", "--force", str(tree))
        shutil.rmtree(scratch, ignore_errors=True)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": "base first in odd-numbered pairs, change first in even-numbered ones",
        "base": {"rev": base_rev},
        "change": change,
        "stamps": {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))},
        "workloads": workloads,
    }, indent=2) + "\n", encoding="utf-8")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    p = commands.add_parser("pairs", help="alternate base and change runs; write BENCH_<label>.json")
    p.add_argument("--base", required=True, help="the revision to compare against")
    p.add_argument("--workload", required=True, action="append",
                   help="a perfbench workload; repeat for more than one")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("--label may hold only letters, digits, '.', '_' and '-'")
    print(pairs(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
