#!/usr/bin/env python3
"""Time a daily run's cold one-step resume against another source tree.

Run from the repository root, with BASE_SRC the ``src`` directory of the
revision to compare against (say, unpacked with ``git archive``):

    python3 scripts/cold_resume.py BASE_SRC --pairs 12

Each side replays ``fixtures/stock-replay.yaml`` once into its own
temporary ``out_dir``. Each timing then cuts the last record from each
of the three baseline logs and times ``python -m tradefolio.cli run`` as
a fresh subprocess, which is what a run from cron pays: interpreter
start, imports, store load and one step. Sides alternate and the first
side flips every pair. Every resumed log must equal its uninterrupted
bytes, and both sides' uninterrupted logs must be equal. It prints each
side's median, quartiles and raw seconds, and the per-pair ratio.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _run(src: Path, config: Path) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "tradefolio.cli", "run", "--config", str(config)],
                          env={**os.environ, "PYTHONPATH": str(src)}, cwd=config.parent,
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"{src}: run failed\n{done.stdout}{done.stderr}")
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("--pairs", type=int, default=12)
    args = parser.parse_args()
    trees = {"base": args.base_src.resolve(), "change": ROOT / "src"}
    times: dict[str, list[float]] = {side: [] for side in trees}
    with tempfile.TemporaryDirectory(prefix="cold-resume-") as tmp:
        sides = {}
        for side, src in trees.items():
            out = Path(tmp) / side
            config = Path(tmp) / f"{side}.yaml"
            text = (FIXTURES / "stock-replay.yaml").read_text(encoding="utf-8")
            text = text.replace("store: stock-50d", f"store: {FIXTURES / 'stock-50d'}")
            config.write_text(text.replace("out_dir: ../runs/stock-demo", f"out_dir: {out}"),
                              encoding="utf-8")
            _run(src, config)
            sides[side] = config, {p: p.read_bytes() for p in sorted(out.glob("*.jsonl"))}
        if [*sides["base"][1].values()] != [*sides["change"][1].values()]:
            sys.exit("the two trees write different logs")
        for pair in range(args.pairs):
            for side in (trees if pair % 2 == 0 else reversed(trees)):
                config, logs = sides[side]
                for path, data in logs.items():
                    path.write_bytes(b"".join(data.splitlines(keepends=True)[:-1]))
                times[side].append(_run(trees[side], config))
                if any(path.read_bytes() != data for path, data in logs.items()):
                    sys.exit(f"{side}: a resumed log differs from the uninterrupted one")
    for side, values in times.items():
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"{side}: median {statistics.median(values):.3f} s [Q1 {q1:.3f}, Q3 {q3:.3f}] "
              f"raw {' '.join(f'{v:.3f}' for v in values)}")
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    print(f"change/base: median {statistics.median(ratios):.2f}, "
          f"change faster in {sum(r < 1 for r in ratios)} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
