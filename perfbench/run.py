#!/usr/bin/env python3
"""Seeded replay benchmark for tradefolio.

    python3 perfbench/run.py --workload stock-long --seed 1 --seconds 22 --trace 0

Seeds a synthetic store from ``--seed``, drives the workload's sessions,
checks every output, and prints one line per figure followed, as the
last line, by a JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics, measured
untraced; ``--trace 1`` reports the per-layer metrics, taken from spans
around the objects handed to the library and from direct calls to its
public functions. See perfbench/README.md for what each figure means.

Everything is written under ``.perfbench/`` in the checkout; the run's
own directory there is removed when it ends, and a traced run leaves its
spans in ``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _git_commit() -> str:
    """HEAD of the checkout's repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tradefolio" / "__init__.py").is_file():
        print(f"perfbench: no tradefolio sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads as wl

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    load_before = _loadavg()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    run = wl.Run(workload, args.seed, work)
    seconds = args.seconds
    try:
        run.setup()
        if args.trace:
            run.batch()
            layers = run.traced(OUT / f"spans-{workload.name}.jsonl")
            run.resume_for(wl.SHARES["resume"] * seconds / 2)
            run.report()
            run.delta()
            layers.update(run.direct_layers())
        else:
            run.measure(seconds)
        run.check_values()
        digests = run.output_digests()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    s = run.samples
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}")
    print(f"stamp python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={len(os.sched_getaffinity(0))} git={_git_commit()} src_sha256={_source_digest()}")
    print(f"stamp loadavg_before={load_before!r} loadavg_after={_loadavg()!r}")
    for name, digest in digests.items():
        print(f"sha256 {digest} {name}")

    if args.trace:
        if "write_amp" in s:
            layers["snapshots.write_amp"] = statistics.median(s["write_amp"])
        layers["snapshots.upsert_us"] = statistics.median(s["upsert_us"])
        if "resume_read_amp" in s:
            layers["cli.resume_read_amp"] = statistics.fmean(s["resume_read_amp"])
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        values = {name: layers.get(name) for name in units}
        counts = {}
    else:
        # Seeding is bound by file writes, which the probe does not
        # follow, so setup_s is raw; the other times are scaled.
        setup = run.timed("setup_s", scaled=False)
        steps = run.timed("run_steps_per_s")
        resume = run.timed("resume_ms")
        report = run.timed("report_s")
        delta = run.timed("delta_s")
        values = {
            "setup_s": statistics.median(setup),
            # Steps over all timed batches ÷ their time; batches are alike.
            "run_steps_per_s": statistics.harmonic_mean(steps),
            "resume_ms_p50": statistics.median(resume),
            "resume_ms_p90": statistics.quantiles(resume, n=10)[8],
            "report_s": statistics.median(report),
            "delta_s": statistics.median(delta),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
        counts = {"setup_s": len(setup), "run_steps_per_s": len(steps),
                  "resume_ms_p50": len(resume), "resume_ms_p90": len(resume),
                  "report_s": len(report), "delta_s": len(delta), "peak_rss_mb": 1}
        probes = [took for _, took in run.clock.probes]
        print(f"probe median={statistics.median(probes) * 1e3:.4g} ms n={len(probes)}; "
              f"times are scaled to a probe of {wl.PROBE_REF_S * 1e3:g} ms; raw medians: "
              + " ".join(f"{name}={statistics.median(run.timed(name, scaled=False)):.6g}"
                         for name in ("run_steps_per_s", "resume_ms", "report_s", "delta_s")))
        print("seedings " + " ".join(f"{took:.4g}" for took in setup) + " s")

    for name, value in values.items():
        shown = "unmeasured" if value is None else f"{value:.6g} {units[name]}"
        n = f" n={counts[name]}" if name in counts else ""
        print(f"metric {name} = {shown}{n}")
    ledger = run.ledger
    failed = len(ledger.failures)
    for what in ledger.failures:
        print(f"FAILED {what}")
    print(f"metric error_rate = {failed / ledger.attempted:.6g} share "
          f"({failed} failed of {ledger.attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
