#!/usr/bin/env python3
"""A catalog of one-site mutants, each a rule the tests must guard.

Run from the repository root:

    python3 scripts/mutants.py

Each entry is ``(name, file, old, new, promise)``: ``old`` is a piece of
``file`` that occurs there exactly once, ``new`` what the mutant puts
in its place, and ``promise`` the rule the mutant breaks. Tier-1 first
runs on an unmutated copy of the tree; unless it passes there, nothing
else runs and the exit status is 1. Then, for each mutant, the tree is
copied into a temporary directory, the edit is applied and tier-1 runs
there with ``-x``. The mutant is killed when tests fail (pytest exit
status 1) or the run passes ten minutes, and survives when tier-1
passes; any other pytest status is an error. One line is printed per
mutant, and the exit status is 1 if any survived, could not be applied
or ended in an error.

Only the standard library is used. ``tests/test_mutants.py`` checks in
tier-1 that every ``old`` still occurs exactly once; a change that moves
a guarded line updates its entry too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ANCHOR_TEST = "tests/test_mutants.py::test_each_mutant_site_occurs_once_in_its_file"
# left out of each copy: version control, caches and run outputs
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                              "runs", ".perfbench", "*.egg-info")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    promise: str


SRC = "src/tradefolio/"

CATALOG = [
    Mutant("torn-tail-kept", SRC + "sessionlog.py",
           'if fh.read(1) == b"\\n":', "if True:",
           "a resume cuts the final line an interrupted append left without its newline"),
    Mutant("news-cutoff-a-day-late", SRC + "ingestion/feeds.py",
           "cutoff = utc_midnight(target)",
           "cutoff = utc_midnight(target + dt.timedelta(days=1))",
           "no news published at or after the decision date's UTC midnight is shown"),
    Mutant("fallback-to-all-cash", SRC + "environment.py",
           "            elif memory:", "            elif False:",
           "a step that never validates re-applies the previous executed allocation"),
    Mutant("header-check-off", SRC + "sessionlog.py",
           "    if logged != header:", "    if False:",
           "a run refuses to extend a log whose header is another run's"),
    Mutant("config-bound-off", SRC + "config.py",
           "return value if least is None else _at_least(value, least, key)", "return value",
           "a config key below its least value is refused, naming the key"),
    Mutant("date-prefix-check-off", SRC + "cli.py",
           "if records.dates != tuple(dates[:done]):", "if False:",
           "a run refuses to extend a log recorded over other dates"),
    Mutant("one-retry-fewer", SRC + "environment.py",
           "if attempts <= max_retries:", "if attempts < max_retries:",
           "an unusable response is retried max_retries times"),
    Mutant("memory-one-entry-longer", SRC + "environment.py",
           "memory = (*memory, entry)[-memory_horizon:]",
           "memory = (*memory, entry)[-memory_horizon - 1:]",
           "an agent is shown its last memory_horizon decisions"),
    Mutant("log-lock-off", SRC + "sessionlog.py",
           "fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)", "pass",
           "a log has one writer at a time"),
    Mutant("zero-attempts-decoded", SRC + "sessionlog.py",
           'if row["attempts"] < 1:', 'if row["attempts"] < 0:',
           "a record with attempts below 1 is a bad record"),
    Mutant("history-includes-decision-date", SRC + "environment.py",
           "date - dt.timedelta(days=self.lookback_days),\n"
           "                                      date - day)",
           "date - dt.timedelta(days=self.lookback_days),\n"
           "                                      date)",
           "price history ends the day before the decision date"),
    Mutant("stale-never-flagged", SRC + "environment.py",
           "if point.date < date:", "if False:",
           "an asset whose latest close predates the date is flagged stale"),
    Mutant("two-bars-for-short-windows", SRC + "ingestion/feeds.py",
           "least_bars = 2 if lookback_days >= 4 else 1", "least_bars = 2",
           "a lookback window under five days needs one bar, not two"),
    Mutant("market-memo-unlocked", SRC + "environment.py",
           "            with self._lock:", "            if True:",
           "sessions in threads read each date of a shared market memo once"),
    Mutant("store-write-not-atomic", SRC + "ingestion/snapshots.py",
           'with open(tmp, "x", encoding="utf-8") as fh:\n'
           "            for line in lines:\n"
           '                fh.write(line + "\\n")\n'
           "        os.replace(tmp, path)",
           'with open(path, "w", encoding="utf-8") as fh:\n'
           "            for line in lines:\n"
           '                fh.write(line + "\\n")',
           "a failed store write leaves the file as it was"),
    Mutant("wider-renormalise-band", SRC + "accounting.py",
           "RENORMALIZE_BAND = 0.02", "RENORMALIZE_BAND = 0.05",
           "weights summing outside 1 +- 0.02 are refused, not renormalised"),
    Mutant("step-return-against-capital", SRC + "environment.py",
           "step_return=(value - state.value) / state.value,",
           "step_return=(value - state.value) / state.initial_capital,",
           "a step's return is measured against the previous step's value"),
    Mutant("resume-without-look-back", SRC + "sessionlog.py",
           "if window and window[0].allocation is None:", "if False:",
           "a resumed window that opens on a failed step re-applies the last validated"
           " allocation, so the resumed log equals the uninterrupted one"),
    Mutant("few-failed-starts", SRC + "agents/parsing.py",
           "_MAX_FAILED_STARTS = 1000", "_MAX_FAILED_STARTS = 10",
           "an answer behind hundreds of failing object starts is still found"),
    Mutant("answer-memo-ignores-text", SRC + "environment.py",
           "if validated is None or validated[0] != raw:", "if validated is None:",
           "a session reuses a validated allocation only for an equal response text"),
    Mutant("retry-re-renders", SRC + "agents/harness.py",
           "if last is not None and last[0] is spec and last[1] is obs and last[2] == memory:",
           "if False:",
           "a retry sends the prompt already rendered for its step"),
]


def apply(tree: Path, mutant: Mutant) -> None:
    """Make the mutant's edit under ``tree``; ``ValueError`` unless
    ``old`` occurs exactly once and the result compiles."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.file}: the mutant's old text occurs {count} times, not once")
    text = text.replace(mutant.old, mutant.new)
    try:
        compile(text, str(path), "exec")
    except SyntaxError as exc:
        raise ValueError(f"{mutant.file}: the mutant does not compile: {exc}") from None
    path.write_text(text, encoding="utf-8")


def tier1(mutant: Mutant | None) -> tuple[int | None, float]:
    """Tier-1 in a copy of the tree, with ``mutant`` applied unless it is
    None: pytest's exit status (None on a timeout) and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        if mutant is not None:
            apply(tree, mutant)
        pythonpath = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
                 "-p", "no:cacheprovider", "--deselect", ANCHOR_TEST],
                cwd=tree, env={**os.environ, "PYTHONPATH": pythonpath},
                capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - start
        return proc.returncode, time.perf_counter() - start


OUTCOMES = {0: "survived", 1: "killed", None: "timed out"}


def main() -> int:
    code, seconds = tier1(None)
    if code != 0:
        print(f"tier-1 does not pass on an unmutated copy (pytest status {code}, "
              f"{seconds:.1f} s); no mutant was run", flush=True)
        return 1
    print(f"unmutated copy passes tier-1 in {seconds:.1f} s", flush=True)
    failed = 0
    for mutant in CATALOG:
        try:
            code, seconds = tier1(mutant)
            outcome = OUTCOMES.get(code, f"error (pytest status {code})")
        except ValueError as exc:
            outcome, seconds = f"not applied ({exc})", 0.0
        print(f"{outcome:<10} {mutant.name:<32} {seconds:6.1f} s", flush=True)
        if outcome not in ("killed", "timed out"):
            failed += 1
            print(f"  unguarded: {mutant.promise}", flush=True)
    print(f"{len(CATALOG) - failed} of {len(CATALOG)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
