"""Session logs: append-only JSONL, one file per (market, model) run.

Line 1 is a header naming the format version, market, model, universe,
and starting capital; every following line is one executed step in
wire order. Nothing in a log depends on wall-clock time, so identical
runs produce identical bytes and a resumed run extends the file
without rewriting a single earlier byte.

Reading a log parses its header, then indexes its records by date and
decodes each when a read first reaches it, as ``tradefolio.dated``
describes. A record is a bad record when its price and holding maps
do not name exactly the header's assets, a price is not finite and
positive, a holding is not finite and non-negative, or its value is not
finite and positive. A resume reads only the memory window and, when
the window opens on a fallback step, the records back to the last one
that validated or held, so a bad record further back is caught by
``report`` and ``delta``, which read every record, and not by ``run``.

An append killed mid-line leaves a final line without its newline.
``drop_torn_tail`` cuts that line off so the resumed run recomputes it;
any other damage stays a ``CorruptLog``.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Iterable

from .dated import DatedRows, index
from .domain import AllocationVector, Holdings, MarketKind, MarketSpec, PriceVector
from .environment import ResumePoint, SessionRecord, SessionState, memory_entry
from .errors import ConfigError, CorruptLog

__all__ = [
    "LOG_FORMAT",
    "LOG_VERSION",
    "SessionLogHeader",
    "SessionLogWriter",
    "check_header",
    "read_session_log",
    "drop_torn_tail",
    "value_series",
    "cash_ratio_series",
    "effective_allocations",
    "position_histories",
    "resume_point",
]

LOG_FORMAT = "tradefolio-session-log"
LOG_VERSION = 1


def _dumps(obj: Any) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


@dataclass(frozen=True)
class SessionLogHeader:
    market: MarketKind
    model: str
    initial_capital: float
    assets: tuple[str, ...]
    cash: str

    @classmethod
    def for_run(cls, spec: MarketSpec, model: str, initial_capital: float) -> "SessionLogHeader":
        return cls(spec.kind, model, float(initial_capital), spec.assets, spec.cash)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "format": LOG_FORMAT,
            "version": LOG_VERSION,
            "market": self.market.value,
            "model": self.model,
            "initial_capital": self.initial_capital,
            "assets": list(self.assets),
            "cash": self.cash,
        }

    @classmethod
    def from_json_dict(cls, row: dict[str, Any]) -> "SessionLogHeader":
        if row.get("format") != LOG_FORMAT:
            raise ValueError(f"not a session log (format {row.get('format')!r})")
        if row.get("version") != LOG_VERSION:
            raise ValueError(f"unsupported log version {row.get('version')!r}")
        model, assets, cash = row["model"], row["assets"], row["cash"]
        capital = float(row["initial_capital"])
        for key, value in (("model", model), ("cash", cash)):
            if not isinstance(value, str):
                raise ValueError(f"{key} {value!r} is not a string")
        if not isinstance(assets, list) or not all(isinstance(a, str) for a in assets):
            raise ValueError(f"assets {assets!r} is not a list of strings")
        if cash not in assets:
            raise ValueError(f"cash {cash!r} is not one of the assets")
        if not 0 < capital < math.inf:
            raise ValueError(f"initial_capital {capital} is not finite and positive")
        return cls(MarketKind(row["market"]), model, capital, tuple(assets), cash)


def check_header(path: Path, logged: SessionLogHeader, header: SessionLogHeader) -> None:
    """Refuse to extend a log whose header is not this run's, naming
    each field that differs."""
    if logged != header:
        old, new = logged.to_json_dict(), header.to_json_dict()
        raise ConfigError(f"{path} belongs to a different run: " + "; ".join(
            f"{key} {old[key]!r} in the log, {new[key]!r} in the config"
            for key in new if old[key] != new[key]))


class SessionLogWriter:
    """Appends records as they happen; never rewrites prior lines."""

    def __init__(self, path: str | Path, header: SessionLogHeader) -> None:
        self.path = Path(path)
        self.header = header
        if self.path.exists() and self.path.stat().st_size > 0:
            check_header(self.path, _read_header(self.path), header)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(_dumps(header.to_json_dict()) + "\n")

    def append(self, record: SessionRecord) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(_dumps(record.to_json_dict()) + "\n")


def _parse_header(path: Path, line: str) -> SessionLogHeader:
    try:
        row = json.loads(line)
        if not isinstance(row, dict):
            raise TypeError(f"expected a JSON object, got {type(row).__name__}")
        return SessionLogHeader.from_json_dict(row)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptLog(f"{path}:1: bad header: {exc}") from exc


def _read_header(path: Path) -> SessionLogHeader:
    """The header alone: the first non-blank line, nothing after it."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                return _parse_header(path, line)
    raise CorruptLog(f"{path}: empty file")


_DATE_PREFIX = '{"date":"'  # how ``_dumps`` starts every record


def read_session_log(path: str | Path) -> tuple[SessionLogHeader, DatedRows[SessionRecord]]:
    """The header, parsed, and the records, indexed by date but not
    decoded (see ``tradefolio.dated``)."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    first = next((n for n, line in enumerate(lines) if line.strip()), None)
    if first is None:
        raise CorruptLog(f"{path}: empty file")
    header = _parse_header(path, lines[first])
    return header, index(path, lines[first + 1:], first + 2, _DATE_PREFIX,
                         partial(_decode_record, frozenset(header.assets)), CorruptLog,
                         "bad record")


def _decode_record(assets: frozenset[str], date: dt.date, row: dict) -> SessionRecord:
    record = SessionRecord.from_json_dict(row)
    for name in ("prices", "holdings_before", "holdings_after", "prices_after"):
        values = getattr(record, name)
        keys = values.keys()
        if keys != assets:
            raise ValueError(f"{name} does not name the header's assets: missing "
                             f"{sorted(assets - keys)}, unknown {sorted(keys - assets)}")
        # one min and one sum per map: a NaN or an infinity makes the sum not finite
        positive = name.startswith("prices")
        low = min(values.values())
        if not (low > 0 or low == 0 and not positive) or not math.isfinite(sum(values.values())):
            bad = sorted(a for a, v in values.items()
                         if not (0 < v < math.inf or v == 0 and not positive))
            bound = "positive" if positive else "non-negative"
            raise ValueError(f"{name} is not finite and {bound} for {bad}")
    if not 0 < record.value < math.inf:
        raise ValueError(f"value {record.value} is not finite and positive")
    return record


def drop_torn_tail(path: Path) -> int | None:
    """Cut an interrupted append off a log: a final line that lacks its
    newline. Returns that line's number, or None when the log ends on a
    complete line. A log that was nothing but a torn header, or empty,
    is removed, so the next run starts it afresh."""
    with open(path, "rb+") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size:
            fh.seek(size - 1)
            if fh.read(1) == b"\n":
                return None
        fh.seek(0)
        data = fh.read()
        keep = data.rfind(b"\n") + 1
        fh.truncate(keep)
    if keep == 0:
        path.unlink()
    return data.count(b"\n") + 1


def value_series(header: SessionLogHeader, records: Iterable[SessionRecord]) -> list[float]:
    """Portfolio values including the starting capital."""
    return [header.initial_capital] + [r.value for r in records]


def cash_ratio_series(header: SessionLogHeader,
                      records: Iterable[SessionRecord]) -> list[float]:
    """Fraction of value parked in cash after each step (cash price is 1)."""
    out = [1.0]
    for r in records:
        out.append(r.holdings_after[header.cash] / r.value)
    return out


def effective_allocations(header: SessionLogHeader,
                          records: Iterable[SessionRecord]) -> list[AllocationVector]:
    """The allocation actually executed each step.

    Steps whose response never validated fell back to the previous
    validated allocation, all cash before any existed; that walk is
    deterministic, so it can be replayed from the records alone.
    """
    spec_like_assets = header.assets
    fallback = AllocationVector(
        {a: (1.0 if a == header.cash else 0.0) for a in spec_like_assets}
    )
    out: list[AllocationVector] = []
    last = fallback
    for r in records:
        if r.allocation is not None:
            last = AllocationVector({a: r.allocation.get(a, 0.0) for a in spec_like_assets})
        out.append(last)
    return out


def position_histories(
    header: SessionLogHeader, records: list[SessionRecord]
) -> tuple[list[Holdings], list[PriceVector]]:
    """Aligned holdings and price vectors for lag analysis.

    Element i holds the book and prices at the i-th session date: the
    starting all-cash book at the first decision date's prices, then
    each executed step at its execution prices.
    """
    if not records:
        raise CorruptLog("log has no records")
    initial = Holdings(
        {a: (header.initial_capital if a == header.cash else 0.0) for a in header.assets}
    )
    holdings = [initial] + [Holdings(r.holdings_after) for r in records]
    prices = [PriceVector(records[0].date, records[0].prices)]
    for r in records:
        exec_date = r.date + dt.timedelta(days=1)
        prices.append(PriceVector(exec_date, r.prices_after))
    return holdings, prices


def resume_point(
    header: SessionLogHeader,
    records: DatedRows[SessionRecord],
    spec: MarketSpec,
    memory_horizon: int,
) -> ResumePoint:
    """Rebuild mid-session state exactly as the interrupted run left it.

    Only the last ``memory_horizon`` records are read, plus, when the
    window opens on a step whose response never validated, the records
    back to the last one that validated or held: its allocation is what
    that step re-applied. A log's records thus decode only its tail.
    """
    if memory_horizon < 1:
        raise ValueError(f"memory_horizon must be at least 1, got {memory_horizon}")
    if tuple(header.assets) != spec.assets or header.cash != spec.cash:
        raise ConfigError("log universe does not match the configured market")
    state = SessionState(spec, header.initial_capital, records)
    first = max(len(records) - memory_horizon, 0)
    window = list(records[first:])
    seed: list[SessionRecord] = []
    if window and window[0].allocation is None:
        seed = next(([records[i]] for i in range(first - 1, -1, -1)
                     if records[i].allocation is not None), [])
    allocations = effective_allocations(header, seed + window)[len(seed):]
    return ResumePoint(state, tuple(memory_entry(r, allocation, header.initial_capital)
                                    for r, allocation in zip(window, allocations)))
