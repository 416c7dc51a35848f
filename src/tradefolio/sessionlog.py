"""Session logs: append-only JSONL, one file per (market, model) run.

Line 1 is a header naming the format version, market, model, universe,
and starting capital; every following line is one executed step, a
``SessionRecord`` in wire order, which only this module encodes and
decodes. Nothing in a log depends on wall-clock time, so identical runs
produce identical bytes and a resumed run extends the file without
rewriting a single earlier byte.

Reading a log parses its header, then indexes its records by date and
decodes each when a read first reaches it, as ``tradefolio.dated``
describes. A record is a bad record unless the writer could have
appended it: the record's fields, of the types their annotations name,
``attempts`` at least 1 and ``news_count`` non-negative, exactly one of
``allocation`` and ``parse_error`` null, ``prompt_sha256`` null or 64
lowercase hex digits, ``stale`` a sorted list of distinct header
assets, price, holding and non-null ``allocation`` maps that name
exactly those assets, each price finite and positive, each holding
and weight finite and non-negative, weights summing to 1 within
``ALLOCATION_SUM_TOL``, and a finite, positive value. A resume reads
only the memory window and, when the window opens on a fallback step,
the records back to the last one that validated or held, so a bad
record further back is caught by ``report`` and ``delta``, which read
every record, and not by ``run``.

An append killed mid-line leaves a final line without its newline.
``drop_torn_tail`` cuts that line off so the resumed run recomputes it;
any other damage stays a ``CorruptLog``.

A log has one writer at a time. ``lock_log`` opens it under an
exclusive ``flock`` that lasts as long as its handle, and a session
cuts, reads and extends its log through that one handle.
"""

from __future__ import annotations

import datetime as dt
import fcntl
import json
import math
import os
import re
import weakref
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from typing import Any, BinaryIO, Iterable

from .dated import DatedRows, index, utf8
from .domain import (ALLOCATION_SUM_TOL, AllocationVector, Holdings, MarketKind, MarketSpec,
                     PriceVector)
from .environment import ResumePoint, SessionRecord, SessionState, memory_entry
from .errors import ConfigError, CorruptLog

__all__ = [
    "LOG_FORMAT",
    "LOG_VERSION",
    "SessionLogHeader",
    "SessionLogWriter",
    "check_header",
    "lock_log",
    "read_session_log",
    "drop_torn_tail",
    "effective_allocations",
    "position_histories",
    "resume_point",
]

LOG_FORMAT = "tradefolio-session-log"
LOG_VERSION = 1


# built once: json.dumps builds a new encoder per call when given options
_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _encode_record(record: SessionRecord) -> str:
    """A record's line, its fields in declaration order: the wire order."""
    return _dumps({**vars(record), "date": record.date.isoformat()})


_DATE_PREFIX = '{"date":"'  # how ``_encode_record`` starts every line


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
        capital = row["initial_capital"]
        for key, value in (("model", model), ("cash", cash)):
            if not isinstance(value, str):
                raise ValueError(f"{key} {value!r} is not a string")
        if not isinstance(assets, list) or not all(isinstance(a, str) for a in assets):
            raise ValueError(f"assets {assets!r} is not a list of strings")
        if cash not in assets:
            raise ValueError(f"cash {cash!r} is not one of the assets")
        if type(capital) not in (int, float) or not 0 < capital < math.inf:
            raise ValueError(f"initial_capital {capital!r} is not finite and positive")
        return cls(MarketKind(row["market"]), model, float(capital), tuple(assets), cash)


def check_header(path: Path, logged: SessionLogHeader, header: SessionLogHeader) -> None:
    """Refuse to extend a log whose header is not this run's, naming
    each field that differs."""
    if logged != header:
        old, new = logged.to_json_dict(), header.to_json_dict()
        raise ConfigError(f"{path} belongs to a different run: " + "; ".join(
            f"{key} {old[key]!r} in the log, {new[key]!r} in the config"
            for key in new if old[key] != new[key]))


def lock_log(path: Path, create: bool = False) -> BinaryIO | None:
    """The log at ``path`` opened to read and extend, under an exclusive
    ``flock`` that lasts until the handle closes, the process's death
    included; with ``create``, a log made by this call. None when there
    is no log and ``create`` is false. A ``ConfigError`` names the log
    when another run holds it, made it first or removed it meanwhile."""
    if create:
        path.parent.mkdir(parents=True, exist_ok=True)
    in_use = ConfigError(f"{path} is in use by another run")
    try:
        fh = open(path, "xb+" if create else "rb+")
    except FileNotFoundError:
        if create:
            raise
        return None
    except FileExistsError:
        raise in_use from None
    try:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        if os.fstat(fh.fileno()).st_nlink:  # no run removed it before this lock
            return fh
    except BlockingIOError:
        pass
    fh.close()
    raise in_use


class SessionLogWriter:
    """Appends records through one handle; never rewrites prior lines.

    Each record is written and flushed, never fsynced, so a crash tears
    at most the final line. The handle is ``fh`` when given, as
    ``lock_log`` opened it, or else the log at ``path`` opened (and made)
    here; ``close`` closes it, as dropping the writer does.
    """

    def __init__(self, path: str | Path, header: SessionLogHeader,
                 fh: BinaryIO | None = None) -> None:
        self.path = Path(path)
        self.header = header
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = open(self.path, "ab+")
        self._fh = fh
        self.close = weakref.finalize(self, fh.close)
        try:
            fh.seek(0)
            first = fh.readline()
            if first:
                check_header(self.path, _parse_header(self.path, first), header)
                fh.seek(0, os.SEEK_END)
            else:
                fh.write(_dumps(header.to_json_dict()).encode() + b"\n")
                fh.flush()
        except BaseException:
            self.close()
            raise

    def append(self, record: SessionRecord) -> None:
        self._fh.write((_encode_record(record) + "\n").encode())
        self._fh.flush()


def _parse_header(path: Path, line: str | bytes) -> SessionLogHeader:
    try:
        row = json.loads(line)
        if not isinstance(row, dict):
            raise TypeError(f"expected a JSON object, got {type(row).__name__}")
        return SessionLogHeader.from_json_dict(row)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CorruptLog(f"{path}:1: bad header: {exc}") from exc


def read_session_log(path: str | Path, fh: BinaryIO | None = None
                     ) -> tuple[SessionLogHeader, DatedRows[SessionRecord]]:
    """The header, parsed, and the records, indexed by date but not
    decoded (see ``tradefolio.dated``); read through ``fh`` when given,
    as ``lock_log`` opened the log at ``path``."""
    path = Path(path)
    if fh is None:
        with open(path, "rb") as own:
            data = own.read()
    else:
        fh.seek(0)
        data = fh.read()
    header_line, *lines = utf8(path, data, CorruptLog, "bad record", "bad header").split("\n")
    if not header_line and not lines:
        raise CorruptLog(f"{path}: empty file")
    header = _parse_header(path, header_line)
    return header, index(path, lines, 2, _DATE_PREFIX,
                         partial(_decode_record, frozenset(header.assets)), CorruptLog,
                         "bad record")


_FIELDS = frozenset(f.name for f in fields(SessionRecord))
# the JSON types each scalar field's annotation admits
_ADMITS = {"int": (int,), "float": (int, float), "str": (str,), "str | None": (str, type(None))}
_SCALARS = {f.name: f.type for f in fields(SessionRecord) if f.type in _ADMITS}
_NUMBERS = {int, float}  # a map value's types; bool, a subclass of int, is left out
_SHA256 = re.compile("[0-9a-f]{64}")  # what hexdigest() writes


def _decode_record(assets: frozenset[str], date: dt.date, row: dict) -> SessionRecord:
    """The record a row holds, or ``ValueError`` if the writer could not have appended it."""
    if row.keys() != _FIELDS:
        raise ValueError(f"fields {sorted(row.keys() ^ _FIELDS)} are missing or unknown")
    for name, kind in _SCALARS.items():
        if type(row[name]) not in _ADMITS[kind]:
            raise ValueError(f"{name} {row[name]!r} is not of type {kind}")
    if row["attempts"] < 1:
        raise ValueError(f"attempts {row['attempts']} is less than 1")
    if row["news_count"] < 0:
        raise ValueError(f"news_count {row['news_count']} is negative")
    if (row["allocation"] is None) == (row["parse_error"] is None):
        both = "null" if row["allocation"] is None else "set"
        raise ValueError(f"allocation and parse_error are both {both}")
    digest = row["prompt_sha256"]
    if digest is not None and not _SHA256.fullmatch(digest):
        raise ValueError(f"prompt_sha256 {digest!r} is not 64 lowercase hex digits")
    stale = row["stale"]
    if type(stale) is not list or not all(type(a) is str and a in assets for a in stale):
        raise ValueError(f"stale {stale!r} is not a list of the header's assets")
    if stale and stale != sorted(set(stale)):
        raise ValueError(f"stale {stale!r} is not sorted without repeats")
    for name in ("prices", "holdings_before", "holdings_after", "prices_after", "allocation"):
        values, positive = row[name], name.startswith("prices")
        if values is None and name == "allocation":
            continue
        keys = values.keys() if type(values) is dict else set()
        if keys != assets:
            raise ValueError(f"{name} does not name the header's assets: missing "
                             f"{sorted(assets - keys)}, unknown {sorted(keys - assets)}")
        # one pass over the value types refuses what is no JSON number,
        # true and false too, then one min and one sum: a NaN or an
        # infinity makes the sum not finite
        ok = _NUMBERS.issuperset(map(type, values.values()))
        if ok:
            low, total = min(values.values()), sum(values.values())
            ok = (low > 0 or low == 0 and not positive) and math.isfinite(total)
        if not ok:
            bad = sorted(a for a, v in values.items() if type(v) not in _NUMBERS
                         or not (0 < v < math.inf or v == 0 and not positive))
            bound = "positive" if positive else "non-negative"
            raise ValueError(f"{name} is not finite and {bound} for {bad}")
        if name == "allocation" and abs(total - 1.0) > ALLOCATION_SUM_TOL:
            raise ValueError(f"allocation sums to {total!r}, not 1 within {ALLOCATION_SUM_TOL}")
    if not 0 < row["value"] < math.inf:
        raise ValueError(f"value {row['value']} is not finite and positive")
    return SessionRecord(**{**row, "date": date, "stale": tuple(stale)})


def drop_torn_tail(path: Path, fh: BinaryIO) -> int | None:
    """Cut an interrupted append off the log at ``path``, through its
    handle ``fh``: a final line that lacks its newline. Returns that
    line's number, or None when the log ends on a complete line. A log
    that was nothing but a torn header, or empty, is removed, so the
    session starts it afresh; line 1 is returned just then."""
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


def effective_allocations(header: SessionLogHeader,
                          records: Iterable[SessionRecord]) -> list[AllocationVector]:
    """The allocation actually executed each step.

    Steps whose response never validated fell back to the previous
    validated allocation, all cash before any existed; that walk is
    deterministic, so it can be replayed from the records alone.
    """
    last = AllocationVector({a: float(a == header.cash) for a in header.assets})
    out: list[AllocationVector] = []
    for r in records:
        if r.allocation is not None:
            last = AllocationVector({a: r.allocation.get(a, 0.0) for a in header.assets})
        out.append(last)
    return out


def position_histories(
    header: SessionLogHeader, records: list[SessionRecord]
) -> tuple[list[Holdings], list[PriceVector]]:
    """Aligned holdings and price vectors for ``rolling_k_delta``.

    Element i holds the book and prices at the i-th session date: the
    starting all-cash book at the first decision date's prices, then
    each executed step at its execution prices. ``delta`` builds the
    same rows as arrays straight from the records (see
    ``reporting.build_delta_table``); acceptance check 5 and perfbench's
    ``metrics.rolling_k_delta_ms`` still build these objects.
    """
    if not records:
        raise CorruptLog("log has no records")
    initial = {a: (header.initial_capital if a == header.cash else 0.0) for a in header.assets}
    holdings = [Holdings(initial)] + [Holdings(r.holdings_after) for r in records]
    prices = [PriceVector(records[0].date, records[0].prices)] + [
        PriceVector(r.date + dt.timedelta(days=1), r.prices_after) for r in records]
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
    ``check_header`` refuses a log of another universe, and ``run_episode``
    a horizon below 1, before any step is taken.
    """
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
