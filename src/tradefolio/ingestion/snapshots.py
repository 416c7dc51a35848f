"""File-backed snapshot store: the append-only source of truth.

Each (series kind, key) pair owns one JSONL file: a header line naming
the format version and key, then one row per date in strictly
increasing order. Only this module turns values into rows and back.

A write is one call per series (``record_prices``, ``record_news``;
``record_markets`` for the catalog). Every row of the call is checked
against what is already stored before the series changes: re-recording
identical data is a no-op, and changing an already-recorded value is
refused with ``IngestionError``, never silently applied. A check
decodes only the stored rows a read of its date would. The new rows are
then merged in and the series file is rewritten once, through a temp
file of its own, so a failed write leaves the old file as it was.
Every stored row goes back to the file as the line it was read as,
decoded or not; only the new rows are encoded. Reads create nothing on
disk; a directory is made on its first write.

Reads are served from a date index built when a series is first
loaded, its rows decoded when a read first reaches them, as
``tradefolio.dated`` describes; a bad header fails at load too. A write
that does not reach a bad row carries it over byte for byte. A write
swaps in a whole new index, so a reader never sees half of one.

A store has one writer at a time. Its first write into a directory
removes the temp files that writers killed mid-write left there.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import re
import threading
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from ..dated import DatedRows, index, utf8
from ..domain import PUBLISHED_AT_RANGE, NewsItem, PricePoint
from ..errors import IngestionError

__all__ = [
    "SERIES_FORMAT",
    "SERIES_VERSION",
    "MarketCatalogEntry",
    "SnapshotStore",
]

SERIES_FORMAT = "tradefolio-series"
SERIES_VERSION = 1

_PRICE_SERIES = {"stock": "stock-price", "prediction": "prediction-price"}
_SERIES_DIRS = {"stock-price": "prices/stock", "prediction-price": "prices/prediction",
                "news": "news"}
_SAFE_KEY = re.compile(r"[A-Za-z0-9._-]{1,64}")
_TEMP_NAME = re.compile(r"\..+\.[0-9a-f]{12}\.tmp")  # what ``_atomic_write`` names its temp files
# built once: json.dumps builds a new encoder per call when given options
_dumps = json.JSONEncoder(ensure_ascii=False).encode


@dataclass(frozen=True)
class MarketCatalogEntry:
    """One discovered prediction market."""

    slug: str
    question: str
    yes_token: str
    no_token: str
    url: str


def _filename(key: str) -> str:
    if _SAFE_KEY.fullmatch(key):
        return f"{key}.jsonl"
    slug = re.sub(r"[^A-Za-z0-9]+", "-", key).strip("-").lower()[:48] or "series"
    digest = hashlib.blake2s(key.encode(), digest_size=5).hexdigest()
    return f"{slug}-{digest}.jsonl"


def _header(kind: str, key: str) -> dict[str, Any]:
    """The object a series file's header line holds."""
    return {"format": SERIES_FORMAT, "version": SERIES_VERSION, "series": kind, "key": key}


def _atomic_write(path: Path, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines`` through a temp file no other
    writer shares, created exclusively beside it with the mode a plain
    ``open`` gives. On any failure the temp file is removed and ``path``
    is left as it was. There is no fsync: a write survives a process
    crash, not a power cut. A temp file a killed writer leaves behind is
    swept by the next store to write into its directory."""
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _encode(kind: str, date: dt.date, value: Any) -> str:
    """The stored line for one indexed value."""
    if kind == "news":
        row = {
            "date": date.isoformat(),
            "items": [{k: v for k, v in vars(i).items() if k != "tagged_asset"} for i in value],
        }
    else:
        row = {"date": date.isoformat(), "price": value.price, "volume": value.volume}
    return _dumps(row)


def _decode(kind: str, key: str, date: dt.date, row: dict) -> Any:
    """The indexed value for one stored row of the JSON types ``_encode``
    writes; news items are tagged with the series key, not in the rows."""
    if kind == "news":
        items = tuple(NewsItem(tagged_asset=key, **raw) for raw in row["items"])
        for i in items:
            texts = (i.title, i.snippet, i.source, i.url)
            if type(i.published_at) is not int or not all(type(t) is str for t in texts):
                raise ValueError(f"news item {i.url!r} is not four strings and an integer")
            if i.published_at not in PUBLISHED_AT_RANGE:
                raise ValueError(f"news item {i.url!r} has published_at {i.published_at},"
                                 " out of range")
        return items
    price, volume = row["price"], row["volume"]
    if type(price) not in (int, float) or type(volume) not in (int, float, type(None)):
        raise ValueError(f"price {price!r} or volume {volume!r} is not a number")
    return PricePoint(date, price, volume)


_DATE_PREFIX = '{"date": "'  # how ``_encode``'s rows start


class SnapshotStore:
    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self._series: dict[tuple[str, str], DatedRows] = {}
        self._markets: dict[str, MarketCatalogEntry] | None = None
        self._swept: set[Path] = set()  # directories already cleared of stray temp files
        # Guards building an index and sweeping a directory, so threads
        # sharing the store never do either twice.
        self._lock = threading.Lock()

    # -- series plumbing -------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / _SERIES_DIRS[kind] / _filename(key)

    def _ready_dir(self, directory: Path) -> None:
        """Make a directory for a write; on this store's first write into
        it, first remove the temp files of writers killed mid-write. A
        store has one writer at a time, so none of them is live."""
        directory.mkdir(parents=True, exist_ok=True)
        with self._lock:
            if directory in self._swept:
                return
            for path in directory.iterdir():
                if _TEMP_NAME.fullmatch(path.name):
                    path.unlink(missing_ok=True)
            self._swept.add(directory)

    def _load(self, kind: str, key: str) -> DatedRows:
        series = self._series.get((kind, key))
        if series is None:
            with self._lock:
                series = self._series.get((kind, key))
                if series is None:
                    series = self._series[(kind, key)] = self._index(kind, key)
        return series

    def _index(self, kind: str, key: str) -> DatedRows:
        """Read a series file into an index of dates beside raw rows."""
        path = self._path(kind, key)
        body: list[str] = []
        if path.exists():
            header_line, *body = utf8(path, path.read_bytes(), IngestionError,
                                      "unreadable row", "unreadable header").split("\n")
            try:
                if json.loads(header_line) != _header(kind, key):
                    raise ValueError(f"not the header of series ({kind}, {key!r})")
            except ValueError as exc:
                raise IngestionError(f"{path}:1: unreadable header: {exc}") from exc
        return index(path, body, 2, _DATE_PREFIX, partial(_decode, kind, key),
                     IngestionError, "unreadable row")

    def _write(self, kind: str, key: str, rows: Iterable[tuple[dt.date, Any]]) -> int:
        """Record (date, value) rows for one series; returns how many
        were new.

        Every row is checked against the stored ones and the call's
        earlier ones before anything changes, then the file is rewritten
        once and a new index, every row raw, swapped in.
        """
        series = self._load(kind, key)
        fresh: dict[dt.date, Any] = {}
        for date, value in rows:
            found = series.window(date, date)
            known = found[0] if found else fresh.setdefault(date, value)
            if known != value:
                raise IngestionError(
                    f"({kind}, {key!r}, {date.isoformat()}) already recorded with a different value"
                )
        if not fresh:
            return 0
        body, merged = series.merge(fresh, partial(_encode, kind))
        path = self._path(kind, key)
        self._ready_dir(path.parent)
        _atomic_write(path, [_dumps(_header(kind, key)), *body])
        self._series[(kind, key)] = merged
        return len(fresh)

    # -- prices ------------------------------------------------------------

    def record_prices(self, market: str, key: str, points: Iterable[PricePoint]) -> int:
        """Record one price series' points; returns how many were new."""
        kind = _PRICE_SERIES.get(market)
        if kind is None:
            raise IngestionError(f"unknown market {market!r}")
        return self._write(kind, key, ((p.date, p) for p in points))

    def upsert_price(self, market: str, key: str, date: dt.date,
                     price: float, volume: float | None = None) -> bool:
        try:
            point = PricePoint(date, float(price), None if volume is None else float(volume))
        except ValueError as exc:
            raise IngestionError(str(exc)) from exc
        return self.record_prices(market, key, [point]) > 0

    def price_series(self, market: str, key: str) -> tuple[PricePoint, ...]:
        return tuple(self._load(_PRICE_SERIES[market], key))

    def price_dates(self, market: str, key: str) -> tuple[dt.date, ...]:
        """The dates a price series holds, without decoding a row."""
        return self._load(_PRICE_SERIES[market], key).dates

    def latest_price(self, market: str, key: str, on_or_before: dt.date) -> PricePoint | None:
        return self._load(_PRICE_SERIES[market], key).at_or_before(on_or_before)

    def price_window(self, market: str, key: str,
                     start: dt.date, end: dt.date) -> tuple[PricePoint, ...]:
        return self._load(_PRICE_SERIES[market], key).window(start, end)

    # -- news ----------------------------------------------------------------

    def record_news(self, tag: str,
                    days: Iterable[tuple[dt.date, Sequence[NewsItem]]]) -> int:
        """Record one tag's news days, each item tagged with ``tag``;
        returns how many days were new."""
        return self._write("news", tag, (
            (day, tuple(replace(i, tagged_asset=tag) for i in items)) for day, items in days))

    def upsert_news(self, tag: str, date: dt.date, items: Sequence[NewsItem]) -> bool:
        return self.record_news(tag, [(date, items)]) > 0

    def has_news(self, tag: str, date: dt.date) -> bool:
        dates = self._load("news", tag).dates
        i = bisect_left(dates, date)
        return i < len(dates) and dates[i] == date

    def news_window(self, tag: str, start: dt.date, end: dt.date) -> tuple[NewsItem, ...]:
        return tuple(item for day in self._load("news", tag).window(start, end)
                     for item in day)

    # -- market catalog ---------------------------------------------------

    def _load_markets(self) -> dict[str, MarketCatalogEntry]:
        if self._markets is not None:
            return self._markets
        markets = {}
        path = self.root / "markets.jsonl"
        if path.exists():
            text = utf8(path, path.read_bytes(), IngestionError, "unreadable market entry")
            for n, line in enumerate(text.split("\n"), start=1):
                if not line.strip():
                    continue
                try:
                    entry = MarketCatalogEntry(**json.loads(line))
                    if not all(type(v) is str for v in vars(entry).values()):
                        raise TypeError("a field is not a string")
                except (TypeError, ValueError) as exc:
                    raise IngestionError(f"{path}:{n}: unreadable market entry") from exc
                markets[entry.slug] = entry
        self._markets = markets
        return markets

    def record_markets(self, entries: Iterable[MarketCatalogEntry]) -> int:
        """Catalog markets, checked and written like a series; returns
        how many were new."""
        markets = self._load_markets()
        fresh: dict[str, MarketCatalogEntry] = {}
        for entry in entries:
            known = markets.get(entry.slug)
            if known is None:
                known = fresh.setdefault(entry.slug, entry)
            if known != entry:
                raise IngestionError(f"market {entry.slug!r} already catalogued differently")
        if not fresh:
            return 0
        merged = {**markets, **fresh}
        self._ready_dir(self.root)
        _atomic_write(
            self.root / "markets.jsonl",
            [_dumps(vars(merged[slug])) for slug in sorted(merged)],
        )
        self._markets = merged
        return len(fresh)

    def markets(self) -> tuple[MarketCatalogEntry, ...]:
        markets = self._load_markets()
        return tuple(markets[slug] for slug in sorted(markets))

