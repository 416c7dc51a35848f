"""Dated JSONL: files of one JSON object per date, indexed by date when
read and decoded row by row when a read first reaches them.

Snapshot series and session logs are both such files, and both are read
here. Indexing takes only each row's date. Writers put the date first,
so it is the ten characters after the caller's date prefix; a row that
does not start with the prefix has its date read by ``json.loads``.
Blank lines are skipped, and dates must strictly increase. A row stays
raw text until a read first reaches it. That read decodes every raw row
from it up to the lowest row already decoded, in one ``json.loads``
call, or line by line when that fails, so the error names the line. A
reader whose first read is its lowest, as a session's is, thus decodes
a file once: all of it in a batch, only the tail in a daily resume.
Each line must hold one JSON object whose ``date`` is the indexed one.
An unreadable date or dates out of order fail the index; any other
fault in a row fails every read that reaches it, since a failed decode
leaves the rows raw. Errors name the file and line, in the caller's
error class and noun.

``index`` returns a ``DatedRows``, read through ``dates``, the sequence
protocol, ``at_or_before`` and ``window`` and rewritten through
``merge``. No other module touches its low-water mark, below which rows
are raw.
"""

from __future__ import annotations

import datetime as dt
import json
import threading
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

__all__ = ["DatedRows", "index"]

T = TypeVar("T")


class DatedRows(Sequence[T]):
    """The rows of one dated file, ``dates`` never changing.

    ``_rows[i]`` is row ``i``'s raw line below ``_lo`` and its decoded
    value from ``_lo`` on. ``_lo`` only falls, under ``_lock`` and once
    the rows it passes are decoded, so a read of a row at or above
    ``_lo`` needs no lock. Adding dated values gives a new sequence and
    leaves this one as it was, as a tuple would.
    """

    __slots__ = ("dates", "_path", "_rows", "_lo", "_lock", "_start", "_lines", "_decode",
                 "_error", "_noun")

    def __init__(self, path: Path, dates: tuple[dt.date, ...], rows: list[Any],
                 start: int, lines: Sequence[int], lo: int,
                 decode: Callable[[dt.date, dict], T], error: type[Exception],
                 noun: str) -> None:
        self.dates = dates
        self._path = path
        self._rows = rows
        self._lo = lo
        self._lock = threading.Lock()
        self._start = start  # the file's line where rows begin
        self._lines = lines  # each raw row's line number in the file
        self._decode = decode
        self._error = error
        self._noun = noun

    def _fail(self, i: int, exc: Exception) -> Exception:
        return self._error(f"{self._path}:{self._lines[i]}: {self._noun}: {exc}")

    def _decode_from(self, i: int) -> None:
        """Decode the raw rows from ``i`` up to ``_lo``, if any."""
        with self._lock:
            lo = self._lo
            if i >= lo:
                return
            raw = self._rows[i:lo]
            try:
                rows = json.loads("[" + ",".join(raw) + "]")
                if len(rows) != len(raw):  # a bad line held a comma-separated pair
                    raise ValueError
            except ValueError:
                rows = []
                for n, line in enumerate(raw, start=i):
                    try:
                        rows.append(json.loads(line))
                    except ValueError as exc:
                        raise self._fail(n, exc) from exc
            decoded = []
            for n, row in enumerate(rows, start=i):
                date = self.dates[n]
                try:
                    if dt.date.fromisoformat(row["date"]) != date:
                        raise ValueError(f"date {row['date']} is not the indexed {date}")
                    decoded.append(self._decode(date, row))
                except (KeyError, TypeError, ValueError) as exc:
                    raise self._fail(n, exc) from exc
            self._rows[i:lo] = decoded
            self._lo = i

    def at_or_before(self, date: dt.date) -> T | None:
        """The value of the last row dated on or before ``date``."""
        i = bisect_right(self.dates, date) - 1
        if 0 <= i < self._lo:
            self._decode_from(i)
        return self._rows[i] if i >= 0 else None

    def window(self, start: dt.date, end: dt.date) -> list[T]:
        """The values of the rows dated ``start`` through ``end``."""
        i, j = bisect_left(self.dates, start), bisect_right(self.dates, end)
        if i < j and i < self._lo:
            self._decode_from(i)
        return self._rows[i:j]

    def merge(self, fresh: Mapping[dt.date, T],
              encode: Callable[[dt.date, T], str]) -> tuple[list[str], DatedRows[T]]:
        """The file's row lines with ``fresh``, of dates it lacks, merged
        in date order, and a sequence over them with every row raw. Rows
        no read has decoded keep their lines; the rest are encoded again."""
        with self._lock:  # a reader may be decoding rows below ``_lo``
            lo, rows = self._lo, self._rows[:]
        merged = sorted([*zip(self.dates, rows[:lo]),
                         *((d, encode(d, v)) for d, v in zip(self.dates[lo:], rows[lo:])),
                         *((d, encode(d, v)) for d, v in fresh.items())])
        lines = [line for _, line in merged]
        return lines, DatedRows(self._path, tuple(d for d, _ in merged), lines, self._start,
                                range(self._start, self._start + len(lines)), len(lines),
                                self._decode, self._error, self._noun)

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, i: int | slice) -> Any:
        picked = range(len(self.dates))[i]
        if isinstance(picked, int):
            if picked < self._lo:
                self._decode_from(picked)
            return self._rows[picked]
        if picked:
            self._decode_from(min(picked[0], picked[-1]))
        return self._rows[i]

    def __iter__(self) -> Iterator[T]:
        self._decode_from(0)
        return iter(self._rows)

    def __add__(self, more: Sequence[T]) -> DatedRows[T]:
        with self._lock:
            rows, lo = self._rows + list(more), self._lo
        return DatedRows(self._path, self.dates + tuple(v.date for v in more), rows,
                         self._start, self._lines, lo, self._decode, self._error, self._noun)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (DatedRows, tuple, list)):
            return NotImplemented
        return list(self) == list(other)


def index(path: Path, lines: Iterable[str], start: int, prefix: str,
          decode: Callable[[dt.date, dict], T], error: type[Exception],
          noun: str) -> DatedRows[T]:
    """Index ``lines``, the first of them line ``start`` of ``path``;
    ``decode`` turns a row and its date into its value."""
    date_text = slice(len(prefix), len(prefix) + 10)
    dates: list[dt.date] = []
    rows: list[str] = []
    numbers: list[int] = []
    for n, line in enumerate(lines, start=start):
        try:
            if line.startswith(prefix):
                date = dt.date.fromisoformat(line[date_text])
            elif line.strip():
                date = dt.date.fromisoformat(json.loads(line)["date"])
            else:
                continue
        except (KeyError, TypeError, ValueError) as exc:
            raise error(f"{path}:{n}: {noun}: {exc}") from exc
        if dates and date <= dates[-1]:
            raise error(f"{path}:{n}: dates must be strictly increasing")
        dates.append(date)
        rows.append(line)
        numbers.append(n)
    return DatedRows(path, tuple(dates), rows, start, numbers, len(rows), decode, error, noun)
