"""Dated JSONL: files of one JSON object per date, indexed by date when
read and decoded row by row as reads reach them.

Snapshot series and session logs are both such files, and both are read
here. Indexing takes only each row's date. Writers put the date first,
so it is the ten characters after the caller's date prefix; a row that
does not start with the prefix has its date read by ``json.loads``.
Blank lines are skipped, and dates must strictly increase. A row stays
raw text until a read first reaches it. The decoded rows form one run
of consecutive rows. A read decodes the raw rows it returns, together
with those between them and the run, and the run, when it grows on a
side, takes in at least as many rows again as it held, short of the
file's ends: in one ``json.loads`` call per side, or line by line when
that fails, so the error names the line. A reader walking forward, as a
batch does, thus decodes a file in a few calls, and a daily resume only
its windows and as many rows again. Each line must hold one JSON object
whose ``date`` is the indexed one. An unreadable date or dates out of
order fail the index; any other fault in a row fails every read that
returns it or must decode it to reach the run, since a failed decode
leaves the run as it was. A bad row that only the growth margin reaches
stops the run short of it. Errors name the file and line, in the
caller's error class and noun.

``index`` returns a ``DatedRows``, read through ``dates``, the sequence
protocol, ``at_or_before`` and ``window`` and rewritten through
``merge``. No other module touches its run, outside which rows are raw.
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

    ``_rows[i]`` is row ``i``'s decoded value inside the run
    ``_lo <= i < _hi`` and its raw line outside it. An empty run has
    ``_lo`` at the end and ``_hi`` at 0, so the first rows it takes in
    lower the one and raise the other. Under ``_lock``, ``_lo`` only
    falls and ``_hi`` only rises, each once the rows it takes in are
    decoded, so a read of a row inside the run needs no lock, in
    whichever order it reads the two. Adding dated values gives a new
    sequence and leaves this one as it was, as a tuple would.
    """

    __slots__ = ("dates", "_path", "_rows", "_lo", "_hi", "_lock", "_start", "_lines",
                 "_decode", "_error", "_noun")

    def __init__(self, path: Path, dates: tuple[dt.date, ...], rows: list[Any],
                 start: int, lines: Sequence[int], lo: int, hi: int,
                 decode: Callable[[dt.date, dict], T], error: type[Exception],
                 noun: str) -> None:
        self.dates = dates
        self._path = path
        self._rows = rows
        self._lo = lo
        self._hi = hi
        self._lock = threading.Lock()
        self._start = start  # the file's line where rows begin
        self._lines = lines  # each raw row's line number in the file
        self._decode = decode
        self._error = error
        self._noun = noun

    def _values(self, a: int, b: int) -> tuple[list[Any], list[int]]:
        """The values of raw rows ``a`` to ``b - 1`` and the offsets of
        the rows that fail, whose places hold their errors."""
        raw = self._rows[a:b]
        try:
            rows = json.loads("[" + ",".join(raw) + "]")
            if len(rows) != len(raw):  # a bad line held a comma-separated pair
                raise ValueError
        except ValueError:
            rows = []
            for line in raw:
                try:
                    rows.append(json.loads(line))
                except ValueError as exc:
                    rows.append(exc)
        values: list[Any] = []
        bad: list[int] = []
        for n, row in enumerate(rows, start=a):
            date = self.dates[n]
            try:
                if isinstance(row, ValueError):
                    raise row
                if dt.date.fromisoformat(row["date"]) != date:
                    raise ValueError(f"date {row['date']} is not the indexed {date}")
                values.append(self._decode(date, row))
            except (KeyError, TypeError, ValueError) as exc:
                error = self._error(f"{self._path}:{self._lines[n]}: {self._noun}: {exc}")
                error.__cause__ = exc
                values.append(error)
                bad.append(n - a)
        return values, bad

    def _reach(self, i: int, j: int) -> None:
        """Grow the run to hold rows ``i`` to ``j - 1``, ``i < j``. On each
        side it grows, it takes in at least as many rows as it held, short
        of the file's ends and of a bad row past the ones asked for; a bad
        row asked for fails the read and leaves the run as it was."""
        with self._lock:
            self._grow(i, j)

    def _grow(self, i: int, j: int) -> None:
        """``_reach`` for a caller that holds ``_lock``."""
        lo, hi = self._lo, self._hi
        if hi <= lo:  # empty: the run starts at the rows asked for
            lo = hi = i
        if lo <= i and j <= hi:
            return
        size = hi - lo
        below: list[Any] = []
        above: list[Any] = []
        if i < lo:
            a = max(min(i, lo - size), 0)
            below, bad = self._values(a, lo)
            asked = [k for k in bad if k >= i - a]
            if asked:
                raise below[asked[0]]
            if bad:
                below = below[bad[-1] + 1:]
        if j > hi:
            above, bad = self._values(hi, min(max(j, hi + size), len(self._rows)))
            if bad and bad[0] < j - hi:
                raise above[bad[0]]
            if bad:
                above = above[:bad[0]]
        self._rows[lo - len(below):lo] = below
        self._rows[hi:hi + len(above)] = above
        self._lo = lo - len(below)
        self._hi = hi + len(above)

    def at_or_before(self, date: dt.date) -> T | None:
        """The value of the last row dated on or before ``date``."""
        i = bisect_right(self.dates, date) - 1
        if i < 0:
            return None
        if not self._lo <= i < self._hi:
            self._reach(i, i + 1)
        return self._rows[i]

    def window(self, start: dt.date, end: dt.date) -> list[T]:
        """The values of the rows dated ``start`` through ``end``."""
        i, j = bisect_left(self.dates, start), bisect_right(self.dates, end)
        if i < j and not (self._lo <= i and j <= self._hi):
            self._reach(i, j)
        return self._rows[i:j]

    def merge(self, fresh: Mapping[dt.date, T],
              encode: Callable[[dt.date, T], str]) -> tuple[list[str], DatedRows[T]]:
        """The file's row lines with ``fresh``, of dates it lacks, merged
        in date order, and a sequence over them with every row raw. Rows
        outside the run keep their lines; the rest are encoded again."""
        with self._lock:  # a reader may be growing the run
            lo, hi, rows = self._lo, self._hi, self._rows[:]
        if hi <= lo:
            lo = hi = 0
        dates = self.dates
        merged = sorted([*zip(dates[:lo], rows[:lo]),
                         *((d, encode(d, v)) for d, v in zip(dates[lo:hi], rows[lo:hi])),
                         *zip(dates[hi:], rows[hi:]),
                         *((d, encode(d, v)) for d, v in fresh.items())])
        lines = [line for _, line in merged]
        return lines, DatedRows(self._path, tuple(d for d, _ in merged), lines, self._start,
                                range(self._start, self._start + len(lines)), len(lines), 0,
                                self._decode, self._error, self._noun)

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, i: int | slice) -> Any:
        picked = range(len(self.dates))[i]
        if isinstance(picked, int):
            if not self._lo <= picked < self._hi:
                self._reach(picked, picked + 1)
            return self._rows[picked]
        if picked:
            first, last = sorted((picked[0], picked[-1]))
            if not (self._lo <= first and last < self._hi):
                self._reach(first, last + 1)
        return self._rows[i]

    def __iter__(self) -> Iterator[T]:
        if self.dates:
            self._reach(0, len(self.dates))
        return iter(self._rows)

    def __add__(self, more: Sequence[T]) -> DatedRows[T]:
        n = len(self.dates)
        with self._lock:
            if self._lo < self._hi < n:  # the added values must join the run
                self._grow(self._hi, n)
            lo, hi, rows = self._lo, self._hi, self._rows + list(more)
        if hi <= lo:  # the run is the added values
            lo = n
        end = len(rows)
        return DatedRows(self._path, self.dates + tuple(v.date for v in more), rows,
                         self._start, self._lines, lo, end if lo < end else 0,
                         self._decode, self._error, self._noun)

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
    return DatedRows(path, tuple(dates), rows, start, numbers, len(rows), 0, decode, error,
                     noun)
