"""Dated JSONL: files of one JSON object per date, indexed by date when
read and decoded row by row as reads reach them.

Snapshot series and session logs are both such files, and both are read
here. Indexing takes only each row's date. Writers put the date first,
so it is the ten characters after the caller's date prefix; a row that
does not start with the prefix has its date read by ``json.loads``.
Blank lines are skipped, and dates must strictly increase. Each row's
line is kept as it was read, and the decoded rows form one run of
consecutive rows. A read decodes the rows it returns, together with
those between them and the run, and the run, when it grows on a side,
takes in at least as many rows again as it held, short of the file's
ends: in one ``json.loads`` call per side, or line by line when that
fails, so the error names the line. A reader walking forward, as a
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
``merge``, which writes every stored row back as the line it was read
as. Threads may share one and read it without a lock: a run that grows
is replaced whole.
"""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

__all__ = ["DatedRows", "index", "utf8"]

T = TypeVar("T")


class DatedRows(Sequence[T]):
    """The rows of one dated file, ``dates`` and the rows' lines never
    changing.

    ``_run`` is ``(lo, values)``: the values of rows ``lo`` onwards, a
    tuple. It is the only state that changes. A read takes it once and,
    when it lacks the rows asked for, builds a larger run from it and
    stores that in one assignment, so every reader sees a whole run and
    none takes a lock. When two threads grow the run at once, the last
    stored wins, and a later read decodes the rows it lacks again.
    Adding dated values gives a new sequence whose run ends with them
    and leaves this one as it was, as a tuple would.
    """

    __slots__ = ("dates", "_path", "_lines", "_numbers", "_start", "_run", "_decode",
                 "_error", "_noun")

    def __init__(self, path: Path, dates: tuple[dt.date, ...], lines: Sequence[str],
                 start: int, numbers: Sequence[int], run: tuple[int, tuple[T, ...]],
                 decode: Callable[[dt.date, dict], T], error: type[Exception],
                 noun: str) -> None:
        self.dates = dates
        self._path = path
        self._lines = lines  # each row's line as read; values added with ``+`` have none
        self._numbers = numbers  # each of those lines' number in the file
        self._start = start  # the file's line where rows begin
        self._run = run
        self._decode = decode
        self._error = error
        self._noun = noun

    def _values(self, a: int, b: int) -> tuple[list[Any], list[int]]:
        """The values of rows ``a`` to ``b - 1``, decoded from their
        lines, and the offsets of the rows that fail, whose places hold
        their errors."""
        raw = self._lines[a:b]
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
                error = self._error(f"{self._path}:{self._numbers[n]}: {self._noun}: {exc}")
                error.__cause__ = exc
                values.append(error)
                bad.append(n - a)
        return values, bad

    def _grow(self, i: int, j: int) -> tuple[int, tuple[T, ...]]:
        """The run, grown and stored if it lacks rows ``i`` to ``j - 1``,
        ``i <= j``, or a row between them and it. On each side it grows,
        it takes in at least as many rows as it held, short of the file's
        ends and of a bad row past the ones asked for; a bad row asked for
        fails the read and leaves the run as it was."""
        lo, run = self._run
        if not run:  # empty: the run starts at the rows asked for
            lo = i
        hi = lo + len(run)
        if lo <= i and j <= hi:
            return lo, run
        below: list[Any] = []
        above: list[Any] = []
        if i < lo:
            a = max(min(i, lo - len(run)), 0)
            below, bad = self._values(a, lo)
            asked = [k for k in bad if k >= i - a]
            if asked:
                raise below[asked[0]]
            if bad:
                below = below[bad[-1] + 1:]
        if j > hi:
            above, bad = self._values(hi, min(max(j, hi + len(run)), len(self._lines)))
            if bad and bad[0] < j - hi:
                raise above[bad[0]]
            if bad:
                above = above[:bad[0]]
        grown = self._run = (lo - len(below), (*below, *run, *above))
        return grown

    def at_or_before(self, date: dt.date) -> T | None:
        """The value of the last row dated on or before ``date``."""
        i = bisect_right(self.dates, date) - 1
        if i < 0:
            return None
        lo, run = self._run
        if not 0 <= i - lo < len(run):
            lo, run = self._grow(i, i + 1)
        return run[i - lo]

    def window(self, start: dt.date, end: dt.date) -> tuple[T, ...]:
        """The values of the rows dated ``start`` through ``end``."""
        i, j = bisect_left(self.dates, start), bisect_right(self.dates, end)
        if i >= j:
            return ()
        lo, run = self._run
        if not (lo <= i and j <= lo + len(run)):
            lo, run = self._grow(i, j)
        return run[i - lo:j - lo]

    def merge(self, fresh: Mapping[dt.date, T],
              encode: Callable[[dt.date, T], str]) -> tuple[list[str], DatedRows[T]]:
        """The file's row lines with ``fresh``, of dates it lacks, merged
        in date order, and a sequence over them with nothing decoded.
        Stored rows keep their lines, decoded or not; only ``fresh`` and
        values added with ``+`` are encoded."""
        lo, run = self._run
        stored = len(self._lines)
        added = zip(self.dates[stored:], run[stored - lo:])
        merged = sorted([*zip(self.dates, self._lines),
                         *((d, encode(d, v)) for d, v in (*added, *fresh.items()))])
        lines = [line for _, line in merged]
        return lines, DatedRows(self._path, tuple(d for d, _ in merged), lines, self._start,
                                range(self._start, self._start + len(lines)), (0, ()),
                                self._decode, self._error, self._noun)

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, i: int | slice) -> Any:
        picked = range(len(self.dates))[i]
        if isinstance(picked, int):
            lo, run = self._run
            if not 0 <= picked - lo < len(run):
                lo, run = self._grow(picked, picked + 1)
            return run[picked - lo]
        if not picked:
            return []
        first, last = sorted((picked[0], picked[-1]))
        lo, run = self._grow(first, last + 1)
        return [run[k - lo] for k in picked]

    def __iter__(self) -> Iterator[T]:
        return iter(self._grow(0, len(self.dates))[1])

    def __add__(self, more: Sequence[T]) -> DatedRows[T]:
        n = len(self.dates)
        lo, run = self._grow(n, n)  # a run up to the end, or an empty one there
        return DatedRows(self._path, self.dates + tuple(v.date for v in more), self._lines,
                         self._start, self._numbers, (lo, (*run, *more)),
                         self._decode, self._error, self._noun)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (DatedRows, tuple, list)):
            return NotImplemented
        return list(self) == list(other)


def utf8(path: Path, data: bytes, error: type[Exception], noun: str,
         header: str | None = None) -> str:
    """``data``, the bytes of ``path``, as text. A byte that is not
    UTF-8 raises ``error`` naming its line, counted only then, as a bad
    ``noun``, or on line 1 as a bad ``header`` when one is given."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        n = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{n}: {header if n == 1 and header else noun}: {exc}") from exc


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
    return DatedRows(path, tuple(dates), rows, start, numbers, (0, ()), decode, error, noun)
