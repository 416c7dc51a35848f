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
"""

from __future__ import annotations

import datetime as dt
import json
import threading
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

__all__ = ["DatedRows", "index"]

T = TypeVar("T")


class DatedRows(Sequence[T]):
    """The rows of one dated file, ``dates`` never changing.

    ``values[i]`` is row ``i``'s raw line below ``lo`` and its decoded
    value from ``lo`` on. ``lo`` only falls, under ``lock`` and once the
    rows it passes are decoded, so a read of a row at or above ``lo``
    needs no lock. Adding dated values gives a new sequence and leaves
    this one as it was, as a tuple would.
    """

    __slots__ = ("path", "dates", "values", "lo", "lock", "_lines", "_decode", "_error", "_noun")

    def __init__(self, path: Path, dates: tuple[dt.date, ...], values: list[Any],
                 lines: Sequence[int], lo: int, decode: Callable[[dt.date, dict], T],
                 error: type[Exception], noun: str) -> None:
        self.path = path
        self.dates = dates
        self.values = values
        self.lo = lo
        self.lock = threading.Lock()
        self._lines = lines  # each raw row's line number in the file
        self._decode = decode
        self._error = error
        self._noun = noun

    def _fail(self, i: int, exc: Exception) -> Exception:
        return self._error(f"{self.path}:{self._lines[i]}: {self._noun}: {exc}")

    def decode_from(self, i: int) -> None:
        """Decode the raw rows from ``i`` up to ``lo``, if any."""
        with self.lock:
            lo = self.lo
            if i >= lo:
                return
            raw = self.values[i:lo]
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
            self.values[i:lo] = decoded
            self.lo = i

    def __len__(self) -> int:
        return len(self.dates)

    def __getitem__(self, i: int | slice) -> Any:
        picked = range(len(self.dates))[i]
        if isinstance(picked, int):
            if picked < self.lo:
                self.decode_from(picked)
            return self.values[picked]
        if picked:
            self.decode_from(min(picked[0], picked[-1]))
        return self.values[i]

    def __iter__(self) -> Iterator[T]:
        self.decode_from(0)
        return iter(self.values)

    def __add__(self, more: Sequence[T]) -> DatedRows[T]:
        with self.lock:
            values, lo = self.values + list(more), self.lo
        return DatedRows(self.path, self.dates + tuple(v.date for v in more), values,
                         self._lines, lo, self._decode, self._error, self._noun)

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
    return DatedRows(path, tuple(dates), rows, numbers, len(rows), decode, error, noun)
