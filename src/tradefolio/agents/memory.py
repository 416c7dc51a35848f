"""Bounded decision memory carried across a session."""

from __future__ import annotations

import datetime as dt
from collections import deque
from dataclasses import dataclass

from ..domain import AllocationVector

__all__ = ["MemoryEntry", "MemoryWindow"]

DEFAULT_MEMORY_HORIZON = 10


@dataclass(frozen=True)
class MemoryEntry:
    date: dt.date
    allocation: AllocationVector
    cumulative_return: float


class MemoryWindow:
    """Sliding window over the most recent decisions, oldest first.

    Capacity is the horizon; remembering past it silently drops the
    oldest entry.
    """

    def __init__(self, horizon: int = DEFAULT_MEMORY_HORIZON) -> None:
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")
        self.horizon = horizon
        self._entries: deque[MemoryEntry] = deque(maxlen=horizon)

    def remember(self, entry: MemoryEntry) -> None:
        self._entries.append(entry)

    @property
    def entries(self) -> tuple[MemoryEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
