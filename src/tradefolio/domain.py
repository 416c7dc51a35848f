"""Core market and portfolio value types.

All types are plain immutable values: construction validates, after that
they are safe to share. Asset-keyed mappings are stored as ordinary dicts
built at construction time; the insertion order is the market's canonical
asset order and is relied on by rendering and serialization.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

__all__ = [
    "CASH",
    "MarketKind",
    "PredictionPair",
    "MarketSpec",
    "PricePoint",
    "PriceVector",
    "Holdings",
    "AllocationVector",
    "NewsItem",
    "PUBLISHED_AT_RANGE",
    "Observation",
    "MemoryEntry",
]

CASH = "CASH"

# Default equity universe used when a run config does not name one.
DEFAULT_STOCK_TICKERS = (
    "AAPL", "MSFT", "NVDA", "JPM", "V", "JNJ", "UNH", "PG",
    "KO", "XOM", "CAT", "WMT", "META", "TSLA", "AMZN",
)

ALLOCATION_SUM_TOL = 1e-9


class MarketKind(Enum):
    STOCK = "stock"
    PREDICTION = "prediction"


@dataclass(frozen=True)
class PredictionPair:
    """One binary question and its two outcome asset ids."""

    question: str
    yes: str
    no: str


@dataclass(frozen=True)
class MarketSpec:
    """Tradable universe for one session.

    Cash is a first-class asset: it appears in ``assets``, carries price
    1.0 forever, and absorbs unallocated weight. For prediction markets
    every non-cash asset belongs to exactly one yes/no pair.
    """

    kind: MarketKind
    assets: tuple[str, ...]
    cash: str = CASH
    pairs: tuple[PredictionPair, ...] = ()

    def __post_init__(self) -> None:
        if not self.assets:
            raise ValueError("market needs at least one asset")
        if any(not a for a in self.assets):
            raise ValueError("asset ids must be non-empty")
        if len(set(self.assets)) != len(self.assets):
            raise ValueError("asset ids must be unique")
        if self.cash not in self.assets:
            raise ValueError(f"cash asset {self.cash!r} missing from universe")
        if self.kind is MarketKind.PREDICTION:
            outcomes = [a for a in self.assets if a != self.cash]
            paired = [a for p in self.pairs for a in (p.yes, p.no)]
            if sorted(outcomes) != sorted(paired):
                raise ValueError("every non-cash asset must belong to exactly one pair")
        elif self.pairs:
            raise ValueError("stock markets have no outcome pairs")

    @classmethod
    def stock(cls, tickers: tuple[str, ...] | list[str] = DEFAULT_STOCK_TICKERS) -> "MarketSpec":
        return cls(MarketKind.STOCK, tuple(tickers) + (CASH,))

    @classmethod
    def prediction(cls, questions: tuple[str, ...] | list[str]) -> "MarketSpec":
        pairs = tuple(
            PredictionPair(q, f"{q}_Yes", f"{q}_No") for q in questions
        )
        assets = tuple(a for p in pairs for a in (p.yes, p.no)) + (CASH,)
        return cls(MarketKind.PREDICTION, assets, pairs=pairs)

    @property
    def questions(self) -> tuple[str, ...]:
        return tuple(p.question for p in self.pairs)

    @property
    def news_tags(self) -> tuple[str, ...]:
        """What news is kept under: each question on a prediction
        market, each non-cash asset on a stock market."""
        if self.kind is MarketKind.PREDICTION:
            return self.questions
        return tuple(a for a in self.assets if a != self.cash)


@dataclass(frozen=True)
class PricePoint:
    """One stored close for one asset."""

    date: dt.date
    price: float
    volume: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.price < math.inf:
            raise ValueError(f"price must be finite and positive, got {self.price}")


@dataclass(frozen=True)
class PriceVector:
    """Prices for every asset in the universe on one calendar date."""

    date: dt.date
    prices: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prices", dict(self.prices))
        for asset, price in self.prices.items():
            if not 0 < price < math.inf:
                raise ValueError(f"price for {asset} is not finite and positive: {price}")

    def __getitem__(self, asset: str) -> float:
        return self.prices[asset]


@dataclass(frozen=True)
class Holdings:
    """Units held per asset. Long-only: every entry is non-negative."""

    units: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", dict(self.units))
        for asset, n in self.units.items():
            if n < 0:
                raise ValueError(f"negative holding for {asset}: {n}")

    def __getitem__(self, asset: str) -> float:
        return self.units[asset]


@dataclass(frozen=True)
class AllocationVector:
    """Target portfolio weights on the probability simplex.

    Direct construction requires weights that already sum to one within
    ``ALLOCATION_SUM_TOL``; arbitrary model output goes through the
    accounting engine's ``validate_allocation`` instead, which imputes,
    renormalizes, and enforces the market's pairing rules.
    """

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        total = 0.0
        for asset, w in self.weights.items():
            if w < 0:
                raise ValueError(f"negative weight for {asset}: {w}")
            total += w
        if abs(total - 1.0) > ALLOCATION_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1 within {ALLOCATION_SUM_TOL}")

    def __getitem__(self, asset: str) -> float:
        return self.weights[asset]


# The UNIX seconds a news item may be published at: one day inside
# datetime's range at each end, so every zone can show its date.
PUBLISHED_AT_RANGE = range(int(dt.datetime(1, 1, 2, tzinfo=dt.timezone.utc).timestamp()),
                           int(dt.datetime(9999, 12, 31, tzinfo=dt.timezone.utc).timestamp()))


@dataclass(frozen=True)
class NewsItem:
    """One normalized news result tagged to a ticker or question."""

    title: str
    snippet: str
    source: str
    url: str
    published_at: int  # UNIX seconds in PUBLISHED_AT_RANGE: other items are dropped upstream
    tagged_asset: str


@dataclass(frozen=True)
class Observation:
    """The market an agent sees when deciding at one date.

    ``price_history`` maps asset id to the stored closes inside the
    lookback window that ends the day before ``date``; the current price
    itself lives in ``prices``. ``stale`` lists assets whose price was
    carried forward from an earlier date. Nothing in it is a session's:
    an agent's own past reaches it as its memory, and the sessions of
    one run share one object per date, so ``price_history`` is
    read-only.
    """

    date: dt.date
    prices: PriceVector
    news: tuple[NewsItem, ...]
    price_history: Mapping[str, tuple[PricePoint, ...]]
    stale: frozenset[str]


@dataclass(frozen=True)
class MemoryEntry:
    """What an agent remembers of one executed step; a session's
    memory is a tuple of these, oldest first."""

    date: dt.date
    allocation: AllocationVector
    cumulative_return: float
