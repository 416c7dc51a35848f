"""Deterministic synthetic market data for replay demos and tests.

Everything here is seeded: the same arguments always produce the same
store bytes, which is what replay-determinism checks build on.
"""

from __future__ import annotations

import datetime as dt
from typing import Sequence

import numpy as np

from .domain import NewsItem, PricePoint
from .ingestion.snapshots import MarketCatalogEntry, SnapshotStore

__all__ = [
    "business_days",
    "seed_stock_store",
    "seed_prediction_store",
]


def business_days(start: dt.date, count: int) -> list[dt.date]:
    """The first ``count`` weekdays starting at or after ``start``."""
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
    return days


def _news_item(tag: str, day: dt.date, index: int) -> NewsItem:
    published = dt.datetime.combine(day, dt.time(13, 30), tzinfo=dt.timezone.utc)
    return NewsItem(
        title=f"{tag} update {day.isoformat()} #{index}",
        snippet=f"Synthetic wire item {index} covering {tag} on {day.isoformat()}.",
        source="synthetic-wire",
        url=f"https://example.com/{tag.lower()}/{day.isoformat()}/{index}",
        published_at=int(published.timestamp()),
        tagged_asset=tag,
    )


def seed_stock_store(
    root: str,
    tickers: Sequence[str],
    start: dt.date,
    days: int,
    seed: int = 7,
) -> list[dt.date]:
    """Write a stock store with ``days`` weekday closes per ticker.

    Prices follow a seeded lognormal walk from per-ticker levels; every
    third day each ticker gets two news items. Returns the
    trading dates written.
    """
    rng = np.random.default_rng(seed)
    store = SnapshotStore(root)
    dates = business_days(start, days)
    for ticker in tickers:
        level = float(rng.uniform(40.0, 450.0))
        prices = level * np.exp(np.cumsum(rng.normal(0.0004, 0.018, size=days)))
        volumes = rng.integers(1_000_000, 80_000_000, size=days)
        store.record_prices("stock", ticker, [
            PricePoint(day, round(float(price), 2), float(volume))
            for day, price, volume in zip(dates, prices, volumes)])
        store.record_news(ticker, [
            (day, (_news_item(ticker, day, 1), _news_item(ticker, day, 2))
             if i % 3 == 0 else ())
            for i, day in enumerate(dates)])
    return dates


def seed_prediction_store(
    root: str,
    questions: Sequence[str],
    start: dt.date,
    days: int,
    seed: int = 11,
) -> list[dt.date]:
    """Write a prediction store: one yes/no token pair per question.

    Outcome prices random-walk inside (0.02, 0.98) with the no side
    tracking one minus the yes side plus a small spread. Token series
    are keyed by synthetic token ids listed in the market catalog.
    Returns the (consecutive UTC) dates written.
    """
    rng = np.random.default_rng(seed)
    store = SnapshotStore(root)
    dates = [start + dt.timedelta(days=i) for i in range(days)]
    markets: list[MarketCatalogEntry] = []
    for number, question in enumerate(questions, start=1):
        yes_token = f"tok-yes-{number:03d}"
        no_token = f"tok-no-{number:03d}"
        slug = f"synthetic-market-{number:03d}"
        markets.append(MarketCatalogEntry(
            slug=slug,
            question=question,
            yes_token=yes_token,
            no_token=no_token,
            url=f"https://example.com/event/{slug}",
        ))
        yes = float(rng.uniform(0.15, 0.85))
        yes_points, no_points = [], []
        for day in dates:
            yes = float(np.clip(yes + rng.normal(0.0, 0.03), 0.02, 0.98))
            spread = float(rng.uniform(0.0, 0.02))
            no = float(np.clip(1.0 - yes + spread, 0.02, 0.98))
            yes_points.append(PricePoint(day, round(yes, 4)))
            no_points.append(PricePoint(day, round(no, 4)))
        store.record_prices("prediction", yes_token, yes_points)
        store.record_prices("prediction", no_token, no_points)
        store.record_news(question, [
            (day, (_news_item(question, day, 1),) if i % 4 == 0 else ())
            for i, day in enumerate(dates)])
    store.record_markets(markets)
    return dates
