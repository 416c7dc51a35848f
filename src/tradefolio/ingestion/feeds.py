"""Price and news access for sessions.

A feed answers three questions for the environment: the latest price
at or before a date, the stored closes inside a lookback window, and
the ranked news for a tag window. ``ReplayFeed`` answers purely from
the snapshot store, and every session reads through it, live ones
included. Live data is a backfill: ``ensure_date`` tops the store up
from providers for one decision date before any session runs, so a
live session replays exactly the store it leaves behind.
"""

from __future__ import annotations

import datetime as dt
from typing import Mapping, Protocol

from ..domain import MarketKind, MarketSpec, NewsItem, PricePoint
from ..errors import FeedUnavailable, ProviderError
from . import equities, news, predictions
from .policy import FetchPolicy
from .snapshots import FetchBatch, PriceRow, SnapshotStore, record_snapshot

__all__ = ["Feed", "ReplayFeed", "ensure_date"]

HISTORY_LOOKBACK_DAYS = 10


class Feed(Protocol):
    def latest_price(self, asset: str, on_or_before: dt.date) -> PricePoint | None: ...

    def price_window(self, asset: str, start: dt.date, end: dt.date) -> tuple[PricePoint, ...]: ...

    def news_window(self, tag: str, start: dt.date, end: dt.date,
                    target: dt.date | None = None) -> tuple[NewsItem, ...]: ...


class ReplayFeed:
    """Serves a frozen snapshot store; never touches the network."""

    def __init__(self, store: SnapshotStore, kind: MarketKind,
                 asset_keys: Mapping[str, str] | None = None) -> None:
        self.store = store
        self.market = kind.value
        # Prediction assets are stored under token ids; map when given.
        self._keys = dict(asset_keys or {})

    def _key(self, asset: str) -> str:
        return self._keys.get(asset, asset)

    def latest_price(self, asset: str, on_or_before: dt.date) -> PricePoint | None:
        return self.store.latest_price(self.market, self._key(asset), on_or_before)

    def price_window(self, asset: str, start: dt.date, end: dt.date) -> tuple[PricePoint, ...]:
        return self.store.price_window(self.market, self._key(asset), start, end)

    def news_window(self, tag: str, start: dt.date, end: dt.date,
                    target: dt.date | None = None) -> tuple[NewsItem, ...]:
        items = self.store.news_window(tag, start, end)
        return tuple(news.rank_news(items, target))


def ensure_date(
    store: SnapshotStore,
    spec: MarketSpec,
    date: dt.date,
    policy: FetchPolicy,
    asset_keys: Mapping[str, str] | None = None,
    lookback_days: int = HISTORY_LOOKBACK_DAYS,
    news_window_days: int = news.NEWS_WINDOW_DAYS,
) -> None:
    """Backfill the store for one decision date: lookback bars, a price
    for the date itself, and the trailing news window for every tag.

    A date counts as priced once the series holds a bar on or after it,
    since a weekday holiday never gets a bar of its own. History is
    fetched for an asset whose date isn't priced or whose lookback
    window holds fewer than two bars, then a quote for a stock whose
    date is still not priced. Only dates a series lacks are written, so
    a stored bar (a quote, or a close the provider has since adjusted)
    is never re-recorded. A provider failure that survives the retry
    policy raises ``FeedUnavailable``.
    """
    keys = asset_keys or {}
    market = spec.kind.value
    start = date - dt.timedelta(days=lookback_days)

    def priced(key: str) -> bool:
        series = store.price_series(market, key)
        return bool(series) and series[-1].date >= date

    def record_missing(key: str, points: list[PricePoint]) -> None:
        have = {p.date for p in store.price_series(market, key)}
        rows = tuple(PriceRow(market, key, p.date, p.price, p.volume)
                     for p in points if p.date not in have)
        record_snapshot(store, FetchBatch(prices=rows))

    try:
        for asset in spec.assets:
            if asset == spec.cash:
                continue
            key = keys.get(asset, asset)
            if priced(key) and len(store.price_window(market, key, start, date)) >= 2:
                continue
            if spec.kind is MarketKind.STOCK:
                record_missing(key, equities.fetch_equity_history(key, start, date, policy))
                if not priced(key):
                    quote = equities.fetch_equity_quote(key, policy)
                    if quote.date <= date:
                        record_missing(key, [quote])
            else:
                record_missing(key, predictions.fetch_prediction_history(key, start, date, policy))
        news_start = date - dt.timedelta(days=news_window_days)
        news_days = [news_start + dt.timedelta(days=i) for i in range(news_window_days)]
        for tag in spec.news_tags:
            missing = [day for day in news_days if not store.has_news(tag, day)]
            if missing:
                items = news.fetch_news(tag, spec.kind, news_start, news_days[-1], policy,
                                        target=date)
                record_snapshot(store, FetchBatch(news=news.news_rows(tag, items, missing)))
    except ProviderError as exc:
        raise FeedUnavailable(f"live data unavailable for {date}: {exc}") from exc
