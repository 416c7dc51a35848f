"""Price and news access for sessions.

A feed answers three questions for the environment: the latest price
at or before a date, the stored closes inside a lookback window, and
the ranked news for a tag window. ``ReplayFeed`` answers purely from
the snapshot store; ``LiveFeed`` tops the store up from providers
first, so a live session leaves behind exactly the store a replay
needs.
"""

from __future__ import annotations

import datetime as dt
from typing import Mapping, Protocol

from ..domain import MarketKind, MarketSpec, NewsItem, PricePoint
from ..errors import FeedUnavailable, ProviderError
from . import equities, news, predictions
from .policy import FetchPolicy
from .snapshots import FetchBatch, PriceRow, SnapshotStore, record_snapshot

__all__ = ["Feed", "ReplayFeed", "LiveFeed"]

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


class LiveFeed:
    """Fetches on demand, records everything, then reads like a replay.

    Provider failures that survive the retry policy surface as
    ``FeedUnavailable``: a live session must halt rather than invent
    data.
    """

    def __init__(
        self,
        store: SnapshotStore,
        spec: MarketSpec,
        policy: FetchPolicy | None = None,
        asset_keys: Mapping[str, str] | None = None,
        company_names: Mapping[str, str] | None = None,
        lookback_days: int = HISTORY_LOOKBACK_DAYS,
        news_window_days: int = news.NEWS_WINDOW_DAYS,
    ) -> None:
        self.store = store
        self.spec = spec
        self.policy = policy or FetchPolicy()
        self.company_names = company_names
        self.lookback_days = lookback_days
        self.news_window_days = news_window_days
        self._replay = ReplayFeed(store, spec.kind, asset_keys)
        self._keys = dict(asset_keys or {})
        self._covered: set[dt.date] = set()

    def _fetch_prices(self, asset: str, start: dt.date, end: dt.date) -> None:
        key = self._keys.get(asset, asset)
        if self.spec.kind is MarketKind.STOCK:
            points = equities.fetch_equity_history(key, start, end, self.policy)
        else:
            points = predictions.fetch_prediction_history(key, start, end, self.policy)
        rows = tuple(PriceRow(self.spec.kind.value, key, p.date, p.price, p.volume)
                     for p in points)
        record_snapshot(self.store, FetchBatch(prices=rows))

    def _fetch_quote(self, asset: str, date: dt.date) -> None:
        key = self._keys.get(asset, asset)
        if self.spec.kind is not MarketKind.STOCK:
            return
        point = equities.fetch_equity_quote(key, self.policy)
        if point.date <= date:
            self.store.upsert_price("stock", key, point.date, point.price, point.volume)

    def ensure_date(self, date: dt.date) -> None:
        """Make the store cover one decision date: lookback bars, a
        price for the date itself when the market printed one, and the
        trailing news window for every tag."""
        if date in self._covered:
            return
        start = date - dt.timedelta(days=self.lookback_days)
        try:
            for asset in self.spec.assets:
                if asset == self.spec.cash:
                    continue
                key = self._keys.get(asset, asset)
                have = self.store.price_window(self.spec.kind.value, key, start, date)
                have_dates = {p.date for p in have}
                if not have_dates.issuperset({date}) or len(have_dates) < 2:
                    self._fetch_prices(asset, start, date)
                have_dates = {p.date for p in
                              self.store.price_window(self.spec.kind.value, key, start, date)}
                if date not in have_dates:
                    self._fetch_quote(asset, date)
            news_start = date - dt.timedelta(days=self.news_window_days)
            news_end = date - dt.timedelta(days=1)
            for tag in self.spec.news_tags:
                missing = [
                    news_start + dt.timedelta(days=i)
                    for i in range((news_end - news_start).days + 1)
                    if not self.store.has_news(tag, news_start + dt.timedelta(days=i))
                ]
                if not missing:
                    continue
                items = news.fetch_news(
                    tag, self.spec.kind, news_start, news_end, self.policy,
                    target=date, company_names=self.company_names,
                )
                record_snapshot(self.store, FetchBatch(news=news.news_rows(tag, items, missing)))
        except ProviderError as exc:
            raise FeedUnavailable(f"live data unavailable for {date}: {exc}") from exc
        self._covered.add(date)

    # -- read side: identical to replay once coverage is ensured ----------

    def latest_price(self, asset: str, on_or_before: dt.date) -> PricePoint | None:
        self.ensure_date(on_or_before)
        return self._replay.latest_price(asset, on_or_before)

    def price_window(self, asset: str, start: dt.date, end: dt.date) -> tuple[PricePoint, ...]:
        return self._replay.price_window(asset, start, end)

    def news_window(self, tag: str, start: dt.date, end: dt.date,
                    target: dt.date | None = None) -> tuple[NewsItem, ...]:
        return self._replay.news_window(tag, start, end, target)
