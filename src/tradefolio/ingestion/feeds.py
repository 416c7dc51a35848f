"""Price and news access for sessions.

A feed answers three questions for the environment: the latest price
at or before a date, the stored closes inside a lookback window, and
a tag window's news, newest first and published before the decision
date's UTC midnight. ``ReplayFeed`` answers purely from the snapshot
store, and every session reads through it, live ones included. Live
data is a backfill: ``ensure_dates`` tops the store up from providers
for the decision dates before any session runs, so a live session
replays exactly the store it leaves behind. ``tradefolio fetch`` and a
live ``tradefolio run`` both go through it.
"""

from __future__ import annotations

import datetime as dt
from bisect import bisect_left, bisect_right
from typing import Iterable, Mapping, Protocol, Sequence

from ..domain import MarketKind, MarketSpec, NewsItem, PricePoint
from ..errors import FeedUnavailable, ProviderError
from . import equities, news, predictions
from .policy import FetchPolicy, utc_midnight
from .snapshots import SnapshotStore

__all__ = ["Feed", "ReplayFeed", "ensure_dates", "record_discovered"]

HISTORY_LOOKBACK_DAYS = 10


class Feed(Protocol):
    """What a session reads. ``news_window`` gives a tag's items stored
    under days in [start, end], newest first, less those published at or
    after the UTC midnight of the decision date ``target``."""

    def latest_price(self, asset: str, on_or_before: dt.date) -> PricePoint | None: ...

    def price_window(self, asset: str, start: dt.date, end: dt.date) -> tuple[PricePoint, ...]: ...

    def news_window(self, tag: str, start: dt.date, end: dt.date,
                    target: dt.date) -> tuple[NewsItem, ...]: ...


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
                    target: dt.date) -> tuple[NewsItem, ...]:
        """The stored items, newest first, cut at the decision date
        ``target``'s UTC midnight whatever day stores them: the one rule
        for which news a decision sees."""
        cutoff = utc_midnight(target)
        return tuple(news.rank_news(i for i in self.store.news_window(tag, start, end)
                                    if i.published_at < cutoff))


def _record_new_prices(store: SnapshotStore, market: str, key: str,
                      points: Iterable[PricePoint]) -> None:
    """Record the fetched bars whose dates the series lacks. A stored
    bar (a quote, or a close the provider has since adjusted) is never
    re-recorded."""
    have = set(store.price_dates(market, key))
    store.record_prices(market, key, (p for p in points if p.date not in have))


def record_discovered(store: SnapshotStore,
                      discovered: Sequence[predictions.DiscoveredMarket]) -> None:
    """Catalog discovered markets and record the new dates of the
    histories that justified keeping them."""
    store.record_markets(m.entry for m in discovered)
    for market in discovered:
        _record_new_prices(store, "prediction", market.entry.yes_token, market.yes_history)
        _record_new_prices(store, "prediction", market.entry.no_token, market.no_history)


def ensure_dates(
    store: SnapshotStore,
    spec: MarketSpec,
    dates: Sequence[dt.date],
    policy: FetchPolicy,
    asset_keys: Mapping[str, str] | None = None,
    lookback_days: int = HISTORY_LOOKBACK_DAYS,
    news_window_days: int = news.NEWS_WINDOW_DAYS,
) -> None:
    """Backfill the store for sorted decision dates: each date's
    lookback bars and price, and every tag's trailing news window.

    A date counts as priced once the series holds a bar on or after it,
    since a weekday holiday never gets a bar of its own. A date needs
    history when it isn't priced or its lookback window holds fewer
    than two bars; a window of under five days needs only one, since a
    Monday's window back to Saturday, or back to a Good Friday, holds
    one trading day however complete the store is. Each asset gets
    one history request, from the first such date minus the lookback
    to the last date, then a stock whose last date is still unpriced
    gets one quote. A tag gets one news request over the windows of the
    dates missing a news day, and every missing day is recorded, empty
    ones too, keeping its items newest first.
    These checks read only the dates a series holds, so a covered store
    decodes no row here. Only dates a series lacks are written. A
    provider failure that survives the retry policy raises
    ``FeedUnavailable`` naming the first date that needed a request.
    """
    keys = asset_keys or {}
    market = spec.kind.value
    lookback = dt.timedelta(days=lookback_days)
    least_bars = 2 if lookback_days >= 4 else 1
    window = [dt.timedelta(days=i) for i in range(news_window_days, 0, -1)]

    def priced(key: str, date: dt.date) -> bool:
        stored = store.price_dates(market, key)
        return bool(stored) and stored[-1] >= date

    def bars(key: str, start: dt.date, end: dt.date) -> int:
        stored = store.price_dates(market, key)
        return bisect_right(stored, end) - bisect_left(stored, start)

    def lacks_news(tag: str, date: dt.date) -> list[dt.date]:
        return [date - back for back in window if not store.has_news(tag, date - back)]

    history = {}
    for key in (keys.get(a, a) for a in spec.assets if a != spec.cash):
        history[key] = next((d for d in dates if not priced(key, d)
                             or bars(key, d - lookback, d) < least_bars), None)
    needy = {tag: [d for d in dates if lacks_news(tag, d)] for tag in spec.news_tags}
    starts = [d for d in history.values() if d] + [n[0] for n in needy.values() if n]
    if not starts:
        return
    first, last = min(starts), dates[-1]
    try:
        for key, need in history.items():
            if need is None:
                continue
            if spec.kind is MarketKind.STOCK:
                _record_new_prices(store, market, key, equities.fetch_equity_history(
                    key, need - lookback, last, policy))
                if not priced(key, last):
                    quote = equities.fetch_equity_quote(key, policy)
                    if quote.date <= last:
                        _record_new_prices(store, market, key, [quote])
            else:
                _record_new_prices(store, market, key, predictions.fetch_prediction_history(
                    key, need - lookback, last, policy))
        for tag, tag_dates in needy.items():
            if tag_dates:
                missing = sorted({day for d in tag_dates for day in lacks_news(tag, d)})
                items = news.fetch_news(tag, spec.kind, tag_dates[0] - window[0],
                                        tag_dates[-1] - window[-1], policy)
                store.record_news(tag, news.news_days(items, missing))
    except ProviderError as exc:
        raise FeedUnavailable(f"live data unavailable for {first}: {exc}", first) from exc
