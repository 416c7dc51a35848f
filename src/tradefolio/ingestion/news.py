"""News search: query building, RSS parsing, windowing, ranking."""

from __future__ import annotations

import datetime as dt
import html
import re
from typing import Iterable

from ..domain import MarketKind, NewsItem
from ..errors import ProviderError
from .normalize import clean_link, parse_news_timestamp
from .policy import FetchPolicy, get

__all__ = [
    "RSS_URL",
    "COMPANY_NAMES",
    "NEWS_WINDOW_DAYS",
    "build_news_query",
    "parse_news_rss",
    "filter_news_window",
    "news_days",
    "rank_news",
    "fetch_news",
]

RSS_URL = "https://news.google.com/rss/search"

# Query window [t - 3, t - 1]: strictly before the decision date.
NEWS_WINDOW_DAYS = 3

COMPANY_NAMES: dict[str, str] = {
    "AAPL": "Apple",
    "MSFT": "Microsoft",
    "NVDA": "NVIDIA",
    "JPM": "JPMorgan Chase",
    "V": "Visa",
    "JNJ": "Johnson & Johnson",
    "UNH": "UnitedHealth Group",
    "PG": "Procter & Gamble",
    "KO": "Coca-Cola",
    "XOM": "Exxon Mobil",
    "CAT": "Caterpillar",
    "WMT": "Walmart",
    "META": "Meta Platforms",
    "TSLA": "Tesla",
    "AMZN": "Amazon",
}


def build_news_query(tag: str, kind: MarketKind) -> str:
    """Search text for one tag.

    Stock tags pair the ticker with the company name; prediction tags
    are the question text itself.
    """
    if kind is MarketKind.PREDICTION:
        return tag
    company = COMPANY_NAMES.get(tag)
    if company:
        return f"{tag} stock news OR {company}"
    return f"{tag} stock news"


_TAG_STRIP = re.compile(r"<[^>]+>")


def _plain_text(fragment: str | None) -> str:
    if not fragment:
        return ""
    return html.unescape(_TAG_STRIP.sub(" ", fragment)).strip()


def parse_news_rss(xml_text: str | bytes, tag: str, reference: dt.datetime) -> list[NewsItem]:
    """Items from one RSS result page.

    Published times are normalized to UNIX seconds against
    ``reference``; items whose time cannot be parsed are dropped, and
    links are unwrapped from redirectors.
    """
    import xml.etree.ElementTree as ET  # here, so that a replay run never loads it

    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ProviderError(f"unparseable RSS feed: {exc}") from exc
    items = []
    for node in root.iter("item"):
        title = _plain_text(node.findtext("title"))
        if not title:
            continue
        published_at = parse_news_timestamp(node.findtext("pubDate") or "", reference)
        if published_at is None:
            continue
        source = _plain_text(node.findtext("source")) or "unknown"
        items.append(
            NewsItem(
                title=title,
                snippet=_plain_text(node.findtext("description")),
                source=source,
                url=clean_link((node.findtext("link") or "").strip()),
                published_at=published_at,
                tagged_asset=tag,
            )
        )
    return items


def _published_date(item: NewsItem) -> dt.date:
    return dt.datetime.fromtimestamp(item.published_at, dt.timezone.utc).date()


def filter_news_window(items: Iterable[NewsItem], start: dt.date, end: dt.date) -> list[NewsItem]:
    """Keep items whose UTC publication date lies in [start, end]."""
    return [i for i in items if start <= _published_date(i) <= end]


def news_days(items: Iterable[NewsItem],
              days: Iterable[dt.date]) -> list[tuple[dt.date, list[NewsItem]]]:
    """Fetched items bucketed for the store: one ``(day, items)`` pair
    per listed day, holding the items whose UTC publication date is that
    day. Empty days keep their pair, so the store records that the day
    was covered; items from unlisted days are dropped."""
    buckets: dict[dt.date, list[NewsItem]] = {day: [] for day in days}
    for item in items:
        bucket = buckets.get(_published_date(item))
        if bucket is not None:
            bucket.append(item)
    return list(buckets.items())


def rank_news(items: Iterable[NewsItem]) -> list[NewsItem]:
    """Newest first; items published in the same second keep their order."""
    return sorted(items, key=lambda i: -i.published_at)


def fetch_news(
    tag: str,
    kind: MarketKind,
    start: dt.date,
    end: dt.date,
    policy: FetchPolicy,
    reference: dt.datetime | None = None,
) -> list[NewsItem]:
    """Items for one tag published within [start, end], newest first."""
    reference = reference or dt.datetime.now(dt.timezone.utc)
    query = build_news_query(tag, kind)
    # Provider-side date operators are exclusive on both edges.
    q = (
        f"{query} after:{(start - dt.timedelta(days=1)).isoformat()}"
        f" before:{(end + dt.timedelta(days=1)).isoformat()}"
    )
    params = {"q": q, "hl": "en-US", "gl": "US", "ceid": "US:en"}
    items = get(policy, RSS_URL, params, lambda body: parse_news_rss(body, tag, reference))
    return rank_news(filter_news_window(items, start, end))
