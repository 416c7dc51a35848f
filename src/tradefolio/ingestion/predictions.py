"""Prediction-market discovery and outcome price histories.

Markets come from a catalog endpoint (one entry per event after
deduplication), prices from a token-level history endpoint quoted
either as probabilities or cents; everything lands in (0, 1] via
``normalize_prediction_quote``. Near-flat series carry no signal and
are dropped at discovery time.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from typing import Any

from ..domain import PricePoint
from ..errors import NormalizationError, ProviderError
from .normalize import normalize_prediction_quote
from .policy import FetchPolicy, epoch_date, get, utc_midnight
from .snapshots import MarketCatalogEntry

__all__ = [
    "MARKETS_URL",
    "HISTORY_URL",
    "EVENT_URL_TEMPLATE",
    "FLAT_SERIES_THRESHOLD",
    "DISCOVERY_LIMIT",
    "DiscoveredMarket",
    "is_flat_series",
    "parse_market_listing",
    "parse_price_history",
    "fetch_prediction_history",
    "discover_markets",
]

MARKETS_URL = "https://gamma-api.polymarket.com/markets"
HISTORY_URL = "https://clob.polymarket.com/prices-history"
EVENT_URL_TEMPLATE = "https://polymarket.com/event/{slug}"

# Series whose total range is below this carry no tradable signal.
FLAT_SERIES_THRESHOLD = 0.01

# How many markets discovery keeps, and a prediction run trades when it
# lists no questions.
DISCOVERY_LIMIT = 20

@dataclass(frozen=True)
class DiscoveredMarket:
    """Catalog entry plus the histories that justified keeping it."""

    entry: MarketCatalogEntry
    yes_history: tuple[PricePoint, ...]
    no_history: tuple[PricePoint, ...]


def is_flat_series(points: list[PricePoint] | tuple[PricePoint, ...]) -> bool:
    if not points:
        return True
    prices = [p.price for p in points]
    return max(prices) - min(prices) < FLAT_SERIES_THRESHOLD


def _token_ids(raw: Any) -> tuple[str, str] | None:
    # Token ids arrive either as a JSON-encoded string or a real list.
    if isinstance(raw, str):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError:
            return None
    if isinstance(raw, list) and len(raw) == 2 and all(isinstance(t, str) for t in raw):
        return raw[0], raw[1]
    return None


def parse_market_listing(payload: Any) -> list[MarketCatalogEntry]:
    """Catalog entries from one listing page, deduplicated by event slug.

    Rows without a question, a slug or a yes/no token pair, and rows
    whose question, slug or url is not text, are skipped; rows without a
    url get one constructed from the slug.
    """
    if not isinstance(payload, list):
        raise ProviderError("market listing payload must be a list")
    seen: set[str] = set()
    entries = []
    for row in payload:
        if not isinstance(row, dict):
            continue
        question = row.get("question")
        slug = row.get("slug") or row.get("eventSlug")
        url = row.get("url") or EVENT_URL_TEMPLATE.format(slug=slug)
        tokens = _token_ids(row.get("clobTokenIds"))
        if not all(f and isinstance(f, str) for f in (question, slug, url)) or tokens is None:
            continue
        if slug in seen:
            continue
        seen.add(slug)
        entries.append(MarketCatalogEntry(slug=slug, question=question,
                                          yes_token=tokens[0], no_token=tokens[1], url=url))
    return entries


def parse_price_history(payload: Any) -> list[PricePoint]:
    """Normalized daily closes from one token's history payload.

    Multiple samples on one UTC day collapse to the last usable one. A
    sample whose quote fits no convention (a resolved loser's 0, say), or
    whose time no datetime holds, is a fact of the data, not a failed
    request, so it is skipped; a day left with no usable sample gets no
    bar.
    """
    try:
        history = payload["history"]
    except (TypeError, KeyError) as exc:
        raise ProviderError("history payload missing 'history'") from exc
    if not isinstance(history, list):
        raise ProviderError("'history' must be a list")
    by_date: dict[dt.date, float] = {}
    for sample in history:
        if not isinstance(sample, dict) or "t" not in sample or "p" not in sample:
            raise ProviderError(f"malformed history sample: {sample!r}")
        date = epoch_date(sample["t"], dt.timezone.utc)
        if date is None:
            continue
        try:
            by_date[date] = normalize_prediction_quote(sample["p"])
        except NormalizationError:
            continue
    return [PricePoint(d, by_date[d]) for d in sorted(by_date)]


def fetch_prediction_history(token_id: str, start: dt.date, end: dt.date,
                             policy: FetchPolicy) -> list[PricePoint]:
    """Daily closes for one outcome token, dates in [start, end]."""
    params = {"market": token_id, "startTs": utc_midnight(start),
              "endTs": utc_midnight(end + dt.timedelta(days=1)), "fidelity": 1440}
    points = get(policy, HISTORY_URL, params, lambda body: parse_price_history(json.loads(body)))
    return [p for p in points if start <= p.date <= end]


def discover_markets(
    policy: FetchPolicy,
    history_start: dt.date,
    history_end: dt.date,
    limit: int = DISCOVERY_LIMIT,
) -> list[DiscoveredMarket]:
    """Active markets worth trading, with their price histories.

    Listing order is preserved. Markets whose yes-side history is empty
    or near-flat over the window are dropped.
    """
    params = {
        "active": "true",
        "closed": "false",
        "order": "volumeNum",
        "ascending": "false",
        "limit": max(limit * 3, limit),
    }
    candidates = get(policy, MARKETS_URL, params,
                     lambda body: parse_market_listing(json.loads(body)))

    kept: list[DiscoveredMarket] = []
    for entry in candidates:
        if len(kept) >= limit:
            break
        yes = fetch_prediction_history(entry.yes_token, history_start, history_end, policy)
        if is_flat_series(yes):
            continue
        no = fetch_prediction_history(entry.no_token, history_start, history_end, policy)
        kept.append(DiscoveredMarket(entry, tuple(yes), tuple(no)))
    return kept
