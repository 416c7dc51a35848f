"""Daily equity bars and latest quotes.

The chart endpoint takes a half-open epoch window [period1, period2),
so a request for bars through day D passes midnight of D+1. Parsing is
split out so payload handling is testable without a network.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from typing import Any
from zoneinfo import ZoneInfo

from ..domain import PricePoint
from ..errors import ProviderError
from .policy import FetchPolicy, epoch_date, get, utc_midnight

__all__ = [
    "CHART_URL",
    "parse_chart_payload",
    "parse_quote_payload",
    "fetch_equity_history",
    "fetch_equity_quote",
]

CHART_URL = "https://query1.finance.yahoo.com/v8/finance/chart/{symbol}"

# A bar's date is its trading day on the exchange's clock.
_EXCHANGE_TZ = ZoneInfo("America/New_York")


def _chart_result(payload: Any) -> dict:
    try:
        chart = payload["chart"]
    except (TypeError, KeyError) as exc:
        raise ProviderError("chart payload missing 'chart'") from exc
    if chart.get("error"):
        raise ProviderError(f"provider error: {chart['error']}")
    results = chart.get("result") or []
    if not results:
        raise ProviderError("chart payload has no result")
    return results[0]


def parse_chart_payload(payload: Any) -> list[PricePoint]:
    """Bars from one chart response, oldest first.

    Prefers adjusted closes, falls back to raw closes, and drops bars
    with no finite positive price or no usable timestamp (see
    ``epoch_date``). Timestamps become exchange-local dates.
    """
    result = _chart_result(payload)
    timestamps = result.get("timestamp") or []
    indicators = result.get("indicators") or {}
    quote = (indicators.get("quote") or [{}])[0]
    closes = quote.get("close") or [None] * len(timestamps)
    volumes = quote.get("volume") or [None] * len(timestamps)
    adjusted = (indicators.get("adjclose") or [{}])[0].get("adjclose")
    if adjusted is None:
        adjusted = [None] * len(timestamps)

    points = []
    for ts, close, adj, volume in zip(timestamps, closes, adjusted, volumes):
        price = adj if adj is not None else close
        date = epoch_date(ts, _EXCHANGE_TZ)
        if price is None or not 0 < price < math.inf or date is None:
            continue
        points.append(PricePoint(date, float(price), None if volume is None else float(volume)))
    points.sort(key=lambda p: p.date)
    return points


def parse_quote_payload(payload: Any) -> PricePoint:
    """Latest trade from chart metadata: the best available price today."""
    result = _chart_result(payload)
    meta = result.get("meta") or {}
    price = meta.get("regularMarketPrice")
    date = epoch_date(meta.get("regularMarketTime"), _EXCHANGE_TZ)
    if price is None or date is None or not 0 < price < math.inf:
        raise ProviderError("quote payload lacks a usable market price")
    return PricePoint(date, float(price), None)


def fetch_equity_history(ticker: str, start: dt.date, end: dt.date,
                         policy: FetchPolicy) -> list[PricePoint]:
    """Daily bars with dates in [start, end], inclusive."""
    params = {"period1": utc_midnight(start), "period2": utc_midnight(end + dt.timedelta(days=1)),
              "interval": "1d", "events": "div,splits"}
    points = get(policy, CHART_URL.format(symbol=ticker), params,
                 lambda body: parse_chart_payload(json.loads(body)))
    return [p for p in points if start <= p.date <= end]


def fetch_equity_quote(ticker: str, policy: FetchPolicy) -> PricePoint:
    """Latest available trade for the ticker."""
    params = {"interval": "1d", "range": "1d"}
    return get(policy, CHART_URL.format(symbol=ticker), params,
               lambda body: parse_quote_payload(json.loads(body)))
