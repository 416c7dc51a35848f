"""Raw provider data to canonical values.

Covers the three unit messes real feeds produce: prediction prices
quoted either as probabilities or as cents, news timestamps in half a
dozen shapes (relative phrases included), and redirect-wrapped article
links.
"""

from __future__ import annotations

import datetime as dt
import re
from urllib.parse import parse_qs, urlencode, urlparse, urlunparse

from ..domain import PUBLISHED_AT_RANGE
from ..errors import NormalizationError

__all__ = ["normalize_prediction_quote", "parse_news_timestamp", "clean_link"]


def normalize_prediction_quote(value: float) -> float:
    """Map a quoted outcome price onto (0, 1].

    Quotes in (0, 1] are already probabilities; quotes in (1, 100] are
    cents and divide by 100. Anything else is rejected rather than
    guessed at. Applying the function twice changes nothing.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NormalizationError(f"quote must be a number, got {value!r}")
    if 0 < value <= 1:
        return float(value)
    if 1 < value <= 100:
        return float(value) / 100.0
    raise NormalizationError(f"quote {value!r} fits no known convention")


_RELATIVE = re.compile(
    r"^\s*(\d+)\s+(second|minute|min|hour|hr|day|week)s?\s+ago\s*$",
    re.IGNORECASE,
)

_RELATIVE_SECONDS = {
    "second": 1,
    "minute": 60,
    "min": 60,
    "hour": 3600,
    "hr": 3600,
    "day": 86400,
    "week": 604800,
}

_ABSOLUTE_FORMATS = ("%b %d, %Y", "%B %d, %Y", "%d %b %Y", "%m/%d/%Y")


def parse_news_timestamp(text: str, reference: dt.datetime) -> int | None:
    """Published-time text to UNIX seconds in ``PUBLISHED_AT_RANGE``; None
    for anything else. Never raises.

    Relative phrases ("3 hours ago") count back from ``reference``.
    Naive absolute times are taken as UTC. Callers drop items that
    return None.
    """
    if not isinstance(text, str) or not text.strip():
        return None
    if reference.tzinfo is None:
        reference = reference.replace(tzinfo=dt.timezone.utc)
    try:
        moment = _moment(text.strip(), reference)
        if moment is None:
            return None
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=dt.timezone.utc)
        seconds = int(moment.timestamp())
    except (OverflowError, ValueError):  # a count or a field too large for a datetime
        return None
    return seconds if seconds in PUBLISHED_AT_RANGE else None


def _moment(text: str, reference: dt.datetime) -> dt.datetime | None:
    match = _RELATIVE.match(text)
    if match:
        amount, unit = int(match.group(1)), match.group(2).lower()
        return reference - dt.timedelta(seconds=amount * _RELATIVE_SECONDS[unit])
    if text.lower() == "yesterday":
        return reference - dt.timedelta(days=1)
    import email.utils  # here, so that a replay run never loads it

    try:
        return email.utils.parsedate_to_datetime(text)
    except (TypeError, ValueError):
        pass
    try:
        return dt.datetime.fromisoformat(text)
    except ValueError:
        pass
    for fmt in _ABSOLUTE_FORMATS:
        try:
            return dt.datetime.strptime(text, fmt)
        except ValueError:
            continue
    return None


_REDIRECT_HOSTS = {"news.google.com", "www.google.com", "google.com"}
_REDIRECT_PARAMS = ("url", "u", "q")
_TRACKING_PREFIXES = ("utm_",)
_TRACKING_PARAMS = {"oc", "ved", "usg", "fbclid", "gclid"}


def clean_link(url: str) -> str:
    """Unwrap known redirectors and strip tracking query parameters; a
    URL that cannot be parsed is returned unchanged."""
    if not url:
        return url
    try:
        parsed = urlparse(url)
    except ValueError:  # an unbalanced IPv6 bracket, say
        return url
    if parsed.hostname in _REDIRECT_HOSTS:
        query = parse_qs(parsed.query)
        for param in _REDIRECT_PARAMS:
            values = query.get(param)
            if values and values[0].startswith(("http://", "https://")):
                return clean_link(values[0])
    if not parsed.query:
        return url
    kept = [
        (k, v)
        for k, v in parse_qs(parsed.query, keep_blank_values=True).items()
        if not k.lower().startswith(_TRACKING_PREFIXES) and k.lower() not in _TRACKING_PARAMS
    ]
    flat = [(k, item) for k, values in kept for item in values]
    return urlunparse(parsed._replace(query=urlencode(flat)))
