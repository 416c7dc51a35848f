"""Market data acquisition, normalization, and file-backed snapshots."""

from .feeds import Feed, ReplayFeed
from .normalize import clean_link, normalize_prediction_quote, parse_news_timestamp
from .policy import FetchPolicy, backoff_delay, fetch_with_policy
from .snapshots import MarketCatalogEntry, SnapshotStore

__all__ = [
    "Feed",
    "FetchPolicy",
    "MarketCatalogEntry",
    "ReplayFeed",
    "SnapshotStore",
    "backoff_delay",
    "clean_link",
    "fetch_with_policy",
    "normalize_prediction_quote",
    "parse_news_timestamp",
]
