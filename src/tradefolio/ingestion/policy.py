"""Outbound requests: one request function and the data feeds' retries.

Every provider request, a data feed's GET and a model's POST alike,
goes through ``send``, which imports ``urllib.request`` when it is
first called, so a replay run never loads an HTTP library. Tests fake
the network by patching ``urllib.request.urlopen``.
"""

from __future__ import annotations

import datetime as dt
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, TypeVar
from urllib.parse import urlencode

from ..errors import ProviderError

__all__ = ["FetchPolicy", "backoff_delay", "epoch_date", "fetch_with_policy", "get", "send",
           "utc_midnight"]

T = TypeVar("T")


def send(url: str, headers: dict[str, str], timeout: float,
         data: bytes | None = None) -> tuple[int, bytes]:
    """The status and body of one GET of ``url``, or POST of ``data``,
    whatever the status; a request that gets no status raises
    ``OSError`` or ``http.client.HTTPException``."""
    from urllib.error import HTTPError
    from urllib.request import Request, urlopen

    try:
        with urlopen(Request(url, data, headers), timeout=timeout) as reply:
            return reply.status, reply.read()
    except HTTPError as exc:
        with exc:  # the error holds the response and its connection
            return exc.code, exc.read()


@dataclass(frozen=True)
class FetchPolicy:
    """How hard to try against a flaky provider.

    ``max_retries`` counts retries after the initial attempt. Retry n
    sleeps ``backoff_base * 2**(n-1)`` seconds plus a uniform draw from
    ``jitter_range`` before firing.
    """

    max_retries: int = 3
    backoff_base: float = 1.0
    jitter_range: tuple[float, float] = (0.1, 0.5)
    timeout: float = 10.0
    user_agent: str = "tradefolio/0.1 (market data collector)"

    def __post_init__(self) -> None:
        if self.max_retries < 1:
            raise ValueError(f"max_retries must be at least 1, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be non-negative")
        lo, hi = self.jitter_range
        if not (0 <= lo <= hi):
            raise ValueError(f"jitter_range must satisfy 0 <= lo <= hi, got {self.jitter_range}")
        if not self.timeout > 0:
            raise ValueError("timeout must be positive")


def backoff_delay(policy: FetchPolicy, retry: int, rng: random.Random) -> float:
    """Sleep before retry number ``retry`` (1-based)."""
    if retry < 1:
        raise ValueError(f"retry index is 1-based, got {retry}")
    lo, hi = policy.jitter_range
    return policy.backoff_base * 2 ** (retry - 1) + rng.uniform(lo, hi)


def fetch_with_policy(
    policy: FetchPolicy,
    request: Callable[[], T],
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
) -> T:
    """Run ``request`` under the policy's retry schedule.

    The final failure is wrapped in ``ProviderError`` with the attempt
    count; earlier failures only cost a backoff sleep.
    """
    rng = rng or random.Random()
    attempts = policy.max_retries + 1
    for attempt in range(1, attempts):
        try:
            return request()
        except Exception:
            sleep(backoff_delay(policy, attempt, rng))
    try:
        return request()
    except Exception as exc:
        raise ProviderError(f"request failed after {attempts} attempts: {exc}") from exc


def get(policy: FetchPolicy, url: str, params: dict[str, Any], parse: Callable[[bytes], T]) -> T:
    """``parse`` of one provider response body, under the policy's retries.

    A status of 400 or more, or a body that fails to parse, is retried
    like a failed request.
    """
    headers = {"User-Agent": policy.user_agent}

    def request() -> T:
        status, body = send(f"{url}?{urlencode(params)}", headers, policy.timeout)
        if status >= 400:
            raise ProviderError(f"HTTP {status}")
        return parse(body)

    return fetch_with_policy(policy, request)


def utc_midnight(date: dt.date) -> int:
    """Epoch seconds at the start of ``date`` in UTC."""
    return int(dt.datetime.combine(date, dt.time(), tzinfo=dt.timezone.utc).timestamp())


def epoch_date(seconds: Any, tz: dt.tzinfo) -> dt.date | None:
    """The date in ``tz`` at the whole ``seconds`` since the epoch; None,
    so that its sample is skipped, for a time that is not a number or
    that no datetime holds."""
    try:
        return dt.datetime.fromtimestamp(int(seconds), tz).date()
    except (OverflowError, TypeError, ValueError):
        return None
