"""Shared fixtures and the golden-file helper."""

from __future__ import annotations

import datetime as dt
import io
import json
import os
import socket
import urllib.request
from pathlib import Path
from typing import Iterable
from urllib.error import HTTPError
from urllib.parse import parse_qsl, urlsplit

import pytest

from tradefolio.agents.clients import ModelClientConfig, ScriptedClient
from tradefolio.agents.harness import LLMAgent
from tradefolio.domain import MarketSpec, NewsItem, Observation, PricePoint, PriceVector

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDENS = Path(__file__).resolve().parent / "goldens"


def assert_golden(name: str, text: str) -> None:
    """Compare against a committed golden file, byte for byte.

    Set UPDATE_GOLDENS=1 to rewrite the files after an intentional
    rendering change.
    """
    path = GOLDENS / name
    if os.environ.get("UPDATE_GOLDENS") == "1":
        GOLDENS.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"missing golden {path}; run with UPDATE_GOLDENS=1 once"
    expected = path.read_text(encoding="utf-8")
    assert text == expected, (
        f"output no longer matches goldens/{name}; "
        "if the change is intentional, regenerate with UPDATE_GOLDENS=1"
    )


def scripted_agent(responses: Iterable[str]) -> LLMAgent:
    """An ``LLMAgent`` named ``test/scripted`` whose client answers with
    ``responses`` in order, repeating the last; ``agent.client.prompts``
    holds every prompt it was sent."""
    return LLMAgent(ScriptedClient(responses), ModelClientConfig(model="test/scripted"))


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    """Refuse every internet-family connect, and every host name lookup
    but localhost's, so a provider call in a test that did not patch
    ``urllib.request.urlopen`` fails here instead of reaching the network
    or a name server. The socket is closed first, so no unclosed-socket
    warning follows."""
    connect = socket.socket.connect
    getaddrinfo = socket.getaddrinfo

    def refuse_lookup(host, *args, **kwargs):
        if host not in (None, "localhost", "127.0.0.1", "::1"):
            raise OSError(f"tests may not look up host names ({host!r})")
        return getaddrinfo(host, *args, **kwargs)

    def refuse(sock: socket.socket, address) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.close()
            raise OSError(f"tests may not open network connections (connect to {address!r})")
        connect(sock, address)

    monkeypatch.setattr(socket.socket, "connect", refuse)
    monkeypatch.setattr(socket, "getaddrinfo", refuse_lookup)


class FakeReply(io.BytesIO):
    """What the default transports read of a ``urlopen`` reply."""

    def __init__(self, status: int, body: bytes) -> None:
        super().__init__(body)
        self.status = status


class FakeUrlopen:
    """Stands in for ``urllib.request.urlopen``, where every provider
    request goes: patch that one name with it. ``routes`` maps a URL,
    without its query, to its replies, served in order with the last
    repeating; each ``(request, timeout)`` is recorded in ``calls``.

    A reply is an exception to raise, a ready reply object, a function
    of the request that returns a reply, or a ``(status, body)`` pair;
    any other value is a body sent with status 200. A body that is
    neither bytes nor text is sent as JSON. A status of 400 or more
    raises ``HTTPError``, as ``urlopen`` does, and the raised errors are
    kept in ``errors``."""

    def __init__(self, routes: dict[str, list]) -> None:
        self.routes = {url: list(replies) for url, replies in routes.items()}
        self.calls: list = []
        self.errors: list[HTTPError] = []

    def __call__(self, request, timeout):
        self.calls.append((request, timeout))
        replies = self.routes[request.full_url.partition("?")[0]]
        reply = replies.pop(0) if len(replies) > 1 else replies[0]
        if callable(reply):
            reply = reply(request)
        if isinstance(reply, BaseException):
            raise reply
        if hasattr(reply, "read"):
            return reply
        status, body = reply if isinstance(reply, tuple) else (200, reply)
        if not isinstance(body, (bytes, str)):
            body = json.dumps(body)
        if isinstance(body, str):
            body = body.encode()
        if status < 400:
            return FakeReply(status, body)
        error = HTTPError(request.full_url, status, "error", {}, io.BytesIO(body))
        self.errors.append(error)
        raise error


@pytest.fixture
def serve(monkeypatch):
    """``serve(routes)`` patches ``urllib.request.urlopen`` with a
    ``FakeUrlopen`` over ``routes`` and returns the fake."""

    def serve(routes: dict[str, list]) -> FakeUrlopen:
        fake = FakeUrlopen(routes)
        monkeypatch.setattr(urllib.request, "urlopen", fake)
        return fake

    return serve


def query(request) -> dict[str, str]:
    """The query parameters of a request ``FakeUrlopen`` recorded."""
    return dict(parse_qsl(urlsplit(request.full_url).query))


@pytest.fixture
def stock_spec() -> MarketSpec:
    return MarketSpec.stock(("AAPL", "MSFT", "NVDA"))


@pytest.fixture
def prediction_spec() -> MarketSpec:
    return MarketSpec.prediction((
        "Will the launch happen this quarter?",
        "Will turnout exceed sixty percent?",
    ))


def make_observation(
    spec: MarketSpec,
    date: dt.date,
    prices: dict[str, float],
    history: dict[str, list[tuple[str, float]]] | None = None,
    news: tuple[NewsItem, ...] = (),
) -> Observation:
    """Observation builder for prompt and feature tests."""
    full_prices = dict(prices)
    full_prices.setdefault(spec.cash, 1.0)
    price_history = {
        asset: tuple(PricePoint(dt.date.fromisoformat(d), p) for d, p in points)
        for asset, points in (history or {}).items()
    }
    return Observation(
        date=date,
        prices=PriceVector(date, full_prices),
        news=news,
        price_history=price_history,
        stale=frozenset(),
    )
