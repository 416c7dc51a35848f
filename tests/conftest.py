"""Shared fixtures and the golden-file helper."""

from __future__ import annotations

import datetime as dt
import io
import os
import socket
from pathlib import Path
from typing import Iterable
from urllib.error import HTTPError

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
    but localhost's, so a provider call that lost its injected fake
    fails here instead of reaching the network or a name server. The
    socket is closed first, so no unclosed-socket warning follows."""
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
    """Stands in for a module's ``urlopen``: records each ``(request,
    timeout)`` and answers with the next scripted reply. A reply is an
    exception to raise, a ready reply object, or a ``(status, text)``
    pair; a status of 400 or more raises ``HTTPError``, as ``urlopen``
    does, and the raised errors are kept in ``errors``."""

    def __init__(self, *replies) -> None:
        self.replies = list(replies)
        self.calls: list = []
        self.errors: list[HTTPError] = []

    def __call__(self, request, timeout):
        self.calls.append((request, timeout))
        reply = self.replies.pop(0)
        if isinstance(reply, BaseException):
            raise reply
        if not isinstance(reply, tuple):
            return reply
        status, text = reply
        if status < 400:
            return FakeReply(status, text.encode())
        error = HTTPError(request.full_url, status, "error", {}, io.BytesIO(text.encode()))
        self.errors.append(error)
        raise error


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
