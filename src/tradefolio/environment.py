"""The trading session: observe, decide, rebalance, record.

``run_episode`` does all four for every step, in one loop. One session
is single-threaded and owns its agent, memory, book and records. What
it observes is a ``MarketMemo``'s: one ``Observation`` per date, read
once and shared by every session of a run, threads included, as none
of it depends on a session. The decision made from the observation at
date t executes at the next date's prices: the session's book is
marked to those prices first, then redivided in the target
proportions. Every step appends one record carrying the full audit
trail, and a session driven twice over the same frozen data produces
byte-identical records. A model-provider failure halts the session
with the steps so far; any other error propagates.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import threading
from dataclasses import dataclass, replace
from enum import Enum
from types import MappingProxyType
from typing import Callable, Sequence, TypeVar

from .accounting import RENORMALIZE_BAND, rebalance
from .agents.baselines import all_cash_allocation, hold_allocation
from .agents.harness import Agent, AgentDecision
from .agents.parsing import parse_allocation_response, render_allocation_response
from .dated import DatedRows
from .domain import (
    AllocationVector,
    Holdings,
    MarketSpec,
    MemoryEntry,
    Observation,
    PriceVector,
)
from .errors import AllocationError, ClientError, FeedUnavailable, ParseError
from .ingestion.feeds import HISTORY_LOOKBACK_DAYS, Feed
from .ingestion.news import NEWS_WINDOW_DAYS

__all__ = [
    "DEFAULT_RETRIES",
    "DEFAULT_MEMORY_HORIZON",
    "SessionStatus",
    "SessionRecord",
    "SessionState",
    "ResumePoint",
    "memory_entry",
    "MarketMemo",
    "build_observation",
    "run_episode",
]

DEFAULT_RETRIES = 2
DEFAULT_MEMORY_HORIZON = 10  # the decisions an agent is shown, newest last

_OFF_CADENCE = AgentDecision.hold("hold until next rebalance date")


class SessionStatus(Enum):
    RUNNING = "running"
    ENDED = "ended"
    HALTED = "halted"


@dataclass(frozen=True)
class SessionRecord:
    """One executed step: what the agent observed (prices, holdings
    before, how many news items, which prices were stale), the raw model
    exchange, and the accounting outcome. Field order is the wire order
    of ``tradefolio.sessionlog``, which alone encodes records."""

    date: dt.date
    prices: dict[str, float]
    holdings_before: dict[str, float]
    news_count: int
    stale: tuple[str, ...]
    prompt_sha256: str | None
    raw_response: str
    parse_error: str | None
    attempts: int
    allocation: dict[str, float] | None
    holdings_after: dict[str, float]
    prices_after: dict[str, float]
    value: float
    step_return: float


@dataclass(frozen=True)
class SessionState:
    """A session after some number of executed steps.

    The records are its whole history, the same records its log holds;
    the step count, the book and the value series are derived from
    them, so a state rebuilt from a log equals the live one. They are a
    tuple, or a resumed log's records, which decode on first read and,
    like a tuple, give a new sequence when a record is added.
    """

    spec: MarketSpec
    initial_capital: float
    records: tuple[SessionRecord, ...] | DatedRows[SessionRecord] = ()
    status: SessionStatus = SessionStatus.RUNNING
    halt_reason: str | None = None

    @classmethod
    def initial(cls, spec: MarketSpec, initial_capital: float) -> "SessionState":
        if not initial_capital > 0:
            raise ValueError(f"initial capital must be positive, got {initial_capital}")
        return cls(spec, float(initial_capital))

    @property
    def step(self) -> int:
        return len(self.records)

    @property
    def holdings(self) -> Holdings:
        if self.records:
            return Holdings(self.records[-1].holdings_after)
        return Holdings({a: (self.initial_capital if a == self.spec.cash else 0.0)
                         for a in self.spec.assets})

    @property
    def value(self) -> float:
        return self.records[-1].value if self.records else self.initial_capital

    @property
    def value_series(self) -> tuple[float, ...]:
        return (self.initial_capital,) + tuple(r.value for r in self.records)


@dataclass(frozen=True)
class ResumePoint:
    """Mid-session state rebuilt from a log, ready to continue.

    ``memory`` holds the entries built from the logged records, oldest
    first. Its last entry's allocation is the previous step's executed
    one, which a step whose response never validates re-applies (all
    cash while it is empty).
    """

    state: SessionState
    memory: tuple[MemoryEntry, ...]


def memory_entry(record: SessionRecord, allocation: AllocationVector,
                 initial_capital: float) -> MemoryEntry:
    """What the agent remembers of one executed step."""
    return MemoryEntry(
        date=record.date,
        allocation=allocation,
        cumulative_return=(record.value - initial_capital) / initial_capital,
    )


_T = TypeVar("_T")


class MarketMemo:
    """One run's market, date by date, read once and shared by its sessions.

    For each date it keeps every asset's price with the stale set, and
    the ``Observation`` at that date. Each is read from the feed on
    first request and handed out again after that, the same objects to
    every session, so sessions stepping over the same dates, in one
    thread or several, price, read and rank each date once. A read that
    raises keeps nothing, and the next request reads again. A builder
    may ask the memo for what it needs, as an observation asks for its
    date's prices. It keeps one entry per date asked for, and lives as
    long as whoever built it keeps it.
    """

    def __init__(self, feed: Feed, spec: MarketSpec,
                 lookback_days: int = HISTORY_LOOKBACK_DAYS,
                 news_window_days: int = NEWS_WINDOW_DAYS) -> None:
        self.feed = feed
        self.spec = spec
        self.lookback_days = lookback_days
        self.news_window_days = news_window_days
        self._prices: dict[dt.date, tuple[PriceVector, frozenset[str]]] = {}
        self._observations: dict[dt.date, Observation] = {}
        # one builder at a time, so two threads asking for a new date read it once
        self._lock = threading.RLock()

    def _once(self, table: dict[dt.date, _T], date: dt.date,
              build: Callable[[dt.date], _T]) -> _T:
        got = table.get(date)
        if got is None:
            with self._lock:
                got = table.get(date)
                if got is None:
                    got = table[date] = build(date)
        return got

    def prices(self, date: dt.date) -> tuple[PriceVector, frozenset[str]]:
        """Price every asset at a date, carrying stale closes forward,
        and name the stale ones.

        Cash is always 1.0. An asset with no price at or before the date at
        all raises ``FeedUnavailable`` naming the date; one whose latest
        close predates the date is flagged stale rather than guessed at.
        """
        return self._once(self._prices, date, self._price)

    def _price(self, date: dt.date) -> tuple[PriceVector, frozenset[str]]:
        prices: dict[str, float] = {}
        stale: set[str] = set()
        for asset in self.spec.assets:
            if asset == self.spec.cash:
                prices[asset] = 1.0
                continue
            point = self.feed.latest_price(asset, date)
            if point is None:
                raise FeedUnavailable(f"no price at or before {date} for {asset!r}", date)
            prices[asset] = point.price
            if point.date < date:
                stale.add(asset)
        return PriceVector(date, prices), frozenset(stale)

    def observe(self, date: dt.date) -> Observation:
        """What an agent may see at a date: one object per date, the
        same for every session and every call.

        Price history spans the lookback window that ends the day
        before, as a read-only mapping; news spans the trailing window
        ending the day before as well, as the feed gives it for the
        date: newest first, and none published at or after the date's
        UTC midnight, whatever day stores it, so the decision date
        itself never leaks through side channels.
        """
        return self._once(self._observations, date, self._observation)

    def _observation(self, date: dt.date) -> Observation:
        prices, stale = self.prices(date)
        day = dt.timedelta(days=1)
        history = MappingProxyType({
            a: self.feed.price_window(a, date - dt.timedelta(days=self.lookback_days),
                                      date - day)
            for a in self.spec.assets
            if a != self.spec.cash
        })
        news = tuple(
            item
            for tag in self.spec.news_tags
            for item in self.feed.news_window(
                tag, date - dt.timedelta(days=self.news_window_days), date - day,
                target=date)
        )
        return Observation(date=date, prices=prices, news=news,
                           price_history=history, stale=stale)


def build_observation(
    state: SessionState,
    feed: Feed,
    date: dt.date,
    lookback_days: int = HISTORY_LOOKBACK_DAYS,
    news_window_days: int = NEWS_WINDOW_DAYS,
) -> Observation:
    """What an agent may see at one date, read afresh from the feed;
    see ``MarketMemo.observe``. Only the state's market is read."""
    return MarketMemo(feed, state.spec, lookback_days, news_window_days).observe(date)


def _decide(
    agent: Agent | None,
    spec: MarketSpec,
    obs: Observation,
    memory: tuple[MemoryEntry, ...],
    book: Holdings,
    exec_prices: PriceVector,
    max_retries: int,
    parse: Callable[[str], AllocationVector],
) -> tuple[str | None, str, str | None, AllocationVector | None, int]:
    """The record's prompt, raw response, parse error, allocation and
    attempts for one step; ``agent`` is None off cadence, which holds.

    Every attempt is a fresh agent call with the same observation and
    memory, so an ``LLMAgent`` retry sends the prompt already rendered
    for this step, and the prompt is the prompt of every attempt. A
    decision that holds keeps the session's ``book``, its weights at
    execution prices. Otherwise ``parse`` reads the response until it validates or
    the retries run out; the last raw response is kept either way.
    """
    attempts = 0
    while True:
        attempts += 1
        decision = _OFF_CADENCE if agent is None else agent.decide(spec, obs, memory)
        if decision.holds:
            held = hold_allocation(spec, book, exec_prices)
            raw = render_allocation_response(decision.raw_response, held)
            return decision.prompt, raw, None, held, attempts
        try:
            allocation = parse(decision.raw_response)
        except (ParseError, AllocationError) as exc:
            if attempts <= max_retries:
                continue
            return (decision.prompt, decision.raw_response,
                    f"{type(exc).__name__}: {exc}", None, attempts)
        return decision.prompt, decision.raw_response, None, allocation, attempts


def run_episode(
    spec: MarketSpec,
    agent: Agent,
    feed: Feed | MarketMemo,
    dates: Sequence[dt.date],
    initial_capital: float,
    max_retries: int = DEFAULT_RETRIES,
    memory_horizon: int = DEFAULT_MEMORY_HORIZON,
    lookback_days: int = HISTORY_LOOKBACK_DAYS,
    news_window_days: int = NEWS_WINDOW_DAYS,
    band: float = RENORMALIZE_BAND,
    resume: ResumePoint | None = None,
    on_record: Callable[[SessionRecord], None] | None = None,
    rebalance_interval: int = 1,
) -> tuple[SessionState, Sequence[SessionRecord]]:
    """Drive one session across consecutive dates.

    A decision is made at every date except the last, and executes at
    the following date's prices; the final date only revalues the book.
    Only every ``rebalance_interval``-th step asks the agent; the steps
    in between hold the current book at execution prices, as does an
    agent that decides to hold. Unusable responses are retried
    ``max_retries`` times, then the previous step's executed allocation
    (the last memory entry's; all cash before any) is re-applied. Each
    step's record is built here from the observation, the session's
    book, the decision and the rebalance at execution prices. The session halts,
    never crashes, when a model provider gives out (``ClientError``);
    the steps before it are kept. Returns the final state and its
    records.

    ``feed`` is a run's shared ``MarketMemo``, built for this market and
    these windows, or a plain feed, which gets a memo of its own.

    Parsing is a pure function of the response text, the spec and the
    band, and the last two are fixed for a session, so the session keeps
    its last text that validated with the allocation it gave: a response
    equal to it reuses that allocation without parsing again. A text
    that fails is never kept, so every failing attempt is parsed afresh.
    The memo is this call's alone, so sessions share none and a resumed
    session starts without one.
    """
    if rebalance_interval < 1:
        raise ValueError(f"rebalance_interval must be >= 1, got {rebalance_interval}")
    if memory_horizon < 1:
        raise ValueError(f"memory_horizon must be at least 1, got {memory_horizon}")
    dates = list(dates)
    if not dates:
        raise ValueError("need at least one date")
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise ValueError(f"dates must be strictly increasing, got {a} then {b}")

    if isinstance(feed, MarketMemo):
        market = feed
        if (market.spec, market.lookback_days, market.news_window_days) != (
                spec, lookback_days, news_window_days):
            raise ValueError("the market memo was built for another market or other windows")
    else:
        market = MarketMemo(feed, spec, lookback_days, news_window_days)

    if resume is not None:
        state, memory = resume.state, resume.memory
    else:
        state, memory = SessionState.initial(spec, initial_capital), ()

    validated: tuple[str, AllocationVector] | None = None  # the last text that parsed

    def parse(raw: str) -> AllocationVector:
        nonlocal validated
        if validated is None or validated[0] != raw:
            validated = (raw, parse_allocation_response(raw, spec, band=band)[1])
        return validated[1]

    try:
        for i in range(len(dates) - 1):
            date, exec_date = dates[i], dates[i + 1]
            obs, book = market.observe(date), state.holdings
            exec_prices = market.prices(exec_date)[0]
            # an off-cadence step asks no agent and holds
            prompt, raw, error, allocation, attempts = _decide(
                None if state.step % rebalance_interval else agent,
                spec, obs, memory, book, exec_prices, max_retries, parse)
            if allocation is not None:
                action = allocation
            elif memory:
                # the previous step's allocation, so the last validated or held one
                action = memory[-1].allocation
            else:
                action = all_cash_allocation(spec)
            result = rebalance(book, exec_prices.prices, action, cash=spec.cash)
            value = result.pre_trade_value
            record = SessionRecord(
                date=date,
                prices=dict(obs.prices.prices),
                holdings_before=dict(book.units),
                news_count=len(obs.news),
                stale=tuple(sorted(obs.stale)),
                prompt_sha256=(None if prompt is None
                               else hashlib.sha256(prompt.encode("utf-8")).hexdigest()),
                raw_response=raw,
                parse_error=error,
                attempts=attempts,
                allocation=None if allocation is None else dict(allocation.weights),
                holdings_after=dict(result.new_holdings.units),
                prices_after=dict(exec_prices.prices),
                value=value,
                step_return=(value - state.value) / state.value,
            )
            state = replace(state, records=state.records + (record,))
            entry = memory_entry(record, action, state.initial_capital)
            memory = (*memory, entry)[-memory_horizon:]
            if on_record is not None:
                on_record(record)
    except ClientError as exc:
        state = replace(state, status=SessionStatus.HALTED,
                        halt_reason=f"{type(exc).__name__}: {exc}")
        return state, state.records
    state = replace(state, status=SessionStatus.ENDED)
    return state, state.records
