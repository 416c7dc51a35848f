"""Session mechanics: observation windows, next-price execution, retries,
fallback, halting, per-step replay from the log, and a full-episode
oracle recomputation."""

import datetime as dt
import hashlib
import json
import shutil
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from zoneinfo import ZoneInfo

import pytest
from conftest import FIXTURES, scripted_agent

from tradefolio.accounting import rebalance
from tradefolio.agents.baselines import (
    AllCashAgent,
    BuyAndHoldAgent,
    EqualWeightAgent,
    all_cash_allocation,
    equal_weight_allocation,
    hold_allocation,
)
from tradefolio.agents.harness import AgentDecision
from tradefolio.agents.parsing import parse_allocation_response, render_allocation_response
from tradefolio.agents import prompts
from tradefolio.agents.prompts import (
    LINE_CACHE_PROMPTS,
    _history_line,
    _news_text,
    build_context_prompt,
    build_decision_prompt,
)
from tradefolio.cli import _build_spec
from tradefolio.config import load_config
from tradefolio.domain import (
    AllocationVector,
    Holdings,
    MarketKind,
    MarketSpec,
    MemoryEntry,
    NewsItem,
    PriceVector,
)
from tradefolio.environment import (
    MarketMemo,
    ResumePoint,
    SessionState,
    SessionStatus,
    build_observation,
    run_episode,
)
from tradefolio.errors import ClientError, FeedUnavailable
from tradefolio.ingestion.feeds import ReplayFeed
from tradefolio.ingestion.snapshots import SnapshotStore
from tradefolio.sessionlog import (
    SessionLogHeader,
    SessionLogWriter,
    effective_allocations,
    read_session_log,
)
from tradefolio.synthetic import seed_stock_store

D = dt.date
TOL = 1e-9


@pytest.fixture
def stock_world(tmp_path):
    """Seeded three-ticker store over eight weekdays."""
    spec = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
    dates = seed_stock_store(tmp_path, spec.assets[:-1], D(2025, 3, 3), 8, seed=3)
    store = SnapshotStore(tmp_path)
    return spec, store, ReplayFeed(store, MarketKind.STOCK), dates


def _prices_at(store, spec, date):
    out = {spec.cash: 1.0}
    for a in spec.assets:
        if a != spec.cash:
            out[a] = store.latest_price("stock", a, date).price
    return out


def _render(weights):
    return json.dumps({"reasoning": "scripted", "allocations": weights})


# -- building observations -----------------------------------------------------


def test_memo_prices_flag_stale_and_price_cash(tmp_path):
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "AAPL", D(2025, 3, 3), 100.0)
    store.upsert_price("stock", "AAPL", D(2025, 3, 4), 101.0)
    store.upsert_price("stock", "MSFT", D(2025, 3, 3), 400.0)
    feed = ReplayFeed(store, MarketKind.STOCK)

    vector, stale = MarketMemo(feed, spec).prices(D(2025, 3, 4))
    assert vector.prices == {"AAPL": 101.0, "MSFT": 400.0, "CASH": 1.0}
    assert stale == frozenset({"MSFT"})

    with pytest.raises(FeedUnavailable,
                       match="no price at or before 2025-03-02 for 'AAPL'") as info:
        MarketMemo(feed, spec).prices(D(2025, 3, 2))
    assert info.value.date == D(2025, 3, 2)


def test_observation_windows_exclude_decision_date(stock_world):
    spec, store, feed, dates = stock_world
    state = SessionState.initial(spec, 1000.0)
    date = dates[4]
    obs = build_observation(state, feed, date)

    assert obs.date == date
    for asset, points in obs.price_history.items():
        assert asset != spec.cash
        assert all(date - dt.timedelta(days=10) <= p.date <= date - dt.timedelta(days=1)
                   for p in points)
    for item in obs.news:
        day = dt.datetime.fromtimestamp(item.published_at, dt.timezone.utc).date()
        assert date - dt.timedelta(days=3) <= day <= date - dt.timedelta(days=1)
    # the seeded store posts news on every third weekday, so the window is nonempty
    assert obs.news


def test_news_published_on_the_decision_date_is_dropped_whatever_day_holds_it(tmp_path):
    spec = MarketSpec.stock(("AAPL",))
    store = SnapshotStore(tmp_path)
    for day in (D(2025, 3, 7), D(2025, 3, 10), D(2025, 3, 11)):
        store.upsert_price("stock", "AAPL", day, 100.0)
    late = NewsItem(title="published on the tenth", snippet="", source="wire",
                    url="https://example.com", tagged_asset="AAPL",
                    published_at=int(dt.datetime(2025, 3, 10, 15, tzinfo=dt.timezone.utc)
                                     .timestamp()))
    store.upsert_news("AAPL", D(2025, 3, 9), [late])  # stored a day early
    feed = ReplayFeed(store, MarketKind.STOCK)
    state = SessionState.initial(spec, 1000.0)
    assert build_observation(state, feed, D(2025, 3, 10)).news == ()
    assert build_observation(state, feed, D(2025, 3, 11)).news == (late,)


def _later_rows_changed(store, cut):
    """Scale every price after ``cut`` by 1.37 and prefix every later
    news title, in place; rows up to ``cut`` keep their bytes."""
    for series in [*(store / "prices").rglob("*.jsonl"), *(store / "news").glob("*.jsonl")]:
        header, *rows = series.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, line in enumerate(rows):
            row = json.loads(line)
            if D.fromisoformat(row["date"]) > cut:
                if "price" in row:
                    row["price"] *= 1.37
                else:
                    for item in row["items"]:
                        item["title"] = "LATER " + item["title"]
                rows[i] = json.dumps(row) + "\n"
        series.write_text(header + "".join(rows), encoding="utf-8")


@pytest.mark.parametrize("config_name", ["stock-replay.yaml", "prediction-replay.yaml"])
def test_nothing_after_the_decision_date_reaches_a_prompt_or_a_record(tmp_path, config_name):
    cfg = load_config(FIXTURES / config_name)
    dates = list(cfg.dates)

    def session(store_dir, dates):
        store = SnapshotStore(store_dir)
        spec, keys = _build_spec(cfg, store)
        risky = [p.yes for p in spec.pairs] or [a for a in spec.assets if a != spec.cash]
        weights = {**{a: 0.2 for a in risky}, spec.cash: 1.0 - 0.2 * len(risky)}
        agent = scripted_agent([_render(weights)])
        _, records = run_episode(spec, agent, ReplayFeed(store, cfg.market, keys), dates,
                                 cfg.initial_capital, memory_horizon=cfg.memory_horizon,
                                 lookback_days=cfg.lookback_days,
                                 news_window_days=cfg.news_window_days)
        return agent.client.prompts, records

    prompts, records = session(cfg.store, dates)
    for cut in (len(dates) // 4, len(dates) // 2, 3 * len(dates) // 4):
        copy = tmp_path / f"{config_name}-{cut}"
        shutil.copytree(cfg.store, copy)
        _later_rows_changed(copy, dates[cut])
        # up to the first decision after the cut date
        changed_prompts, changed_records = session(copy, dates[:cut + 3])
        assert changed_prompts[:cut + 1] == prompts[:cut + 1]
        assert changed_prompts[cut + 1] != prompts[cut + 1]
        # record i executes at dates[i + 1]
        assert changed_records[:cut] == records[:cut]
        assert changed_records[cut] != records[cut]


# -- one step ---------------------------------------------------------------------


def test_step_marks_then_redivides(stock_world):
    spec, store, feed, dates = stock_world
    exec_prices, _ = MarketMemo(feed, spec).prices(dates[1])
    target = {"AAPL": 0.5, "MSFT": 0.3, "NVDA": 0.0, "CASH": 0.2}

    after, _ = run_episode(spec, scripted_agent([_render(target)]), feed, dates[:2], 1000.0)

    # all cash marks to the same value, then splits at execution prices
    assert after.value == pytest.approx(1000.0, abs=TOL)
    p = exec_prices.prices
    assert after.holdings.units["AAPL"] == pytest.approx(500.0 / p["AAPL"], rel=TOL)
    assert after.holdings.units["MSFT"] == pytest.approx(300.0 / p["MSFT"], rel=TOL)
    assert after.holdings.units["NVDA"] == 0.0
    assert after.holdings.units["CASH"] == pytest.approx(200.0, rel=TOL)

    record = after.records[-1]
    assert record.date == dates[0]
    assert record.prices_after == p
    assert record.step_return == pytest.approx(0.0, abs=TOL)
    assert after.step == 1
    assert after.records == (record,)


class _Decisions:
    """Plays back fixed decisions in order, holds included."""

    name = "decisions"

    def __init__(self, decisions):
        self.decisions = iter(decisions)

    def decide(self, spec, obs, memory):
        return next(self.decisions)


def test_every_step_replays_from_its_record(tmp_path, stock_world):
    """Each logged step's book and value follow from its own record and
    the executed allocation, whatever produced that allocation."""
    spec, store, feed, dates = stock_world
    junk = AgentDecision(None, "junk")
    first = AgentDecision(None, _render({"AAPL": 0.5, "MSFT": 0.2, "NVDA": 0.1, "CASH": 0.2}))
    last = AgentDecision(None, _render({"AAPL": 0.1, "MSFT": 0.4, "NVDA": 0.3, "CASH": 0.2}))
    # step 0 is retried, 2 falls back, 4 holds, 6 validates; odd steps are off cadence
    agent = _Decisions([junk, first, junk, junk, junk, AgentDecision.hold("sit tight"), last])
    header = SessionLogHeader.for_run(spec, agent.name, 1000.0)
    writer = SessionLogWriter(tmp_path / "run.jsonl", header)
    _, records = run_episode(spec, agent, feed, dates, 1000.0, max_retries=2,
                             on_record=writer.append, rebalance_interval=2)
    header, loaded = read_session_log(tmp_path / "run.jsonl")
    assert loaded == records and len(loaded) == 7

    assert [r.attempts for r in loaded] == [2, 1, 3, 1, 1, 1, 1]
    assert loaded[2].allocation is None and loaded[6].parse_error is None
    assert "sit tight" in loaded[4].raw_response
    assert all("hold until next rebalance date" in r.raw_response for r in loaded[1::2])

    executed = effective_allocations(header, loaded)
    previous = header.initial_capital
    for record, allocation in zip(loaded, executed):
        result = rebalance(Holdings(record.holdings_before), record.prices_after,
                           allocation, cash=spec.cash)
        assert result.new_holdings.units == record.holdings_after
        assert result.pre_trade_value == record.value
        held = sum(record.holdings_after[a] * record.prices_after[a] for a in spec.assets)
        assert held == pytest.approx(record.value, rel=TOL)
        assert record.step_return == (record.value - previous) / previous
        previous = record.value


# -- full episodes ---------------------------------------------------------------


def test_episode_matches_hand_fold(stock_world):
    """Recompute the whole equal-weight episode with a plain loop."""
    spec, store, feed, dates = stock_world
    state, records = run_episode(spec, EqualWeightAgent(), feed, dates, 1000.0)

    weights = equal_weight_allocation(spec).weights
    units = {a: (1000.0 if a == spec.cash else 0.0) for a in spec.assets}
    values = [1000.0]
    for execution in dates[1:]:
        prices = _prices_at(store, spec, execution)
        value = sum(units[a] * prices[a] for a in spec.assets)
        units = {a: value * weights[a] / prices[a] for a in spec.assets}
        values.append(value)

    assert state.status is SessionStatus.ENDED
    assert len(records) == len(dates) - 1
    assert len(state.value_series) == len(values)
    for got, want in zip(state.value_series, values):
        assert got == pytest.approx(want, rel=TOL)
    for asset in spec.assets:
        assert state.holdings.units[asset] == pytest.approx(units[asset], rel=TOL)
    # the walk actually moves; a flat series would hide marking bugs
    assert state.value != 1000.0


def test_decision_executes_at_next_prices(stock_world):
    spec, store, feed, dates = stock_world
    target = {"AAPL": 0.6, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.4}
    agent = scripted_agent([_render(target)])
    state, records = run_episode(spec, agent, feed, dates[:3], 1000.0)

    p0 = _prices_at(store, spec, dates[0])
    p1 = _prices_at(store, spec, dates[1])
    first = records[0]
    assert first.date == dates[0]
    assert first.prices == p0              # what the agent saw
    assert first.prices_after == p1        # where the action filled
    # units bought at the execution date's price, not the observation's
    assert first.holdings_after["AAPL"] == pytest.approx(600.0 / p1["AAPL"], rel=TOL)
    assert first.holdings_after["AAPL"] != pytest.approx(600.0 / p0["AAPL"], rel=TOL)


def test_buy_and_hold_freezes_units(stock_world):
    spec, store, feed, dates = stock_world
    # give the book risky positions first, then hand it to buy-and-hold
    _, seeded = run_episode(spec, EqualWeightAgent(), feed, dates[:2], 1000.0)
    state = SessionState(spec, 1000.0, tuple(seeded))
    seeded_units = dict(state.holdings.units)

    resume = ResumePoint(state, ())
    final, records = run_episode(spec, BuyAndHoldAgent(), feed, dates[1:], 1000.0, resume=resume)

    assert final.status is SessionStatus.ENDED
    assert len(records) == len(dates) - 1  # one from seeding plus the rest
    for asset in spec.assets:
        assert final.holdings.units[asset] == pytest.approx(seeded_units[asset], rel=1e-9)
    # and the trade deltas the records imply are zero to float precision
    for before, after in zip(records[1:-1], records[2:]):
        for asset in spec.assets:
            assert after.holdings_after[asset] == pytest.approx(
                before.holdings_after[asset], rel=1e-9)


@pytest.mark.parametrize("capital", [0.0, -5.0])
def test_a_session_needs_positive_capital(capital):
    with pytest.raises(ValueError, match="initial capital must be positive"):
        SessionState.initial(MarketSpec.stock(("AAPL",)), capital)


def test_a_zero_value_book_holds_all_cash(stock_spec):
    book = Holdings({a: 0.0 for a in stock_spec.assets})
    prices = PriceVector(D(2025, 3, 3), {a: 2.0 for a in stock_spec.assets})
    assert hold_allocation(stock_spec, book, prices) == all_cash_allocation(stock_spec)


def test_all_cash_value_is_flat(stock_world):
    spec, store, feed, dates = stock_world
    state, _ = run_episode(spec, AllCashAgent(), feed, dates, 1000.0)
    assert state.value_series == tuple([1000.0] * len(dates))


# -- retries and fallback --------------------------------------------------------


def test_bad_then_good_response_retries(stock_world):
    spec, store, feed, dates = stock_world
    good = {"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5}
    agent = scripted_agent(["not json at all", _render(good)])
    state, records = run_episode(spec, agent, feed, dates[:2], 1000.0, max_retries=2)

    first = records[0]
    assert first.attempts == 2
    assert first.parse_error is None
    assert first.allocation == good


def test_exhausted_retries_fall_back_to_cash_then_last_validated(stock_world):
    spec, store, feed, dates = stock_world
    good = {"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5}
    # first decision never validates; second does; third fails again
    agent = scripted_agent(
        ["junk"] * 3 + [_render(good)] + ['{"allocations": {"AAPL": 9}}'] * 3
    )
    state, records = run_episode(spec, agent, feed, dates[:4], 1000.0, max_retries=2)

    no_prior = records[0]
    assert no_prior.attempts == 3          # initial try plus two retries
    assert no_prior.parse_error is not None
    assert no_prior.allocation is None
    assert no_prior.holdings_after[spec.cash] == pytest.approx(1000.0, rel=TOL)
    executed = effective_allocations(SessionLogHeader.for_run(spec, agent.name, 1000.0), records)
    assert executed[0].weights[spec.cash] == 1.0

    assert records[1].allocation == good

    with_prior = records[2]
    assert with_prior.parse_error is not None
    assert with_prior.allocation is None
    # the last validated allocation is re-applied, not cash
    assert executed[2] == executed[1]
    value = with_prior.value
    assert with_prior.holdings_after["AAPL"] == pytest.approx(
        value * 0.5 / with_prior.prices_after["AAPL"], rel=TOL)


# -- rebalance interval -----------------------------------------------------------


def test_gated_llm_retries_junk_on_decision_steps(stock_world):
    spec, store, feed, dates = stock_world
    good = {"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5}
    agent = scripted_agent(["not json at all", _render(good)])
    state, records = run_episode(spec, agent, feed, dates[:4], 1000.0,
                                 max_retries=2, rebalance_interval=2)

    assert state.status is SessionStatus.ENDED
    assert records[0].attempts == 2
    assert records[0].parse_error is None
    assert records[0].allocation == good
    # the off-cadence step holds without asking the model
    held = records[1]
    assert "hold until next rebalance date" in held.raw_response
    assert held.attempts == 1
    assert held.prompt_sha256 is None
    for asset, units in records[0].holdings_after.items():
        assert held.holdings_after[asset] == pytest.approx(units, rel=TOL)
    assert len(agent.client.prompts) == 3  # two tries at step 0, one at step 2


def test_gated_llm_all_junk_falls_back(stock_world):
    spec, store, feed, dates = stock_world
    agent = scripted_agent(["junk"])
    state, records = run_episode(spec, agent, feed, dates[:4], 1000.0,
                                 max_retries=2, rebalance_interval=2)

    assert state.status is SessionStatus.ENDED
    first = records[0]
    assert first.attempts == 3
    assert first.parse_error.startswith("NoObjectFound:")
    assert first.allocation is None
    assert first.holdings_after[spec.cash] == pytest.approx(1000.0, rel=TOL)
    assert records[2].parse_error is not None


# -- answers rendered and validated once ----------------------------------------


def _count_parses(monkeypatch):
    parsed = []

    def counting(raw, spec, band):
        parsed.append(raw)
        return parse_allocation_response(raw, spec, band)

    monkeypatch.setattr("tradefolio.environment.parse_allocation_response", counting)
    return parsed


@pytest.mark.parametrize("agent_type", [EqualWeightAgent, AllCashAgent])
def test_a_constant_baseline_renders_and_validates_its_answer_once(stock_world, monkeypatch,
                                                                   agent_type):
    spec, store, feed, dates = stock_world
    parsed = _count_parses(monkeypatch)
    renders = []

    def counting(reasoning, allocation):
        renders.append(reasoning)
        return render_allocation_response(reasoning, allocation)

    monkeypatch.setattr("tradefolio.agents.baselines.render_allocation_response", counting)
    state, records = run_episode(spec, agent_type(), feed, dates, 1000.0)

    assert len(records) == len(dates) - 1
    assert len(renders) == 1
    assert len(parsed) == 1
    answer = agent_type.allocation(spec)
    assert all(r.allocation == answer.weights and r.attempts == 1 for r in records)


def test_each_reply_gets_its_own_allocation_when_texts_recur(stock_world, monkeypatch):
    spec, store, feed, dates = stock_world
    parsed = _count_parses(monkeypatch)
    a = {"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5}
    b = {"AAPL": 0.0, "MSFT": 0.25, "NVDA": 0.25, "CASH": 0.5}
    agent = scripted_agent([_render(a), _render(a), _render(b), _render(a)])
    state, records = run_episode(spec, agent, feed, dates[:5], 1000.0)

    assert [r.allocation for r in records] == [a, a, b, a]
    assert [r.raw_response for r in records] == [_render(w) for w in (a, a, b, a)]
    assert parsed.count(_render(b)) == 1


def test_a_repeated_invalid_reply_is_parsed_on_every_attempt(stock_world, monkeypatch):
    spec, store, feed, dates = stock_world
    parsed = _count_parses(monkeypatch)
    good = {"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5}
    bad = '{"allocations": {"AAPL": 9}}'
    # step 0 validates, steps 1-2 exhaust their retries, steps 3-4 answer as step 0
    agent = scripted_agent([_render(good)] + [bad] * 6 + [_render(good)])
    state, records = run_episode(spec, agent, feed, dates[:6], 1000.0, max_retries=2)

    assert parsed.count(bad) == 6
    failed = records[1:3]
    assert [(r.attempts, r.raw_response, r.allocation) for r in failed] == [(3, bad, None)] * 2
    assert [r.parse_error for r in failed] == ['SchemaMismatch: missing "reasoning" field'] * 2
    executed = effective_allocations(SessionLogHeader.for_run(spec, agent.name, 1000.0), records)
    assert [e.weights for e in executed] == [good] * 5
    for r in failed:
        assert r.holdings_after["AAPL"] == pytest.approx(
            r.value * 0.5 / r.prices_after["AAPL"], rel=TOL)
    assert [r.allocation for r in records[3:]] == [good, good]


def test_a_constant_baseline_answers_each_market_its_own(stock_spec, prediction_spec):
    agent = EqualWeightAgent()
    for spec in (stock_spec, prediction_spec, stock_spec):
        decision = agent.decide(spec, None, ())
        expected = render_allocation_response("equal weight across all assets",
                                              equal_weight_allocation(spec))
        assert decision.raw_response == expected
        assert decision.prompt is None and not decision.holds
        assert agent.decide(spec, None, ()) is decision


def test_gated_llm_logs_the_model_exchange(stock_world):
    spec, store, feed, dates = stock_world
    text = "Rotating into AAPL.\n" + _render({"AAPL": 0.7, "MSFT": 0.0, "NVDA": 0.0,
                                               "CASH": 0.3})
    agent = scripted_agent([text])
    state, records = run_episode(spec, agent, feed, dates[:4], 1000.0, rebalance_interval=2)

    decisions = [records[0], records[2]]
    assert len(agent.client.prompts) == len(decisions)
    for record, prompt in zip(decisions, agent.client.prompts):
        assert record.raw_response == text
        assert record.prompt_sha256 == hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def _count_renders(monkeypatch):
    renders = []

    def counting(spec, obs, memory):
        renders.append(obs.date)
        return build_context_prompt(spec, obs, memory)

    monkeypatch.setattr("tradefolio.agents.harness.build_context_prompt", counting)
    return renders


def test_llm_retries_send_the_prompt_rendered_for_their_step(stock_world, monkeypatch):
    renders = _count_renders(monkeypatch)
    spec, store, feed, dates = stock_world
    good = _render({"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5})
    # step 0 retries once, step 1 exhausts its retries, steps 2-3 validate
    agent = scripted_agent(["junk", good, "junk", "junk", "junk", good])
    state, records = run_episode(spec, agent, feed, dates[:5], 1000.0, max_retries=2)

    assert [r.attempts for r in records] == [2, 3, 1, 1]
    assert renders == dates[:4]
    sent = iter(agent.client.prompts)
    step_prompts = []
    for record in records:
        attempts = [next(sent) for _ in range(record.attempts)]
        assert len(set(attempts)) == 1
        assert record.prompt_sha256 == hashlib.sha256(attempts[0].encode("utf-8")).hexdigest()
        step_prompts.append(attempts[0])
    assert len(set(step_prompts)) == len(records)


def test_llm_agent_renders_again_for_a_new_observation_or_memory(stock_world, monkeypatch):
    renders = _count_renders(monkeypatch)
    spec, store, feed, dates = stock_world
    state = SessionState.initial(spec, 1000.0)
    obs = build_observation(state, feed, dates[4])
    agent = scripted_agent(["junk"])
    memory = ()

    agent.decide(spec, obs, memory)
    agent.decide(spec, obs, memory)
    assert len(renders) == 1
    # an equal observation in a new object is another step
    obs = build_observation(state, feed, dates[4])
    agent.decide(spec, obs, memory)
    assert len(renders) == 2
    memory = (MemoryEntry(dates[3], AllocationVector({spec.cash: 1.0}), 0.0),)
    agent.decide(spec, obs, memory)
    assert len(renders) == 3


def _varied_agent(shift=0):
    """A scripted agent whose answers change from step to step, with a
    retry among them; ``shift`` rotates the script."""
    script = [
        _render({"AAPL": 0.5, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.5}),
        "junk",
        _render({"AAPL": 0.1, "MSFT": 0.3, "NVDA": 0.2, "CASH": 0.4}),
        _render({"AAPL": 0.0, "MSFT": 0.0, "NVDA": 0.7, "CASH": 0.3}),
    ]
    return scripted_agent((script[shift:] + script[:shift]) * 10)


def _fresh_line_caches(monkeypatch):
    """Both line caches emptied, and no prompt size recorded yet."""
    monkeypatch.setattr(prompts, "_PROMPT_LINES", {})
    _history_line.cache_clear()
    _news_text.cache_clear()


def test_llm_agent_line_caches_stay_within_their_bound(tmp_path, monkeypatch):
    spec = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
    dates = seed_stock_store(tmp_path, spec.assets[:-1], D(2025, 3, 3), 31, seed=5)
    _fresh_line_caches(monkeypatch)
    for i in range(10_000):
        _history_line("{:.2f}", D(2000, 1, 1) + dt.timedelta(days=i), 1.0 + i, None)
        _news_text(ZoneInfo("UTC"), 946684800 + 60 * i, "Title", "Snippet.")
    held = []

    def measured(spec, obs, memory):
        context = build_context_prompt(spec, obs, memory)
        lines = len(spec.assets) + sum(map(len, obs.price_history.values()))
        held.append((_history_line.cache_info().currsize, lines,
                     _news_text.cache_info().currsize, len(obs.news)))
        return context

    monkeypatch.setattr("tradefolio.agents.harness.build_context_prompt", measured)
    agent = _varied_agent()
    _, records = run_episode(spec, agent, ReplayFeed(SnapshotStore(tmp_path), MarketKind.STOCK),
                             dates, 1000.0, max_retries=1)
    assert len(records) == 30 and len(held) == 30
    # after each render a cache holds at most one prompt past its bound,
    # counted on the largest prompt so far, so the lines filled in
    # before are gone
    most_lines = most_items = 0
    for history, lines, news, items in held:
        most_lines, most_items = max(most_lines, lines), max(most_items, items)
        assert history <= (LINE_CACHE_PROMPTS + 1) * most_lines
        assert news <= (LINE_CACHE_PROMPTS + 1) * most_items
    assert most_items > 0
    # and a session still reuses its lines from step to step (emptying a
    # cache also zeroes its counts)
    assert _history_line.cache_info().hits > 0 and _news_text.cache_info().hits > 0
    spec, obs, memory, prompt = agent._last
    assert agent.client.prompts[-1] == prompt
    _history_line.cache_clear()
    _news_text.cache_clear()
    assert prompt == build_decision_prompt(build_context_prompt(spec, obs, memory), spec, obs.date)


def test_a_session_run_after_another_renders_none_of_its_lines(stock_world, monkeypatch):
    # The second session's first prompt, with no stored closes yet, is
    # smaller than the ones before it and must not empty their lines.
    spec, store, _, dates = stock_world
    _fresh_line_caches(monkeypatch)
    counts = []
    for shift in range(2):
        run_episode(spec, _varied_agent(shift), ReplayFeed(store, MarketKind.STOCK), dates,
                    1000.0, max_retries=1)
        counts.append([cache.cache_info()[:2] for cache in (_history_line, _news_text)])
    # the second session looked up what the first did, and every lookup
    # hit (emptying a cache would have zeroed its counts)
    for (hits, misses), again in zip(*counts):
        assert misses and again == (2 * hits + misses, misses)


def test_llm_sessions_in_threads_write_the_bytes_they_write_in_turn(stock_world, tmp_path):
    spec, store, _, dates = stock_world
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)

    def session(path, shift):
        writer = SessionLogWriter(path, header)
        run_episode(spec, _varied_agent(shift), ReplayFeed(store, MarketKind.STOCK), dates, 1000.0,
                    max_retries=1, on_record=writer.append)
        return path.read_bytes()

    in_turn = [session(tmp_path / f"turn-{i}.jsonl", i) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(session, tmp_path / f"thread-{i}.jsonl", i) for i in range(4)]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == in_turn
    assert len(set(in_turn)) == 4
    assert len(read_session_log(tmp_path / "thread-0.jsonl")[1]) == len(dates) - 1


# -- halting ----------------------------------------------------------------------


class _DyingAgent:
    name = "dying"

    def __init__(self, after):
        self.after = after
        self.calls = 0

    def decide(self, spec, obs, memory):
        self.calls += 1
        if self.calls > self.after:
            raise ClientError("provider returned HTTP 500")
        return EqualWeightAgent().decide(spec, obs, memory)


def test_model_provider_outage_halts_cleanly(stock_world):
    spec, store, feed, dates = stock_world
    state, records = run_episode(spec, _DyingAgent(after=2), feed, dates, 1000.0)
    assert state.status is SessionStatus.HALTED
    assert state.halt_reason.startswith("ClientError:")
    assert len(records) == 2


# -- date validation and stale flags ----------------------------------------------


def test_date_list_validation(stock_world):
    spec, store, feed, dates = stock_world
    with pytest.raises(ValueError, match="at least one date"):
        run_episode(spec, AllCashAgent(), feed, [], 1000.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        run_episode(spec, AllCashAgent(), feed, [dates[1], dates[0]], 1000.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        run_episode(spec, AllCashAgent(), feed, [dates[0], dates[0]], 1000.0)
    with pytest.raises(ValueError, match="rebalance_interval"):
        run_episode(spec, AllCashAgent(), feed, dates, 1000.0, rebalance_interval=0)


def test_stale_assets_are_recorded(tmp_path):
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    store = SnapshotStore(tmp_path)
    days = [D(2025, 3, 3), D(2025, 3, 4), D(2025, 3, 5)]
    for day, price in zip(days, (100.0, 101.0, 102.0)):
        store.upsert_price("stock", "AAPL", day, price)
    store.upsert_price("stock", "MSFT", days[0], 400.0)  # then it goes quiet
    for day in days:
        store.upsert_news("AAPL", day, [])
        store.upsert_news("MSFT", day, [])
    feed = ReplayFeed(store, MarketKind.STOCK)

    state, records = run_episode(spec, EqualWeightAgent(), feed, days[1:], 1000.0)
    assert records[0].stale == ("MSFT",)
    assert records[0].prices["MSFT"] == 400.0  # carried forward, not invented


class _CountingFeed:
    """Replay feed that counts price lookups per (asset, date)."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = []  # one append is atomic, so threads lose no count

    @property
    def lookups(self):
        return Counter(self.reads)

    def latest_price(self, asset, on_or_before):
        self.reads.append((asset, on_or_before))
        return self.inner.latest_price(asset, on_or_before)

    def price_window(self, asset, start, end):
        return self.inner.price_window(asset, start, end)

    def news_window(self, tag, start, end, target):
        return self.inner.news_window(tag, start, end, target)


def test_each_date_is_priced_once(stock_world):
    spec, store, feed, dates = stock_world
    counting = _CountingFeed(feed)
    state, records = run_episode(spec, EqualWeightAgent(), counting, dates, 1000.0)

    # a step's execution prices are reused as the next step's observation
    assert counting.lookups == Counter(
        {(a, d): 1 for a in spec.assets if a != spec.cash for d in dates})
    _, plain = run_episode(spec, EqualWeightAgent(), feed, dates, 1000.0)
    assert records == plain
    assert [r.prices for r in records[1:]] == [r.prices_after for r in records[:-1]]


def test_a_memo_hands_every_session_the_same_read_only_view(stock_world):
    spec, store, feed, dates = stock_world
    market = MarketMemo(feed, spec)
    first = market.observe(dates[4])
    assert market.observe(dates[4]) is first
    assert first == build_observation(SessionState.initial(spec, 1000.0), feed, dates[4])
    assert first.prices is market.prices(dates[4])[0]
    with pytest.raises(TypeError):
        first.price_history["AAPL"] = ()
    # a memo answers only for the market and windows it was built for
    with pytest.raises(ValueError, match="another market or other windows"):
        run_episode(spec, EqualWeightAgent(), market, dates, 1000.0, lookback_days=20)


def test_a_memo_keeps_no_read_that_raised(tmp_path):
    spec = MarketSpec.stock(("AAPL",))
    store = SnapshotStore(tmp_path)
    market = MarketMemo(ReplayFeed(store, MarketKind.STOCK), spec)
    with pytest.raises(FeedUnavailable, match="no price at or before 2025-03-04 for 'AAPL'"):
        market.prices(D(2025, 3, 4))
    store.upsert_price("stock", "AAPL", D(2025, 3, 3), 100.0)
    vector, stale = market.prices(D(2025, 3, 4))
    assert vector.prices == {"AAPL": 100.0, "CASH": 1.0} and stale == {"AAPL"}


class _Watching:
    """An agent that notes every observation it is shown, then asks ``inner``."""

    def __init__(self, inner):
        self.inner, self.name, self.seen = inner, inner.name, []

    def decide(self, spec, obs, memory):
        self.seen.append(obs)
        return self.inner.decide(spec, obs, memory)


class _SlowFeed(_CountingFeed):
    """A counting feed whose price reads sleep, so threads meet inside them."""

    def latest_price(self, asset, on_or_before):
        time.sleep(0.001)
        return super().latest_price(asset, on_or_before)


def test_sessions_in_threads_share_one_memo_that_reads_each_date_once(stock_world, tmp_path):
    spec, store, feed, dates = stock_world
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)

    def session(path, shift, market, start=None):
        writer, agent = SessionLogWriter(path, header), _Watching(_varied_agent(shift))
        if start is not None:  # every thread asks for the first date at once
            start.wait(timeout=60)
        run_episode(spec, agent, market, dates, 1000.0, max_retries=1, on_record=writer.append)
        return path.read_bytes(), agent.seen

    in_turn = [session(tmp_path / f"turn-{i}.jsonl", i, feed)[0] for i in range(4)]
    counting = _SlowFeed(feed)
    market = MarketMemo(counting, spec)
    start = threading.Barrier(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(session, tmp_path / f"thread-{i}.jsonl", i % 4, market,
                                   start) for i in range(8)]
            threaded, seen = zip(*(f.result(timeout=60) for f in futures))
    finally:
        sys.setswitchinterval(interval)
    assert list(threaded) == in_turn * 2
    # every thread was shown the one observation the memo holds for each date
    assert all({o.date for o in shown} == set(dates[:-1]) for shown in seen)
    assert all(o is market.observe(o.date) for shown in seen for o in shown)
    assert counting.lookups == Counter(
        {(a, d): 1 for a in spec.assets if a != spec.cash for d in dates})


# -- memory -----------------------------------------------------------------------


class _MemorySpy:
    """Equal-weight agent that snapshots the memory it is shown."""

    name = "memory-spy"

    def __init__(self):
        self.seen = []

    def decide(self, spec, obs, memory):
        self.seen.append((obs, memory))
        return EqualWeightAgent().decide(spec, obs, memory)


def test_memory_carries_prior_decisions(stock_world):
    spec, store, feed, dates = stock_world
    spy = _MemorySpy()
    state, records = run_episode(spec, spy, feed, dates[:3], 1000.0)

    first_obs, first_memory = spy.seen[0]
    assert first_memory == ()

    second_obs, second_memory = spy.seen[1]
    assert len(second_memory) == 1
    entry = second_memory[0]
    assert entry.date == dates[0]
    assert entry.allocation == equal_weight_allocation(spec)
    assert entry.cumulative_return == pytest.approx(
        (records[0].value - 1000.0) / 1000.0, abs=TOL)


def test_memory_horizon_bounds_entries(stock_world):
    spec, store, feed, dates = stock_world
    spy = _MemorySpy()
    run_episode(spec, spy, feed, dates, 1000.0, memory_horizon=2)
    final_memory = spy.seen[-1][1]
    assert len(final_memory) == 2
    assert final_memory[0].date == dates[len(dates) - 4]
    assert final_memory[1].date == dates[len(dates) - 3]


@pytest.mark.parametrize("horizon", [0, -1])
def test_memory_horizon_below_one_is_refused(stock_world, horizon):
    """Keeping the last 0 entries by slicing would keep them all."""
    spec, store, feed, dates = stock_world
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        run_episode(spec, EqualWeightAgent(), feed, dates, 1000.0, memory_horizon=horizon)
