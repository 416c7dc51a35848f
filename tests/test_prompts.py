import datetime as dt
from dataclasses import replace

from conftest import assert_golden, make_observation, scripted_agent
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradefolio.agents.prompts import (
    _PREDICTION_CLOSE,
    _STOCK_CLOSE,
    SNIPPET_MAX_CHARS,
    _history_line,
    _history_lines,
    _news_text,
    build_context_prompt,
    build_decision_prompt,
)
from tradefolio.domain import (
    AllocationVector,
    MarketSpec,
    MemoryEntry,
    NewsItem,
    Observation,
    PricePoint,
    PriceVector,
)

STOCK = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
PREDICTION = MarketSpec.prediction((
    "Will the launch happen this quarter?",
    "Will turnout exceed sixty percent?",
))

LONG_SNIPPET = (
    "The company reported quarterly figures that came in ahead of the midpoint "
    "of its own guidance range, and management used the call to describe demand "
    "as broad across regions and product lines. " * 3
)


def _stock_inputs():
    date = dt.date(2025, 10, 24)
    history = {
        "AAPL": [("2025-10-17", 247.77), ("2025-10-20", 255.46), ("2025-10-21", 258.06),
                 ("2025-10-22", 258.44), ("2025-10-23", 259.58)],
        "MSFT": [("2025-10-17", 513.58), ("2025-10-20", 516.79), ("2025-10-21", 523.98),
                 ("2025-10-22", 521.14), ("2025-10-23", 517.66)],
        "NVDA": [("2025-10-17", 183.22), ("2025-10-20", 182.64), ("2025-10-21", 181.16),
                 ("2025-10-22", 186.52), ("2025-10-23", 182.55)],
    }
    news = (
        NewsItem(
            title="Apple  suppliers point to a strong\nholiday quarter",
            snippet="Shares rose as  analysts\n  lifted price targets across the supply chain.",
            source="wire-a", url="https://example.com/a1",
            published_at=1761229800,  # 2025-10-23 UTC and Eastern
            tagged_asset="AAPL",
        ),
        NewsItem(
            title="iPhone lead times stretch into November",
            snippet=LONG_SNIPPET,
            source="wire-b", url="https://example.com/a2",
            published_at=1761163500,  # 2025-10-22
            tagged_asset="AAPL",
        ),
        NewsItem(
            title="Chipmaker unveils a new accelerator line",
            snippet="The announcement landed mid-keynote.",
            source="wire-c", url="https://example.com/n1",
            published_at=1761051600,  # 2025-10-21
            tagged_asset="NVDA",
        ),
    )
    obs = make_observation(
        STOCK, date,
        prices={"AAPL": 262.24, "MSFT": 523.61, "NVDA": 186.26},
        history=history, news=news,
    )
    memory = (
        MemoryEntry(
            date=dt.date(2025, 10, 22),
            allocation=AllocationVector({"AAPL": 0.30, "MSFT": 0.20, "NVDA": 0.0, "CASH": 0.50}),
            cumulative_return=0.012,
        ),
        MemoryEntry(
            date=dt.date(2025, 10, 23),
            allocation=AllocationVector({"AAPL": 0.25, "MSFT": 0.25, "NVDA": 0.14, "CASH": 0.36}),
            cumulative_return=0.036,
        ),
    )
    return date, obs, memory


def _prediction_inputs():
    date = dt.date(2025, 10, 21)
    q1, q2 = PREDICTION.questions
    history = {
        f"{q1}_Yes": [("2025-10-18", 0.41), ("2025-10-19", 0.4450), ("2025-10-20", 0.4275)],
        f"{q1}_No": [("2025-10-18", 0.59), ("2025-10-19", 0.5575), ("2025-10-20", 0.5750)],
        f"{q2}_Yes": [("2025-10-18", 0.12), ("2025-10-19", 0.135), ("2025-10-20", 0.1125)],
        f"{q2}_No": [("2025-10-18", 0.88), ("2025-10-19", 0.8675), ("2025-10-20", 0.89)],
    }
    news = (
        NewsItem(
            title="Regulator schedules the final review session",
            snippet="A decision could follow within days,   people familiar said.",
            source="wire-p", url="https://example.com/p1",
            published_at=1760950800,  # 2025-10-20 UTC
            tagged_asset=q1,
        ),
    )
    obs = make_observation(
        PREDICTION, date,
        prices={f"{q1}_Yes": 0.455, f"{q1}_No": 0.545,
                f"{q2}_Yes": 0.105, f"{q2}_No": 0.895},
        history=history, news=news,
    )
    memory = (MemoryEntry(
        date=dt.date(2025, 10, 20),
        allocation=AllocationVector({
            f"{q1}_Yes": 0.40, f"{q1}_No": 0.0,
            f"{q2}_Yes": 0.0, f"{q2}_No": 0.0, "CASH": 0.60,
        }),
        cumulative_return=-0.025,
    ),)
    return date, obs, memory


class TestStockPrompt:
    def test_context_golden(self):
        _, obs, memory = _stock_inputs()
        assert_golden("stock_context.txt", build_context_prompt(STOCK, obs, memory))

    def test_decision_golden(self):
        date, obs, memory = _stock_inputs()
        context = build_context_prompt(STOCK, obs, memory)
        assert_golden("stock_decision.txt", build_decision_prompt(context, STOCK, date))

    def test_header_names_eastern_time(self):
        date, obs, memory = _stock_inputs()
        context = build_context_prompt(STOCK, obs, memory)
        prompt = build_decision_prompt(context, STOCK, date)
        assert prompt.startswith("Today is 2025-10-24 (US Eastern Time).\n")

    def test_market_block_layout(self):
        _, obs, memory = _stock_inputs()
        context = build_context_prompt(STOCK, obs, memory)
        assert context.startswith("MARKET ANALYSIS:\n")
        assert "AAPL: Current price is $262.24" in context
        # Newest history line: change versus the close below it.
        assert "  - 2025-10-23: close price $259.58 (Change: +1.14 (+0.44%))" in context
        # The oldest line in each series has nothing to diff against.
        assert "  - 2025-10-17: close price $247.77 (Change: N/A)" in context
        # A negative change renders with its sign.
        assert "  - 2025-10-22: close price $521.14 (Change: -2.84 (-0.54%))" in context
        # Two blank lines before RECENT NEWS, one before ACCOUNT INFO.
        assert "\n\n\nRECENT NEWS:\n" in context
        assert "\n\nACCOUNT INFO:\n" in context

    def test_news_formatting(self):
        _, obs, memory = _stock_inputs()
        context = build_context_prompt(STOCK, obs, memory)
        # Tag bullets only for tags that have items; MSFT has none.
        assert "• AAPL:" in context
        assert "• NVDA:" in context
        assert "• MSFT:" not in context
        # Titles collapse internal whitespace; dates are session-local.
        assert "  - Apple suppliers point to a strong holiday quarter (2025-10-23)" in context
        assert "    Shares rose as analysts lifted price targets across the supply chain." in context
        # Long snippets truncate at the cap, then the ellipsis is appended.
        for line in context.splitlines():
            stripped = line.strip()
            if stripped.startswith("The company reported"):
                assert stripped.endswith("...")
                assert len(stripped) == SNIPPET_MAX_CHARS + 3
                break
        else:
            raise AssertionError("long snippet not found")

    def test_news_follows_universe_order_not_arrival_order(self):
        _, obs, memory = _stock_inputs()
        aapl_1, aapl_2, nvda = obs.news
        foreign = replace(nvda, title="Carmaker recalls a model line", tagged_asset="TSLA")
        shuffled = replace(obs, news=(nvda, aapl_1, foreign, aapl_2))
        context = build_context_prompt(STOCK, shuffled, memory)
        news = context[context.index("RECENT NEWS:"):context.index("ACCOUNT INFO:")]
        assert news.index("• AAPL:") < news.index("• NVDA:")
        assert news.index("Apple suppliers") < news.index("iPhone lead times")
        assert "• MSFT:" not in news
        assert "TSLA" not in context
        assert "Carmaker" not in context
        assert context == build_context_prompt(STOCK, obs, memory)

    def test_account_section(self):
        _, obs, memory = _stock_inputs()
        context = build_context_prompt(STOCK, obs, memory)
        assert "  Recent Historical Allocations under this account:" in context
        # Zero positions are dropped from the literal; cash always shows.
        assert ("    - Asset Allocation at 2025-10-22: "
                "{'AAPL': '0.30', 'MSFT': '0.20', 'CASH': '0.50'} "
                "(Accumulated return rate: 1.2%)") in context
        assert "(Accumulated return rate: 3.6%)" in context

    def test_decision_prompt_structure(self):
        date, obs, memory = _stock_inputs()
        prompt = build_decision_prompt(build_context_prompt(STOCK, obs, memory), STOCK, date)
        assert "AVAILABLE ASSETS: AAPL, MSFT, NVDA, CASH" in prompt
        assert "CRITICAL: Return ONLY valid JSON. No extra text." in prompt
        assert "REQUIRED JSON FORMAT:" in prompt
        # One-space and three-space indents in the format example.
        assert '\n "reasoning": "' in prompt
        assert '\n   "AAPL": 0.25,' in prompt
        assert '\n   "CASH": 0.40\n' in prompt
        assert "RULES:\n1. Return ONLY the JSON object." in prompt
        assert "- Total allocation must equal 1.0." in prompt
        assert "- CASH is a valid asset." in prompt


class TestPredictionPrompt:
    def test_context_golden(self):
        _, obs, memory = _prediction_inputs()
        assert_golden("prediction_context.txt", build_context_prompt(PREDICTION, obs, memory))

    def test_decision_golden(self):
        date, obs, memory = _prediction_inputs()
        context = build_context_prompt(PREDICTION, obs, memory)
        assert_golden("prediction_decision.txt",
                      build_decision_prompt(context, PREDICTION, date))

    def test_header_names_utc(self):
        date, obs, memory = _prediction_inputs()
        prompt = build_decision_prompt(
            build_context_prompt(PREDICTION, obs, memory), PREDICTION, date)
        assert prompt.startswith("Today is 2025-10-21 (UTC).\n")

    def test_price_decimals(self):
        _, obs, memory = _prediction_inputs()
        context = build_context_prompt(PREDICTION, obs, memory)
        # Current prices use three decimals, history lines four.
        assert "  - Betting YES current price: 0.455" in context
        assert "  - Betting NO current price: 0.545" in context
        assert "  - 2025-10-20: 0.4275 (Change: -0.02 (-3.93%))" in context
        assert "  - 2025-10-18: 0.4100 (Change: N/A)" in context

    def test_account_header_not_indented(self):
        _, obs, memory = _prediction_inputs()
        context = build_context_prompt(PREDICTION, obs, memory)
        assert "\nRecent Historical Allocations under this account:" in context
        assert "(Accumulated return rate: -2.5%)" in context

    def test_decision_logic_keeps_placeholder_braces(self):
        date, obs, memory = _prediction_inputs()
        prompt = build_decision_prompt(
            build_context_prompt(PREDICTION, obs, memory), PREDICTION, date)
        assert "- Go LONG {question}_YES if p > p_mkt + costs." in prompt
        assert "- Go LONG {question}_NO if p < p_mkt - costs." in prompt
        assert "- Otherwise keep the capital in CASH." in prompt
        assert "- No simultaneous YES and NO allocations." in prompt

    def test_json_format_example_uses_real_questions(self):
        date, obs, memory = _prediction_inputs()
        prompt = build_decision_prompt(
            build_context_prompt(PREDICTION, obs, memory), PREDICTION, date)
        q1, q2 = PREDICTION.questions
        assert f'   "{q1}_Yes": 0.25,' in prompt
        assert f'   "{q2}_No": 0.15,' in prompt
        assert '   "CASH": 0.60' in prompt


class TestDeterminism:
    def test_same_inputs_same_bytes(self):
        date, obs, memory = _stock_inputs()
        a = build_decision_prompt(build_context_prompt(STOCK, obs, memory), STOCK, date)
        date2, obs2, memory2 = _stock_inputs()
        b = build_decision_prompt(build_context_prompt(STOCK, obs2, memory2), STOCK, date2)
        assert a == b


def _reference_history_lines(dates_prices, price_format, prefix):
    """The history renderer as it was before it shared ISO dates across
    assets: newest first, each line indexing back to the one below."""
    lines = []
    for i in range(len(dates_prices) - 1, -1, -1):
        date, price = dates_prices[i]
        if i == 0:
            change = "N/A"
        else:
            prev = dates_prices[i - 1][1]
            diff = price - prev
            change = f"{diff:+.2f} ({diff / prev * 100.0:+.2f}%)"
        lines.append(f"{prefix}- {date.isoformat()}: {price_format.format(price)} (Change: {change})")
    return lines


_PRICES = st.floats(min_value=1e-4, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def _series(draw):
    days = draw(st.lists(st.integers(0, 4000), min_size=1, max_size=12, unique=True))
    start = dt.date(2015, 1, 1).toordinal()
    return [(dt.date.fromordinal(start + d), draw(_PRICES)) for d in sorted(days)]


class TestHistoryRenderer:
    @settings(max_examples=200, deadline=None)
    @given(_series(), _series())
    @example([(dt.date(2025, 3, 3), 101.5)], [(dt.date(2025, 3, 3), 0.42)])
    @example([(dt.date(2025, 3, 3), 300.0), (dt.date(2025, 3, 4), 250.5),
              (dt.date(2025, 3, 5), 0.75)],
             [(dt.date(2025, 3, 4), 0.9), (dt.date(2025, 3, 5), 0.1)])
    @example([(dt.date(2025, 3, 3), 10.001), (dt.date(2025, 3, 4), 10.004),
              (dt.date(2025, 3, 5), 9.996)],
             [(dt.date(2025, 3, 3), 0.50001), (dt.date(2025, 3, 4), 0.50004)])
    def test_matches_the_reference(self, first, second):
        # One line cache across both series and both formats, as across
        # a prompt's assets, a session's steps and a run's sessions.
        for series in (first, second):
            assert _history_lines(series, _STOCK_CLOSE) == (
                _reference_history_lines(series, "close price ${:.2f}", "  "))
            assert _history_lines(series, _PREDICTION_CLOSE) == (
                _reference_history_lines(series, "{:.4f}", "  "))


# A few closes, so that equal closes and repeated lines are common.
_CLOSES = st.sampled_from([0.25, 0.5, 0.5001, 12.5, 101.0, 101.004])
_DAY0 = dt.date(2025, 3, 3)


@st.composite
def _sessions(draw):
    """A market, a store of closes with gaps, a news pool and the
    steps of one session: each step's date, lookback, news window and
    memory length. Steps move forward by one to three days."""
    spec = draw(st.sampled_from([STOCK, PREDICTION]))
    days = draw(st.integers(3, 14))
    risky = [a for a in spec.assets if a != spec.cash]
    # None is a day without a close; every asset has one on day 0
    closes = {a: [draw(_CLOSES)] + draw(st.lists(st.none() | _CLOSES,
                                                 min_size=days - 1, max_size=days - 1))
              for a in risky}
    news = []
    for i in range(draw(st.integers(0, 8))):
        day = draw(st.integers(0, days - 1))
        news.append(NewsItem(
            title=draw(st.sampled_from(["Rates  hold", "Guidance\nraised"])),
            snippet=draw(st.sampled_from(["Short.", LONG_SNIPPET])),
            source="wire", url=f"https://example.com/{i}",
            published_at=int(dt.datetime(2025, 3, 3, 13, 30, tzinfo=dt.timezone.utc)
                             .timestamp()) + day * 86400 - draw(st.sampled_from([0, 36000])),
            tagged_asset=draw(st.sampled_from(spec.news_tags)),
        ))
    steps, day = [], 1
    while day < days:
        steps.append((day, draw(st.integers(1, 5)), draw(st.integers(1, 4)),
                      draw(st.integers(0, 4))))
        day += draw(st.integers(1, 3))
    return spec, closes, tuple(news), steps


def _session_observation(spec, closes, news, day, lookback, news_days):
    """What a replay would show on ``day``: each asset's stored closes
    in the lookback window before it, its latest close at or before it
    (stale when older), and the news of the window, newest first."""
    date = _DAY0 + dt.timedelta(days=day)
    prices, history, stale = {spec.cash: 1.0}, {}, set()
    for asset, column in closes.items():
        history[asset] = tuple(PricePoint(_DAY0 + dt.timedelta(days=d), column[d])
                               for d in range(max(0, day - lookback), day)
                               if column[d] is not None)
        last = max(d for d in range(day + 1) if column[d] is not None)
        prices[asset] = column[last]
        if last < day:
            stale.add(asset)
    start = dt.datetime.combine(date - dt.timedelta(days=news_days), dt.time(),
                                tzinfo=dt.timezone.utc).timestamp()
    end = dt.datetime.combine(date, dt.time(), tzinfo=dt.timezone.utc).timestamp()
    shown = sorted((i for i in news if start <= i.published_at < end),
                   key=lambda i: -i.published_at)
    return Observation(
        date=date, prices=PriceVector(date, prices), news=tuple(shown),
        price_history=history, stale=frozenset(stale))


def _clear_line_caches():
    _history_line.cache_clear()
    _news_text.cache_clear()


def _fresh_context(spec, obs, memory):
    """The context block rendered with both line caches emptied first."""
    _clear_line_caches()
    return build_context_prompt(spec, obs, memory)


def _line_misses():
    return _history_line.cache_info().misses + _news_text.cache_info().misses


class TestLineCache:
    @settings(max_examples=150, deadline=None)
    @given(_sessions())
    def test_an_agent_renders_what_a_fresh_prompt_does(self, session):
        spec, closes, news, steps = session
        agent = scripted_agent(["{}"])
        risky = [a for a in spec.assets if a != spec.cash]
        entries = []
        for n, (day, lookback, news_days, remembered) in enumerate(steps):
            obs = _session_observation(spec, closes, news, day, lookback, news_days)
            # the window grows and shrinks over entries carried as objects
            memory = tuple(entries[-remembered:]) if remembered else ()
            prompt = agent.decide(spec, obs, memory).prompt
            assert prompt == build_decision_prompt(
                _fresh_context(spec, obs, memory), spec, obs.date)
            weight = 0.25 * (n % 4)
            entries.append(MemoryEntry(obs.date, AllocationVector(
                {risky[n % len(risky)]: weight, spec.cash: 1.0 - weight}), 0.01 * n))

    def test_one_cache_over_both_markets_keeps_their_formats_and_zones(self):
        # The same tag, date and closes on both markets: only the
        # format and the news zone tell their lines apart.
        stock = MarketSpec.stock(("AAPL",))
        prediction = MarketSpec.prediction(("AAPL",))
        date = dt.date(2025, 3, 5)
        item = NewsItem(title="Late print", snippet="After the close.", source="wire",
                        url="https://example.com/late",
                        published_at=1741145400,  # 2025-03-05 03:30 UTC, the 4th in New York
                        tagged_asset="AAPL")
        history = [("2025-03-03", 0.5), ("2025-03-04", 0.25)]
        memory = (MemoryEntry(dt.date(2025, 3, 4), AllocationVector({"CASH": 1.0}), 0.0),)
        observations = [
            (stock, make_observation(stock, date, {"AAPL": 0.5}, {"AAPL": history}, (item,))),
            (prediction, make_observation(
                prediction, date, {"AAPL_Yes": 0.5, "AAPL_No": 0.5},
                {"AAPL_Yes": history, "AAPL_No": history}, (item,))),
        ]
        fresh = [_fresh_context(spec, obs, memory) for spec, obs in observations]
        assert "(2025-03-04)" in fresh[0] and "(2025-03-05)" in fresh[1]
        _clear_line_caches()
        for n, (spec, obs) in enumerate(observations + observations):
            assert build_context_prompt(spec, obs, memory) == fresh[n % 2]

    def test_a_second_session_on_a_rendered_date_renders_no_line(self):
        _, obs, memory = _stock_inputs()
        first = scripted_agent(["{}"]).decide(STOCK, obs, memory).prompt
        misses = _line_misses()
        # another session's agent, shown an equal observation of its own
        _, again, memory = _stock_inputs()
        assert scripted_agent(["{}"]).decide(STOCK, again, memory).prompt == first
        assert _line_misses() == misses

    def test_a_negative_zero_cash_weight_renders_apart_from_zero(self):
        _, obs, _ = _stock_inputs()

        def entry(cash):
            return (MemoryEntry(dt.date(2025, 10, 23),
                                AllocationVector({"AAPL": 1.0, "CASH": cash}), 0.0),)

        cases = [(-0.0, "{'AAPL': '1.00', 'CASH': '-0.00'}"),
                 (0.0, "{'AAPL': '1.00', 'CASH': '0.00'}")]
        for order in (cases, cases[::-1]):
            for cash, shown in order:
                assert shown in build_context_prompt(STOCK, obs, entry(cash))
