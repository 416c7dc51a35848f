"""Provider payload parsing, retry policy, the replay feed and the live backfill.

Every provider request goes through ``urllib.request.urlopen``, which
the ``serve`` fixture patches, so every test here runs against canned
payloads.
"""

import datetime as dt
import json
import math
import random
from dataclasses import replace
from urllib.error import URLError
from urllib.request import urlopen

import pytest
from conftest import FakeReply, query

from tradefolio.domain import MarketKind, MarketSpec, NewsItem, PricePoint
from tradefolio.errors import FeedUnavailable, ProviderError
from tradefolio.ingestion import equities, news, policy, predictions
from tradefolio.ingestion.feeds import ReplayFeed, ensure_dates
from tradefolio.ingestion.policy import FetchPolicy, backoff_delay, fetch_with_policy
from tradefolio.ingestion.snapshots import SnapshotStore

D = dt.date
UTC = dt.timezone.utc


def _epoch(year, month, day, hour=14, minute=30) -> int:
    return int(dt.datetime(year, month, day, hour, minute, tzinfo=UTC).timestamp())


# -- equities ----------------------------------------------------------------


def _chart(timestamps, closes, adjcloses=None, volumes=None):
    indicators = {"quote": [{"close": closes, "volume": volumes or [None] * len(timestamps)}]}
    if adjcloses is not None:
        indicators["adjclose"] = [{"adjclose": adjcloses}]
    return {"chart": {"result": [{"timestamp": timestamps, "indicators": indicators}], "error": None}}


def test_chart_prefers_adjusted_close():
    payload = _chart(
        [_epoch(2025, 3, 3), _epoch(2025, 3, 4)],
        closes=[100.0, 101.0],
        adjcloses=[99.5, None],
        volumes=[1000, 2000],
    )
    points = equities.parse_chart_payload(payload)
    assert [(p.date, p.price, p.volume) for p in points] == [
        (D(2025, 3, 3), 99.5, 1000.0),
        (D(2025, 3, 4), 101.0, 2000.0),  # adjusted missing, raw close used
    ]


def test_chart_drops_null_and_nonpositive_bars():
    payload = _chart(
        [_epoch(2025, 3, d) for d in (3, 4, 5, 6, 7)],
        closes=[None, -1.0, math.inf, math.nan, 102.0],
    )
    points = equities.parse_chart_payload(payload)
    assert [(p.date, p.price) for p in points] == [(D(2025, 3, 7), 102.0)]


def test_chart_dates_are_exchange_local():
    # 01:00 UTC is the previous evening in New York, 05:00 UTC its midnight
    evening = _epoch(2025, 3, 4, hour=1, minute=0)
    midnight = _epoch(2025, 3, 4, hour=5, minute=0)
    points = equities.parse_chart_payload(_chart([evening, midnight], closes=[100.0, 101.0]))
    assert [p.date for p in points] == [D(2025, 3, 3), D(2025, 3, 4)]
    meta = {"regularMarketPrice": 100.0, "regularMarketTime": evening}
    assert equities.parse_quote_payload({"chart": {"result": [{"meta": meta}]}}).date == D(2025, 3, 3)


@pytest.mark.parametrize(
    "payload",
    [
        None,
        {},
        {"chart": {"result": [], "error": None}},
        {"chart": {"result": None, "error": None}},
        {"chart": {"error": {"code": "Not Found"}}},
    ],
)
def test_chart_error_shapes(payload):
    with pytest.raises(ProviderError):
        equities.parse_chart_payload(payload)


def test_quote_payload():
    ts = _epoch(2025, 3, 5, hour=20)
    payload = {"chart": {"result": [{"meta": {"regularMarketPrice": 241.84, "regularMarketTime": ts}}]}}
    point = equities.parse_quote_payload(payload)
    assert (point.date, point.price, point.volume) == (D(2025, 3, 5), 241.84, None)

    for meta in [{}, {"regularMarketPrice": 241.84}, {"regularMarketTime": ts},
                 {"regularMarketPrice": 0.0, "regularMarketTime": ts},
                 {"regularMarketPrice": math.inf, "regularMarketTime": ts},
                 {"regularMarketPrice": math.nan, "regularMarketTime": ts}]:
        with pytest.raises(ProviderError):
            equities.parse_quote_payload({"chart": {"result": [{"meta": meta}]}})


def test_fetch_equity_history_window_and_request_shape(serve):
    url = equities.CHART_URL.format(symbol="AAPL")
    payload = _chart(
        [_epoch(2025, 3, 2), _epoch(2025, 3, 3), _epoch(2025, 3, 7)],
        closes=[99.0, 100.0, 104.0],
    )
    urlopen = serve({url: [payload]})
    policy = FetchPolicy(max_retries=1, timeout=5.0)
    points = equities.fetch_equity_history("AAPL", D(2025, 3, 3), D(2025, 3, 6), policy)

    # provider may hand back more than asked; dates outside [start, end] go
    assert [p.date for p in points] == [D(2025, 3, 3)]

    request, timeout = urlopen.calls[0]
    params = query(request)
    assert params["interval"] == "1d"
    assert params["period1"] == str(int(dt.datetime(2025, 3, 3, tzinfo=UTC).timestamp()))
    # half-open upper bound: midnight after the last requested day
    assert params["period2"] == str(int(dt.datetime(2025, 3, 7, tzinfo=UTC).timestamp()))
    assert request.get_header("User-agent") == policy.user_agent
    assert timeout == 5.0


# -- predictions -------------------------------------------------------------


def test_flat_series_detection():
    assert predictions.is_flat_series([])
    flat = [PricePoint(D(2025, 3, 3), 0.500), PricePoint(D(2025, 3, 4), 0.509)]
    moving = [PricePoint(D(2025, 3, 3), 0.500), PricePoint(D(2025, 3, 4), 0.510)]
    assert predictions.is_flat_series(flat)
    assert not predictions.is_flat_series(moving)
    assert predictions.is_flat_series(moving[1:])  # one point never moves


def _listing_row(slug, question="Will it happen?", tokens='["tok-y", "tok-n"]', **extra):
    row = {"slug": slug, "question": question, "clobTokenIds": tokens}
    row.update(extra)
    return row


def test_market_listing_parse_and_dedup():
    payload = [
        _listing_row("alpha", tokens='["a-yes", "a-no"]'),
        _listing_row("alpha", tokens='["other", "pair"]'),  # duplicate slug dropped
        _listing_row("beta", tokens=["b-yes", "b-no"], url="https://example.com/beta"),
        _listing_row("gamma", question=None),     # incomplete rows skipped
        _listing_row(None),
        _listing_row("delta", tokens="not json"),
        _listing_row("epsilon", tokens='["only-one"]'),
        "not a dict",
    ]
    entries = predictions.parse_market_listing(payload)
    assert [e.slug for e in entries] == ["alpha", "beta"]
    assert entries[0].yes_token == "a-yes" and entries[0].no_token == "a-no"
    assert entries[0].url == "https://polymarket.com/event/alpha"
    assert entries[1].url == "https://example.com/beta"

    with pytest.raises(ProviderError):
        predictions.parse_market_listing({"markets": []})


def test_a_listing_row_whose_question_slug_or_url_is_not_text_is_skipped(tmp_path):
    payload = [
        _listing_row("listed-question", question=["Q"]),
        _listing_row("numeric-url", url=7),
        _listing_row(5),
        _listing_row(None, eventSlug=["e"]),
        _listing_row("alpha", tokens='["a-yes", "a-no"]'),
    ]
    entries = predictions.parse_market_listing(payload)
    assert [e.slug for e in entries] == ["alpha"]
    # the catalog the store records from them reads back
    SnapshotStore(tmp_path).record_markets(entries)
    assert SnapshotStore(tmp_path).markets() == tuple(entries)


def test_price_history_parse_collapses_days_and_normalizes():
    payload = {
        "history": [
            {"t": _epoch(2025, 3, 3, hour=10), "p": 0.40},
            {"t": _epoch(2025, 3, 3, hour=18), "p": 0.45},  # same UTC day, last wins
            {"t": _epoch(2025, 3, 4), "p": 93},             # cents scale
        ]
    }
    points = predictions.parse_price_history(payload)
    assert [(p.date, p.price) for p in points] == [
        (D(2025, 3, 3), 0.45),
        (D(2025, 3, 4), 0.93),
    ]

    with pytest.raises(ProviderError):
        predictions.parse_price_history({"history": [{"t": 1}]})
    with pytest.raises(ProviderError):
        predictions.parse_price_history({"history": "nope"})
    with pytest.raises(ProviderError):
        predictions.parse_price_history({})


def test_an_unusable_quote_costs_its_sample_not_the_history(serve):
    # A resolved losing token's price falls to 0, which no convention
    # fits: the day keeps its last usable sample, or gets no bar.
    urlopen = serve({predictions.HISTORY_URL: [{"history": [
        {"t": _epoch(2025, 3, 3), "p": 0.4},
        {"t": _epoch(2025, 3, 4, hour=10), "p": 0.2},
        {"t": _epoch(2025, 3, 4, hour=18), "p": 0},
        {"t": _epoch(2025, 3, 5), "p": 0},
    ]}]})
    policy = FetchPolicy(max_retries=3, backoff_base=0.0, jitter_range=(0.0, 0.0))
    points = predictions.fetch_prediction_history("m1-no", D(2025, 3, 3), D(2025, 3, 5), policy)
    assert [(p.date, p.price) for p in points] == [(D(2025, 3, 3), 0.4), (D(2025, 3, 4), 0.2)]
    assert len(urlopen.calls) == 1


@pytest.mark.parametrize("bad", [10**13, -10**12, math.inf, math.nan, None],
                         ids=["year-318857", "year-minus-29719", "inf", "nan", "null"])
def test_a_sample_time_no_date_holds_costs_its_sample_not_the_series(bad, serve):
    good = _epoch(2025, 3, 3)
    chart_url = equities.CHART_URL.format(symbol="AAPL")
    urlopen = serve({
        predictions.HISTORY_URL: [{"history": [{"t": bad, "p": 0.5}, {"t": good, "p": 0.4}]}],
        chart_url: [_chart([bad, good], closes=[100.0, 101.0])],
    })
    policy = FetchPolicy(max_retries=3, backoff_base=0.0, jitter_range=(0.0, 0.0))
    history = predictions.fetch_prediction_history("m1-yes", D(2025, 3, 3), D(2025, 3, 3), policy)
    assert [(p.date, p.price) for p in history] == [(D(2025, 3, 3), 0.4)]
    bars = equities.fetch_equity_history("AAPL", D(2025, 3, 3), D(2025, 3, 3), policy)
    assert [(p.date, p.price) for p in bars] == [(D(2025, 3, 3), 101.0)]
    assert len(urlopen.calls) == 2  # neither payload was retried

    meta = {"regularMarketPrice": 100.0, "regularMarketTime": bad}
    with pytest.raises(ProviderError, match="lacks a usable market price"):
        equities.parse_quote_payload({"chart": {"result": [{"meta": meta}]}})


def _history_payload(prices_by_token, token):
    samples = [
        {"t": _epoch(2025, 3, 3 + i), "p": price}
        for i, price in enumerate(prices_by_token[token])
    ]
    return {"history": samples}


def test_discover_markets_filters_flat_and_respects_limit(serve):
    listing = [
        _listing_row("flat-one", tokens='["f1-yes", "f1-no"]'),
        _listing_row("move-one", tokens='["m1-yes", "m1-no"]'),
        _listing_row("move-two", tokens='["m2-yes", "m2-no"]'),
        _listing_row("move-three", tokens='["m3-yes", "m3-no"]'),
    ]
    prices = {
        "f1-yes": [0.500, 0.501],
        "m1-yes": [0.40, 0.55], "m1-no": [0.60, 0.45],
        "m2-yes": [0.10, 0.25], "m2-no": [0.90, 0.75],
        "m3-yes": [0.30, 0.70], "m3-no": [0.70, 0.30],
    }
    urlopen = serve({
        predictions.MARKETS_URL: [listing],
        predictions.HISTORY_URL: [lambda r: _history_payload(prices, query(r)["market"])],
    })
    found = predictions.discover_markets(
        FetchPolicy(max_retries=1), D(2025, 3, 3), D(2025, 3, 4), limit=2,
    )
    assert [m.entry.slug for m in found] == ["move-one", "move-two"]
    assert [p.price for p in found[0].yes_history] == [0.40, 0.55]
    assert [p.price for p in found[0].no_history] == [0.60, 0.45]

    listing_params = query(urlopen.calls[0][0])
    assert listing_params["active"] == "true"
    assert listing_params["closed"] == "false"
    assert listing_params["limit"] == "6"  # over-asks, then filters

    # flat market's no-side never fetched; move-three never reached
    tokens_fetched = [query(request)["market"] for request, _ in urlopen.calls[1:]]
    assert tokens_fetched == ["f1-yes", "m1-yes", "m1-no", "m2-yes", "m2-no"]


# -- news --------------------------------------------------------------------


def test_news_query_forms():
    assert news.build_news_query("AAPL", MarketKind.STOCK) == "AAPL stock news OR Apple"
    assert news.build_news_query("ZZZQ", MarketKind.STOCK) == "ZZZQ stock news"
    question = "Will the launch happen this quarter?"
    assert news.build_news_query(question, MarketKind.PREDICTION) == question


RSS = """<?xml version="1.0"?>
<rss version="2.0"><channel>
  <item>
    <title>Apple &amp; suppliers rally</title>
    <description>&lt;b&gt;Shares&lt;/b&gt; climbed after earnings.</description>
    <link>https://news.google.com/rss/articles/x?url=https%3A%2F%2Fexample.com%2Fstory&amp;foo=1</link>
    <pubDate>Mon, 03 Mar 2025 14:00:00 GMT</pubDate>
    <source url="https://example.com">Example Wire</source>
  </item>
  <item>
    <title>Undated item is dropped</title>
    <pubDate>sometime last week maybe</pubDate>
  </item>
  <item>
    <description>An item with no title is dropped</description>
    <pubDate>Mon, 03 Mar 2025 15:00:00 GMT</pubDate>
  </item>
  <item>
    <title>Sourceless item</title>
    <pubDate>Tue, 04 Mar 2025 09:30:00 GMT</pubDate>
  </item>
</channel></rss>
"""


def test_rss_parse():
    reference = dt.datetime(2025, 3, 5, tzinfo=UTC)
    items = news.parse_news_rss(RSS, "AAPL", reference)
    assert len(items) == 2

    first = items[0]
    assert first.title == "Apple & suppliers rally"
    # stripped tags leave their whitespace; prompt rendering collapses it later
    assert first.snippet == "Shares  climbed after earnings."
    assert first.url == "https://example.com/story"  # unwrapped from the redirector
    assert first.source == "Example Wire"
    assert first.tagged_asset == "AAPL"
    assert first.published_at == _epoch(2025, 3, 3, hour=14, minute=0)

    assert items[1].source == "unknown"

    with pytest.raises(ProviderError):
        news.parse_news_rss("<rss><unclosed>", "AAPL", reference)


def test_an_rss_item_with_a_bad_link_or_time_costs_only_itself():
    page = """<rss><channel>
      <item><title>Good</title><pubDate>Mon, 03 Mar 2025 14:00:00 GMT</pubDate>
        <link>https://example.com/good?utm_source=rss</link></item>
      <item><title>Bracket</title><pubDate>Mon, 03 Mar 2025 15:00:00 GMT</pubDate>
        <link>http://[::1</link></item>
      <item><title>Far back</title><pubDate>1000000 weeks ago</pubDate></item>
      <item><title>Huge day</title><pubDate>Mar 99999999999 2025 +14:00 /</pubDate></item>
      <item><title>Past the last day</title><pubDate>9999-12-31T23:59:59-14:00</pubDate></item>
    </channel></rss>"""
    items = news.parse_news_rss(page, "AAPL", dt.datetime(2025, 3, 5, tzinfo=UTC))
    assert [(i.title, i.url) for i in items] == [("Good", "https://example.com/good"),
                                                 ("Bracket", "http://[::1")]
    assert news.filter_news_window(items, D(2025, 3, 3), D(2025, 3, 3)) == items


def _dated_item(day: int, hour: int = 12) -> NewsItem:
    return NewsItem(
        title=f"day {day}",
        snippet="",
        source="s",
        url="https://example.com",
        published_at=_epoch(2025, 3, day, hour=hour, minute=0),
        tagged_asset="AAPL",
    )


def test_news_window_filter_edges():
    items = [_dated_item(d) for d in (2, 3, 5, 6)]
    kept = news.filter_news_window(items, D(2025, 3, 3), D(2025, 3, 5))
    assert [i.title for i in kept] == ["day 3", "day 5"]


def test_news_ranking():
    items = [_dated_item(2), _dated_item(5), _dated_item(3)]
    newest_first = news.rank_news(items)
    assert [i.title for i in newest_first] == ["day 5", "day 3", "day 2"]

    # items published in the same second keep their input order
    first, second = replace(_dated_item(4), title="first"), replace(_dated_item(4), title="second")
    tie = news.rank_news([first, _dated_item(2), second, _dated_item(5)])
    assert [i.title for i in tie] == ["day 5", "first", "second", "day 2"]


def test_fetch_news_request_and_window(serve):
    urlopen = serve({news.RSS_URL: [RSS]})
    items = news.fetch_news(
        "AAPL", MarketKind.STOCK, D(2025, 3, 1), D(2025, 3, 3),
        FetchPolicy(max_retries=1),
        reference=dt.datetime(2025, 3, 5, tzinfo=UTC),
    )
    # the Mar 4 item falls outside [Mar 1, Mar 3]
    assert [i.title for i in items] == ["Apple & suppliers rally"]

    q = query(urlopen.calls[0][0])["q"]
    # provider treats both date operators as exclusive bounds
    assert q == "AAPL stock news OR Apple after:2025-02-28 before:2025-03-04"


def test_send_returns_an_error_status_and_get_retries_it(serve):
    urlopen = serve({"https://j": [(200, '{"ok": 1}')], "https://t": [(200, "<rss/>")],
                     "https://down": [(503, "busy")]})
    quick = FetchPolicy(max_retries=1, backoff_base=0.0, jitter_range=(0.0, 0.0), timeout=5.0,
                        user_agent="ua")
    assert policy.get(quick, "https://j", {"q": "a b"}, json.loads) == {"ok": 1}
    assert policy.send("https://t?q=b", {}, 6.0) == (200, b"<rss/>")
    assert policy.send("https://down?q=c", {}, 7.0) == (503, b"busy")
    assert urlopen.errors[0].fp.closed
    with pytest.raises(ProviderError, match="after 2 attempts: HTTP 503$"):
        policy.get(quick, "https://down", {"q": "d"}, json.loads)
    assert len(urlopen.errors) == 3 and all(error.fp.closed for error in urlopen.errors)
    sent = [(r.full_url, r.get_method(), r.get_header("User-agent"), t) for r, t in urlopen.calls]
    assert sent == [("https://j?q=a+b", "GET", "ua", 5.0), ("https://t?q=b", "GET", None, 6.0),
                    ("https://down?q=c", "GET", None, 7.0),
                    *[("https://down?q=d", "GET", "ua", 5.0)] * 2]


def test_fetch_news_reads_the_feed_in_its_declared_encoding(serve):
    feed = ('<?xml version="1.0" encoding="ISO-8859-1"?><rss><channel><item>'
            "<title>Caf\u00e9 chain rallies</title><pubDate>Tue, 04 Mar 2025 10:00:00 GMT</pubDate>"
            "<link>https://x.example/a</link></item></channel></rss>").encode("latin-1")
    serve({news.RSS_URL: [FakeReply(200, feed)]})
    items = news.fetch_news("AAPL", MarketKind.STOCK, D(2025, 3, 3), D(2025, 3, 5),
                            FetchPolicy(max_retries=1))
    assert [i.title for i in items] == ["Caf\u00e9 chain rallies"]


def test_each_provider_sends_the_url_it_always_sent(serve):
    urlopen = serve({url: [URLError("offline")] for url in (
        equities.CHART_URL.format(symbol="AAPL"), predictions.MARKETS_URL,
        predictions.HISTORY_URL, news.RSS_URL)})
    quick = FetchPolicy(max_retries=1, backoff_base=0.0, jitter_range=(0.0, 0.0))
    start, end = D(2025, 3, 3), D(2025, 3, 7)
    for fetch in (
        lambda: equities.fetch_equity_history("AAPL", start, end, quick),
        lambda: predictions.discover_markets(quick, start, end, limit=4),
        lambda: predictions.fetch_prediction_history("123", start, end, quick),
        lambda: news.fetch_news("JNJ", MarketKind.STOCK, start, D(2025, 3, 5), quick),
        lambda: news.fetch_news("Will turnout exceed 60% & more?", MarketKind.PREDICTION,
                                start, D(2025, 3, 5), quick),
    ):
        with pytest.raises(ProviderError, match="after 2 attempts: <urlopen error offline>"):
            fetch()
    # byte for byte the URLs `requests` built for these calls, so no provider sees a new one
    assert [r.full_url for r, _ in urlopen.calls[::2]] == [
        "https://query1.finance.yahoo.com/v8/finance/chart/AAPL"
        "?period1=1740960000&period2=1741392000&interval=1d&events=div%2Csplits",
        "https://gamma-api.polymarket.com/markets"
        "?active=true&closed=false&order=volumeNum&ascending=false&limit=12",
        "https://clob.polymarket.com/prices-history"
        "?market=123&startTs=1740960000&endTs=1741392000&fidelity=1440",
        "https://news.google.com/rss/search?q=JNJ+stock+news+OR+Johnson+%26+Johnson"
        "+after%3A2025-03-02+before%3A2025-03-06&hl=en-US&gl=US&ceid=US%3Aen",
        "https://news.google.com/rss/search?q=Will+turnout+exceed+60%25+%26+more%3F"
        "+after%3A2025-03-02+before%3A2025-03-06&hl=en-US&gl=US&ceid=US%3Aen",
    ]
    assert {r.get_header("User-agent") for r, _ in urlopen.calls} == {quick.user_agent}
    assert len(urlopen.calls) == 10


# -- retry policy ------------------------------------------------------------


def test_backoff_schedule():
    policy = FetchPolicy(max_retries=4, backoff_base=1.5, jitter_range=(0.1, 0.5))
    rng = random.Random(42)
    delays = [backoff_delay(policy, n, rng) for n in (1, 2, 3)]

    check = random.Random(42)
    expected = [1.5 * 2 ** (n - 1) + check.uniform(0.1, 0.5) for n in (1, 2, 3)]
    assert delays == expected
    assert delays[0] < delays[1] < delays[2]

    with pytest.raises(ValueError):
        backoff_delay(policy, 0, rng)


def test_fetch_with_policy_retries_then_wraps():
    calls = []
    sleeps = []

    def flaky():
        calls.append(1)
        raise ConnectionError("refused")

    policy = FetchPolicy(max_retries=2, backoff_base=0.25, jitter_range=(0.0, 0.0))
    with pytest.raises(ProviderError, match="after 3 attempts"):
        fetch_with_policy(policy, flaky, sleep=sleeps.append, rng=random.Random(1))
    assert len(calls) == 3  # initial try plus two retries
    assert sleeps == [0.25, 0.5]


def test_fetch_with_policy_recovers():
    attempts = []

    def flaky_then_fine():
        attempts.append(1)
        if len(attempts) < 3:
            raise TimeoutError("slow")
        return "payload"

    policy = FetchPolicy(max_retries=3, backoff_base=0.0, jitter_range=(0.0, 0.0))
    got = fetch_with_policy(policy, flaky_then_fine, sleep=lambda s: None)
    assert got == "payload"
    assert len(attempts) == 3


def test_fetch_policy_validation():
    with pytest.raises(ValueError):
        FetchPolicy(max_retries=0)
    with pytest.raises(ValueError):
        FetchPolicy(jitter_range=(0.5, 0.1))
    with pytest.raises(ValueError):
        FetchPolicy(timeout=0.0)
    with pytest.raises(ValueError):
        FetchPolicy(backoff_base=-1.0)


_MOVING = {"history": [{"t": _epoch(2025, 3, 3), "p": 0.4}, {"t": _epoch(2025, 3, 4), "p": 0.6}]}


@pytest.mark.parametrize("url, bad, good, fetch", [
    (equities.CHART_URL.format(symbol="AAPL"), {"chart": {"result": [], "error": None}},
     _chart([_epoch(2025, 3, 3)], closes=[100.0]),
     lambda policy: equities.fetch_equity_history("AAPL", D(2025, 3, 3), D(2025, 3, 3), policy)),
    (equities.CHART_URL.format(symbol="AAPL"), {},
     {"chart": {"result": [{"meta": {"regularMarketPrice": 241.84,
                                     "regularMarketTime": _epoch(2025, 3, 3)}}]}},
     lambda policy: equities.fetch_equity_quote("AAPL", policy)),
    (predictions.HISTORY_URL, {"history": "none"}, _MOVING,
     lambda policy: predictions.fetch_prediction_history(
         "m1-yes", D(2025, 3, 3), D(2025, 3, 4), policy)),
    (predictions.MARKETS_URL, {"markets": []}, [_listing_row("move-one", tokens='["m1-yes", "m1-no"]')],
     lambda policy: predictions.discover_markets(policy, D(2025, 3, 3), D(2025, 3, 4))),
    (news.RSS_URL, "<rss><unclosed>", RSS,
     lambda policy: news.fetch_news("AAPL", MarketKind.STOCK, D(2025, 3, 1), D(2025, 3, 3),
                                    policy, reference=dt.datetime(2025, 3, 5, tzinfo=UTC))),
], ids=["equity-history", "equity-quote", "prediction-history", "discover-markets", "news"])
def test_a_payload_that_fails_to_parse_is_retried(url, bad, good, fetch, serve):
    policy = FetchPolicy(max_retries=1, backoff_base=0.0, jitter_range=(0.0, 0.0))
    histories = {predictions.HISTORY_URL: [_MOVING]} if url == predictions.MARKETS_URL else {}
    flaky = serve({**histories, url: [bad, good]})
    got = fetch(policy)
    serve({**histories, url: [good]})
    assert got and got == fetch(policy)
    assert [r.full_url.partition("?")[0] for r, _ in flaky.calls].count(url) == 2


# -- feeds -------------------------------------------------------------------


def _seed_stock_days(store, key, prices_by_day):
    for day, price in prices_by_day.items():
        store.upsert_price("stock", key, day, price)


def test_replay_feed_reads_store(tmp_path):
    store = SnapshotStore(tmp_path)
    _seed_stock_days(store, "AAPL", {D(2025, 3, 3): 100.0, D(2025, 3, 5): 102.0})
    store.upsert_news("AAPL", D(2025, 3, 4),
                      [_dated_item(2), _dated_item(4, hour=0), _dated_item(3, hour=23)])

    feed = ReplayFeed(store, MarketKind.STOCK)
    assert feed.latest_price("AAPL", D(2025, 3, 4)).price == 100.0
    assert feed.latest_price("AAPL", D(2025, 3, 2)) is None
    window = feed.price_window("AAPL", D(2025, 3, 3), D(2025, 3, 5))
    assert [p.price for p in window] == [100.0, 102.0]
    # an item published at the target's UTC midnight is already too late
    cut = feed.news_window("AAPL", D(2025, 3, 1), D(2025, 3, 6), target=D(2025, 3, 4))
    assert [i.title for i in cut] == ["day 3", "day 2"]
    every = feed.news_window("AAPL", D(2025, 3, 1), D(2025, 3, 6), target=D(2025, 3, 7))
    assert [i.title for i in every] == ["day 4", "day 3", "day 2"]


def test_replay_feed_drops_news_published_after_the_target_whatever_day_holds_it(tmp_path):
    store = SnapshotStore(tmp_path)
    store.upsert_news("AAPL", D(2025, 3, 2), [_dated_item(2), _dated_item(5)])  # day 5 stored early
    feed = ReplayFeed(store, MarketKind.STOCK)
    early = feed.news_window("AAPL", D(2025, 3, 1), D(2025, 3, 3), target=D(2025, 3, 4))
    assert [i.title for i in early] == ["day 2"]
    late = feed.news_window("AAPL", D(2025, 3, 1), D(2025, 3, 3), target=D(2025, 3, 6))
    assert [i.title for i in late] == ["day 5", "day 2"]


def test_replay_feed_maps_asset_keys(tmp_path):
    store = SnapshotStore(tmp_path)
    store.upsert_price("prediction", "tok-123", D(2025, 3, 3), 0.42)
    feed = ReplayFeed(store, MarketKind.PREDICTION, asset_keys={"Will it?_Yes": "tok-123"})
    assert feed.latest_price("Will it?_Yes", D(2025, 3, 3)).price == 0.42
    assert feed.latest_price("tok-123", D(2025, 3, 3)).price == 0.42  # unmapped passes through


def test_live_feed_backfills_then_reads(tmp_path, monkeypatch, stock_spec):
    store = SnapshotStore(tmp_path)
    history_calls = []
    news_calls = []

    def fake_history(ticker, start, end, policy, **kwargs):
        history_calls.append((ticker, start, end))
        return [
            PricePoint(end - dt.timedelta(days=1), 100.0),
            PricePoint(end, 101.0),
        ]

    def fake_news(tag, kind, start, end, policy, **kwargs):
        news_calls.append((tag, start, end))
        if tag == "AAPL":
            return [_dated_item(4), _dated_item(3)]  # 5th stays empty on purpose
        return []

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(news, "fetch_news", fake_news)

    date = D(2025, 3, 6)
    ensure_dates(store, stock_spec, [date], FetchPolicy(max_retries=1))
    point = ReplayFeed(store, MarketKind.STOCK).latest_price("AAPL", date)
    assert point.price == 101.0 and point.date == date

    assert [c[0] for c in history_calls] == ["AAPL", "MSFT", "NVDA"]
    assert history_calls[0][1] == date - dt.timedelta(days=10)
    # one news query per ticker over [t-3, t-1]
    assert news_calls == [(t, D(2025, 3, 3), D(2025, 3, 5)) for t in ("AAPL", "MSFT", "NVDA")]

    # news buckets cover every day in the window, empty days included
    assert store.has_news("AAPL", D(2025, 3, 5))
    assert store.news_window("AAPL", D(2025, 3, 5), D(2025, 3, 5)) == ()
    assert [i.title for i in store.news_window("AAPL", D(2025, 3, 3), D(2025, 3, 4))] == [
        "day 3", "day 4",
    ]

    # a second pass over the same date is served from the store
    ensure_dates(store, stock_spec, [date], FetchPolicy(max_retries=1))
    assert len(history_calls) == 3 and len(news_calls) == 3


def test_live_feed_skips_covered_assets_and_quotes_missing_date(tmp_path, monkeypatch):
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    store = SnapshotStore(tmp_path)
    date = D(2025, 3, 6)
    # AAPL already covered: lookback bars plus the decision date itself
    _seed_stock_days(store, "AAPL", {D(2025, 3, 4): 99.0, D(2025, 3, 5): 100.0, date: 101.0})

    def fake_history(ticker, start, end, policy, **kwargs):
        # provider has no bar for the decision date yet
        return [PricePoint(D(2025, 3, 4), 200.0), PricePoint(D(2025, 3, 5), 201.0)]

    quote_calls = []

    def fake_quote(ticker, policy, **kwargs):
        quote_calls.append(ticker)
        return PricePoint(date, 202.5)

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(equities, "fetch_equity_quote", fake_quote)
    monkeypatch.setattr(news, "fetch_news", lambda *a, **k: [])

    ensure_dates(store, spec, [date], FetchPolicy(max_retries=1))

    assert quote_calls == ["MSFT"]  # AAPL needed nothing
    assert store.latest_price("stock", "MSFT", date).price == 202.5
    assert store.latest_price("stock", "AAPL", date).price == 101.0


def test_live_feed_surfaces_provider_failure(tmp_path, monkeypatch):
    spec = MarketSpec.stock(("AAPL",))

    def broken(*args, **kwargs):
        raise ProviderError("request failed after 3 attempts: refused")

    monkeypatch.setattr(equities, "fetch_equity_history", broken)
    with pytest.raises(FeedUnavailable, match="2025-03-06"):
        ensure_dates(SnapshotStore(tmp_path), spec, [D(2025, 3, 6)], FetchPolicy(max_retries=1))


def test_live_backfill_never_rerecords_a_stored_bar(tmp_path, monkeypatch):
    # AAPL's Friday bar came from the quote fallback (no volume); MSFT's
    # Thursday close has since been adjusted by the provider
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "AAPL", D(2025, 3, 6), 100.0, 5e6)
    store.upsert_price("stock", "AAPL", D(2025, 3, 7), 101.0)
    store.upsert_price("stock", "MSFT", D(2025, 3, 6), 400.0, 2e6)
    store.upsert_price("stock", "MSFT", D(2025, 3, 7), 402.0, 2e6)

    def fake_history(ticker, start, end, policy, **kwargs):
        if ticker == "AAPL":
            return [PricePoint(D(2025, 3, 6), 100.0, 5e6), PricePoint(D(2025, 3, 7), 101.2, 6e6),
                    PricePoint(D(2025, 3, 10), 103.0, 7e6)]
        return [PricePoint(D(2025, 3, 6), 398.5, 2e6), PricePoint(D(2025, 3, 7), 402.0, 2e6),
                PricePoint(D(2025, 3, 10), 405.0, 3e6)]

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(news, "fetch_news", lambda *a, **k: [])
    ensure_dates(store, spec, [D(2025, 3, 10)], FetchPolicy(max_retries=1))

    fresh = SnapshotStore(tmp_path)
    assert fresh.price_series("stock", "AAPL") == (
        PricePoint(D(2025, 3, 6), 100.0, 5e6), PricePoint(D(2025, 3, 7), 101.0),
        PricePoint(D(2025, 3, 10), 103.0, 7e6),
    )
    assert [p.price for p in fresh.price_series("stock", "MSFT")] == [400.0, 402.0, 405.0]


def test_live_backfill_over_a_holiday_is_fetched_once(tmp_path, monkeypatch):
    # 2025-04-18 is a weekday market holiday: no provider ever has its bar
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    store = SnapshotStore(tmp_path)
    holiday = D(2025, 4, 18)
    dates = [D(2025, 4, 16), D(2025, 4, 17), holiday, D(2025, 4, 21), D(2025, 4, 22)]
    calls = []

    def fake_history(ticker, start, end, policy, **kwargs):
        calls.append(("history", ticker, end))
        days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
        return [PricePoint(d, 100.0 + d.day) for d in days if d.weekday() < 5 and d != holiday]

    def fake_quote(ticker, policy, **kwargs):
        calls.append(("quote", ticker))
        return PricePoint(dates[-1], 122.0)  # the latest trade, after the holiday

    def fake_news(tag, kind, start, end, policy, **kwargs):
        calls.append(("news", tag, end))
        return []

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(equities, "fetch_equity_quote", fake_quote)
    monkeypatch.setattr(news, "fetch_news", fake_news)
    for date in dates:
        ensure_dates(store, spec, [date], FetchPolicy(max_retries=1))
    assert ("history", "AAPL", holiday) in calls
    assert store.latest_price("stock", "AAPL", holiday).date == D(2025, 4, 17)

    calls.clear()
    for date in dates:
        ensure_dates(SnapshotStore(tmp_path), spec, [date], FetchPolicy(max_retries=1))
    assert calls == []


@pytest.mark.parametrize("lookback", [1, 3, 4, 10])
def test_a_short_window_after_a_holiday_is_backfilled_once(tmp_path, monkeypatch, lookback):
    """The Monday after Good Friday (2025-04-18) holds the one trading
    day of its window back to Friday, however complete the store is."""
    spec = MarketSpec.stock(("AAPL",))
    dates = [D(2025, 4, 17), D(2025, 4, 21), D(2025, 4, 22)]
    calls = []

    def fake_history(ticker, start, end, policy, **kwargs):
        calls.append((ticker, start, end))
        days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
        return [PricePoint(d, 100.0) for d in days if d.weekday() < 5 and d != D(2025, 4, 18)]

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(news, "fetch_news", lambda *a, **k: [])
    for expected in ([("AAPL", dates[0] - dt.timedelta(days=lookback), dates[-1])], []):
        calls.clear()
        ensure_dates(SnapshotStore(tmp_path), spec, dates, FetchPolicy(max_retries=1),
                     lookback_days=lookback)
        assert calls == expected


def _counting_provider(monkeypatch, calls, last_bar=None, down=False):
    """Weekday bars through ``last_bar`` (default: the request's end),
    a quote for the request day after, and one news item per day; every
    request is appended to ``calls``."""

    def fake_history(ticker, start, end, policy, **kwargs):
        calls.append(("history", ticker, start, end))
        if down:
            raise ProviderError("request failed after 2 attempts: refused")
        stop = min(end, last_bar or end)
        days = (start + dt.timedelta(days=i) for i in range((stop - start).days + 1))
        return [PricePoint(d, 100.0 + d.day, 1e6) for d in days if d.weekday() < 5]

    def fake_quote(ticker, policy, **kwargs):
        calls.append(("quote", ticker))
        return PricePoint(last_bar + dt.timedelta(days=1), 150.0)

    def fake_news(tag, kind, start, end, policy, **kwargs):
        calls.append(("news", tag, start, end))
        days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
        return [NewsItem(title=f"{tag} {d}", snippet="", source="wire", url="https://example.com",
                         published_at=_epoch(d.year, d.month, d.day), tagged_asset=tag)
                for d in days]

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(equities, "fetch_equity_quote", fake_quote)
    monkeypatch.setattr(news, "fetch_news", fake_news)


def test_backfill_of_many_dates_requests_each_asset_and_tag_once(tmp_path, monkeypatch):
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    store = SnapshotStore(tmp_path)
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]  # Mon-Fri
    calls = []
    _counting_provider(monkeypatch, calls, last_bar=dates[-2])  # Friday's close isn't out yet
    ensure_dates(store, spec, dates, FetchPolicy(max_retries=1))

    first, last = dates[0], dates[-1]
    assert calls == [
        ("history", "AAPL", first - dt.timedelta(days=10), last), ("quote", "AAPL"),
        ("history", "MSFT", first - dt.timedelta(days=10), last), ("quote", "MSFT"),
        ("news", "AAPL", first - dt.timedelta(days=3), last - dt.timedelta(days=1)),
        ("news", "MSFT", first - dt.timedelta(days=3), last - dt.timedelta(days=1)),
    ]
    assert store.latest_price("stock", "AAPL", last) == PricePoint(last, 150.0)
    # every window day is stored, weekends included; the last date's own day isn't
    day = first - dt.timedelta(days=3)
    while day < last:
        assert [i.title for i in store.news_window("MSFT", day, day)] == [f"MSFT {day}"]
        day += dt.timedelta(days=1)
    assert not store.has_news("MSFT", last)

    calls.clear()
    ensure_dates(SnapshotStore(tmp_path), spec, dates, FetchPolicy(max_retries=1))
    assert calls == []


def test_backfill_requests_start_at_the_first_date_that_needs_them(tmp_path, monkeypatch):
    spec = MarketSpec.stock(("AAPL", "MSFT"))
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    calls = []
    _counting_provider(monkeypatch, calls)
    ensure_dates(SnapshotStore(tmp_path), spec, dates[:3], FetchPolicy(max_retries=1))
    store = SnapshotStore(tmp_path)
    store.upsert_price("stock", "MSFT", dates[3], 99.0)  # MSFT is priced through Thursday
    stored = store.news_window("AAPL", dates[0], dates[1])

    calls.clear()
    _counting_provider(monkeypatch, calls)
    ensure_dates(store, spec, dates, FetchPolicy(max_retries=1))
    assert calls == [
        ("history", "AAPL", dates[3] - dt.timedelta(days=10), dates[4]),
        ("history", "MSFT", dates[4] - dt.timedelta(days=10), dates[4]),
        ("news", "AAPL", dates[3] - dt.timedelta(days=3), dates[4] - dt.timedelta(days=1)),
        ("news", "MSFT", dates[3] - dt.timedelta(days=3), dates[4] - dt.timedelta(days=1)),
    ]
    # only the dates a series lacked were written
    assert store.latest_price("stock", "MSFT", dates[3]).price == 99.0
    assert store.news_window("AAPL", dates[0], dates[1]) == stored
    assert store.has_news("AAPL", dates[3])


def test_backfill_failure_names_the_first_date_that_needed_a_request(tmp_path, monkeypatch):
    spec = MarketSpec.stock(("AAPL",))
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    calls = []
    _counting_provider(monkeypatch, calls)
    ensure_dates(SnapshotStore(tmp_path), spec, dates[:2], FetchPolicy(max_retries=1))

    _counting_provider(monkeypatch, calls, down=True)
    with pytest.raises(FeedUnavailable, match="unavailable for 2025-03-05: request failed") as info:
        ensure_dates(SnapshotStore(tmp_path), spec, dates, FetchPolicy(max_retries=1))
    assert info.value.date == dates[2]


def test_tests_cannot_open_network_connections():
    with pytest.raises(URLError, match=r"may not open network.*127\.0\.0\.1"):
        urlopen("http://127.0.0.1:9/", timeout=1.0)


def test_tests_cannot_look_up_host_names():
    with pytest.raises(URLError, match=r"may not look up.*provider\.example"):
        urlopen("http://provider.example/", timeout=1.0)
