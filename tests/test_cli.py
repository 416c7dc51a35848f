"""End-to-end command tests over seeded stores; no network anywhere."""

import datetime as dt
import json
import threading

import pytest
from click.testing import CliRunner

from tradefolio import cli, sessionlog
from tradefolio.cli import _slug, main
from tradefolio.domain import PricePoint
from tradefolio.ingestion.predictions import DiscoveredMarket
from tradefolio.ingestion.snapshots import MarketCatalogEntry, SnapshotStore
from tradefolio.sessionlog import read_session_log
from tradefolio.synthetic import seed_prediction_store, seed_stock_store

D = dt.date


@pytest.fixture
def runner():
    return CliRunner()


def _write_config(path, store, out_dir, dates, models, market="stock", extra=""):
    lines = [f"market: {market}", f"store: {store}", f"out_dir: {out_dir}", "dates:"]
    lines += [f"  - {d.isoformat()}" for d in dates]
    lines.append("models:")
    lines += [f"  - {m}" for m in models]
    if market == "stock":
        lines.append("universe: [AAPL, MSFT, NVDA]")
    if extra:
        lines.append(extra)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def stock_setup(tmp_path):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 9, seed=13)
    config = _write_config(
        tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs", dates,
        ["baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold"],
    )
    return tmp_path, config, dates


def test_slug():
    assert _slug("baseline:equal-weight") == "baseline-equal-weight"
    assert _slug("openai/gpt-5") == "openai-gpt-5"
    assert _slug("anthropic/claude-sonnet-4.5") == "anthropic-claude-sonnet-4.5"
    assert _slug("///") == "model"


def test_run_writes_one_log_per_model(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output

    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    assert [p.name for p in logs] == [
        "stock-baseline-all-cash.jsonl",
        "stock-baseline-buy-and-hold.jsonl",
        "stock-baseline-equal-weight.jsonl",
    ]
    for log in logs:
        header, records = read_session_log(log)
        assert len(records) == len(dates) - 1
    assert "baseline:equal-weight: ended, +8 steps" in result.output


def test_rerun_is_a_noop(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "runs").glob("*.jsonl")}

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0
    assert result.output.count("complete, +0 steps") == 3
    after = {p.name: p.read_bytes() for p in (tmp_path / "runs").glob("*.jsonl")}
    assert after == before


def test_run_resumes_and_matches_single_pass(runner, tmp_path):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 9, seed=13)
    models = ["baseline:equal-weight"]
    part_cfg = _write_config(tmp_path / "part.yaml", tmp_path / "store",
                             tmp_path / "runs", dates[:5], models)
    full_cfg = _write_config(tmp_path / "full.yaml", tmp_path / "store",
                             tmp_path / "runs", dates, models)
    once_cfg = _write_config(tmp_path / "once.yaml", tmp_path / "store",
                             tmp_path / "once", dates, models)

    assert runner.invoke(main, ["run", "--config", str(part_cfg)]).exit_code == 0
    result = runner.invoke(main, ["run", "--config", str(full_cfg)])
    assert result.exit_code == 0
    assert "+4 steps" in result.output

    assert runner.invoke(main, ["run", "--config", str(once_cfg)]).exit_code == 0
    resumed = (tmp_path / "runs" / "stock-baseline-equal-weight.jsonl").read_bytes()
    single = (tmp_path / "once" / "stock-baseline-equal-weight.jsonl").read_bytes()
    assert resumed == single


def test_resumed_run_parses_each_log_once(runner, stock_setup, monkeypatch):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    uninterrupted = {log.name: log.read_bytes() for log in logs}
    for log in logs:  # cut each log back five records
        log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:-5]))

    parsed = []
    real_read = sessionlog.read_session_log

    def counting_read(path):
        parsed.append(path.name)
        return real_read(path)

    monkeypatch.setattr(sessionlog, "read_session_log", counting_read)
    monkeypatch.setattr(cli, "read_session_log", counting_read)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("ended, +5 steps") == 3
    assert sorted(parsed) == sorted(uninterrupted)
    assert {log.name: log.read_bytes() for log in logs} == uninterrupted


def test_run_rejects_date_mismatch(runner, tmp_path):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 6, seed=13)
    models = ["baseline:all-cash"]
    first = _write_config(tmp_path / "a.yaml", tmp_path / "store",
                          tmp_path / "runs", dates[:4], models)
    shifted = _write_config(tmp_path / "b.yaml", tmp_path / "store",
                            tmp_path / "runs", dates[1:], models)

    assert runner.invoke(main, ["run", "--config", str(first)]).exit_code == 0
    result = runner.invoke(main, ["run", "--config", str(shifted)])
    assert result.exit_code == 1
    assert "different dates" in result.output


def test_run_isolates_per_model_failures(runner, tmp_path):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 4, seed=13)
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash", "baseline:momentum"])
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert "baseline:momentum: failed: unknown baseline 'momentum'" in result.output
    assert "baseline:all-cash: ended" in result.output
    # the healthy session's log still landed
    header, records = read_session_log(tmp_path / "runs" / "stock-baseline-all-cash.jsonl")
    assert len(records) == 3


def test_log_with_a_non_object_header_fails_only_its_model(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    bad = tmp_path / "runs" / "stock-baseline-all-cash.jsonl"
    bad.parent.mkdir()
    bad.write_text("[]\n", encoding="utf-8")

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "baseline:all-cash: failed:" in result.output
    assert ":1: bad header" in result.output
    assert "baseline:equal-weight: ended" in result.output
    assert "baseline:buy-and-hold: ended" in result.output
    assert "Error: one or more sessions failed" in result.output

    reported = runner.invoke(main, ["report", "--config", str(config)])
    assert reported.exit_code == 1
    assert isinstance(reported.exception, SystemExit), reported.exception
    assert ":1: bad header" in reported.output


def test_worker_threads_only_read_a_loaded_store(runner, stock_setup, monkeypatch):
    tmp_path, config, dates = stock_setup
    config.write_text(config.read_text() + "concurrency: 2\n", encoding="utf-8")
    builds = []
    real_load = SnapshotStore._load

    def spying_load(self, kind, key):
        if (kind, key) not in self._series:
            builds.append(threading.current_thread() is threading.main_thread())
        return real_load(self, kind, key)

    monkeypatch.setattr(SnapshotStore, "_load", spying_load)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    # three price and three news series, each built once, before the pool
    assert builds == [True] * 6


def test_rebalance_interval_freezes_between_decisions(runner, tmp_path):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 6, seed=13)
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight"],
                           extra="rebalance_interval: 2")
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0

    header, records = read_session_log(
        tmp_path / "runs" / "stock-baseline-equal-weight.jsonl")
    # odd steps hold: units stay put from the prior rebalance
    assert "hold until next rebalance" in records[1].raw_response
    for asset, units in records[0].holdings_after.items():
        assert records[1].holdings_after[asset] == pytest.approx(units, rel=1e-9)
    # even steps re-divide, which moves units whenever prices moved
    assert records[2].holdings_after != pytest.approx(records[1].holdings_after)


def test_prediction_run_uses_store_catalog(runner, tmp_path):
    questions = (
        "Will the synthetic index close above its opening level?",
        "Will the sample reserve be drawn down this quarter?",
    )
    dates = seed_prediction_store(tmp_path / "store", questions, D(2025, 3, 3), 7, seed=4)
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight"], market="prediction")

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output

    header, records = read_session_log(
        tmp_path / "runs" / "prediction-baseline-equal-weight.jsonl")
    assert header.initial_capital == 500.0
    assert header.assets == (
        f"{questions[0]}_Yes", f"{questions[0]}_No",
        f"{questions[1]}_Yes", f"{questions[1]}_No", "CASH",
    )
    assert len(records) == len(dates) - 1
    # the yes sides actually get traded through the token-id mapping
    assert records[0].holdings_after[f"{questions[0]}_Yes"] > 0.0


def test_prediction_run_without_catalog_says_fetch_first(runner, tmp_path):
    (tmp_path / "store").mkdir()
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           [D(2025, 3, 3), D(2025, 3, 4)], ["baseline:all-cash"],
                           market="prediction")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert "run 'tradefolio fetch' first" in result.output


def test_live_mode_waits_for_dates(runner, tmp_path):
    seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"), D(2099, 1, 4), 4)
    future = [D(2099, 1, 4 + i) for i in range(4)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           future, ["baseline:all-cash"], extra="mode: live")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0
    assert "nothing to run yet" in result.output
    assert not (tmp_path / "runs").exists() or not list((tmp_path / "runs").glob("*.jsonl"))


def test_live_mode_over_covered_past_matches_replay(runner, tmp_path, monkeypatch):
    from tradefolio.ingestion import news as news_mod

    seeded = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                              D(2025, 3, 3), 10, seed=13)
    # run over the back half so the lookback window is already covered;
    # only weekend news days are missing, and those queries come back empty
    dates = seeded[5:]
    monkeypatch.setattr(news_mod, "fetch_news", lambda *a, **k: [])

    live_cfg = _write_config(tmp_path / "live.yaml", tmp_path / "store",
                             tmp_path / "live-runs", dates, ["baseline:equal-weight"],
                             extra="mode: live")
    replay_cfg = _write_config(tmp_path / "replay.yaml", tmp_path / "store",
                               tmp_path / "replay-runs", dates, ["baseline:equal-weight"])

    assert runner.invoke(main, ["run", "--config", str(live_cfg)]).exit_code == 0
    assert runner.invoke(main, ["run", "--config", str(replay_cfg)]).exit_code == 0

    live_log = (tmp_path / "live-runs" / "stock-baseline-equal-weight.jsonl").read_bytes()
    replay_log = (tmp_path / "replay-runs" / "stock-baseline-equal-weight.jsonl").read_bytes()
    assert live_log == replay_log


def _fake_provider(monkeypatch, outage_from=None):
    """Deterministic weekday bars and empty news; history requests that
    reach ``outage_from`` fail the way an exhausted retry policy does."""
    from tradefolio.errors import ProviderError
    from tradefolio.ingestion import equities, news as news_mod

    def fake_history(ticker, start, end, policy, **kwargs):
        if outage_from is not None and end >= outage_from:
            raise ProviderError("request failed after 2 attempts: 503 Service Unavailable")
        days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
        return [PricePoint(d, 100.0 + 3 * len(ticker) + d.toordinal() % 7, 1e6)
                for d in days if d.weekday() < 5]

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(news_mod, "fetch_news", lambda *a, **k: [])


def test_live_outage_runs_the_covered_prefix_then_resumes(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 10) + dt.timedelta(days=i) for i in range(9) if i % 7 < 5]
    outage = dates[5]
    models = ["baseline:equal-weight"]
    log_name = "stock-baseline-equal-weight.jsonl"
    live_cfg = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                             dates, models, extra="mode: live")

    _fake_provider(monkeypatch, outage_from=outage)
    result = runner.invoke(main, ["run", "--config", str(live_cfg)])
    assert result.exit_code == 0, result.output
    assert f"live data unavailable for {outage}: request failed after 2 attempts" in result.output
    prefix_log = (tmp_path / "runs" / log_name).read_bytes()
    replay_cfg = _write_config(tmp_path / "replay.yaml", tmp_path / "store",
                               tmp_path / "replay", dates[:5], models)
    assert runner.invoke(main, ["run", "--config", str(replay_cfg)]).exit_code == 0
    assert prefix_log == (tmp_path / "replay" / log_name).read_bytes()

    # once the provider recovers, the log resumes to the uninterrupted bytes
    _fake_provider(monkeypatch)
    assert runner.invoke(main, ["run", "--config", str(live_cfg)]).exit_code == 0
    clean_cfg = _write_config(tmp_path / "clean.yaml", tmp_path / "clean-store",
                              tmp_path / "clean", dates, models, extra="mode: live")
    assert runner.invoke(main, ["run", "--config", str(clean_cfg)]).exit_code == 0
    assert (tmp_path / "runs" / log_name).read_bytes() == (tmp_path / "clean" / log_name).read_bytes()

    # an outage at the second date leaves nothing to run
    _fake_provider(monkeypatch, outage_from=dates[1])
    early_cfg = _write_config(tmp_path / "early.yaml", tmp_path / "early-store",
                              tmp_path / "early", dates, models, extra="mode: live")
    result = runner.invoke(main, ["run", "--config", str(early_cfg)])
    assert result.exit_code == 0, result.output
    assert "nothing to run yet" in result.output
    assert not (tmp_path / "early").exists()


def test_run_reports_an_unreadable_market_catalog(runner, tmp_path):
    questions = ("Will the synthetic index close above its opening level?",
                 "Will the sample reserve be drawn down this quarter?")
    dates = seed_prediction_store(tmp_path / "store", questions, D(2025, 3, 3), 4, seed=4)
    catalog = tmp_path / "store" / "markets.jsonl"
    first, second = catalog.read_text(encoding="utf-8").splitlines()
    catalog.write_text(f"{first}\n{second[:-20]}\n", encoding="utf-8")
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction")

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert f"{catalog}:2: unreadable market entry" in result.output


def test_report_command(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0

    result = runner.invoke(main, ["report", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0].split() == [
        "market", "model", "steps", "CR%", "SR", "MDD%", "WR%", "vol"]
    assert "baseline:all-cash" in result.output
    assert "undefined" in result.output  # the flat series has no ratio
    assert (tmp_path / "runs" / "report.txt").exists()
    payload = json.loads((tmp_path / "runs" / "report.json").read_text())
    assert payload["format"] == "tradefolio-report"
    assert len(payload["sessions"]) == 3

    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    explicit = runner.invoke(main, ["report", str(log), "--rate", "0.0"])
    assert explicit.exit_code == 0
    assert "baseline:equal-weight" in explicit.output

    nothing = runner.invoke(main, ["report"])
    assert nothing.exit_code == 2
    assert "pass session logs" in nothing.output


def test_delta_command(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0

    result = runner.invoke(main, ["delta", "--config", str(config), "--lags", "0,1,2"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0].split() == ["model", "k=0", "k=1", "k=2"]
    assert "mean" in result.output
    assert (tmp_path / "runs" / "delta.json").exists()

    too_big = runner.invoke(main, ["delta", "--config", str(config), "--lags", "50"])
    assert too_big.exit_code == 1
    assert "lag" in too_big.output.lower()

    garbage = runner.invoke(main, ["delta", "--config", str(config), "--lags", "1,x"])
    assert garbage.exit_code == 2
    assert "comma-separated integers" in garbage.output


def test_fetch_stock_snapshots_store(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(3)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"])

    def fake_history(ticker, start, end, policy, **kwargs):
        days = (end - start).days + 1
        return [PricePoint(start + dt.timedelta(days=i), 100.0 + i)
                for i in range(days)]

    def fake_news(tag, kind, start, end, policy, **kwargs):
        published = dt.datetime.combine(dates[0], dt.time(12), tzinfo=dt.timezone.utc)
        from tradefolio.domain import NewsItem
        return [NewsItem(title=f"{tag} item", snippet="", source="wire",
                         url="https://example.com", published_at=int(published.timestamp()),
                         tagged_asset=tag)]

    monkeypatch.setattr(cli, "fetch_equity_history", fake_history)
    monkeypatch.setattr(cli, "fetch_news", fake_news)

    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "AAPL: 13 bars" in result.output  # [start - 10 lookback days, end] inclusive
    assert "NVDA: 1 news items" in result.output

    store = SnapshotStore(tmp_path / "store")
    assert len(store.price_series("stock", "MSFT")) == 13
    # every day of the news window is marked covered, even without items
    news_start = dates[0] - dt.timedelta(days=3)
    day = news_start
    while day <= dates[-1]:
        assert store.has_news("AAPL", day)
        day += dt.timedelta(days=1)
    assert store.news_window("AAPL", dates[0], dates[0])[0].title == "AAPL item"


def test_fetch_and_live_feed_bucket_news_on_the_same_utc_day(runner, tmp_path, monkeypatch):
    from tradefolio.domain import MarketSpec, NewsItem
    from tradefolio.ingestion import equities, news as news_mod
    from tradefolio.ingestion.feeds import ensure_date
    from tradefolio.ingestion.policy import FetchPolicy

    utc = dt.timezone.utc
    stamps = {
        "last second": dt.datetime(2025, 3, 4, 23, 59, 59, tzinfo=utc),
        "midnight": dt.datetime(2025, 3, 5, 0, 0, 0, tzinfo=utc),
    }

    def fake_news(tag, kind, start, end, policy, **kwargs):
        return [NewsItem(title=title, snippet="", source="wire", url="https://example.com",
                         published_at=int(when.timestamp()), tagged_asset=tag)
                for title, when in stamps.items()]

    def fake_history(ticker, start, end, policy, **kwargs):
        return [PricePoint(start + dt.timedelta(days=i), 100.0)
                for i in range((end - start).days + 1)]

    date = D(2025, 3, 6)
    config = _write_config(tmp_path / "run.yaml", tmp_path / "fetched", tmp_path / "runs",
                           [date, date + dt.timedelta(days=1)], ["baseline:all-cash"])
    monkeypatch.setattr(cli, "fetch_news", fake_news)
    monkeypatch.setattr(cli, "fetch_equity_history", fake_history)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0

    monkeypatch.setattr(news_mod, "fetch_news", fake_news)
    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    ensure_date(SnapshotStore(tmp_path / "live"), MarketSpec.stock(("AAPL", "MSFT", "NVDA")),
                date, FetchPolicy(max_retries=1))

    fetched, live = SnapshotStore(tmp_path / "fetched"), SnapshotStore(tmp_path / "live")
    for day, titles in ((D(2025, 3, 4), ["last second"]), (D(2025, 3, 5), ["midnight"])):
        assert [i.title for i in fetched.news_window("AAPL", day, day)] == titles
        assert [i.title for i in live.news_window("AAPL", day, day)] == titles


def test_fetch_prediction_discovers_markets(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(3)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction")

    def entry(n):
        return MarketCatalogEntry(
            slug=f"market-{n}", question=f"Will event {n} happen?",
            yes_token=f"tok-{n}-yes", no_token=f"tok-{n}-no",
            url=f"https://example.com/event/market-{n}")

    def history(base):
        return tuple(PricePoint(d, round(base + 0.05 * i, 3))
                     for i, d in enumerate(dates))

    markets = [DiscoveredMarket(entry(1), history(0.4), history(0.55)),
               DiscoveredMarket(entry(2), history(0.2), history(0.75))]

    monkeypatch.setattr(cli, "discover_markets", lambda *a, **k: markets)
    monkeypatch.setattr(cli, "fetch_news", lambda *a, **k: [])

    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "market-1: 3 bars" in result.output

    store = SnapshotStore(tmp_path / "store")
    assert [e.slug for e in store.markets()] == ["market-1", "market-2"]
    assert len(store.price_series("prediction", "tok-2-no")) == 3
    assert store.has_news("Will event 1 happen?", dates[0])


def test_fetch_prediction_rejects_unknown_question(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3), D(2025, 3, 4)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction",
                           extra='questions: ["Will something unlisted happen?"]')
    monkeypatch.setattr(cli, "discover_markets", lambda *a, **k: [])
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 1
    assert "not in the market catalog" in result.output
