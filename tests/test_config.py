"""YAML run configuration parsing and cross-checks."""

import datetime as dt
import re
import textwrap
from pathlib import Path

import pytest
import yaml

from tradefolio import config
from tradefolio.config import (
    DEFAULT_PREDICTION_CAPITAL,
    DEFAULT_STOCK_CAPITAL,
    TRADING_DAYS_PER_YEAR,
    load_config,
)
from tradefolio.domain import DEFAULT_STOCK_TICKERS, MarketKind
from tradefolio.errors import ConfigError

D = dt.date
REPO = Path(__file__).resolve().parent.parent


def _write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


MINIMAL_STOCK = """
    market: stock
    store: data
    dates:
      - 2025-03-03
      - 2025-03-04
    models:
      - baseline:all-cash
"""


def test_minimal_stock_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_STOCK))
    assert cfg.market is MarketKind.STOCK
    assert cfg.mode == "replay"
    assert cfg.universe == DEFAULT_STOCK_TICKERS
    assert cfg.questions == ()
    assert cfg.initial_capital == DEFAULT_STOCK_CAPITAL
    assert cfg.risk_free_rate == pytest.approx(0.04 / TRADING_DAYS_PER_YEAR)
    assert cfg.memory_horizon == 10
    assert cfg.retries == 2
    assert cfg.rebalance_interval == 1
    assert cfg.dates == (D(2025, 3, 3), D(2025, 3, 4))
    assert cfg.models[0].model == "baseline:all-cash"
    assert cfg.models[0].is_baseline
    # relative paths resolve against the config's directory
    assert cfg.store == tmp_path / "data"
    assert cfg.out_dir == tmp_path / "runs"

    spec = cfg.spec()
    assert spec.assets[-1] == "CASH"
    assert len(spec.assets) == 16


def test_date_range_form_with_weekday_filter(tmp_path):
    cfg = load_config(_write(tmp_path, """
        market: stock
        store: data
        dates:
          start: 2025-03-06
          end: 2025-03-11
          weekdays_only: true
        models: [baseline:all-cash]
    """))
    # the 8th and 9th are a weekend
    assert cfg.dates == (D(2025, 3, 6), D(2025, 3, 7), D(2025, 3, 10), D(2025, 3, 11))

    cfg = load_config(_write(tmp_path, """
        market: stock
        store: data
        dates: {start: 2025-03-07, end: 2025-03-09}
        models: [baseline:all-cash]
    """, name="range.yaml"))
    assert len(cfg.dates) == 3  # weekend kept without the filter


def test_model_entry_forms(tmp_path):
    cfg = load_config(_write(tmp_path, """
        market: stock
        store: data
        dates: [2025-03-03, 2025-03-04]
        models:
          - baseline:equal-weight
          - openai/gpt-5
          - model: anthropic/claude-sonnet-4.5
            temperature: 0.7
            max_tokens: 9000
          - model: deepseek/deepseek-chat-v3.1
            temperature: null
            max_tokens: null
    """))
    assert [m.model for m in cfg.models] == [
        "baseline:equal-weight",
        "openai/gpt-5",
        "anthropic/claude-sonnet-4.5",
        "deepseek/deepseek-chat-v3.1",
    ]
    assert cfg.models[1].temperature == 0.3
    assert cfg.models[2].temperature == 0.7
    assert cfg.models[2].max_tokens == 9000
    assert cfg.models[3].temperature is None and cfg.models[3].max_tokens is None
    assert not cfg.models[1].is_baseline


def test_prediction_defaults_and_zero_rate(tmp_path):
    cfg = load_config(_write(tmp_path, """
        market: prediction
        store: data
        dates: [2025-03-03, 2025-03-04, 2025-03-05]
        models: [baseline:all-cash]
        questions:
          - Will it rain tomorrow?
    """))
    assert cfg.market is MarketKind.PREDICTION
    assert cfg.initial_capital == DEFAULT_PREDICTION_CAPITAL
    assert cfg.risk_free_rate == 0.0
    assert cfg.universe == ()
    spec = cfg.spec()
    assert spec.assets == ("Will it rain tomorrow?_Yes", "Will it rain tomorrow?_No", "CASH")


def test_prediction_rejects_nonzero_rate(tmp_path):
    with pytest.raises(ConfigError, match="zero risk-free rate"):
        load_config(_write(tmp_path, """
            market: prediction
            store: data
            dates: [2025-03-03, 2025-03-04]
            models: [baseline:all-cash]
            risk_free_rate_annual: 0.04
        """))


def test_stock_rate_overrides(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_STOCK + "    risk_free_rate_annual: 0.0504\n"))
    assert cfg.risk_free_rate == pytest.approx(0.0504 / 252)


def test_the_annual_rate_is_the_only_rate_key(tmp_path):
    with pytest.raises(ConfigError, match=re.escape("unknown config keys: ['risk_free_rate']")):
        load_config(_write(tmp_path, MINIMAL_STOCK + "    risk_free_rate: 0.0002\n"))


def test_fetch_policy_block(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_STOCK + """
    fetch:
      max_retries: 5
      backoff_base: 0.5
      jitter: [0.0, 0.1]
      timeout: 30
      user_agent: research-bot/1
    """))
    assert cfg.fetch_policy.max_retries == 5
    assert cfg.fetch_policy.backoff_base == 0.5
    assert cfg.fetch_policy.jitter_range == (0.0, 0.1)
    assert cfg.fetch_policy.timeout == 30.0
    assert cfg.fetch_policy.user_agent == "research-bot/1"

    with pytest.raises(ConfigError, match="unknown fetch keys"):
        load_config(_write(tmp_path, MINIMAL_STOCK + "    fetch:\n      retries: 5\n",
                           name="bad.yaml"))
    with pytest.raises(ConfigError, match="fetch policy"):
        load_config(_write(tmp_path, MINIMAL_STOCK + "    fetch:\n      max_retries: 0\n",
                           name="bad2.yaml"))


@pytest.mark.parametrize(
    "mutation, message",
    [
        ("market: bonds", "market must be"),
        ("mode: paper", "mode must be"),
        ("surprise_key: 1", "unknown config keys"),
        ("dates: [2025-03-03]", "at least two dates"),
        ("dates: [2025-03-04, 2025-03-03]", "strictly increasing"),
        ("dates: [2025-03-03, not-a-date]", "expected a YYYY-MM-DD date"),
        ("dates: {start: 2025-03-05, end: 2025-03-03}", "before dates.start"),
        ("dates: {start: 2025-03-03, end: 2025-03-09, weekday_only: true}",
         r"unknown dates keys: \['weekday_only'\]"),
        ("dates: {start: 2025-03-03, end: 2025-03-09, weekdays_only: 'false'}",
         "dates.weekdays_only must be true or false, got 'false'"),
        ("models: []", "non-empty list"),
        ("models: [{temperature: 0.5}]", "'model' key"),
        ("models: [{model: m, top_p: 1}]", "unknown model entry keys"),
        ("models: [a/b, a/b]", "duplicate model entries"),
        ("initial_capital: 0", "must be positive"),
        ("memory_horizon: 0", "at least 1"),
        ("retries: -1", "non-negative"),
        ("rebalance_interval: 0", "at least 1"),
        ("universe: []", "universe must not be empty"),
        ("memory_horizon: ten", "memory_horizon must be an integer"),
        ("retries: [1]", "retries must be an integer"),
        ("initial_capital: lots", "initial_capital must be a number"),
        ("renormalize_band: wide", "renormalize_band must be a number"),
        ("fetch: {max_retries: x}", "fetch.max_retries must be an integer"),
        ("dates: 5", "dates must be a list or a {start, end} mapping"),
        ("fetch: 3", "fetch must be a mapping"),
        ("fetch: {jitter: 1}", r"fetch.jitter must be \[low, high\]"),
        ("universe: AAPL", "universe must be a list of names"),
        ("universe: [AAPL, AAPL]", "universe lists 'AAPL' more than once"),
        ("universe: ['', AAPL]", "universe .*: asset ids must be non-empty"),
        ("universe: [AAPL, CASH]", "universe .*: asset ids must be unique"),
        ("questions: [rain, snow, rain]", "questions lists 'rain' more than once"),
        ("models: [{model: m, temperature: hot}]", "m: temperature must be a number"),
        ("models: [{model: m, max_tokens: lots}]", "m: max_tokens must be an integer"),
        ("models: [{model: openai/x, temperature: -3}]", "openai/x: temperature must be non-neg"),
        ("models: [{model: openai/x, max_tokens: -5}]", "openai/x: max_tokens must be at least 1"),
        ("models: [{model: m, max_tokens: 0}]", "m: max_tokens must be at least 1"),
        # a reasoning model writes temperature: null and max_tokens: null instead
        ("models: [{model: m, style: structured-reasoning}]",
         r"unknown model entry keys: \['style'\]"),
        ("lookback_days: -5", "lookback_days must be non-negative"),
        ("news_window_days: -1", "news_window_days must be non-negative"),
        ("concurrency: 0", "concurrency must be at least 1"),
        ("concurrency: -3", "concurrency must be at least 1"),
        ("discovery_limit: 0", "discovery_limit must be at least 1"),
        ("discovery_limit: -1", "discovery_limit must be at least 1"),
        ("initial_capital: .inf", "initial_capital must be a finite number"),
        ("risk_free_rate_annual: .nan", "risk_free_rate_annual must be a finite number"),
        ("renormalize_band: .nan", "renormalize_band must be a finite number"),
        # discovery always drops markets that move less than FLAT_SERIES_THRESHOLD
        ("flat_market_threshold: 0.05", r"unknown config keys: \['flat_market_threshold'\]"),
        ("fetch: {timeout: .inf}", "fetch.timeout must be a finite number"),
        ("fetch: {backoff_base: .inf}", "fetch.backoff_base must be a finite number"),
        ("renormalize_band: 1", r"renormalize_band must lie in \[0, 1\)"),
        ("renormalize_band: -0.5", r"renormalize_band must lie in \[0, 1\)"),
    ],
)
def test_validation_errors(tmp_path, mutation, message):
    base = {
        "market": "market: stock",
        "store": "store: data",
        "dates": "dates: [2025-03-03, 2025-03-04]",
        "models": "models: [baseline:all-cash]",
    }
    key = mutation.split(":")[0]
    if key in base:
        base[key] = mutation
        text = "\n".join(base.values())
    else:
        text = "\n".join(base.values()) + "\n" + mutation
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, text))


def test_an_integer_past_the_float_range_is_refused(tmp_path):
    with pytest.raises(ConfigError, match="initial_capital must be a finite number"):
        load_config(_write(tmp_path, MINIMAL_STOCK + "    initial_capital: 1" + "0" * 400 + "\n"))


def test_absent_or_null_concurrency_means_automatic(tmp_path):
    base = "market: stock\nstore: data\ndates: [2025-03-03, 2025-03-04]\nmodels: [m]\n"
    assert load_config(_write(tmp_path, base)).concurrency is None
    assert load_config(_write(tmp_path, base + "concurrency: null\n")).concurrency is None
    cfg = load_config(_write(tmp_path, base + "concurrency: 1\ndiscovery_limit: 1\n"))
    assert (cfg.concurrency, cfg.discovery_limit) == (1, 1)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("fixture", ["stock-replay.yaml", "prediction-replay.yaml"])
def test_libyaml_and_pure_python_loaders_agree(tmp_path, monkeypatch, fixture):
    loaded = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        loaded.append(load_config(REPO / "fixtures" / fixture))
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(_write(tmp_path, "market: [unclosed\n"))
    assert loaded[0] == loaded[1]


def test_missing_pieces(tmp_path):
    with pytest.raises(ConfigError, match="no such config file"):
        load_config(tmp_path / "absent.yaml")
    with pytest.raises(ConfigError, match="'store' path"):
        load_config(_write(tmp_path, """
            market: stock
            dates: [2025-03-03, 2025-03-04]
            models: [baseline:all-cash]
        """))
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(_write(tmp_path, "- just\n- a\n- list\n"))
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_config(_write(tmp_path, "market: [unclosed\n"))


def test_absolute_paths_kept(tmp_path):
    cfg = load_config(_write(tmp_path, f"""
        market: stock
        store: {tmp_path}/elsewhere/data
        out_dir: {tmp_path}/elsewhere/runs
        dates: [2025-03-03, 2025-03-04]
        models: [baseline:all-cash]
    """))
    assert cfg.store == tmp_path / "elsewhere" / "data"
    assert cfg.out_dir == tmp_path / "elsewhere" / "runs"
