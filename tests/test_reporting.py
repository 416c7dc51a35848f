"""Report tables and lag-delta tables built from real session logs."""

import datetime as dt
import json

import numpy as np
import pytest

from tradefolio.agents.baselines import AllCashAgent, BuyAndHoldAgent, EqualWeightAgent
from tradefolio.domain import MarketKind, MarketSpec
from tradefolio.environment import run_episode
from tradefolio.ingestion.feeds import ReplayFeed
from tradefolio.ingestion.snapshots import SnapshotStore
from tradefolio.metrics import MetricsReport, rolling_k_delta
from tradefolio.reporting import (
    build_delta_table,
    build_report_rows,
    render_delta_table,
    render_report_table,
    report_payload,
    write_delta_report,
    write_report,
)
from tradefolio.sessionlog import SessionLogHeader, SessionLogWriter, position_histories, read_session_log
from tradefolio.synthetic import seed_stock_store

D = dt.date


@pytest.fixture
def logged_runs(tmp_path):
    """Three baseline logs over the same seeded ten-day store."""
    spec = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
    dates = seed_stock_store(tmp_path / "store", spec.assets[:-1], D(2025, 3, 3), 10, seed=9)
    feed = ReplayFeed(SnapshotStore(tmp_path / "store"), MarketKind.STOCK)
    paths = []
    for name, agent in [
        ("baseline:equal-weight", EqualWeightAgent()),
        ("baseline:all-cash", AllCashAgent()),
        ("baseline:buy-and-hold", BuyAndHoldAgent()),
    ]:
        path = tmp_path / f"{name.replace(':', '-')}.jsonl"
        writer = SessionLogWriter(path, SessionLogHeader.for_run(spec, name, 1000.0))
        run_episode(spec, agent, feed, dates, 1000.0, on_record=writer.append)
        paths.append(path)
    return spec, dates, paths


def test_report_rows_recompute_metrics(logged_runs):
    spec, dates, paths = logged_runs
    rows = build_report_rows(paths, risk_free_rate=0.0002)

    assert [r.model for r in rows] == [
        "baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold",
    ]
    for row in rows:
        assert row.market == "stock"
        assert row.steps == len(dates) - 1
        assert len(row.values) == len(dates)
        assert len(row.cash_ratio) == len(dates)
        assert len(row.dates) == len(dates)
        assert row.metrics == MetricsReport.from_values(row.values, 0.0002)

    cash = rows[1]
    assert cash.metrics.cumulative_return == 0.0
    assert cash.metrics.sharpe is None  # zero volatility
    assert all(ratio == 1.0 for ratio in cash.cash_ratio)

    # buy-and-hold from all cash never leaves cash either
    assert rows[2].metrics.cumulative_return == 0.0


def test_report_table_rendering(logged_runs):
    spec, dates, paths = logged_runs
    rows = build_report_rows(paths, risk_free_rate=0.0)
    table = render_report_table(rows)

    assert render_report_table(rows) == table  # deterministic
    lines = table.splitlines()
    assert lines[0].split() == ["market", "model", "steps", "CR%", "SR", "MDD%", "WR%", "vol"]
    assert set(lines[1]) <= {"-", " "}
    assert len(lines) == 2 + len(rows)
    assert table.endswith("\n")

    cash_line = next(l for l in lines if "all-cash" in l)
    assert "0.00" in cash_line and "undefined" in cash_line

    ew_row = rows[0]
    ew_line = next(l for l in lines if "equal-weight" in l)
    assert f"{ew_row.metrics.cumulative_return * 100.0:.2f}" in ew_line
    assert f"{ew_row.metrics.sharpe:.4f}" in ew_line
    assert f"{ew_row.metrics.volatility:.6f}" in ew_line


def test_report_files(tmp_path, logged_runs):
    spec, dates, paths = logged_runs
    rows = build_report_rows(paths, risk_free_rate=0.0)
    table_path, json_path = write_report(rows, tmp_path / "out")

    assert table_path.read_text() == render_report_table(rows)
    payload = json.loads(json_path.read_text())
    assert payload == report_payload(rows)
    assert payload["format"] == "tradefolio-report"
    assert payload["version"] == 1

    session = payload["sessions"][0]
    assert session["series"]["dates"][0] == dates[0].isoformat()
    assert session["series"]["value"][0] == 1000.0
    assert session["series"]["cash_ratio"][0] == 1.0
    assert session["metrics"]["cumulative_return"] == rows[0].metrics.cumulative_return
    assert json.loads(json_path.read_text())["sessions"][1]["metrics"]["sharpe"] is None


@pytest.mark.parametrize("lags", [(0, 1, 2), (2, 0, 1)], ids=["ascending", "out-of-order"])
def test_delta_table_against_direct_recompute(logged_runs, lags):
    spec, dates, paths = logged_runs
    table = build_delta_table(paths, lags)

    assert table.lags == lags
    assert table.models == (
        "baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold",
    )
    for path, model in zip(paths, table.models):
        header, records = read_session_log(path)
        holdings, prices = position_histories(header, records)
        assert tuple(table.cells[model]) == lags
        for k in lags:
            assert table.cells[model][k] == rolling_k_delta(holdings, prices, k)

    for k in lags:
        column = [table.cells[m][k] for m in table.models]
        assert table.mean[k] == pytest.approx(float(np.mean(column)))
        assert table.band_low[k] == pytest.approx(float(np.percentile(column, 25)))
        assert table.band_high[k] == pytest.approx(float(np.percentile(column, 75)))
    assert render_delta_table(table).splitlines()[0].split()[1:] == [f"k={k}" for k in lags]

    # lag zero is the realized path itself: delta is exactly zero
    for m in table.models:
        assert table.cells[m][0] == 0.0
    # all-cash and cash-only buy-and-hold are immune to execution timing
    assert table.cells["baseline:all-cash"][1] == 0.0
    assert table.cells["baseline:buy-and-hold"][2] == pytest.approx(0.0, abs=1e-9)
    # equal weight re-trades every step, so shifting execution moves the result
    assert table.cells["baseline:equal-weight"][1] != 0.0


def test_delta_table_rendering_and_files(tmp_path, logged_runs):
    spec, dates, paths = logged_runs
    table = build_delta_table(paths, (0, 1))
    text = render_delta_table(table)

    lines = text.splitlines()
    assert lines[0].split() == ["model", "k=0", "k=1"]
    assert lines[2].startswith("baseline:equal-weight")
    assert [l.split()[0] for l in lines[-3:]] == ["mean", "p25", "p75"]
    assert "+0.0000" in lines[2]  # k=0 column

    text_path, json_path = write_delta_report(table, tmp_path / "out")
    assert text_path.read_text() == text
    payload = json.loads(json_path.read_text())
    assert payload["format"] == "tradefolio-delta"
    assert payload["lags"] == [0, 1]
    assert payload["models"]["baseline:all-cash"]["1"] == 0.0
    assert payload["mean"]["0"] == 0.0


def test_delta_table_suffixes_duplicate_models(tmp_path, logged_runs):
    spec, dates, paths = logged_runs
    table = build_delta_table([paths[0], paths[0]], (1,))
    assert table.models == ("baseline:equal-weight", "baseline:equal-weight#2")
    assert table.cells[table.models[0]] == table.cells[table.models[1]]
