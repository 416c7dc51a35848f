"""End-to-end command tests over seeded stores; no network anywhere."""

import datetime as dt
import fcntl
import json
import re
import shutil
import threading
from collections import Counter

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from tradefolio import cli, sessionlog
from tradefolio.agents.baselines import EqualWeightAgent
from tradefolio.agents.clients import HttpChatClient, ModelClientConfig, ScriptedClient
from tradefolio.agents.harness import LLMAgent
from tradefolio.ingestion import snapshots
from tradefolio.cli import _slug, main
from tradefolio.config import load_config
from tradefolio.domain import PricePoint
from tradefolio.environment import MarketMemo
from tradefolio.errors import ClientTimeout, IngestionError
from tradefolio.ingestion.feeds import ReplayFeed
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

    def counting_read(path, *handle):
        parsed.append(path.name)
        return real_read(path, *handle)

    monkeypatch.setattr(sessionlog, "read_session_log", counting_read)
    monkeypatch.setattr(cli, "read_session_log", counting_read)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("ended, +5 steps") == 3
    assert sorted(parsed) == sorted(uninterrupted)
    assert {log.name: log.read_bytes() for log in logs} == uninterrupted


def test_a_session_opens_its_log_once(runner, stock_setup, monkeypatch):
    """The cut, the read and every append of a session go through one
    handle, fresh or resumed; a fresh session's look for its log opens
    nothing."""
    tmp_path, config, dates = stock_setup
    opened = []

    def counting_open(file, *args, **kwargs):
        handle = open(file, *args, **kwargs)
        opened.append(file.name)
        return handle

    monkeypatch.setattr(sessionlog, "open", counting_open, raising=False)
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    assert sorted(opened) == [log.name for log in logs]

    opened.clear()
    for log in logs:  # each ends mid-record
        log.write_bytes(log.read_bytes()[:-40])
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("ended, +1 steps") == 3
    assert sorted(opened) == [log.name for log in logs]


@pytest.mark.parametrize("line", [-1, 0], ids=["record", "header"])
def test_run_drops_a_line_cut_mid_append_and_recomputes_it(runner, stock_setup, line):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    uninterrupted = {log: log.read_bytes() for log in logs}
    for log in logs:
        lines = uninterrupted[log].splitlines(keepends=True)
        n = line % len(lines)
        log.write_bytes(b"".join(lines[:n]) + lines[n][:len(lines[n]) // 2])

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    for log in logs:
        number = line % len(uninterrupted[log].splitlines()) + 1
        assert f"{log}:{number}: dropped an unfinished line, which this run recomputes" \
            in result.output
        assert log.read_bytes() == uninterrupted[log]


def _shared_market(cfg):
    """The one market memo ``tradefolio run`` builds for a config."""
    store = SnapshotStore(cfg.store)
    spec, keys = cli._build_spec(cfg, store)
    return MarketMemo(ReplayFeed(store, cfg.market, keys), spec,
                      cfg.lookback_days, cfg.news_window_days)


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A finished three-step, one-stock log, its bytes, and what
    ``_run_one`` needs to resume it; a resume costs about a millisecond."""
    root = tmp_path_factory.mktemp("cut")
    dates = seed_stock_store(root / "store", ("AAPL",), D(2025, 3, 3), 4, seed=13)
    config = _write_config(root / "run.yaml", root / "store", root / "runs", dates,
                           ["baseline:equal-weight"])
    config.write_text(config.read_text().replace("[AAPL, MSFT, NVDA]", "[AAPL]"))
    cfg = load_config(config)
    market = _shared_market(cfg)

    def resume():
        return cli._run_one(cfg.models[0], cfg, market, list(cfg.dates),
                            lambda entry: EqualWeightAgent())

    assert resume().status == "ended"
    log = root / "runs" / "stock-baseline-equal-weight.jsonl"
    return resume, log, log.read_bytes()


def _resume_cut_at(small_log, offset):
    resume, log, full = small_log
    log.write_bytes(full[:offset])
    outcome = resume()
    assert outcome.error is None and outcome.status == "ended", (offset, outcome)
    assert log.read_bytes() == full, offset
    torn = offset == 0 or full[offset - 1:offset] != b"\n"
    assert outcome.dropped_line == (full[:offset].count(b"\n") + 1 if torn else None)


def _last_two_records_start(full):
    lines = full.splitlines(keepends=True)
    return len(full) - len(lines[-1]) - len(lines[-2])


def test_a_log_cut_at_any_byte_of_its_last_two_records_resumes(small_log):
    full = small_log[2]
    for offset in range(_last_two_records_start(full), len(full)):
        _resume_cut_at(small_log, offset)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_log_cut_at_any_earlier_byte_resumes(small_log, data):
    full = small_log[2]
    _resume_cut_at(small_log, data.draw(st.integers(0, _last_two_records_start(full) - 1)))


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


class _TimingOutAgent(EqualWeightAgent):
    """Equal weight until the provider times out on its n-th call."""

    def __init__(self, fail_on):
        self.calls = 0
        self.fail_on = fail_on

    def decide(self, spec, obs, memory):
        self.calls += 1
        if self.calls == self.fail_on:
            raise ClientTimeout("provider timed out after 120.0s")
        return super().decide(spec, obs, memory)


def test_provider_failure_halts_and_the_next_run_resumes(runner, tmp_path, monkeypatch):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 6, seed=13)
    models = ["baseline:equal-weight"]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, models)
    once = _write_config(tmp_path / "once.yaml", tmp_path / "store", tmp_path / "once",
                         dates, models)
    assert runner.invoke(main, ["run", "--config", str(once)]).exit_code == 0

    monkeypatch.setattr(cli, "_make_agent", lambda entry: _TimingOutAgent(fail_on=3))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert ("baseline:equal-weight: halted (ClientTimeout: provider timed out after 120.0s),"
            " +2 steps") in result.output

    monkeypatch.undo()
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +3 steps" in result.output
    name = "stock-baseline-equal-weight.jsonl"
    assert (tmp_path / "runs" / name).read_bytes() == (tmp_path / "once" / name).read_bytes()


@pytest.mark.parametrize("change, differs", [
    (lambda text: text + "initial_capital: 2000\n",
     "initial_capital 1000.0 in the log, 2000.0 in the config"),
    (lambda text: text.replace("[AAPL, MSFT, NVDA]", "[AAPL, MSFT]"),
     "assets ['AAPL', 'MSFT', 'NVDA', 'CASH'] in the log, ['AAPL', 'MSFT', 'CASH'] in the config"),
], ids=["capital", "universe"])
@pytest.mark.parametrize("cut", [0, 1], ids=["complete", "cut"])
def test_run_rejects_a_log_with_a_different_header(runner, stock_setup, cut, change, differs):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    for log in logs:
        lines = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(b"".join(lines[:len(lines) - cut]))
    before = {log: log.read_bytes() for log in logs}
    config.write_text(change(config.read_text()), encoding="utf-8")

    # a finished log is checked too, not reported complete
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert "complete" not in result.output
    for log in logs:
        assert f"{log} belongs to a different run: {differs}" in result.output
    assert {log: log.read_bytes() for log in logs} == before


def test_a_dropped_line_is_named_when_its_session_then_fails(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    for log in logs:
        log.write_bytes(log.read_bytes()[:-40])
    config.write_text(config.read_text().replace("[AAPL, MSFT, NVDA]", "[AAPL, MSFT]"))

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    for log in logs:
        assert (f"{log}:{len(dates)}: dropped an unfinished line, the session failed"
                " before recomputing it") in result.output
        assert f"{log} belongs to a different run" in result.output
    assert "recomputes" not in result.output


@pytest.mark.parametrize("concurrency", [1, 2])
def test_models_that_would_share_a_log_are_refused_before_any_log(runner, stock_setup,
                                                                   concurrency):
    tmp_path, _, dates = stock_setup
    config = _write_config(tmp_path / "clash.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight", "openai/gpt-4.1", "openai:gpt-4.1"],
                           extra=f"concurrency: {concurrency}")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    log = tmp_path / "runs" / "stock-openai-gpt-4.1.jsonl"
    assert (f"models 'openai/gpt-4.1' and 'openai:gpt-4.1' would share the log {log}"
            in result.output)
    assert not (tmp_path / "runs").exists()


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


def test_a_missing_api_key_fails_its_model_before_its_log(runner, stock_setup, monkeypatch):
    tmp_path, _, dates = stock_setup
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = _write_config(tmp_path / "keyless.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["openai/gpt-5", "baseline:equal-weight"])
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert "openai/gpt-5: failed: missing credential OPENAI_API_KEY for openai" in result.output
    assert "baseline:equal-weight: ended, +8 steps" in result.output
    assert [p.name for p in (tmp_path / "runs").glob("*.jsonl")] == [
        "stock-baseline-equal-weight.jsonl"]


@pytest.mark.parametrize("content", [b"", b'{"format":"tradefolio-sess'],
                         ids=["empty", "torn-header"])
def test_a_torn_header_cut_before_a_failing_session_leaves_no_log(runner, stock_setup,
                                                                  monkeypatch, content):
    tmp_path, _, dates = stock_setup
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = _write_config(tmp_path / "keyless.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["openai/gpt-5", "baseline:equal-weight"])
    log = tmp_path / "runs" / "stock-openai-gpt-5.jsonl"
    log.parent.mkdir()
    log.write_bytes(content)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert (f"{log}:1: dropped an unfinished line, the session failed before recomputing it"
            in result.output)
    assert "openai/gpt-5: failed: missing credential OPENAI_API_KEY for openai" in result.output
    assert "baseline:equal-weight: ended, +8 steps" in result.output
    assert not log.exists()


def test_a_log_another_run_holds_fails_only_its_session_and_keeps_its_bytes(runner,
                                                                           stock_setup):
    """A ``flock`` belongs to an open file description, so a second
    ``open`` in this process contends with the run as another process
    would."""
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    uninterrupted = {log: log.read_bytes() for log in logs}
    for log in logs:  # each ends mid-record, which a session it reached would cut
        log.write_bytes(uninterrupted[log][:-40])
    held = tmp_path / "runs" / "stock-baseline-all-cash.jsonl"
    before = held.read_bytes()

    with open(held, "rb") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"baseline:all-cash: failed: {held} is in use by another run" in result.output
    assert f"{held}:" not in result.output  # nothing was cut off it
    assert held.read_bytes() == before
    assert "baseline:equal-weight: ended, +1 steps" in result.output
    assert "baseline:buy-and-hold: ended, +1 steps" in result.output

    # with the lock released, the next run finishes the held log
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:all-cash: ended, +1 steps" in result.output
    assert {log: log.read_bytes() for log in logs} == uninterrupted


def test_a_fresh_log_another_run_creates_first_fails_only_its_session(runner, stock_setup,
                                                                      monkeypatch):
    tmp_path, config, dates = stock_setup
    rival = tmp_path / "runs" / "stock-baseline-all-cash.jsonl"
    real = cli._make_agent

    def make_agent(entry):
        # another run creates the log after this session found none
        if entry.model == "baseline:all-cash":
            rival.write_bytes(b"another run's bytes\n")
        return real(entry)

    monkeypatch.setattr(cli, "_make_agent", make_agent)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert f"baseline:all-cash: failed: {rival} is in use by another run" in result.output
    assert rival.read_bytes() == b"another run's bytes\n"
    assert "baseline:equal-weight: ended, +8 steps" in result.output
    assert "baseline:buy-and-hold: ended, +8 steps" in result.output


def test_a_reply_with_an_overlong_integer_is_a_parse_failure(runner, stock_setup,
                                                             monkeypatch):
    """``json.loads`` refuses an integer of more than 4300 digits with a
    plain ``ValueError``; the step falls back and every session runs."""
    tmp_path, _, dates = stock_setup
    config = _write_config(tmp_path / "huge.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight", "openai/gpt-5", "baseline:all-cash"])
    reply = 'Sure: {"reasoning": "r", "allocations": {"CASH": 1, "n": ' + "9" * 4400 + "}}"
    real = cli._make_agent
    monkeypatch.setattr(cli, "_make_agent", lambda entry: real(entry) if entry.is_baseline
                        else LLMAgent(ScriptedClient([reply]), entry))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    for model in ("baseline:equal-weight", "openai/gpt-5", "baseline:all-cash"):
        assert f"{model}: ended, +8 steps" in result.output
    _, records = read_session_log(tmp_path / "runs" / "stock-openai-gpt-5.jsonl")
    assert len(records) == 8
    assert all(r.allocation is None and r.parse_error.startswith("NoObjectFound")
               for r in records)


def test_a_model_whose_key_is_set_gets_an_http_client(monkeypatch):
    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    agent = cli._make_agent(ModelClientConfig("openai/gpt-5"))
    assert isinstance(agent, LLMAgent) and isinstance(agent.client, HttpChatClient)
    assert agent.config == ModelClientConfig("openai/gpt-5")


def test_a_finished_model_log_replays_as_complete_without_its_api_key(runner, stock_setup,
                                                                     monkeypatch):
    """A session builds its agent only when a step is left to run."""
    tmp_path, _, dates = stock_setup
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    config = _write_config(tmp_path / "model.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["openai/gpt-5"])
    cfg = load_config(config)
    market = _shared_market(cfg)
    reply = json.dumps({"allocations": {"AAPL": 0.25, "MSFT": 0.25, "NVDA": 0.25, "CASH": 0.25}})
    finished = cli._run_one(cfg.models[0], cfg, market, list(cfg.dates),
                            lambda entry: LLMAgent(ScriptedClient([reply]), entry))
    assert (finished.status, finished.new_steps, finished.error) == ("ended", 8, None)
    log = tmp_path / "runs" / "stock-openai-gpt-5.jsonl"
    full = log.read_bytes()

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "openai/gpt-5: complete, +0 steps" in result.output
    assert log.read_bytes() == full


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


@pytest.mark.parametrize("change", [
    {"cash": "USD"},
    {"cash": ["CASH"]},
    {"initial_capital": -5.0},
    {"initial_capital": float("nan")},
    {"initial_capital": float("inf")},
    {"model": 5},
    {"model": ["a"]},
    {"assets": "AAPL"},
], ids=["cash-not-an-asset", "cash-list", "capital-negative", "capital-nan", "capital-inf",
        "model-number", "model-list", "assets-string"])
def test_report_and_delta_refuse_a_tampered_log_header(runner, stock_setup, change):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    header, rest = log.read_text(encoding="utf-8").split("\n", 1)
    log.write_text(json.dumps({**json.loads(header), **change}) + "\n" + rest, encoding="utf-8")

    for command in ("report", "delta"):
        result = runner.invoke(main, [command, str(log)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{log}:1: bad header" in result.output


def test_a_series_header_of_the_wrong_shape_fails_each_model_that_reads_it(runner,
                                                                          stock_setup):
    tmp_path, config, dates = stock_setup
    series = tmp_path / "store" / "prices" / "stock" / "AAPL.jsonl"
    rows = series.read_text(encoding="utf-8").split("\n", 1)[1]
    series.write_text("[]\n" + rows, encoding="utf-8")

    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    for model in ("baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold"):
        assert f"{model}: failed: {series}:1: unreadable header" in result.output


_REPLY = json.dumps({"reasoning": "r",
                     "allocations": {"AAPL": 0.25, "MSFT": 0.25, "NVDA": 0.25, "CASH": 0.25}})


class _ThreadNamingClient(ScriptedClient):
    """One scripted reply, recording the thread of every call; with
    ``meet``, the first call waits there for the other clients'."""

    def __init__(self, threads, meet=None):
        super().__init__([_REPLY])
        self.threads, self.meet = threads, meet

    def complete(self, prompt, config):
        if self.meet is not None and not self.prompts:
            self.meet.wait()
        self.threads.append(threading.get_ident())
        return super().complete(prompt, config)


def _scripted_models(monkeypatch, meet=None):
    """Model entries get scripted LLMAgents and baselines their own
    agents; returns the threads the model calls run on."""
    threads = []
    real = cli._make_agent
    monkeypatch.setattr(cli, "_make_agent", lambda entry: real(entry) if entry.is_baseline
                        else LLMAgent(_ThreadNamingClient(threads, meet), entry))
    return threads


def test_worker_threads_build_each_series_once(runner, stock_setup, monkeypatch):
    tmp_path, _, dates = stock_setup
    config = _write_config(tmp_path / "mixed.yaml", tmp_path / "store", tmp_path / "runs", dates,
                           ["test/alpha", "baseline:equal-weight", "test/beta",
                            "baseline:all-cash", "baseline:buy-and-hold"],
                           extra="concurrency: 2")
    threads = _scripted_models(monkeypatch)
    builds = []
    real_index = SnapshotStore._index

    def spying_index(self, kind, key):
        builds.append((kind, key))
        return real_index(self, kind, key)

    monkeypatch.setattr(SnapshotStore, "_index", spying_index)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("ended, +8 steps") == 5
    # the model sessions ran on workers, beside the baselines in this thread
    assert threads and threading.get_ident() not in threads
    # three price and three news series, each built once by whichever
    # thread reads it first
    assert sorted(builds) == sorted({*builds}) and len(builds) == 6


def test_baselines_run_in_the_invoking_thread_while_models_overlap(runner, stock_setup,
                                                                   monkeypatch):
    tmp_path, _, dates = stock_setup
    models = ["test/alpha", "baseline:equal-weight", "test/beta"]
    config = _write_config(tmp_path / "mixed.yaml", tmp_path / "store", tmp_path / "runs", dates,
                           models, extra="concurrency: 2")
    # each model's first call waits for the other's, so two sessions run
    # one after the other break the barrier
    threads = _scripted_models(monkeypatch, meet=threading.Barrier(2, timeout=10))
    baseline_threads = set()
    real_decide = EqualWeightAgent.decide

    def decide(self, *args):
        baseline_threads.add(threading.get_ident())
        return real_decide(self, *args)

    monkeypatch.setattr(EqualWeightAgent, "decide", decide)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert baseline_threads == {threading.get_ident()}
    assert len(set(threads)) == 2 and threading.get_ident() not in threads
    assert [line.split(": ")[0] for line in result.output.splitlines()] == models
    assert result.output.count("ended, +8 steps") == 3


def test_a_run_reads_each_date_once_for_all_its_sessions(runner, stock_setup, monkeypatch):
    tmp_path, config, dates = stock_setup
    config.write_text(config.read_text() + "concurrency: 1\n", encoding="utf-8")
    reads = Counter()
    for name in ("latest_price", "price_window", "news_window"):
        def spying(self, *args, _name=name, _real=getattr(SnapshotStore, name)):
            reads[(_name, *args)] += 1
            return _real(self, *args)

        monkeypatch.setattr(SnapshotStore, name, spying)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("ended, +8 steps") == 3
    # three sessions step through the same dates, and each of a date's
    # prices, windows and news is read from the store once
    assert set(reads.values()) == {1}
    tickers = ("AAPL", "MSFT", "NVDA")
    assert {(key, date) for name, *_, key, date in reads if name == "latest_price"} == {
        (t, d) for t in tickers for d in dates}
    assert Counter(name for name, *_ in reads) == Counter(
        latest_price=3 * len(dates), price_window=3 * (len(dates) - 1),
        news_window=3 * (len(dates) - 1))


@pytest.mark.parametrize("concurrency", [1, 2])
def test_a_mixed_resume_writes_the_bytes_of_fresh_runs(runner, tmp_path, monkeypatch,
                                                       concurrency):
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                             D(2025, 3, 3), 15, seed=13)
    models = ["baseline:equal-weight", "test/alpha", "baseline:all-cash", "test/beta",
              "baseline:buy-and-hold"]
    threads = _scripted_models(monkeypatch)
    extra = f"concurrency: {concurrency}"
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, models, extra=extra)
    once = _write_config(tmp_path / "once.yaml", tmp_path / "store", tmp_path / "once",
                         dates, models, extra=extra)
    assert runner.invoke(main, ["run", "--config", str(once)]).exit_code == 0
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    runs = tmp_path / "runs"
    for name in ("baseline-all-cash", "test-alpha"):
        cut = runs / f"stock-{name}.jsonl"
        cut.write_bytes(b"".join(cut.read_bytes().splitlines(keepends=True)[:-10]))
    for name in ("baseline-buy-and-hold", "test-beta"):
        (runs / f"stock-{name}.jsonl").unlink()

    threads.clear()
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    for model, outcome in zip(models, ("complete, +0", "ended, +10", "ended, +10",
                                       "ended, +14", "ended, +14")):
        assert f"{model}: {outcome} steps" in result.output
    # the resumed model sessions ran on workers, beside the baselines
    assert threads and threading.get_ident() not in threads
    fresh = {p.name: p.read_bytes() for p in (tmp_path / "once").glob("*.jsonl")}
    assert {p.name: p.read_bytes() for p in runs.glob("*.jsonl")} == fresh
    assert len(fresh) == 5


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


def test_replay_run_refuses_a_missing_store(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(3)]
    config = _write_config(tmp_path / "run.yaml", "store", "runs", dates,
                           ["baseline:all-cash"])
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"no store directory at {tmp_path / 'store'}" in result.output
    assert "run 'tradefolio fetch' first" in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.yaml"]

    # fetch creates the store, after which the replay runs
    _fake_provider(monkeypatch)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:all-cash: ended, +2 steps" in result.output


def test_live_mode_waits_for_dates(runner, tmp_path, monkeypatch):
    seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"), D(2099, 1, 4), 4)
    future = [D(2099, 1, 4 + i) for i in range(4)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           future, ["baseline:all-cash"], extra="mode: live")
    calls = _fake_provider(monkeypatch)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0
    assert "nothing to run yet" in result.output
    assert not (tmp_path / "runs").exists() or not list((tmp_path / "runs").glob("*.jsonl"))

    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "nothing to fetch yet" in result.output
    assert calls == []


def test_live_commands_stop_at_an_injected_today(runner, tmp_path, monkeypatch):
    # Monday to Friday, then the next Monday
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(8) if i % 7 < 5]
    models = ["baseline:equal-weight"]
    config = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, models, extra="mode: live")
    calls = _fake_provider(monkeypatch)
    today = [D(2025, 3, 6)]
    backfill = cli._backfill
    monkeypatch.setattr(cli, "_backfill", lambda cfg, store, spec, keys, _: backfill(
        cfg, store, spec, keys, today[0]))

    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "backfilled 2025-03-03 to 2025-03-06" in result.output
    assert {call[3] for call in calls if call[0] == "history"} == {D(2025, 3, 6)}
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +3 steps" in result.output
    assert SnapshotStore(tmp_path / "store").price_dates("stock", "AAPL")[-1] == D(2025, 3, 6)

    today[0] = D(2025, 3, 10)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +2 steps" in result.output
    replay = _write_config(tmp_path / "replay.yaml", tmp_path / "store", tmp_path / "replay",
                           dates, models)
    assert runner.invoke(main, ["run", "--config", str(replay)]).exit_code == 0
    log_name = "stock-baseline-equal-weight.jsonl"
    assert (tmp_path / "runs" / log_name).read_bytes() == (
        tmp_path / "replay" / log_name).read_bytes()


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


def _fake_provider(monkeypatch, down=False):
    """Deterministic weekday bars (stock prices, or probabilities for
    prediction tokens) and empty news; with ``down`` every request fails
    the way an exhausted retry policy does. Returns the list every
    request is appended to."""
    from tradefolio.errors import ProviderError
    from tradefolio.ingestion import equities, news as news_mod, predictions

    calls = []
    outage = ProviderError("request failed after 2 attempts: 503 Service Unavailable")

    def history(scale):
        def fake(key, start, end, policy, **kwargs):
            calls.append(("history", key, start, end))
            if down:
                raise outage
            days = (start + dt.timedelta(days=i) for i in range((end - start).days + 1))
            return [PricePoint(d, scale * (100.0 + 3 * len(key) + d.toordinal() % 7), 1e6)
                    for d in days if d.weekday() < 5]
        return fake

    def fake_quote(ticker, policy, **kwargs):
        calls.append(("quote", ticker))
        raise outage

    def fake_news(tag, kind, start, end, policy, **kwargs):
        calls.append(("news", tag, start, end))
        if down:
            raise outage
        return []

    monkeypatch.setattr(equities, "fetch_equity_history", history(1.0))
    monkeypatch.setattr(equities, "fetch_equity_quote", fake_quote)
    monkeypatch.setattr(predictions, "fetch_prediction_history", history(0.004))
    monkeypatch.setattr(news_mod, "fetch_news", fake_news)
    return calls


def test_live_outage_runs_the_covered_prefix_then_resumes(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 10) + dt.timedelta(days=i) for i in range(9) if i % 7 < 5]
    models = ["baseline:equal-weight"]
    log_name = "stock-baseline-equal-weight.jsonl"
    live_cfg = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                             dates, models, extra="mode: live")

    # a healthy run covers the first five dates, then every request fails
    warm_cfg = _write_config(tmp_path / "warm.yaml", tmp_path / "store", tmp_path / "warm",
                             dates[:5], models, extra="mode: live")
    _fake_provider(monkeypatch)
    assert runner.invoke(main, ["run", "--config", str(warm_cfg)]).exit_code == 0
    _fake_provider(monkeypatch, down=True)
    result = runner.invoke(main, ["run", "--config", str(live_cfg)])
    assert result.exit_code == 0, result.output
    assert (f"live data unavailable for {dates[5]}: request failed after 2 attempts"
            in result.output)
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

    # an outage on a fresh store leaves nothing to run
    _fake_provider(monkeypatch, down=True)
    early_cfg = _write_config(tmp_path / "early.yaml", tmp_path / "early-store",
                              tmp_path / "early", dates, models, extra="mode: live")
    result = runner.invoke(main, ["run", "--config", str(early_cfg)])
    assert result.exit_code == 0, result.output
    assert "nothing to run yet" in result.output
    assert not (tmp_path / "early").exists()


def test_live_backfill_of_a_fresh_store_requests_each_series_once(runner, tmp_path,
                                                                  monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    config = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], extra="mode: live")
    config.write_text(config.read_text().replace("[AAPL, MSFT, NVDA]", "[AAPL, MSFT]"))
    calls = _fake_provider(monkeypatch)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    lookback_start, news_start = D(2025, 2, 21), D(2025, 2, 28)
    assert calls == [("history", "AAPL", lookback_start, dates[-1]),
                     ("history", "MSFT", lookback_start, dates[-1]),
                     ("news", "AAPL", news_start, dates[-2]),
                     ("news", "MSFT", news_start, dates[-2])]


def test_live_prediction_backfill_requests_both_tokens_once_and_replays(runner, tmp_path,
                                                                       monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]  # Monday to Friday
    entries = [MarketCatalogEntry(slug=f"market-{n}", question=f"Will event {n} happen?",
                                  yes_token=f"tok-{n}-yes", no_token=f"tok-{n}-no",
                                  url=f"https://example.com/event/market-{n}")
               for n in (1, 2)]
    SnapshotStore(tmp_path / "store").record_markets(entries)
    questions = 'questions: ["Will event 1 happen?", "Will event 2 happen?"]'
    config = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight"], market="prediction",
                           extra=f"mode: live\n{questions}")
    calls = _fake_provider(monkeypatch)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +4 steps" in result.output
    lookback_start, news_start = D(2025, 2, 21), D(2025, 2, 28)
    tokens = ["tok-1-yes", "tok-1-no", "tok-2-yes", "tok-2-no"]
    assert calls == [*(("history", t, lookback_start, dates[-1]) for t in tokens),
                     ("news", "Will event 1 happen?", news_start, dates[-2]),
                     ("news", "Will event 2 happen?", news_start, dates[-2])]
    store = SnapshotStore(tmp_path / "store")
    for token in tokens:
        stored = store.price_dates("prediction", token)
        assert stored[0] == D(2025, 2, 21) and stored[-1] == dates[-1]

    calls.clear()
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert calls == []

    replay = _write_config(tmp_path / "replay.yaml", tmp_path / "store", tmp_path / "replay",
                           dates, ["baseline:equal-weight"], market="prediction",
                           extra=questions)
    assert runner.invoke(main, ["run", "--config", str(replay)]).exit_code == 0
    log_name = "prediction-baseline-equal-weight.jsonl"
    live_log = (tmp_path / "runs" / log_name).read_bytes()
    assert live_log == (tmp_path / "replay" / log_name).read_bytes()


def test_live_run_over_a_covered_store_decodes_only_its_windows(runner, tmp_path,
                                                               monkeypatch):
    seeded = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                              D(2025, 1, 6), 60, seed=13)
    dates = seeded[-5:]
    config = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight"], extra="mode: live")
    calls = _fake_provider(monkeypatch)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0

    calls.clear()
    decoded = []
    real_decode = snapshots._decode

    def counting_decode(kind, key, date, row):
        decoded.append((kind, key, date))
        return real_decode(kind, key, date, row)

    monkeypatch.setattr(snapshots, "_decode", counting_decode)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +4 steps" in result.output
    assert calls == []
    # the backfill reads only dates, and each session decodes a row once,
    # from its first lookback day on: 6 news and 3 price series
    lookback_start = dates[0] - dt.timedelta(days=10)
    assert len(decoded) == len(set(decoded))
    assert {kind for kind, _, _ in decoded} == {"news", "stock-price"}
    assert min(date for _, _, date in decoded) >= lookback_start
    stored = SnapshotStore(tmp_path / "store")
    assert len([row for row in decoded if row[0] == "stock-price"]) == sum(
        len(stored.price_window("stock", t, lookback_start, dates[-1]))
        for t in ("AAPL", "MSFT", "NVDA"))


def test_a_resume_mid_store_decodes_its_windows_and_as_many_again(runner, tmp_path,
                                                                  monkeypatch):
    tickers = ("AAPL", "MSFT", "NVDA")
    seeded = seed_stock_store(tmp_path / "store", tickers, D(2025, 1, 6), 120, seed=13)
    k = 30  # the resume starts here, 90 rows short of each series' end
    part = _write_config(tmp_path / "part.yaml", tmp_path / "store", tmp_path / "runs",
                         seeded[k - 4:k + 1], ["baseline:equal-weight"])
    full = _write_config(tmp_path / "full.yaml", tmp_path / "store", tmp_path / "runs",
                         seeded[k - 4:k + 4], ["baseline:equal-weight"])
    assert runner.invoke(main, ["run", "--config", str(part)]).exit_code == 0
    decoded = []
    real_decode = snapshots._decode

    def counting_decode(kind, key, date, row):
        decoded.append((kind, key, date))
        return real_decode(kind, key, date, row)

    monkeypatch.setattr(snapshots, "_decode", counting_decode)
    result = runner.invoke(main, ["run", "--config", str(full)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +3 steps" in result.output
    # each series decodes its windows and, past them, at most as many
    # rows again, never the rest of the file
    slack = 10 + 3 + 2  # lookback + news window + 2
    assert {(kind, key) for kind, key, _ in decoded} == {
        (kind, t) for kind in ("news", "stock-price") for t in tickers}
    for series in {(kind, key) for kind, key, _ in decoded}:
        dates = [date for *named, date in decoded if tuple(named) == series]
        assert len(dates) == len(set(dates)) <= 2 * slack
        assert len([d for d in dates if d > seeded[k + 3]]) <= slack


def test_a_bad_store_row_past_every_window_fails_only_the_read_that_reaches_it(
        runner, tmp_path):
    seeded = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"),
                              D(2025, 1, 6), 60, seed=13)
    path = tmp_path / "store" / "prices" / "stock" / "AAPL.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1][:-5]  # the last row cut short
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           seeded[20:25], ["baseline:equal-weight"])
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +4 steps" in result.output
    store = SnapshotStore(tmp_path / "store")
    assert store.price_window("stock", "AAPL", seeded[0], seeded[-2])[-1].date == seeded[-2]
    with pytest.raises(IngestionError, match=re.escape(f"{path}:{len(lines)}: unreadable row")):
        store.latest_price("stock", "AAPL", seeded[-1])


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

    # a NaN or infinite ratio is not JSON: refused before any log is read
    junk = tmp_path / "junk.jsonl"
    junk.write_text("not a session log\n", encoding="utf-8")
    for rate in ("nan", "inf", "-inf"):
        for source in (log, junk):
            refused = runner.invoke(main, ["report", str(source), "--rate", rate,
                                           "--out", str(tmp_path / "refused")])
            assert refused.exit_code == 2
            assert f"--rate must be a finite number, got {float(rate)}" in refused.output
    assert not (tmp_path / "refused").exists()

    nothing = runner.invoke(main, ["report"])
    assert nothing.exit_code == 2
    assert "pass session logs" in nothing.output


def test_report_names_the_log_it_cannot_score(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    lines = log.read_bytes().splitlines(keepends=True)

    log.write_bytes(lines[0])  # a session that stopped before its first step
    result = runner.invoke(main, ["report", str(log)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {log}: log has no records" in result.output

    log.write_bytes(b"".join(lines[:2]))  # a live session's first daily run
    result = runner.invoke(main, ["report", str(log)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {log}: need at least 2 returns, got 1" in result.output


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

    for lags in (",", "-1"):
        refused = runner.invoke(main, ["delta", "--config", str(config), "--lags", lags])
        assert refused.exit_code == 2
        assert "--lags needs at least one non-negative integer" in refused.output

    # a repeated lag would key one column twice in delta.json
    repeated = runner.invoke(main, ["delta", "--config", str(config), "--lags", "2,1,2,1"])
    assert repeated.exit_code == 2
    assert "--lags lists lag 2 more than once" in repeated.output


@pytest.mark.parametrize("keep, error", [
    (1, "log has no records"),  # a session that stopped before its first step
    (2, "lag 1 leaves no window in 1 steps"),  # a live session's first daily run
])
def test_delta_names_the_log_it_cannot_score(runner, stock_setup, keep, error):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    log.write_bytes(b"".join(log.read_bytes().splitlines(keepends=True)[:keep]))
    result = runner.invoke(main, ["delta", str(log), "--lags", "1"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {log}: {error}" in result.output


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize("command, tamper, error", [
    ("report", lambda r: {**r, "value": -3.0}, "value -3.0 is not finite and positive"),
    ("report", lambda r: {**r, "holdings_after": _without(r["holdings_after"], "CASH")},
     "holdings_after does not name the header's assets: missing ['CASH'], unknown []"),
    ("delta", lambda r: {**r, "prices_after": _without(r["prices_after"], "MSFT")},
     "prices_after does not name the header's assets: missing ['MSFT'], unknown []"),
    ("delta", lambda r: {**r, "prices_after": {**r["prices_after"], "AAPL": 0}},
     "prices_after is not finite and positive for ['AAPL']"),
    ("report", lambda r: {**r, "holdings_before": {**r["holdings_before"], "MSFT": -1.0}},
     "holdings_before is not finite and non-negative for ['MSFT']"),
    ("report", lambda r: {**r, "value": "12"}, "value '12' is not of type float"),
    ("delta", lambda r: {**r, "stale": "AAPL"},
     "stale 'AAPL' is not a list of the header's assets"),
])
def test_a_tampered_record_fails_naming_its_line(runner, stock_setup, command, tamper, error):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps(tamper(json.loads(lines[2])), separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, [command, str(log)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"Error: {log}:3: bad record: {error}" in result.output


def test_a_log_byte_that_is_not_utf8_fails_only_its_session_and_its_report(runner,
                                                                          stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-all-cash.jsonl"
    lines = log.read_bytes().split(b"\n")
    lines[3] = lines[3][:30] + b"\xff" + lines[3][30:]
    log.write_bytes(b"\n".join(lines))
    error = f"{log}:4: bad record: 'utf-8' codec can't decode byte 0xff"
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"baseline:all-cash: failed: {error}" in result.output
    for model in ("baseline:equal-weight", "baseline:buy-and-hold"):
        assert f"{model}: complete, +0 steps" in result.output
    for command in ("report", "delta"):
        result = runner.invoke(main, [command, str(log)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"Error: {error}" in result.output


def test_a_resumed_run_refuses_a_record_with_a_negative_holding(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()[:5]  # four steps, then resume
    row = json.loads(lines[-1])
    row["holdings_after"]["AAPL"] = -1.0
    lines[-1] = json.dumps(row, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert (f"baseline:equal-weight: failed: {log}:5: bad record: holdings_after is not"
            " finite and non-negative for ['AAPL']") in result.output


@pytest.mark.parametrize("weights, error", [
    (lambda w: {**w, "AAPL": "0.25"}, "allocation is not finite and non-negative for ['AAPL']"),
    (lambda w: {a: v / 2 for a, v in w.items()}, "allocation sums to 0.5, not 1 within 1e-09"),
], ids=["string-weight", "half-sum"])
def test_a_resumed_run_refuses_a_bad_allocation_in_its_memory_window(runner, stock_setup,
                                                                       weights, error):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    lines = log.read_text(encoding="utf-8").splitlines()[:5]  # four steps, then resume
    row = json.loads(lines[-2])
    row["allocation"] = weights(row["allocation"])
    lines[-2] = json.dumps(row, separators=(",", ":"))
    log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"baseline:equal-weight: failed: {log}:4: bad record: {error}" in result.output


def test_a_store_news_item_with_a_quoted_time_fails_its_run_naming_the_row(runner,
                                                                            stock_setup):
    tmp_path, config, dates = stock_setup
    news = tmp_path / "store" / "news" / "AAPL.jsonl"
    lines = news.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["items"][0]["published_at"] = str(row["items"][0]["published_at"])
    lines[1] = json.dumps(row)
    news.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"baseline:all-cash: failed: {news}:2: unreadable row: news item" in result.output


def test_a_store_news_time_no_date_can_hold_fails_its_run_naming_the_row(runner, stock_setup,
                                                                         monkeypatch):
    """A model session renders each item's date, which a published_at of
    -10**12 seconds does not have; every session fails on the row."""
    tmp_path, _, dates = stock_setup
    config = _write_config(tmp_path / "model.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["openai/gpt-5", "baseline:all-cash"])
    real = cli._make_agent
    monkeypatch.setattr(cli, "_make_agent", lambda entry: real(entry) if entry.is_baseline
                        else LLMAgent(ScriptedClient(["{}"]), entry))
    news = tmp_path / "store" / "news" / "AAPL.jsonl"
    lines = news.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["items"][0]["published_at"] = -10**12
    lines[1] = json.dumps(row)
    news.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    for model in ("openai/gpt-5", "baseline:all-cash"):
        assert f"{model}: failed: {news}:2: unreadable row: news item" in result.output


def test_a_store_price_of_infinity_fails_every_session_that_reads_it(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    series = tmp_path / "store" / "prices" / "stock" / "AAPL.jsonl"
    lines = series.read_text(encoding="utf-8").splitlines()
    lines[4] = re.sub(r'"price": [^,]*', '"price": Infinity', lines[4])
    series.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    for model in ("baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold"):
        assert f"{model}: failed: {series}:5: unreadable row" in result.output
    logs = sorted((tmp_path / "runs").glob("*.jsonl"))
    assert len(logs) == 3
    for log in logs:
        _, records = read_session_log(log)
        assert all(r.value > 0 for r in records)  # every record decodes


def test_a_store_byte_that_is_not_utf8_fails_every_session_that_reads_it(runner,
                                                                          stock_setup):
    tmp_path, config, dates = stock_setup
    series = tmp_path / "store" / "prices" / "stock" / "AAPL.jsonl"
    lines = series.read_bytes().split(b"\n")
    lines[4] = lines[4][:30] + b"\xff" + lines[4][30:]
    series.write_bytes(b"\n".join(lines))
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    for model in ("baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold"):
        assert (f"{model}: failed: {series}:5: unreadable row: 'utf-8' codec can't decode"
                " byte 0xff") in result.output


def test_a_series_that_starts_after_the_first_date_fails_every_session(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    series = tmp_path / "store" / "prices" / "stock" / "AAPL.jsonl"
    lines = series.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[1])["date"] == dates[0].isoformat()
    series.write_text("\n".join(lines[:1] + lines[2:]) + "\n", encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    for model in ("baseline:equal-weight", "baseline:all-cash", "baseline:buy-and-hold"):
        assert f"{model}: failed: no price at or before {dates[0]} for 'AAPL'" in result.output


def test_a_log_whose_line_1_is_blank_has_a_bad_header(runner, stock_setup):
    tmp_path, config, dates = stock_setup
    assert runner.invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    log.write_text("\n" + log.read_text(encoding="utf-8"), encoding="utf-8")
    for args in (["report", str(log)], ["delta", str(log)], ["run", "--config", str(config)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        assert f"{log}:1: bad header" in result.output


def test_a_catalog_entry_with_a_numeric_token_fails_the_run_naming_it(runner, tmp_path):
    questions = ("Will the synthetic index close above its opening level?",
                 "Will the sample reserve be drawn down this quarter?")
    dates = seed_prediction_store(tmp_path / "store", questions, D(2025, 3, 3), 4, seed=4)
    catalog = tmp_path / "store" / "markets.jsonl"
    lines = catalog.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "yes_token": 5})
    catalog.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"{catalog}:1: unreadable market entry" in result.output


def test_fetch_stock_snapshots_store(runner, tmp_path, monkeypatch):
    from tradefolio.domain import NewsItem
    from tradefolio.ingestion import equities, news as news_mod

    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(3)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"])

    def fake_history(ticker, start, end, policy, **kwargs):
        days = (end - start).days + 1
        return [PricePoint(start + dt.timedelta(days=i), 100.0 + i)
                for i in range(days)]

    def fake_news(tag, kind, start, end, policy, **kwargs):
        published = dt.datetime.combine(dates[0], dt.time(12), tzinfo=dt.timezone.utc)
        return [NewsItem(title=f"{tag} item", snippet="", source="wire",
                         url="https://example.com", published_at=int(published.timestamp()),
                         tagged_asset=tag)]

    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    monkeypatch.setattr(news_mod, "fetch_news", fake_news)

    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert f"backfilled {dates[0]} to {dates[-1]}" in result.output

    store = SnapshotStore(tmp_path / "store")
    assert len(store.price_series("stock", "MSFT")) == 13  # [start - 10 lookback days, end]
    # every day of every news window is marked covered, even without items
    day = dates[0] - dt.timedelta(days=3)
    while day < dates[-1]:
        assert store.has_news("AAPL", day)
        day += dt.timedelta(days=1)
    assert not store.has_news("AAPL", dates[-1])  # no session reads the last date's news
    assert store.news_window("AAPL", dates[0], dates[0])[0].title == "AAPL item"


def test_backfill_buckets_news_by_utc_day(runner, tmp_path, monkeypatch):
    from tradefolio.domain import NewsItem
    from tradefolio.ingestion import equities, news as news_mod

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
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           [date, date + dt.timedelta(days=1)], ["baseline:all-cash"])
    monkeypatch.setattr(news_mod, "fetch_news", fake_news)
    monkeypatch.setattr(equities, "fetch_equity_history", fake_history)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0

    store = SnapshotStore(tmp_path / "store")
    for day, titles in ((D(2025, 3, 4), ["last second"]), (D(2025, 3, 5), ["midnight"])):
        assert [i.title for i in store.news_window("AAPL", day, day)] == titles


def test_fetch_twice_makes_no_second_request(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"])
    calls = _fake_provider(monkeypatch)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0
    assert len(calls) == 6  # one history and one news request per ticker

    calls.clear()
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert calls == []


@pytest.mark.parametrize("lookback", [0, 1, 2, 3, 10])
def test_a_covered_store_is_fetched_without_a_request_at_any_lookback(runner, tmp_path,
                                                                       monkeypatch, lookback):
    """A Monday's window back to Saturday holds one weekday however
    complete the store is, so a short window asks for one bar."""
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(12) if i % 7 < 5]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], extra=f"lookback_days: {lookback}")
    calls = _fake_provider(monkeypatch)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0
    assert len(calls) == 6  # one history and one news request per ticker

    calls.clear()
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert calls == []


def test_refetch_over_revised_closes_keeps_the_stored_bars(runner, tmp_path, monkeypatch):
    from tradefolio.ingestion import equities

    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates[:4], ["baseline:all-cash"])
    _fake_provider(monkeypatch)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0
    stored = SnapshotStore(tmp_path / "store").price_series("stock", "AAPL")

    # the provider has since adjusted every close; the extended range re-requests them
    revised = equities.fetch_equity_history
    monkeypatch.setattr(equities, "fetch_equity_history", lambda *a, **k: [
        PricePoint(p.date, p.price + 0.5, p.volume) for p in revised(*a, **k)])
    _write_config(config, tmp_path / "store", tmp_path / "runs", dates, ["baseline:all-cash"])
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output

    after = SnapshotStore(tmp_path / "store").price_series("stock", "AAPL")
    assert after[:-1] == stored
    assert after[-1].date == dates[-1]


def test_fetch_then_live_run_makes_no_requests(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    config = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight"], extra="mode: live")
    calls = _fake_provider(monkeypatch)
    assert runner.invoke(main, ["fetch", "--config", str(config)]).exit_code == 0
    assert calls

    calls.clear()
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:equal-weight: ended, +4 steps" in result.output
    assert calls == []


def _discovered(n, dates, lookback_days=10):
    """A discovered market whose histories cover the lookback and every date."""
    entry = MarketCatalogEntry(
        slug=f"market-{n}", question=f"Will event {n} happen?",
        yes_token=f"tok-{n}-yes", no_token=f"tok-{n}-no",
        url=f"https://example.com/event/market-{n}")
    start = dates[0] - dt.timedelta(days=lookback_days)
    days = [start + dt.timedelta(days=i) for i in range((dates[-1] - start).days + 1)]
    yes = tuple(PricePoint(d, round(0.2 * n + 0.01 * (i % 5), 3)) for i, d in enumerate(days))
    return DiscoveredMarket(entry, yes, tuple(PricePoint(p.date, round(1 - p.price, 3))
                                              for p in yes))


def test_fetch_prediction_discovers_markets(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(3)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction",
                           extra="mode: live")
    markets = [_discovered(1, dates), _discovered(2, dates)]
    monkeypatch.setattr(cli, "discover_markets", lambda *a, **k: markets)
    calls = _fake_provider(monkeypatch)

    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert f"backfilled {dates[0]} to {dates[-1]}" in result.output

    store = SnapshotStore(tmp_path / "store")
    assert [e.slug for e in store.markets()] == ["market-1", "market-2"]
    assert store.price_series("prediction", "tok-2-no") == markets[1].no_history
    assert store.has_news("Will event 1 happen?", dates[0])
    # the discovered histories cover every date, so only news was requested
    assert [c[:2] for c in calls] == [("news", "Will event 1 happen?"),
                                      ("news", "Will event 2 happen?")]

    calls.clear()
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "baseline:all-cash: ended, +2 steps" in result.output
    assert calls == []


def test_fetch_says_discovery_found_no_markets(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3), D(2025, 3, 4)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction")
    monkeypatch.setattr(cli, "discover_markets", lambda *a, **k: [])
    calls = _fake_provider(monkeypatch)
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Error: discovery found no markets" in result.output
    assert "tradefolio fetch" not in result.output
    assert calls == []


def test_fetch_prediction_rejects_unknown_question(runner, tmp_path, monkeypatch):
    dates = [D(2025, 3, 3), D(2025, 3, 4)]
    config = _write_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:all-cash"], market="prediction",
                           extra='questions: ["Will something unlisted happen?"]')
    monkeypatch.setattr(cli, "discover_markets", lambda *a, **k: [])
    result = runner.invoke(main, ["fetch", "--config", str(config)])
    assert result.exit_code == 1
    assert "not in the market catalog" in result.output


UNLISTED = "Will something uncatalogued happen?"


def test_a_live_run_refuses_an_uncatalogued_question_before_any_request(runner, tmp_path,
                                                                        monkeypatch):
    dates = [D(2025, 3, 3) + dt.timedelta(days=i) for i in range(5)]
    SnapshotStore(tmp_path / "store").record_markets([_discovered(1, dates).entry])
    config = _write_config(tmp_path / "live.yaml", tmp_path / "store", tmp_path / "runs",
                           dates, ["baseline:equal-weight"], market="prediction",
                           extra=f'mode: live\nquestions: ["Will event 1 happen?", "{UNLISTED}"]')
    calls = _fake_provider(monkeypatch)
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"question not in the market catalog: {UNLISTED!r}" in result.output
    assert calls == []
    assert not (tmp_path / "runs").exists()


def test_a_replay_run_refuses_an_uncatalogued_question_before_any_log(runner, tmp_path):
    shutil.copytree(FIXTURES / "prediction-12d", tmp_path / "store")
    raw = yaml.safe_load((FIXTURES / "prediction-replay.yaml").read_text(encoding="utf-8"))
    raw.update(store=str(tmp_path / "store"), out_dir=str(tmp_path / "runs"))
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({**raw, "questions": [*raw["questions"], UNLISTED]}),
                      encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert f"question not in the market catalog: {UNLISTED!r}" in result.output
    assert not (tmp_path / "runs").exists()

    # with the question taken out, the same logs start afresh
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    result = runner.invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output.count("ended, +12 steps") == 2
