"""Log round-trips, corruption detection, derived series, and the
resume guarantee: a split run must equal the uninterrupted one byte for
byte."""

import datetime as dt
import fcntl
import gc
import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import scripted_agent
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradefolio import sessionlog
from tradefolio.agents.clients import ModelClientConfig, ScriptedClient
from tradefolio.agents.harness import AgentDecision, LLMAgent
from tradefolio.cli import main
from tradefolio.domain import MarketKind, MarketSpec
from tradefolio.environment import (
    DEFAULT_MEMORY_HORIZON,
    DEFAULT_RETRIES,
    SessionStatus,
    run_episode,
)
from tradefolio.errors import ConfigError, CorruptLog
from tradefolio.ingestion.feeds import ReplayFeed
from tradefolio.ingestion.snapshots import SnapshotStore
from tradefolio.reporting import build_report_rows
from tradefolio.sessionlog import (
    SessionLogHeader,
    SessionLogWriter,
    effective_allocations,
    position_histories,
    read_session_log,
    resume_point,
)
from tradefolio.synthetic import seed_stock_store

D = dt.date


@pytest.fixture
def stock_world(tmp_path):
    spec = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
    dates = seed_stock_store(tmp_path / "store", spec.assets[:-1], D(2025, 3, 3), 8, seed=5)
    feed = ReplayFeed(SnapshotStore(tmp_path / "store"), MarketKind.STOCK)
    return spec, feed, dates


def _render(weights):
    return json.dumps({"reasoning": "scripted move", "allocations": weights})


def _varied_responses(n):
    out = []
    for i in range(n):
        aapl = round(0.1 + 0.05 * i, 2)
        out.append(_render({"AAPL": aapl, "MSFT": 0.1, "NVDA": 0.05,
                            "CASH": round(0.85 - aapl, 2)}))
    return out


def _run_logged(path, spec, feed, dates, agent, model="test/scripted", memory_horizon=10,
                max_retries=DEFAULT_RETRIES):
    header = SessionLogHeader.for_run(spec, model, 1000.0)
    writer = SessionLogWriter(path, header)
    return run_episode(spec, agent, feed, dates, 1000.0, on_record=writer.append,
                       memory_horizon=memory_horizon, max_retries=max_retries)


# -- reading and writing ------------------------------------------------------


def test_log_round_trip_and_byte_stability(tmp_path, stock_world):
    spec, feed, dates = stock_world
    agent = scripted_agent(_varied_responses(len(dates) - 1))

    state, records = _run_logged(tmp_path / "a.jsonl", spec, feed, dates, agent)
    header, loaded = read_session_log(tmp_path / "a.jsonl")

    assert header == SessionLogHeader.for_run(spec, "test/scripted", 1000.0)
    assert loaded == records

    agent2 = scripted_agent(_varied_responses(len(dates) - 1))
    _run_logged(tmp_path / "b.jsonl", spec, feed, dates, agent2)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_every_appended_record_starts_with_the_date_prefix(tmp_path, stock_world):
    """``dated.index`` reads a record's date straight from a line that
    opens with ``_DATE_PREFIX`` and parses any other line whole, so a
    field order that moved ``date`` would slow every read without
    failing one. Fallback, retried and validated steps are all covered."""
    spec, feed, dates = stock_world
    agent = scripted_agent(["junk"] * 4 + _varied_responses(len(dates)))
    _run_logged(tmp_path / "a.jsonl", spec, feed, dates, agent)
    lines = (tmp_path / "a.jsonl").read_text(encoding="utf-8").splitlines()[1:]
    assert len(lines) == len(dates) - 1
    assert all(line.startswith(sessionlog._DATE_PREFIX) for line in lines)


def test_writer_refuses_foreign_log(tmp_path, stock_world):
    spec, feed, dates = stock_world
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)
    SessionLogWriter(tmp_path / "run.jsonl", header)

    with pytest.raises(ConfigError, match="different run"):
        SessionLogWriter(tmp_path / "run.jsonl",
                         SessionLogHeader.for_run(spec, "test/other", 1000.0))
    # reopening with the matching header is how resume appends
    SessionLogWriter(tmp_path / "run.jsonl", header)


def test_a_writer_over_another_runs_log_names_each_difference_and_closes_its_handle(
        tmp_path, stock_world, monkeypatch):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _run_logged(path, spec, feed, dates[:4], scripted_agent(_varied_responses(3)))
    logged = path.read_bytes()
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(sessionlog, "open", recording_open, raising=False)
    other = SessionLogHeader.for_run(spec, "test/other", 2000.0)
    with pytest.raises(ConfigError, match=re.escape(
            f"{path} belongs to a different run: "
            "model 'test/scripted' in the log, 'test/other' in the config; "
            "initial_capital 1000.0 in the log, 2000.0 in the config")) as refused:
        SessionLogWriter(path, other)
    assert path.read_bytes() == logged
    # closed at once, while the traceback still holds the half-made writer
    assert refused.tb is not None and len(opened) == 1 and opened[0].closed


def test_lock_log_never_returns_none_for_a_log_it_was_to_make(tmp_path, monkeypatch):
    # out_dir removed by another process between its mkdir and the open
    monkeypatch.setattr(Path, "mkdir", lambda self, **kwargs: None)
    with pytest.raises(FileNotFoundError):
        sessionlog.lock_log(tmp_path / "gone" / "run.jsonl", create=True)


def test_writer_checks_only_the_header(tmp_path):
    spec = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)
    path = tmp_path / "run.jsonl"
    SessionLogWriter(path, header)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    SessionLogWriter(path, header)  # records are read_session_log's to check

    path.write_text("\n{not json\n", encoding="utf-8")
    with pytest.raises(CorruptLog, match=r":1: bad header"):
        SessionLogWriter(path, header)
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(CorruptLog, match=r":1: bad header"):
        SessionLogWriter(path, header)


def test_a_writer_appends_through_one_handle_and_closes_it_when_dropped(tmp_path, stock_world,
                                                                      monkeypatch):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(sessionlog, "open", counting_open, raising=False)
    writer = SessionLogWriter(path, SessionLogHeader.for_run(spec, "test/scripted", 1000.0))
    run_episode(spec, scripted_agent(_varied_responses(len(dates) - 1)), feed, dates, 1000.0,
                on_record=writer.append)
    assert opened == [path]
    assert len(path.read_bytes().splitlines()) == len(dates)  # each record flushed
    handle = writer._fh
    del writer
    gc.collect()
    assert handle.closed

    closed = SessionLogWriter(path, SessionLogHeader.for_run(spec, "test/scripted", 1000.0))
    closed.close()
    closed.close()  # a second close does nothing
    assert closed._fh.closed


def test_lock_log_admits_one_handle_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "runs" / "run.jsonl"
    in_use = f"{re.escape(str(path))} is in use by another run"
    assert sessionlog.lock_log(path) is None
    assert not path.parent.exists()
    with sessionlog.lock_log(path, create=True) as held:
        held.write(b"line\n")
        held.flush()
        with pytest.raises(ConfigError, match=in_use):
            sessionlog.lock_log(path)
        with pytest.raises(ConfigError, match=in_use):
            sessionlog.lock_log(path, create=True)
    with sessionlog.lock_log(path) as again:  # the lock went with its handle
        assert again.read() == b"line\n"

    # a log another run removed between this open and this lock
    real_flock = fcntl.flock

    def flock_after_removal(fh, operation):
        path.unlink()
        real_flock(fh, operation)

    monkeypatch.setattr(fcntl, "flock", flock_after_removal)
    with pytest.raises(ConfigError, match=in_use):
        sessionlog.lock_log(path)


def test_corrupt_logs_are_typed(tmp_path):
    bad_header = tmp_path / "h.jsonl"
    bad_header.write_text('{"format": "something-else"}\n')
    with pytest.raises(CorruptLog, match="not a session log"):
        read_session_log(bad_header)

    bad_version = tmp_path / "v.jsonl"
    bad_version.write_text(
        '{"format": "tradefolio-session-log", "version": 99, "market": "stock",'
        ' "model": "m", "initial_capital": 1000.0, "assets": ["CASH"], "cash": "CASH"}\n'
    )
    with pytest.raises(CorruptLog, match="version"):
        read_session_log(bad_version)

    empty = tmp_path / "e.jsonl"
    empty.write_text("")
    with pytest.raises(CorruptLog, match="empty"):
        read_session_log(empty)


_HEADER = SessionLogHeader.for_run(MarketSpec.stock(("AAPL", "MSFT", "NVDA")),
                                   "test/scripted", 1000.0)


@pytest.mark.parametrize("first_line", [
    "[]",
    "null",
    '"x"',
    json.dumps({**_HEADER.to_json_dict(), "assets": 5}),
    json.dumps({**_HEADER.to_json_dict(), "initial_capital": None}),
    json.dumps({**_HEADER.to_json_dict(), "initial_capital": "1000.0"}),
    '{"format":"nope","version":1}',
    json.dumps({**_HEADER.to_json_dict(), "version": 2}),
], ids=["list", "null", "string", "assets-number", "capital-null", "capital-string",
        "foreign-format", "version-2"])
def test_header_of_the_wrong_shape_is_a_corrupt_log(tmp_path, first_line):
    path = tmp_path / "run.jsonl"
    path.write_text(first_line + "\n", encoding="utf-8")
    with pytest.raises(CorruptLog, match=r":1: bad header"):
        read_session_log(path)
    with pytest.raises(CorruptLog, match=r":1: bad header"):
        SessionLogWriter(path, _HEADER)


@pytest.mark.parametrize("line, noun", [(1, "bad header"), (4, "bad record")])
def test_a_byte_that_is_not_utf8_is_a_corrupt_log_naming_its_line(tmp_path, stock_world,
                                                                  line, noun):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _run_logged(path, spec, feed, dates[:5], scripted_agent(_varied_responses(4)))
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = lines[line - 1][:30] + b"\xff" + lines[line - 1][30:]
    path.write_bytes(b"\n".join(lines))
    error = re.escape(f"{path}:{line}: {noun}: 'utf-8' codec can't decode byte 0xff")
    with pytest.raises(CorruptLog, match=error):
        read_session_log(path)
    with open(path, "rb") as fh, pytest.raises(CorruptLog, match=error):
        read_session_log(path, fh)
    if line == 1:
        with pytest.raises(CorruptLog, match=error):
            SessionLogWriter(path, _HEADER)


def test_corrupt_record_reports_line_number(tmp_path, stock_world):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _run_logged(path, spec, feed, dates[:3], scripted_agent(_varied_responses(2)))

    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    with pytest.raises(CorruptLog, match=r":4: bad record"):
        read_session_log(path)


def test_non_increasing_dates_rejected(tmp_path, stock_world):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _run_logged(path, spec, feed, dates[:3], scripted_agent(_varied_responses(2)))
    lines = path.read_text().splitlines()
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(lines[-1] + "\n")  # replay the last step's date
    with pytest.raises(CorruptLog, match="strictly increasing"):
        read_session_log(path)


def test_a_line_separator_inside_a_response_stays_in_its_record(tmp_path, stock_world):
    spec, feed, dates = stock_world
    response = json.dumps({"reasoning": "calm\u2028then\x1cnot",
                           "allocations": {"AAPL": 0.5, "CASH": 0.5}}, ensure_ascii=False)
    _, records = _run_logged(tmp_path / "run.jsonl", spec, feed, dates[:3],
                             scripted_agent([response]))
    _, loaded = read_session_log(tmp_path / "run.jsonl")
    assert loaded == records and loaded[0].raw_response == response


def test_a_record_in_another_key_order_loads_through_the_fallback(tmp_path, stock_world):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _, records = _run_logged(path, spec, feed, dates[:4], scripted_agent(_varied_responses(3)))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps(dict(reversed(json.loads(lines[2]).items())))  # the date last
    lines.insert(3, "")  # a blank line is skipped
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, loaded = read_session_log(path)
    assert loaded.dates == tuple(r.date for r in records)
    assert loaded[1] == records[1] and loaded == records


def _set_value(name, value):
    """A rewrite that sets the record's ``name`` map's AAPL entry."""
    def rewrite(line):
        row = json.loads(line)
        row[name]["AAPL"] = value
        return json.dumps(row)
    return rewrite


@pytest.mark.parametrize("rewrite", [
    lambda line: f"{line}, {line}",  # two records on one line
    lambda line: line[:-1] + ',"date":"2020-01-01"}',  # disagrees with its index
    _set_value("prices_after", 0),
    _set_value("prices", float("nan")),
    _set_value("holdings_after", -1.0),
    _set_value("holdings_before", float("inf")),
], ids=["two-on-one-line", "date-disagrees", "zero-price", "nan-price", "negative-holding",
        "infinite-holding"])
def test_a_bad_record_indexes_then_fails_at_its_first_read(tmp_path, stock_world, rewrite):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _run_logged(path, spec, feed, dates[:4], scripted_agent(_varied_responses(3)))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = rewrite(lines[2])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, records = read_session_log(path)
    assert records.dates == tuple(dates[:3]) and records[2].date == dates[2]
    for _ in range(2):  # a failed decode leaves the record raw, so it fails again
        with pytest.raises(CorruptLog, match=re.escape(f"{path}:3: bad record")):
            list(records)


@pytest.mark.parametrize("tamper, error", [
    (lambda r: {**r, "value": "12"}, "value '12' is not of type float"),
    (lambda r: {**r, "attempts": "1"}, "attempts '1' is not of type int"),
    (lambda r: {**r, "stale": "AAPL"}, "stale 'AAPL' is not a list of the header's assets"),
    (lambda r: {**r, "news_count": 2.7}, "news_count 2.7 is not of type int"),
    (lambda r: {**r, "note": "x"}, "fields ['note'] are missing or unknown"),
    (lambda r: {**r, "prices": list(r["prices"].items())}, "prices does not name the"
     " header's assets: missing ['AAPL', 'CASH', 'MSFT', 'NVDA'], unknown []"),
    (lambda r: {**r, "allocation": {**r["allocation"], "AAPL": "0.25"}},
     "allocation is not finite and non-negative for ['AAPL']"),
    (lambda r: {**r, "allocation": {a: float(a == "CASH") / 2 for a in r["allocation"]}},
     "allocation sums to 0.5, not 1 within 1e-09"),
    # JSON true and false are no numbers, though Python sums them as 1 and 0
    (lambda r: {**r, "allocation": {a: a == "CASH" for a in r["allocation"]}},
     "allocation is not finite and non-negative for ['AAPL', 'CASH', 'MSFT', 'NVDA']"),
    (lambda r: {**r, "prices_after": {**r["prices_after"], "AAPL": True}},
     "prices_after is not finite and positive for ['AAPL']"),
    # the writer counts the first call, and counts the news it was shown
    (lambda r: {**r, "attempts": 0}, "attempts 0 is less than 1"),
    (lambda r: {**r, "attempts": -3}, "attempts -3 is less than 1"),
    (lambda r: {**r, "news_count": -5}, "news_count -5 is negative"),
    # a step either validated an allocation or names why none did
    (lambda r: {**r, "allocation": None}, "allocation and parse_error are both null"),
    (lambda r: {**r, "parse_error": "ParseError: x"},
     "allocation and parse_error are both set"),
    # the writer writes a prompt's hexdigest() and the sorted stale set
    (lambda r: {**r, "prompt_sha256": "0123456789ABCDEF" * 4},
     f"prompt_sha256 {'0123456789ABCDEF' * 4!r} is not 64 lowercase hex digits"),
    (lambda r: {**r, "prompt_sha256": "0" * 63},
     f"prompt_sha256 {'0' * 63!r} is not 64 lowercase hex digits"),
    (lambda r: {**r, "prompt_sha256": "zz"}, "prompt_sha256 'zz' is not 64 lowercase hex digits"),
    (lambda r: {**r, "stale": ["AAPL", "AAPL"]},
     "stale ['AAPL', 'AAPL'] is not sorted without repeats"),
    (lambda r: {**r, "stale": ["MSFT", "AAPL"]},
     "stale ['MSFT', 'AAPL'] is not sorted without repeats"),
], ids=["quoted-value", "quoted-attempts", "stale-string", "fractional-news-count",
        "extra-field", "prices-as-pairs", "string-weight", "half-sum", "boolean-weights",
        "boolean-price", "zero-attempts", "negative-attempts", "negative-news-count",
        "neither-allocation-nor-error", "allocation-and-error", "uppercase-hash",
        "short-hash", "non-hex-hash", "repeated-stale", "unsorted-stale"])
def test_a_row_the_writer_could_not_have_appended_is_a_bad_record(tmp_path, stock_world,
                                                                   tamper, error):
    spec, feed, dates = stock_world
    path = tmp_path / "run.jsonl"
    _run_logged(path, spec, feed, dates[:4], scripted_agent(_varied_responses(3)))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[2])["allocation"] is not None
    lines[2] = json.dumps(tamper(json.loads(lines[2])), separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _, records = read_session_log(path)
    assert records[0].date == dates[0]
    with pytest.raises(CorruptLog, match=re.escape(f"{path}:3: bad record: {error}")):
        records[1]


# -- decoding on first read ---------------------------------------------------


@pytest.fixture(scope="module")
def logged(tmp_path_factory, shared_world):
    """A seven-step log with varied responses, and its eager decode."""
    spec, feed, dates = shared_world
    path = tmp_path_factory.mktemp("log") / "run.jsonl"
    _run_logged(path, spec, feed, dates[:8], scripted_agent(["junk"] + _varied_responses(7)))
    lines = path.read_text(encoding="utf-8").split("\n")[1:-1]
    assets = frozenset(spec.assets)
    return path, [sessionlog._decode_record(assets, D.fromisoformat(row["date"]), row)
                  for row in map(json.loads, lines)]


_bound = st.one_of(st.none(), st.integers(-9, 9))
_record_reads = st.lists(st.one_of(
    st.tuples(st.just("index"), st.integers(-9, 8)),
    st.tuples(st.just("slice"), _bound, _bound, st.sampled_from([None, 1, 2, -1, -3])),
    st.tuples(st.just("iter")),
    st.tuples(st.just("add")),
    st.tuples(st.just("walk"), st.integers(0, 8)),
    st.tuples(st.just("merge")),
), max_size=8)


@settings(max_examples=80, deadline=None)
@given(reads=_record_reads)
def test_any_read_order_matches_an_eager_decode(logged, reads):
    path, eager = logged
    _, records = read_session_log(path)
    assert records.dates == tuple(r.date for r in eager)
    for read in reads:
        if read[0] == "index":
            if -len(eager) <= read[1] < len(eager):
                assert records[read[1]] == eager[read[1]]
            else:
                with pytest.raises(IndexError):
                    records[read[1]]
        elif read[0] == "slice":
            assert records[slice(*read[1:])] == eager[slice(*read[1:])]
        elif read[0] == "iter":
            assert list(records) == eager
        elif read[0] == "walk":  # one record at a time, upwards, as reports read
            assert [records[i] for i in range(read[1], len(eager))] == eager[read[1]:]
        elif read[0] == "merge":  # a record dated before the first one
            more = replace(eager[0], date=eager[0].date - dt.timedelta(days=1))
            lines, merged = records.merge({more.date: more},
                                          lambda _, r: sessionlog._encode_record(r))
            records, eager = merged, [more] + eager
            assert lines == [sessionlog._encode_record(r) for r in eager]
        else:
            more = replace(eager[-1], date=eager[-1].date + dt.timedelta(days=len(eager)))
            longer = records + (more,)
            assert len(records) == len(eager)  # the sequence added to is unchanged
            records, eager = longer, eager + [more]
            assert records.dates[-1] == more.date
    assert records == eager and len(records) == len(eager)


def test_a_log_s_records_equal_sequences_of_the_same_records_only(logged):
    path, eager = logged
    _, records = read_session_log(path)
    assert records == tuple(eager) and records != eager[:-1]
    assert records.__eq__(eager[0]) is NotImplemented and records != eager[0]


def _write_run_config(path, store, out_dir, dates, model):
    path.write_text("\n".join([
        "market: stock", f"store: {store}", f"out_dir: {out_dir}", "dates:",
        *(f"  - {d.isoformat()}" for d in dates),
        "models:", f"  - {model}", "universe: [AAPL, MSFT, NVDA]",
    ]) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def daily_log(tmp_path):
    """A finished 60-step equal-weight log, its config and its bytes."""
    dates = seed_stock_store(tmp_path / "store", ("AAPL", "MSFT", "NVDA"), D(2025, 1, 6), 61,
                             seed=3)
    config = _write_run_config(tmp_path / "run.yaml", tmp_path / "store", tmp_path / "runs",
                               dates, "baseline:equal-weight")
    assert CliRunner().invoke(main, ["run", "--config", str(config)]).exit_code == 0
    log = tmp_path / "runs" / "stock-baseline-equal-weight.jsonl"
    return config, log, log.read_bytes()


def test_a_daily_resume_decodes_only_the_memory_window(daily_log, monkeypatch):
    config, log, full = daily_log
    lines = full.splitlines(keepends=True)
    assert len(lines) == 61
    log.write_bytes(b"".join(lines[:-1]))

    decoded = []
    real = sessionlog._decode_record

    def counting(assets, date, row):
        decoded.append(date)
        return real(assets, date, row)

    monkeypatch.setattr(sessionlog, "_decode_record", counting)
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert "+1 steps" in result.output
    assert len(decoded) <= DEFAULT_MEMORY_HORIZON + 1
    assert log.read_bytes() == full


def _garble_line(log, full, number, old, new):
    lines = full.splitlines(keepends=True)
    assert old in lines[number - 1]
    lines[number - 1] = lines[number - 1].replace(old, new, 1)
    log.write_bytes(b"".join(lines))
    return lines


def test_a_garbled_record_behind_the_tail_resumes_and_fails_report(daily_log):
    """The trade-off of decoding on first read: ``run`` reads only the
    tail, so a bad value further back is ``report``'s to catch."""
    config, log, full = daily_log
    lines = _garble_line(log, full, 5, b'"news_count":', b'"news_count":,')
    log.write_bytes(b"".join(lines[:-1]))

    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert log.read_bytes() == b"".join(lines)

    for command in ("report", "delta"):
        result = CliRunner().invoke(main, [command, str(log)])
        assert result.exit_code == 1
        assert f"{log}:5: bad record" in result.output


def test_a_garbled_record_date_fails_at_read(daily_log):
    config, log, full = daily_log
    date = full.splitlines()[4][9:19]
    _garble_line(log, full, 5, date, date[:5] + b"1x" + date[7:])
    with pytest.raises(CorruptLog, match=r":5: bad record"):
        read_session_log(log)
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 1 and f"{log}:5: bad record" in result.output


# -- derived series -----------------------------------------------------------


def test_value_and_cash_ratio_series(tmp_path, stock_world):
    spec, feed, dates = stock_world
    state, records = _run_logged(tmp_path / "run.jsonl", spec, feed, dates,
                                 scripted_agent(_varied_responses(len(dates) - 1)))
    _, loaded = read_session_log(tmp_path / "run.jsonl")
    (row,) = build_report_rows([tmp_path / "run.jsonl"], risk_free_rate=0.0)

    assert row.values == list(state.value_series)
    assert row.values[0] == 1000.0

    assert row.cash_ratio[0] == 1.0
    for ratio, record in zip(row.cash_ratio[1:], loaded, strict=True):
        assert ratio == record.holdings_after["CASH"] / record.value


def test_effective_allocations_walk_fallbacks(tmp_path, stock_world):
    spec, feed, dates = stock_world
    good = {"AAPL": 0.5, "MSFT": 0.2, "NVDA": 0.0, "CASH": 0.3}
    # fail, validate, fail: the walk is cash, good, good
    agent = scripted_agent(["junk"] * 3 + [_render(good)] + ["junk"] * 3)
    _run_logged(tmp_path / "run.jsonl", spec, feed, dates[:4], agent)
    header, loaded = read_session_log(tmp_path / "run.jsonl")

    walk = effective_allocations(header, loaded)
    assert len(walk) == 3
    assert walk[0].weights["CASH"] == 1.0
    assert walk[1].weights == pytest.approx(good)
    assert walk[2] == walk[1]


def test_position_histories_alignment(tmp_path, stock_world):
    spec, feed, dates = stock_world
    _run_logged(tmp_path / "run.jsonl", spec, feed, dates[:4],
                scripted_agent(_varied_responses(3)))
    header, loaded = read_session_log(tmp_path / "run.jsonl")

    holdings, prices = position_histories(header, loaded)
    assert len(holdings) == len(prices) == len(loaded) + 1

    assert holdings[0].units == {a: (1000.0 if a == "CASH" else 0.0) for a in spec.assets}
    assert prices[0].date == loaded[0].date
    assert dict(prices[0].prices) == loaded[0].prices
    for i, record in enumerate(loaded):
        assert holdings[i + 1].units == record.holdings_after
        assert prices[i + 1].date == record.date + dt.timedelta(days=1)
        assert dict(prices[i + 1].prices) == record.prices_after

    with pytest.raises(CorruptLog):
        position_histories(header, [])


# -- resume ---------------------------------------------------------------------


def test_resume_equals_uninterrupted_run(tmp_path, stock_world):
    """Split the episode at step 3 and continue from the log: the final
    log bytes, state, and every prompt the model sees must be identical
    to the run that never stopped."""
    spec, feed, dates = stock_world
    responses = _varied_responses(len(dates) - 1)
    config = ModelClientConfig(model="test/scripted")

    full_client = ScriptedClient(responses)
    _run_logged(tmp_path / "full.jsonl", spec, feed, dates,
                LLMAgent(full_client, config))
    state_full, _ = run_episode(
        spec, LLMAgent(ScriptedClient(responses), config), feed, dates, 1000.0)

    part = tmp_path / "part.jsonl"
    _run_logged(part, spec, feed, dates[:4], LLMAgent(ScriptedClient(responses[:3]), config))

    header, done = read_session_log(part)
    assert len(done) == 3
    resume = resume_point(header, done, spec, memory_horizon=10)
    writer = SessionLogWriter(part, header)
    resumed_client = ScriptedClient(responses[3:])
    state_resumed, _ = run_episode(
        spec, LLMAgent(resumed_client, config), feed, dates[3:], 1000.0,
        resume=resume, on_record=writer.append,
    )

    assert part.read_bytes() == (tmp_path / "full.jsonl").read_bytes()
    assert state_resumed.value_series == state_full.value_series
    assert state_resumed.holdings.units == state_full.holdings.units
    assert state_resumed.status is SessionStatus.ENDED
    # the rebuilt memory produced the exact prompts of the unbroken run
    assert resumed_client.prompts == full_client.prompts[3:]


def test_gated_resume_from_hold_step_equals_uninterrupted_run(tmp_path, stock_world):
    """A gated session cut off after an odd number of steps resumes on a
    hold step and still reproduces the uninterrupted bytes."""
    spec, feed, dates = stock_world
    responses = _varied_responses(len(dates) - 1)
    config = ModelClientConfig(model="test/scripted")

    def logged(path, dates, client, resume=None):
        writer = SessionLogWriter(path, SessionLogHeader.for_run(spec, "test/scripted", 1000.0))
        return run_episode(spec, LLMAgent(client, config), feed, dates, 1000.0,
                           resume=resume, on_record=writer.append, rebalance_interval=2)

    full_client = ScriptedClient(responses)
    logged(tmp_path / "full.jsonl", dates, full_client)

    part = tmp_path / "part.jsonl"
    logged(part, dates[:4], ScriptedClient(responses))
    header, done = read_session_log(part)
    assert len(done) == 3
    resume = resume_point(header, done, spec, memory_horizon=10)
    resumed_client = ScriptedClient(responses[2:])
    state, _ = logged(part, dates[3:], resumed_client, resume=resume)

    assert state.status is SessionStatus.ENDED
    assert part.read_bytes() == (tmp_path / "full.jsonl").read_bytes()
    assert resumed_client.prompts == full_client.prompts[2:]


def test_resume_restores_last_validated_fallback(tmp_path, stock_world):
    spec, feed, dates = stock_world
    good = {"AAPL": 0.4, "MSFT": 0.0, "NVDA": 0.0, "CASH": 0.6}
    agent = scripted_agent([_render(good)] + ["junk"] * 3)
    _run_logged(tmp_path / "run.jsonl", spec, feed, dates[:3], agent)

    header, done = read_session_log(tmp_path / "run.jsonl")
    resume = resume_point(header, done, spec, memory_horizon=10)

    # the junk step re-applied the valid one, and memory remembers both
    assert len(resume.memory) == 2
    assert resume.memory[-1].allocation.weights == pytest.approx(good)
    assert resume.state.step == 2
    assert resume.state.value == done[-1].value

    # a failing continuation re-applies that allocation, as the live run would
    state, records = run_episode(spec, scripted_agent(["junk"]), feed, dates[2:4],
                                 1000.0, resume=resume)
    last = records[-1]
    assert last.parse_error is not None
    assert last.holdings_after["AAPL"] == pytest.approx(
        last.value * 0.4 / last.prices_after["AAPL"])
    assert last.holdings_after["CASH"] == pytest.approx(last.value * 0.6)


def test_resume_point_on_header_only_log(tmp_path, stock_world):
    spec, feed, dates = stock_world
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)
    SessionLogWriter(tmp_path / "fresh.jsonl", header)

    loaded, records = read_session_log(tmp_path / "fresh.jsonl")
    assert records == []
    resume = resume_point(loaded, records, spec, memory_horizon=10)
    assert resume.state.step == 0
    assert resume.state.value == 1000.0
    assert resume.memory == ()


def test_resume_rejects_universe_mismatch(tmp_path, stock_world):
    spec, feed, dates = stock_world
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)
    other = MarketSpec.stock(("AAPL", "MSFT"))
    with pytest.raises(ConfigError, match="universe"):
        resume_point(header, [], other, memory_horizon=10)


@pytest.mark.parametrize("horizon", [0, -1])
def test_resume_point_refuses_a_horizon_below_one(stock_world, horizon):
    spec, feed, dates = stock_world
    header = SessionLogHeader.for_run(spec, "test/scripted", 1000.0)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        resume_point(header, [], spec, memory_horizon=horizon)


# -- derived state ---------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("store")
    spec = MarketSpec.stock(("AAPL", "MSFT", "NVDA"))
    dates = seed_stock_store(root, spec.assets[:-1], D(2025, 3, 3), 9, seed=7)
    return spec, ReplayFeed(SnapshotStore(root), MarketKind.STOCK), dates


class _MemorySpy:
    """An LLM agent that notes the memory it is shown at the first call
    of each step: the live session's memory at that step."""

    name = "test/scripted"

    def __init__(self, responses):
        self.agent = scripted_agent(responses)
        self.seen = {}

    def decide(self, spec, obs, memory) -> AgentDecision:
        self.seen.setdefault(obs.date, memory)
        return self.agent.decide(spec, obs, memory)


_weights = st.lists(st.integers(0, 6), min_size=4, max_size=4).filter(any)
_response = st.one_of(
    st.builds(lambda w: _render(dict(zip(("AAPL", "MSFT", "NVDA", "CASH"),
                                         (k / sum(w) for k in w)))), _weights),
    st.just("junk"),
    st.builds(lambda w: _render(dict(zip(("AAPL", "MSFT", "NVDA", "CASH"), w))),
              _weights.filter(lambda w: sum(w) != 1)),  # out of band
)


@settings(max_examples=40, deadline=None)
@given(responses=st.lists(_response, min_size=1, max_size=30), cut=st.integers(1, 7),
       horizon=st.integers(1, 10), retries=st.integers(0, 2))
# The window of one record opens on a failed step, so the resumed step
# must fall back to the allocation validated two records earlier.
@example(responses=[_render({"AAPL": 0.5, "MSFT": 0.2, "NVDA": 0.1, "CASH": 0.2}), "junk"],
         cut=3, horizon=1, retries=0)
def test_resume_point_equals_live_state_at_every_cut(shared_world, responses, cut, horizon,
                                                     retries):
    spec, feed, dates = shared_world
    with tempfile.TemporaryDirectory() as tmp:
        full, part = Path(tmp) / "full.jsonl", Path(tmp) / "part.jsonl"
        spy = _MemorySpy(responses)
        _, records = _run_logged(full, spec, feed, dates, spy, memory_horizon=horizon,
                                 max_retries=retries)
        head = scripted_agent(responses)
        live, _ = _run_logged(part, spec, feed, dates[:cut + 1], head, memory_horizon=horizon,
                              max_retries=retries)

        header, done = read_session_log(part)
        resume = resume_point(header, done, spec, memory_horizon=horizon)
        assert resume.state.step == live.step == cut
        assert resume.state.holdings == live.holdings
        assert resume.state.holdings.units == records[cut].holdings_before
        assert resume.state.value_series == live.value_series
        assert resume.memory == spy.seen[dates[cut]]

        tail = scripted_agent(responses[min(len(head.client.prompts), len(responses) - 1):])
        writer = SessionLogWriter(part, header)
        state, _ = run_episode(spec, tail, feed, dates[cut:], 1000.0, memory_horizon=horizon,
                               max_retries=retries, resume=resume, on_record=writer.append)
        assert state.status is SessionStatus.ENDED
        assert part.read_bytes() == full.read_bytes()


def test_resume_point_rebuilds_only_the_memory_window(tmp_path, shared_world):
    """A log longer than the memory horizon resumes with the same window
    the live session showed the agent at that step."""
    spec, feed, dates = shared_world
    responses = _varied_responses(len(dates) - 1)
    spy = _MemorySpy(responses)
    run_episode(spec, spy, feed, dates, 1000.0, memory_horizon=3)

    cut = 6
    part = tmp_path / "part.jsonl"
    writer = SessionLogWriter(part, SessionLogHeader.for_run(spec, "test/scripted", 1000.0))
    run_episode(spec, scripted_agent(responses), feed, dates[:cut + 1], 1000.0,
                memory_horizon=3, on_record=writer.append)
    header, done = read_session_log(part)
    resume = resume_point(header, done, spec, memory_horizon=3)
    assert len(done) == cut
    assert len(resume.memory) == 3
    assert resume.memory == spy.seen[dates[cut]]
