"""The three workloads and the phases every run goes through.

A run seeds its store three times (``setup_s`` is the median), then
spends its measured seconds on units of four phases, interleaved by
``Run.measure``:

* batch: whole sessions over every configured date, from empty logs;
* resume: logs cut back by ``cut_back`` records, then extended one day
  per invocation with the config's ``dates.end`` advancing, as a daily
  cron would;
* report and delta over the batch logs.

Stock-long and prediction-daily drive ``tradefolio run`` / ``report`` /
``delta`` in-process through click. The CLI can only build HTTP model
clients, so llm-wide sessions go through ``drive``, which does what
``tradefolio run`` does with the benchmark's own agents. The traced run
also uses ``drive``, because only there can it wrap what it hands in.

Every timed section goes through ``Clock``, which runs a fixed probe
job before and after it and scales the section's time by the probe's
speed; see ``Clock`` for why.
"""

from __future__ import annotations

import datetime as dt
import gc
import hashlib
import json
import math
import re
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import yaml
from click.testing import CliRunner

from tradefolio.accounting import rebalance
from tradefolio.agents.baselines import AllCashAgent, BuyAndHoldAgent, EqualWeightAgent
from tradefolio.agents.clients import ModelClientConfig
from tradefolio.agents.harness import LLMAgent
from tradefolio.agents.parsing import parse_allocation_response
from tradefolio.cli import main as tradefolio_cli
from tradefolio.config import RunConfig, load_config
from tradefolio.domain import DEFAULT_STOCK_TICKERS, Holdings, MarketKind, MarketSpec
from tradefolio.environment import SessionStatus, run_episode
from tradefolio.errors import TradefolioError
from tradefolio.ingestion.feeds import ReplayFeed
from tradefolio.ingestion.snapshots import SnapshotStore
from tradefolio.metrics import rolling_k_delta
from tradefolio.reporting import build_report_rows
from tradefolio.sessionlog import (
    SessionLogHeader,
    SessionLogWriter,
    effective_allocations,
    position_histories,
    read_session_log,
    resume_point,
)
from tradefolio.synthetic import seed_prediction_store, seed_stock_store

from fakellm import FakeChatClient
from tracing import (
    SESSION_SPAN,
    TracedClient,
    TracedFeed,
    Tracer,
    analyse,
    traced_agent,
    traced_callback,
)

START = dt.date(2024, 1, 1)
SETUPS = 3
# Shares of the measured seconds; each phase runs at least one unit.
SHARES = {"batch": 0.55, "resume": 0.25, "report": 0.10, "delta": 0.10}
# What ``probe`` takes at the reference speed that scaled times refer to.
PROBE_REF_S = 0.008
LAGS = "1,2,3"
# Resume cycles open at once; see ``Run.resume``.
STAGGER = 5

_BASELINES = {
    "baseline:equal-weight": EqualWeightAgent,
    "baseline:buy-and-hold": BuyAndHoldAgent,
    "baseline:all-cash": AllCashAgent,
}


@dataclass(frozen=True)
class Workload:
    name: str
    market: MarketKind
    days: int
    names: tuple[str, ...]  # tickers, or prediction questions
    models: tuple[str, ...]
    concurrency: int
    cut_back: int  # records cut from each log before the resume phase

    @property
    def uses_cli(self) -> bool:
        return all(m in _BASELINES for m in self.models)

    @property
    def upserts(self) -> int:
        # One price and one news row per ticker-day; two token prices and
        # one news row per question-day.
        per_day = 2 if self.market is MarketKind.STOCK else 3
        return len(self.names) * self.days * per_day


WORKLOADS = {
    w.name: w for w in (
        Workload("stock-long", MarketKind.STOCK, 120, DEFAULT_STOCK_TICKERS,
                 ("baseline:equal-weight", "baseline:buy-and-hold", "baseline:all-cash"),
                 concurrency=2, cut_back=30),
        Workload("llm-wide", MarketKind.STOCK, 30, tuple(f"S{i:03d}" for i in range(100)),
                 ("fake-llm-alpha", "fake-llm-beta"), concurrency=1, cut_back=10),
        Workload("prediction-daily", MarketKind.PREDICTION, 120,
                 tuple(f"Will synthetic event {i:02d} resolve yes?" for i in range(1, 11)),
                 ("baseline:equal-weight", "baseline:all-cash"), concurrency=1, cut_back=100),
    )
}


class Ledger:
    """Counts operations (sessions, CLI invocations, output checks) and
    the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def probe() -> float:
    """Wall time of a fixed in-memory job: an integer loop, building a
    dict of lists and strings, a JSON round trip and a keyed sort, the
    kinds of work tradefolio's steps are made of. The garbage collector
    is off meanwhile, so the probe never pays for the program's heap."""
    gc.disable()
    try:
        t0 = perf_counter()
        total = 0
        for i in range(40000):
            total += i * i % 7
        rows = {str(i): [i, i * 0.5, "x" * (i % 7)] for i in range(3000)}
        json.loads(json.dumps(rows))
        sorted(rows.items(), key=lambda kv: kv[1][1])
        return perf_counter() - t0
    finally:
        gc.enable()


@dataclass(frozen=True)
class Section:
    """One timed call: when it started and ended, by ``perf_counter``."""

    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Clock:
    """Times sections of the benchmark, raw and scaled to one speed.

    Small shared hosts change speed by up to 1.8x every few seconds, for
    reasons outside the process (the CPU time of the process changes as
    much as its wall time). A run of tens of seconds then lands on a
    different mix of speeds each time, and its raw times say more about
    the host than about tradefolio. So ``probe`` runs right before and
    right after every timed section, and a section's scaled time is its
    raw time × ``PROBE_REF_S`` ÷ the mean of the probes taken within
    ``WINDOW_S`` of it: its time at a speed where the probe takes
    ``PROBE_REF_S``. Averaging over a window, rather than over the two
    neighbouring probes alone, smooths the probe's own noise. The probe
    does not touch tradefolio, so a change to the program moves scaled
    times as much as raw ones.
    """

    WINDOW_S = 0.5
    # An after-probe this recent also serves as the next before-probe.
    REUSE_S = 0.02

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (ended at, seconds)

    def _probe(self) -> None:
        took = probe()
        self.probes.append((perf_counter(), took))

    def time(self, fn: Callable[[], object]) -> Section:
        """Calls ``fn`` between two probes and returns when it ran."""
        if not self.probes or perf_counter() - self.probes[-1][0] > self.REUSE_S:
            self._probe()
        t0 = perf_counter()
        fn()
        section = Section(t0, perf_counter())
        self._probe()
        return section

    def scaled(self, section: Section) -> float:
        """The section's seconds at the reference speed."""
        lo, hi = section.start - self.WINDOW_S, section.end + self.WINDOW_S
        near = [took for at, took in self.probes if lo <= at - took and at <= hi + took]
        return section.seconds * PROBE_REF_S / statistics.fmean(near)


def read_io() -> dict[str, int] | None:
    """``rchar``/``wchar`` of this process, or None where unreadable."""
    try:
        with open("/proc/self/io", encoding="ascii") as fh:
            fields = dict(line.split(":", 1) for line in fh if ":" in line)
        return {k: int(fields[k]) for k in ("rchar", "wchar")}
    except (OSError, KeyError, ValueError):
        return None


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _slug(model: str) -> str:
    # The log naming rule of ``tradefolio run``.
    return re.sub(r"[^A-Za-z0-9._-]+", "-", model).strip("-.") or "model"


def _logs(out_dir: Path) -> list[Path]:
    return sorted(out_dir.glob("*.jsonl"))


def make_agent(model: str, seed: int, tracer: Tracer | None):
    if model in _BASELINES:
        return _BASELINES[model]()
    client = FakeChatClient(seed)
    if tracer is not None:
        client = TracedClient(client, tracer)
    return LLMAgent(client, ModelClientConfig(model=model))


def _spec_and_keys(cfg: RunConfig, store: SnapshotStore) -> tuple[MarketSpec, dict[str, str]]:
    """What ``tradefolio run`` derives from a config and its store."""
    if cfg.market is MarketKind.STOCK:
        return cfg.spec(), {}
    catalog = store.markets()
    questions = cfg.questions or tuple(e.question for e in catalog)[: cfg.discovery_limit]
    by_question = {e.question: e for e in catalog}
    keys = {}
    for q in questions:
        if q in by_question:
            keys[f"{q}_Yes"] = by_question[q].yes_token
            keys[f"{q}_No"] = by_question[q].no_token
    return MarketSpec.prediction(questions), keys


def drive(config_path: Path, seed: int, tracer: Tracer | None = None) -> list[tuple[str, str, int]]:
    """Run or resume every configured session in-process, one after the
    other; returns (model, status, new steps) per session."""
    cfg = load_config(config_path)
    store = SnapshotStore(cfg.store)
    spec, keys = _spec_and_keys(cfg, store)
    dates = list(cfg.dates)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    outcomes = []
    for entry in cfg.models:
        log_path = cfg.out_dir / f"{cfg.market.value}-{_slug(entry.model)}.jsonl"
        resume = None
        if log_path.exists():
            header, records = read_session_log(log_path)
            resume = resume_point(header, records, spec, cfg.memory_horizon)
        done = resume.state.step if resume else 0
        writer = SessionLogWriter(log_path, SessionLogHeader.for_run(spec, entry.model,
                                                                     cfg.initial_capital))
        feed = ReplayFeed(store, cfg.market, keys)
        agent = make_agent(entry.model, seed, tracer)
        on_record = writer.append
        if tracer is not None:
            feed = TracedFeed(feed, tracer)
            agent = traced_agent(agent, tracer)
            on_record = traced_callback(on_record, tracer)
        with tracer.span(SESSION_SPAN) if tracer is not None else nullcontext():
            state, _ = run_episode(
                spec, agent, feed, dates[done:], cfg.initial_capital,
                max_retries=cfg.retries, memory_horizon=cfg.memory_horizon,
                lookback_days=cfg.lookback_days, news_window_days=cfg.news_window_days,
                band=cfg.renormalize_band, resume=resume, on_record=on_record,
            )
        outcomes.append((entry.model, state.status.value, state.step - done))
    return outcomes


@dataclass
class Run:
    """One workload run: its inputs, its scratch directory, its figures."""

    workload: Workload
    seed: int
    work: Path
    ledger: Ledger = field(default_factory=Ledger)
    dates: list[dt.date] = field(default_factory=list)
    store: Path | None = None
    runner: CliRunner = field(default_factory=CliRunner)
    clock: Clock = field(default_factory=Clock)
    # Counts and times by name; timed figures are kept as sections and
    # read through ``timed``.
    samples: dict[str, list[float]] = field(default_factory=dict)
    sections: dict[str, list[tuple[Section, Callable[[float], float]]]] = field(
        default_factory=dict)
    artifacts: dict[str, Path] = field(default_factory=dict)
    # Open resume cycles by slot: log directory and records so far.
    _open: list[tuple[Path, int] | None] = field(default_factory=lambda: [None] * STAGGER)
    _turn: int = 0
    _cycles: int = 0
    _batches: int = 0

    # -- inputs ---------------------------------------------------------

    def seed_store(self, root: Path) -> list[dt.date]:
        w = self.workload
        if w.market is MarketKind.STOCK:
            return seed_stock_store(str(root), w.names, START, w.days, seed=self.seed)
        return seed_prediction_store(str(root), w.names, START, w.days, seed=self.seed)

    def setup(self) -> None:
        """Seed the store several times; the first copy is the one used."""
        digests = set()
        for i in range(SETUPS):
            root = self.work / f"store-{i}"
            io0 = read_io()

            def seed(root: Path = root) -> None:
                self.dates = self.seed_store(root)

            section = self.clock.time(seed)
            took = section.seconds
            io1 = read_io()
            size = _tree_bytes(root)
            self.sample("setup_s", section)
            self.samples.setdefault("upsert_us", []).append(took / self.workload.upserts * 1e6)
            if io0 is not None and io1 is not None:
                self.samples.setdefault("write_amp", []).append((io1["wchar"] - io0["wchar"]) / size)
            digests.add(_tree_digest(root))
            if i > 0:
                shutil.rmtree(root)
        self.ledger.check(len(digests) == 1, "seeding the same seed twice gave different stores")
        self.store = self.work / "store-0"

    def write_config(self, out_dir: Path, last: int, name: str = "run.yaml") -> Path:
        """A run config over ``dates[0..last]`` writing logs to ``out_dir``."""
        w = self.workload
        raw = {
            "market": w.market.value,
            "mode": "replay",
            "store": str(self.store),
            "out_dir": str(out_dir),
            "dates": {"start": self.dates[0].isoformat(), "end": self.dates[last].isoformat(),
                      "weekdays_only": w.market is MarketKind.STOCK},
            "models": list(w.models),
            "concurrency": w.concurrency,
        }
        if w.market is MarketKind.STOCK:
            raw["universe"] = list(w.names)
        path = out_dir.parent / f"{out_dir.name}-{name}"
        path.write_text(yaml.safe_dump(raw, sort_keys=False), encoding="utf-8")
        return path

    def sample(self, name: str, section: Section,
               figure: Callable[[float], float] = lambda seconds: seconds) -> None:
        """Keeps a timed section; ``figure`` turns its seconds into the
        figure's value."""
        self.sections.setdefault(name, []).append((section, figure))

    def timed(self, name: str, scaled: bool = True) -> list[float]:
        """A timed figure's values, scaled (see ``Clock``) or raw."""
        return [figure(self.clock.scaled(section) if scaled else section.seconds)
                for section, figure in self.sections.get(name, ())]

    # -- entry points ---------------------------------------------------

    def cli(self, *args: str) -> str | None:
        result = self.runner.invoke(tradefolio_cli, list(args))
        ok = self.ledger.check(result.exit_code == 0,
                               f"tradefolio {args[0]} exited {result.exit_code}: "
                               f"{result.output.strip()[-300:]}")
        return result.output if ok else None

    def run_sessions(self, config: Path, new_steps: int) -> None:
        """One ``tradefolio run`` (or its in-process twin) that should add
        ``new_steps`` steps to every session and end it."""
        if self.workload.uses_cli:
            output = self.cli("run", "--config", str(config))
            for model in self.workload.models:
                self.ledger.check(
                    output is not None and f"{model}: ended, +{new_steps} steps" in output,
                    f"{model} did not end after +{new_steps} steps",
                )
            return
        for model, status, steps in drive(config, self.seed):
            self.ledger.check(status == SessionStatus.ENDED.value and steps == new_steps,
                              f"{model} {status} after +{steps} steps")

    # -- phases ---------------------------------------------------------

    def measure(self, seconds: float) -> None:
        """Run one batch to warm up and to give the reference logs, then
        interleave units of every phase for ``seconds``, keeping each
        phase's time near its share, so that every figure samples the
        whole run rather than one stretch of a noisy machine. Each phase
        runs at least once."""
        units = {"batch": self.batch, "resume": self.resume,
                 "report": self.report, "delta": self.delta}
        self.batch()  # warm-up: its time is not a sample
        del self.sections["run_steps_per_s"]
        used = dict.fromkeys(units, 0.0)
        start = perf_counter()
        while perf_counter() - start < seconds or not all(used.values()):
            if perf_counter() - start < seconds:
                phase = min(units, key=lambda p: used[p] / SHARES[p])
            else:
                phase = next(p for p in units if not used[p])
            t0 = perf_counter()
            units[phase]()
            used[phase] += perf_counter() - t0
        self.close_cycles()

    def batch(self) -> None:
        """Every session over all dates, from empty logs. The first
        batch's logs are the reference that later runs must reproduce."""
        i = self._batches
        self._batches += 1
        steps = len(self.dates) - 1
        out = self.work / f"batch-{i}"
        config = self.write_config(out, steps)
        total = steps * len(self.workload.models)
        self.sample("run_steps_per_s", self.clock.time(lambda: self.run_sessions(config, steps)),
                    lambda seconds: total / seconds)
        if i == 0:
            self.artifacts["batch_config"] = config
            self.artifacts["logs"] = out
        else:
            self.compare_logs(out, self.artifacts["logs"], f"batch repeat {i}")
            shutil.rmtree(out)

    def compare_logs(self, got: Path, ref: Path, what: str) -> None:
        """Each log in ``got`` equals the same-named reference log up to
        its own length, byte for byte, and no log is missing."""
        names = [p.name for p in _logs(ref)]
        self.ledger.check([p.name for p in _logs(got)] == names, f"{what}: log set differs")
        for name in names:
            path = got / name
            if not path.exists():
                continue
            data = path.read_bytes()
            expect = (ref / name).read_bytes()
            lines = data.count(b"\n")
            prefix = b"".join(expect.splitlines(keepends=True)[:lines])
            self.ledger.check(data == prefix and lines > 1,
                              f"{what}: {name} differs from the uninterrupted log")

    def resume(self) -> None:
        """One daily invocation, on the next of ``STAGGER`` open cycles.
        A cycle copies the batch logs cut back to its first day, then
        extends them one day per invocation and, at the end, is compared
        with the batch logs. Later invocations read longer logs, so the
        first cycles start evenly spaced over the last ``cut_back`` days
        and each later one starts ``cut_back`` days back: however many
        invocations a run makes, they fall evenly over those days."""
        ref = self.artifacts["logs"]
        full = len(self.dates) - 1
        slot = self._turn % STAGGER
        if self._open[slot] is None:
            back = self.workload.cut_back
            if self._turn < STAGGER:
                back -= back * slot // STAGGER
            out = self.work / f"resume-{self._cycles}"
            self._cycles += 1
            out.mkdir()
            for log in _logs(ref):
                lines = log.read_bytes().splitlines(keepends=True)
                (out / log.name).write_bytes(b"".join(lines[: 1 + full - back]))
            self._open[slot] = (out, full - back)
        self._turn += 1
        out, n = self._open[slot]
        config = self.write_config(out, n + 1)
        read = _tree_bytes(out) + _tree_bytes(self.store)
        io0 = read_io()
        self.sample("resume_ms", self.clock.time(lambda: self.run_sessions(config, 1)),
                    lambda seconds: seconds * 1e3)
        io1 = read_io()
        if io0 is not None and io1 is not None:
            self.samples.setdefault("resume_read_amp", []).append(
                (io1["rchar"] - io0["rchar"]) / read)
        self._open[slot] = (out, n + 1)
        if n + 1 == full:
            self.close_cycle(slot)

    def resume_for(self, seconds: float) -> None:
        """Daily invocations for about ``seconds``."""
        start = perf_counter()
        while True:
            self.resume()
            if perf_counter() - start >= seconds:
                break
        self.close_cycles()

    def close_cycle(self, slot: int) -> None:
        out, _ = self._open[slot]
        self.compare_logs(out, self.artifacts["logs"], f"day-by-day cycle {out.name}")
        shutil.rmtree(out)
        self._open[slot] = None

    def close_cycles(self) -> None:
        """Compares each open cycle with the prefix of the batch logs it
        reached."""
        for slot, cycle in enumerate(self._open):
            if cycle is not None:
                self.close_cycle(slot)

    def report(self) -> None:
        out = self.work / "report"
        self.sample("report_s", self.clock.time(lambda: self.cli(
            "report", "--config", str(self.artifacts["batch_config"]), "--out", str(out))))
        self.artifacts["report.json"] = out / "report.json"

    def delta(self) -> None:
        out = self.work / "delta"
        self.sample("delta_s", self.clock.time(lambda: self.cli(
            "delta", "--config", str(self.artifacts["batch_config"]),
            "--lags", LAGS, "--out", str(out))))
        self.artifacts["delta.json"] = out / "delta.json"

    # -- checks ---------------------------------------------------------

    def check_values(self) -> None:
        """Every record's value is its book marked at its own prices."""
        for path in _logs(self.artifacts["logs"]):
            _, records = read_session_log(path)
            worst = max(
                abs(r.value - math.fsum(r.holdings_after[a] * r.prices_after[a]
                                        for a in r.holdings_after)) / abs(r.value)
                for r in records
            )
            self.ledger.check(worst <= 1e-9, f"{path.name}: value off its book by {worst:.3g}")

    def output_digests(self) -> dict[str, str]:
        paths = _logs(self.artifacts["logs"])
        paths += [self.artifacts[k] for k in ("report.json", "delta.json") if k in self.artifacts]
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.exists()}

    # -- the traced run -------------------------------------------------

    def traced(self, dump: Path) -> dict[str, float]:
        """In-process sessions over the full dates, untraced and traced in
        the order A B B A so that drift and warm-up weigh on both sides;
        every run must reproduce the batch logs byte for byte."""
        last = len(self.dates) - 1
        tracer = Tracer()
        took = {False: 0.0, True: 0.0}
        for i, traced in enumerate((False, True, True, False)):
            out = self.work / f"{'traced' if traced else 'untraced'}-{i}"
            config = self.write_config(out, last)
            t0 = perf_counter()
            outcomes = drive(config, self.seed, tracer if traced else None)
            took[traced] += perf_counter() - t0
            for model, status, steps in outcomes:
                self.ledger.check(status == SessionStatus.ENDED.value and steps == last,
                                  f"in-process {model} {status} after +{steps} steps")
            self.compare_logs(out, self.artifacts["logs"], f"in-process run {i}")
            shutil.rmtree(out)
        tracer.write(dump)
        figures = analyse(tracer)
        figures["bench.trace_overhead"] = took[True] / took[False]
        return figures

    def direct_layers(self) -> dict[str, float]:
        """Times direct calls to public functions over this run's outputs."""
        logs = _logs(self.artifacts["logs"])
        config_path = self.artifacts["batch_config"]
        cfg = load_config(config_path)
        figures: dict[str, float] = {}

        def cold_load() -> None:
            store = SnapshotStore(self.store)
            spec, keys = _spec_and_keys(cfg, store)
            for asset in spec.assets:
                if asset != spec.cash:
                    store.price_series(cfg.market.value, keys.get(asset, asset))
            tags = spec.questions if cfg.market is MarketKind.PREDICTION else cfg.universe
            for tag in tags:
                store.news_window(tag, self.dates[0], self.dates[-1])

        figures["snapshots.cold_load_ms"] = _median_time(cold_load, 3) * 1e3
        megabytes = sum(p.stat().st_size for p in logs) / 2 ** 20
        figures["sessionlog.read_ms_per_mb"] = _median_time(
            lambda: [read_session_log(p) for p in logs], 3) * 1e3 / megabytes
        parsed = [read_session_log(p) for p in logs]
        spec, _ = _spec_and_keys(cfg, SnapshotStore(self.store))
        figures["sessionlog.resume_point_ms"] = _median_time(
            lambda: [resume_point(h, r, spec, cfg.memory_horizon) for h, r in parsed], 3
        ) * 1e3 / len(parsed)
        figures["config.load_ms"] = _median_time(lambda: load_config(config_path), 9) * 1e3
        figures["reporting.report_rows_ms"] = _median_time(
            lambda: build_report_rows(logs, cfg.risk_free_rate), 5) * 1e3
        holdings, prices = position_histories(*parsed[0])
        lags = [int(k) for k in LAGS.split(",")]
        figures["metrics.rolling_k_delta_ms"] = _median_time(
            lambda: [rolling_k_delta(holdings, prices, k) for k in lags], 3) * 1e3 / len(lags)

        records = [r for _, rs in parsed for r in rs]
        t0 = perf_counter()
        for r in records:
            try:
                parse_allocation_response(r.raw_response, spec, band=cfg.renormalize_band)
            except TradefolioError:
                pass
        figures["parsing.parse_us"] = (perf_counter() - t0) / len(records) * 1e6
        steps = [(r, a) for h, rs in parsed for r, a in zip(rs, effective_allocations(h, rs))]
        t0 = perf_counter()
        for r, allocation in steps:
            rebalance(Holdings(r.holdings_before), r.prices_after, allocation, cash=spec.cash)
        figures["accounting.rebalance_us"] = (perf_counter() - t0) / len(steps) * 1e6

        attempts = sum(r.attempts for r in records)
        validated = sum(r.allocation is not None for r in records)
        figures["agents.valid_share"] = validated / attempts
        figures["agents.fallback_share"] = 1 - validated / len(records)
        return figures


def _median_time(fn: Callable[[], object], times: int) -> float:
    """Median wall time of ``times`` calls."""
    took = []
    for _ in range(times):
        t0 = perf_counter()
        fn()
        took.append(perf_counter() - t0)
    return statistics.median(took)

