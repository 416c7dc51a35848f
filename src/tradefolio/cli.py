"""Command-line entry points.

Four subcommands cover the whole workflow: ``fetch`` backfills market
data into the store, ``run`` drives trading sessions over it, and
``report`` / ``delta`` turn the session logs into tables.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import click

from .agents.baselines import AllCashAgent, BuyAndHoldAgent, EqualWeightAgent
from .agents.clients import HttpChatClient, ModelClientConfig, api_key, resolve_provider
from .agents.harness import Agent, LLMAgent
from .config import RunConfig, load_config
from .domain import MarketKind, MarketSpec
from .environment import MarketMemo, SessionStatus, run_episode
from .errors import ConfigError, FeedUnavailable, TradefolioError
from .ingestion.feeds import ReplayFeed, ensure_dates, record_discovered
from .ingestion.predictions import discover_markets
from .ingestion.snapshots import SnapshotStore
from .sessionlog import (
    SessionLogHeader,
    SessionLogWriter,
    check_header,
    drop_torn_tail,
    lock_log,
    read_session_log,
    resume_point,
)

_BASELINES = {
    "equal-weight": EqualWeightAgent,
    "all-cash": AllCashAgent,
    "buy-and-hold": BuyAndHoldAgent,
}


def _slug(name: str) -> str:
    out = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-.")
    return out or "model"


def _make_agent(entry: ModelClientConfig) -> Agent:
    if entry.is_baseline:
        kind = entry.model.split(":", 1)[1]
        factory = _BASELINES.get(kind)
        if factory is None:
            known = ", ".join(sorted(_BASELINES))
            raise ConfigError(f"unknown baseline {kind!r}; known: {known}")
        return factory()
    api_key(resolve_provider(entry.model)[0])  # fail the model before its log exists
    return LLMAgent(HttpChatClient(), entry)


def _build_spec(cfg: RunConfig, store: SnapshotStore) -> tuple[MarketSpec, dict[str, str]]:
    """The configured market, and the store keys prediction assets'
    prices live under: the token ids of each question's catalog entry.
    A listed question the catalog lacks is refused, before any request
    is sent or any log opened."""
    if cfg.market is MarketKind.STOCK:
        return cfg.spec(), {}
    catalog = {e.question: e for e in store.markets()}
    questions = cfg.questions or tuple(catalog)[: cfg.discovery_limit]
    if not questions:
        raise ConfigError(
            "no questions configured and the store catalog is empty; run 'tradefolio fetch' first"
        )
    spec = MarketSpec.prediction(questions)
    keys: dict[str, str] = {}
    for pair in spec.pairs:
        if pair.question not in catalog:
            raise ConfigError(f"question not in the market catalog: {pair.question!r}")
        keys[pair.yes] = catalog[pair.question].yes_token
        keys[pair.no] = catalog[pair.question].no_token
    return spec, keys


def _backfill(cfg: RunConfig, store: SnapshotStore, spec: MarketSpec,
              asset_keys: dict[str, str], today: dt.date) -> list[dt.date]:
    """The configured dates up to ``today``, backfilled into the store
    once at least two are; ``FeedUnavailable`` names the first date a
    provider failure left uncovered."""
    dates = [d for d in cfg.dates if d <= today]
    if len(dates) >= 2:
        ensure_dates(store, spec, dates, cfg.fetch_policy, asset_keys,
                     cfg.lookback_days, cfg.news_window_days)
    return dates


@dataclass
class RunOutcome:
    model: str
    log_path: Path
    status: str
    new_steps: int
    final_value: float | None
    error: str | None = None
    dropped_line: int | None = None  # the torn final line cut off before resuming


def _log_path(cfg: RunConfig, model: str) -> Path:
    return cfg.out_dir / f"{cfg.market.value}-{_slug(model)}.jsonl"


def _run_one(entry: ModelClientConfig, cfg: RunConfig, market: MarketMemo,
             dates: list[dt.date], make_agent: Callable[[ModelClientConfig], Agent]) -> RunOutcome:
    """Run or resume one model's session over the run's shared market,
    with the agent ``make_agent`` builds once a step is left to run. The
    session cuts, reads and extends its log through one handle, locked
    until the session ends, so a log another run holds fails the session
    and keeps its bytes. A failed session is an outcome too, and still
    names the unfinished line cut off its log."""
    spec = market.spec
    log_path = _log_path(cfg, entry.model)
    outcome = partial(RunOutcome, entry.model, log_path)
    header = SessionLogHeader.for_run(spec, entry.model, cfg.initial_capital)
    resume, done, dropped, log = None, 0, None, None
    try:
        log = lock_log(log_path)
        if log is not None:
            dropped = drop_torn_tail(log_path, log)
            if dropped == 1:  # the log held only a torn header, and is gone
                log.close()
                log = None
        if log is not None:
            existing, records = read_session_log(log_path, log)
            check_header(log_path, existing, header)
            resume = resume_point(existing, records, spec, cfg.memory_horizon)
            done = resume.state.step
            if records.dates != tuple(dates[:done]):
                raise ConfigError(
                    f"{log_path} was recorded over different dates than the config lists"
                )
            if done >= len(dates) - 1:
                return outcome("complete", 0, resume.state.value, dropped_line=dropped)

        agent = make_agent(entry)
        if log is None:
            log = lock_log(log_path, create=True)
        writer = SessionLogWriter(log_path, header, log)
        state, _ = run_episode(
            spec,
            agent,
            market,
            dates[done:],
            cfg.initial_capital,
            max_retries=cfg.retries,
            memory_horizon=cfg.memory_horizon,
            lookback_days=cfg.lookback_days,
            news_window_days=cfg.news_window_days,
            band=cfg.renormalize_band,
            resume=resume,
            on_record=writer.append,
            rebalance_interval=cfg.rebalance_interval,
        )
    except TradefolioError as exc:
        return outcome("failed", 0, None, error=str(exc), dropped_line=dropped)
    finally:
        if log is not None:
            log.close()
    status = state.status.value
    if state.status is SessionStatus.HALTED:
        status = f"halted ({state.halt_reason})"
    return outcome(status, state.step - done, state.value, dropped_line=dropped)


@click.group()
def main() -> None:
    """Multi-market portfolio sessions for language-model agents."""


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Run configuration YAML.")
def fetch(config_path: str) -> None:
    """Backfill the store for the configured dates that have happened.

    Prediction markets are discovered first, and their catalog entries
    recorded; questions the config lists must be in the catalog.
    """
    try:
        cfg = load_config(config_path)
        store = SnapshotStore(cfg.store)
        if cfg.market is MarketKind.PREDICTION:
            record_discovered(store, discover_markets(
                cfg.fetch_policy, cfg.dates[0] - dt.timedelta(days=cfg.lookback_days),
                cfg.dates[-1], limit=cfg.discovery_limit))
            if not cfg.questions and not store.markets():
                raise ConfigError("discovery found no markets for the configured dates"
                                  " and the store catalog is empty")
        spec, asset_keys = _build_spec(cfg, store)
        dates = _backfill(cfg, store, spec, asset_keys, dt.date.today())
        if len(dates) < 2:
            click.echo("fewer than two configured dates are ready; nothing to fetch yet")
        else:
            click.echo(f"{cfg.store}: backfilled {dates[0]} to {dates[-1]}")
    except TradefolioError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Run configuration YAML.")
def run(config_path: str) -> None:
    """Run one session per configured model over the configured dates.

    Model sessions run on worker threads, at most ``concurrency`` at
    once, so their provider waits overlap; baseline sessions make no
    provider call and run in the invoking thread beside them. Outcomes
    are printed in config order.

    An existing log resumes where it stopped; replaying a finished log
    is a no-op. A log whose last line lacks its newline was cut off
    mid-append: that line is dropped and named, and the notice says
    whether this run recomputed it or the session failed first. In live
    mode the dates that have already happened are backfilled first, so
    a daily invocation extends each log by one step; a provider outage
    ends the run's dates before the failing one.

    Each session locks its log while it runs, so a session whose log
    another run holds fails, naming the log as in use, and leaves it
    as it was.
    """
    try:
        cfg = load_config(config_path)
        owners: dict[Path, str] = {}
        for entry in cfg.models:
            path = _log_path(cfg, entry.model)
            if owners.setdefault(path, entry.model) != entry.model:
                raise ConfigError(f"models {owners[path]!r} and {entry.model!r}"
                                  f" would share the log {path}")
        if cfg.mode != "live" and not cfg.store.is_dir():
            raise ConfigError(f"no store directory at {cfg.store.resolve()};"
                              " run 'tradefolio fetch' first")
        store = SnapshotStore(cfg.store)
        spec, asset_keys = _build_spec(cfg, store)
        dates = list(cfg.dates)

        if cfg.mode == "live":
            try:
                dates = _backfill(cfg, store, spec, asset_keys, dt.date.today())
            except FeedUnavailable as exc:
                click.echo(f"{exc}; the backfill stops there")
                dates = [d for d in dates if d < exc.date]
            if len(dates) < 2:
                click.echo("fewer than two configured dates are ready; nothing to run yet")
                return

        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        models = [entry for entry in cfg.models if not entry.is_baseline]
        workers = cfg.concurrency or min(4, len(models)) or 1
        # every session reads each date's market through this one memo
        market = MarketMemo(ReplayFeed(store, cfg.market, asset_keys), spec,
                            cfg.lookback_days, cfg.news_window_days)

        def job(entry: ModelClientConfig) -> RunOutcome:
            return _run_one(entry, cfg, market, dates, _make_agent)

        # model sessions overlap their provider waits on workers; baselines
        # never wait, so they run here beside them rather than contend
        with ThreadPoolExecutor(max_workers=workers) as pool:
            waiting = {entry.model: pool.submit(job, entry) for entry in models}
            ran = {entry.model: job(entry) for entry in cfg.models if entry.is_baseline}

        failed = False
        for entry in cfg.models:
            outcome = ran[entry.model] if entry.is_baseline else waiting[entry.model].result()
            if outcome.dropped_line is not None:
                fate = ("the session failed before recomputing it" if outcome.error is not None
                        else "which this run recomputes")
                click.echo(f"{outcome.log_path}:{outcome.dropped_line}: dropped an unfinished"
                           f" line, {fate}")
            if outcome.error is not None:
                failed = True
                click.echo(f"{outcome.model}: failed: {outcome.error}")
                continue
            click.echo(
                f"{outcome.model}: {outcome.status}, +{outcome.new_steps} steps,"
                f" value {outcome.final_value:.4f} -> {outcome.log_path}"
            )
        if failed:
            raise click.ClickException("one or more sessions failed")
    except TradefolioError as exc:
        raise click.ClickException(str(exc)) from exc


def _resolve_logs(logs: tuple[str, ...], cfg: RunConfig | None) -> list[Path]:
    if logs:
        return [Path(p) for p in logs]
    if cfg is not None:
        found = sorted(cfg.out_dir.glob("*.jsonl"))
        if found:
            return found
    raise click.UsageError("pass session logs or a --config whose out_dir contains some")


@main.command()
@click.argument("logs", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Supplies default logs, rate, and output directory.")
@click.option("--rate", type=float, default=None,
              help="Per-step risk-free rate for the reward-to-variability ratio.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Also write report.txt and report.json here.")
def report(logs: tuple[str, ...], config_path: str | None, rate: float | None,
           out_dir: str | None) -> None:
    """Tabulate session metrics from one or more logs."""
    from .reporting import build_report_rows, render_report_table, write_report

    if rate is not None and not math.isfinite(rate):
        raise click.UsageError(f"--rate must be a finite number, got {rate}")
    try:
        cfg = load_config(config_path) if config_path else None
        paths = _resolve_logs(logs, cfg)
        if rate is None:
            rate = cfg.risk_free_rate if cfg else 0.0
        rows = build_report_rows(paths, rate)
        click.echo(render_report_table(rows), nl=False)
        if out_dir is None and cfg is not None:
            out_dir = str(cfg.out_dir)
        if out_dir is not None:
            table_path, json_path = write_report(rows, out_dir)
            click.echo(f"wrote {table_path} and {json_path}")
    except TradefolioError as exc:
        raise click.ClickException(str(exc)) from exc


@main.command()
@click.argument("logs", nargs=-1, type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Supplies default logs and output directory.")
@click.option("--lags", default="1,2,3", show_default=True,
              help="Comma-separated execution lags to compare against lag zero.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Also write delta.txt and delta.json here.")
def delta(logs: tuple[str, ...], config_path: str | None, lags: str, out_dir: str | None) -> None:
    """Show how much delayed execution would have changed each return."""
    from .reporting import build_delta_table, render_delta_table, write_delta_report

    try:
        lag_values = [int(part) for part in lags.split(",") if part.strip()]
    except ValueError:
        raise click.UsageError(f"--lags must be comma-separated integers, got {lags!r}")
    if not lag_values or any(k < 0 for k in lag_values):
        raise click.UsageError("--lags needs at least one non-negative integer")
    for i, k in enumerate(lag_values):
        if k in lag_values[:i]:
            raise click.UsageError(f"--lags lists lag {k} more than once")
    try:
        cfg = load_config(config_path) if config_path else None
        paths = _resolve_logs(logs, cfg)
        table = build_delta_table(paths, lag_values)
        click.echo(render_delta_table(table), nl=False)
        if out_dir is None and cfg is not None:
            out_dir = str(cfg.out_dir)
        if out_dir is not None:
            text_path, json_path = write_delta_report(table, out_dir)
            click.echo(f"wrote {text_path} and {json_path}")
    except TradefolioError as exc:
        raise click.ClickException(str(exc)) from exc


if __name__ == "__main__":
    main()
