"""Run configuration: one YAML file drives fetch, run, and report.

Every tunable that is a judgment call rather than a law of the system
lives here with its default: memory horizon, per-step risk-free rate,
the renormalization band, the flat-market threshold, starting capital,
retry counts, and the concurrency cap.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .accounting import RENORMALIZE_BAND
from .agents.clients import DEFAULT_MAX_TOKENS, DEFAULT_TEMPERATURE, STANDARD_STYLE
from .agents.memory import DEFAULT_MEMORY_HORIZON
from .domain import DEFAULT_STOCK_TICKERS, MarketKind, MarketSpec
from .environment import DEFAULT_RETRIES
from .errors import ConfigError
from .ingestion.feeds import HISTORY_LOOKBACK_DAYS
from .ingestion.news import NEWS_WINDOW_DAYS
from .ingestion.policy import FetchPolicy
from .ingestion.predictions import DISCOVERY_LIMIT, FLAT_SERIES_THRESHOLD

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "DEFAULT_STOCK_CAPITAL",
    "DEFAULT_PREDICTION_CAPITAL",
    "ModelEntry",
    "RunConfig",
    "load_config",
]

TRADING_DAYS_PER_YEAR = 252

# Starting capital per session, matching the public deployment's books.
DEFAULT_STOCK_CAPITAL = 1000.0
DEFAULT_PREDICTION_CAPITAL = 500.0

_DEFAULT_ANNUAL_RISK_FREE = 0.04


@dataclass(frozen=True)
class ModelEntry:
    """One session to run: a model id or a baseline agent name."""

    model: str
    temperature: float | None = DEFAULT_TEMPERATURE
    max_tokens: int | None = DEFAULT_MAX_TOKENS
    style: str = STANDARD_STYLE

    @property
    def is_baseline(self) -> bool:
        return self.model.startswith("baseline:")


@dataclass(frozen=True)
class RunConfig:
    market: MarketKind
    mode: str  # "replay" | "live"
    store: Path
    out_dir: Path
    dates: tuple[dt.date, ...]
    models: tuple[ModelEntry, ...]
    universe: tuple[str, ...]
    questions: tuple[str, ...]
    initial_capital: float
    risk_free_rate: float  # per step
    memory_horizon: int = DEFAULT_MEMORY_HORIZON
    retries: int = DEFAULT_RETRIES
    rebalance_interval: int = 1
    lookback_days: int = HISTORY_LOOKBACK_DAYS
    news_window_days: int = NEWS_WINDOW_DAYS
    renormalize_band: float = RENORMALIZE_BAND
    flat_market_threshold: float = FLAT_SERIES_THRESHOLD
    concurrency: int | None = None
    discovery_limit: int = DISCOVERY_LIMIT
    fetch_policy: FetchPolicy = field(default_factory=FetchPolicy)

    def spec(self) -> MarketSpec:
        if self.market is MarketKind.STOCK:
            return MarketSpec.stock(self.universe)
        return MarketSpec.prediction(self.questions)


def _date(value: Any, where: str) -> dt.date:
    if isinstance(value, dt.date) and not isinstance(value, dt.datetime):
        return value
    if isinstance(value, str):
        try:
            return dt.date.fromisoformat(value)
        except ValueError:
            pass
    raise ConfigError(f"{where}: expected a YYYY-MM-DD date, got {value!r}")


def _dates(raw: Any) -> tuple[dt.date, ...]:
    if isinstance(raw, list):
        dates = tuple(_date(v, "dates[]") for v in raw)
    elif isinstance(raw, dict) and {"start", "end"} <= raw.keys():
        start = _date(raw["start"], "dates.start")
        end = _date(raw["end"], "dates.end")
        if end < start:
            raise ConfigError("dates.end is before dates.start")
        dates = tuple(
            start + dt.timedelta(days=i) for i in range((end - start).days + 1)
        )
        if raw.get("weekdays_only", False):
            dates = tuple(d for d in dates if d.weekday() < 5)
    else:
        raise ConfigError("dates must be a list or a {start, end} mapping")
    if len(dates) < 2:
        raise ConfigError("need at least two dates (one decision, one execution)")
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise ConfigError(f"dates must be strictly increasing, got {a} then {b}")
    return dates


def _models(raw: Any) -> tuple[ModelEntry, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("models must be a non-empty list")
    entries = []
    for item in raw:
        if isinstance(item, str):
            entries.append(ModelEntry(model=item))
            continue
        if not isinstance(item, dict) or "model" not in item:
            raise ConfigError(f"model entry needs a 'model' key: {item!r}")
        known = {"model", "temperature", "max_tokens", "style"}
        extra = set(item) - known
        if extra:
            raise ConfigError(f"unknown model entry keys: {sorted(extra)}")
        entries.append(ModelEntry(
            model=item["model"],
            temperature=item.get("temperature", DEFAULT_TEMPERATURE),
            max_tokens=item.get("max_tokens", DEFAULT_MAX_TOKENS),
            style=item.get("style", STANDARD_STYLE),
        ))
    names = [e.model for e in entries]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate model entries")
    return tuple(entries)


def _fetch_policy(raw: Any) -> FetchPolicy:
    if raw is None:
        return FetchPolicy()
    if not isinstance(raw, dict):
        raise ConfigError("fetch must be a mapping")
    known = {"max_retries", "backoff_base", "jitter", "timeout", "user_agent"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown fetch keys: {sorted(extra)}")
    kwargs: dict[str, Any] = {}
    if "max_retries" in raw:
        kwargs["max_retries"] = int(raw["max_retries"])
    if "backoff_base" in raw:
        kwargs["backoff_base"] = float(raw["backoff_base"])
    if "jitter" in raw:
        jitter = raw["jitter"]
        if not (isinstance(jitter, list) and len(jitter) == 2):
            raise ConfigError("fetch.jitter must be [low, high]")
        kwargs["jitter_range"] = (float(jitter[0]), float(jitter[1]))
    if "timeout" in raw:
        kwargs["timeout"] = float(raw["timeout"])
    if "user_agent" in raw:
        kwargs["user_agent"] = str(raw["user_agent"])
    try:
        return FetchPolicy(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"fetch policy: {exc}") from exc


_TOP_LEVEL_KEYS = {
    "market", "mode", "store", "out_dir", "dates", "models", "universe",
    "questions", "initial_capital", "risk_free_rate_annual", "risk_free_rate",
    "memory_horizon", "retries", "rebalance_interval", "lookback_days",
    "news_window_days", "renormalize_band", "flat_market_threshold",
    "concurrency", "discovery_limit", "fetch",
}


def load_config(path: str | Path) -> RunConfig:
    """Parse and cross-check one YAML run configuration."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"no such config file: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    extra = set(raw) - _TOP_LEVEL_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")

    market_raw = raw.get("market")
    try:
        market = MarketKind(market_raw)
    except ValueError:
        raise ConfigError(f"market must be 'stock' or 'prediction', got {market_raw!r}")

    mode = raw.get("mode", "replay")
    if mode not in ("replay", "live"):
        raise ConfigError(f"mode must be 'replay' or 'live', got {mode!r}")

    if "store" not in raw:
        raise ConfigError("config needs a 'store' path")
    store = Path(raw["store"])
    if not store.is_absolute():
        store = path.parent / store
    out_dir = Path(raw.get("out_dir", "runs"))
    if not out_dir.is_absolute():
        out_dir = path.parent / out_dir

    if market is MarketKind.STOCK:
        universe = tuple(raw.get("universe", DEFAULT_STOCK_TICKERS))
        questions: tuple[str, ...] = ()
        if not universe:
            raise ConfigError("stock universe must not be empty")
        default_capital = DEFAULT_STOCK_CAPITAL
        annual = raw.get("risk_free_rate_annual", _DEFAULT_ANNUAL_RISK_FREE)
        risk_free = float(annual) / TRADING_DAYS_PER_YEAR
    else:
        universe = ()
        questions = tuple(raw.get("questions", ()))
        default_capital = DEFAULT_PREDICTION_CAPITAL
        if raw.get("risk_free_rate_annual") not in (None, 0, 0.0):
            raise ConfigError("prediction markets have zero risk-free rate")
        risk_free = 0.0
    if "risk_free_rate" in raw:
        risk_free = float(raw["risk_free_rate"])
        if market is MarketKind.PREDICTION and risk_free != 0.0:
            raise ConfigError("prediction markets have zero risk-free rate")

    config = RunConfig(
        market=market,
        mode=mode,
        store=store,
        out_dir=out_dir,
        dates=_dates(raw.get("dates")),
        models=_models(raw.get("models")),
        universe=universe,
        questions=questions,
        initial_capital=float(raw.get("initial_capital", default_capital)),
        risk_free_rate=risk_free,
        memory_horizon=int(raw.get("memory_horizon", DEFAULT_MEMORY_HORIZON)),
        retries=int(raw.get("retries", DEFAULT_RETRIES)),
        rebalance_interval=int(raw.get("rebalance_interval", 1)),
        lookback_days=int(raw.get("lookback_days", HISTORY_LOOKBACK_DAYS)),
        news_window_days=int(raw.get("news_window_days", NEWS_WINDOW_DAYS)),
        renormalize_band=float(raw.get("renormalize_band", RENORMALIZE_BAND)),
        flat_market_threshold=float(raw.get("flat_market_threshold", FLAT_SERIES_THRESHOLD)),
        concurrency=None if raw.get("concurrency") is None else int(raw["concurrency"]),
        discovery_limit=int(raw.get("discovery_limit", DISCOVERY_LIMIT)),
        fetch_policy=_fetch_policy(raw.get("fetch")),
    )
    if not config.initial_capital > 0:
        raise ConfigError("initial_capital must be positive")
    if config.memory_horizon < 1:
        raise ConfigError("memory_horizon must be at least 1")
    if config.retries < 0:
        raise ConfigError("retries must be non-negative")
    if config.rebalance_interval < 1:
        raise ConfigError("rebalance_interval must be at least 1")
    return config
