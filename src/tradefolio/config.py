"""Run configuration: one YAML file drives fetch, run, and report.

Every tunable that is a judgment call rather than a law of the system
lives here with its default: memory horizon, risk-free rate,
the renormalization band, starting capital, retry counts, and the
concurrency cap.
"""

from __future__ import annotations

import datetime as dt
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import yaml

from .accounting import RENORMALIZE_BAND
from .agents.clients import ModelClientConfig
from .domain import DEFAULT_STOCK_TICKERS, MarketKind, MarketSpec
from .environment import DEFAULT_MEMORY_HORIZON, DEFAULT_RETRIES
from .errors import ConfigError
from .ingestion.feeds import HISTORY_LOOKBACK_DAYS
from .ingestion.news import NEWS_WINDOW_DAYS
from .ingestion.policy import FetchPolicy
from .ingestion.predictions import DISCOVERY_LIMIT

__all__ = [
    "TRADING_DAYS_PER_YEAR",
    "DEFAULT_STOCK_CAPITAL",
    "DEFAULT_PREDICTION_CAPITAL",
    "RunConfig",
    "load_config",
]

TRADING_DAYS_PER_YEAR = 252

# Starting capital per session, matching the public deployment's books.
DEFAULT_STOCK_CAPITAL = 1000.0
DEFAULT_PREDICTION_CAPITAL = 500.0

_DEFAULT_ANNUAL_RISK_FREE = 0.04


@dataclass(frozen=True)
class RunConfig:
    market: MarketKind
    mode: str  # "replay" | "live"
    store: Path
    out_dir: Path
    dates: tuple[dt.date, ...]
    models: tuple[ModelClientConfig, ...]
    universe: tuple[str, ...]
    questions: tuple[str, ...]
    initial_capital: float
    risk_free_rate: float  # per step
    memory_horizon: int
    retries: int
    rebalance_interval: int
    lookback_days: int
    news_window_days: int
    renormalize_band: float
    concurrency: int | None
    discovery_limit: int
    fetch_policy: FetchPolicy

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


def _number(value: Any, where: str, kind: type = int) -> Any:
    """``value`` as an ``int``, or with ``kind=float`` as a finite ``float``;
    ``ConfigError`` naming ``where`` when it is some other value."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
        expected = "a number" if kind is float else "an integer"
        raise ConfigError(f"{where} must be {expected}, got {value!r}")
    # NaN compares false, and an int this large would overflow float()
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {value!r}")
    return kind(value)


def _at_least(value: Any, least: int, where: str) -> Any:
    """``value``, or ``ConfigError`` naming ``where`` when it is below ``least``."""
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ConfigError(f"{where} must be {bound}")
    return value


def _names(raw: dict[str, Any], key: str, default: tuple[str, ...]) -> tuple[str, ...]:
    names = raw.get(key, default)
    if not isinstance(names, (list, tuple)) or not all(isinstance(n, str) for n in names):
        raise ConfigError(f"{key} must be a list of names, got {names!r}")
    if len(set(names)) < len(names):
        twice = sorted({n for n in names if names.count(n) > 1})
        raise ConfigError(f"{key} lists {', '.join(map(repr, twice))} more than once")
    return tuple(names)


def _dates(raw: Any) -> tuple[dt.date, ...]:
    if isinstance(raw, list):
        dates = tuple(_date(v, "dates[]") for v in raw)
    elif isinstance(raw, dict) and {"start", "end"} <= raw.keys():
        extra = set(raw) - {"start", "end", "weekdays_only"}
        if extra:
            raise ConfigError(f"unknown dates keys: {sorted(extra)}")
        weekdays_only = raw.get("weekdays_only", False)
        if not isinstance(weekdays_only, bool):
            raise ConfigError(f"dates.weekdays_only must be true or false, got {weekdays_only!r}")
        start = _date(raw["start"], "dates.start")
        end = _date(raw["end"], "dates.end")
        if end < start:
            raise ConfigError("dates.end is before dates.start")
        dates = tuple(
            start + dt.timedelta(days=i) for i in range((end - start).days + 1)
        )
        if weekdays_only:
            dates = tuple(d for d in dates if d.weekday() < 5)
    else:
        raise ConfigError("dates must be a list or a {start, end} mapping")
    if len(dates) < 2:
        raise ConfigError("need at least two dates (one decision, one execution)")
    for a, b in zip(dates, dates[1:]):
        if b <= a:
            raise ConfigError(f"dates must be strictly increasing, got {a} then {b}")
    return dates


def _models(raw: Any) -> tuple[ModelClientConfig, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("models must be a non-empty list")
    entries = []
    for item in raw:
        if isinstance(item, str):
            item = {"model": item}
        if not isinstance(item, dict) or not isinstance(item.get("model"), str):
            raise ConfigError(f"model entry needs a 'model' key: {item!r}")
        extra = set(item) - {"model", "temperature", "max_tokens"}
        if extra:
            raise ConfigError(f"unknown model entry keys: {sorted(extra)}")
        settings = dict(item)
        for key, kind, least in (("temperature", float, 0), ("max_tokens", int, 1)):
            if settings.get(key) is not None:
                where = f"{item['model']}: {key}"
                settings[key] = _at_least(_number(settings[key], where, kind), least, where)
        entries.append(ModelClientConfig(**settings))
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
        kwargs["max_retries"] = _number(raw["max_retries"], "fetch.max_retries")
    if "backoff_base" in raw:
        kwargs["backoff_base"] = _number(raw["backoff_base"], "fetch.backoff_base", float)
    if "jitter" in raw:
        jitter = raw["jitter"]
        if not (isinstance(jitter, list) and len(jitter) == 2):
            raise ConfigError("fetch.jitter must be [low, high]")
        kwargs["jitter_range"] = tuple(_number(j, "fetch.jitter", float) for j in jitter)
    if "timeout" in raw:
        kwargs["timeout"] = _number(raw["timeout"], "fetch.timeout", float)
    if "user_agent" in raw:
        kwargs["user_agent"] = str(raw["user_agent"])
    try:
        return FetchPolicy(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"fetch policy: {exc}") from exc


# libyaml's loader when PyYAML was built with it: the same documents, an
# order of magnitude faster to parse.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_TOP_LEVEL_KEYS = {
    "market", "mode", "store", "out_dir", "dates", "models", "universe",
    "questions", "initial_capital", "risk_free_rate_annual", "memory_horizon",
    "retries", "rebalance_interval", "lookback_days", "news_window_days",
    "renormalize_band", "concurrency", "discovery_limit", "fetch",
}


def load_config(path: str | Path) -> RunConfig:
    """Parse and cross-check one YAML run configuration."""
    path = Path(path)
    try:
        raw = yaml.load(path.read_text(encoding="utf-8"), Loader=_LOADER)
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

    def number(key: str, default: Any, kind: type = int, least: int | None = None) -> Any:
        value = _number(raw.get(key, default), key, kind)
        return value if least is None else _at_least(value, least, key)

    universe = _names(raw, "universe", DEFAULT_STOCK_TICKERS)
    questions = _names(raw, "questions", ())
    if market is MarketKind.STOCK:
        questions = ()
        if not universe:
            raise ConfigError("stock universe must not be empty")
        default_capital = DEFAULT_STOCK_CAPITAL
        annual = number("risk_free_rate_annual", _DEFAULT_ANNUAL_RISK_FREE, float)
        risk_free = annual / TRADING_DAYS_PER_YEAR
    else:
        universe = ()
        default_capital = DEFAULT_PREDICTION_CAPITAL
        if raw.get("risk_free_rate_annual") not in (None, 0, 0.0):
            raise ConfigError("prediction markets have zero risk-free rate")
        risk_free = 0.0

    config = RunConfig(
        market=market,
        mode=mode,
        store=store,
        out_dir=out_dir,
        dates=_dates(raw.get("dates")),
        models=_models(raw.get("models")),
        universe=universe,
        questions=questions,
        initial_capital=number("initial_capital", default_capital, float),
        risk_free_rate=risk_free,
        memory_horizon=number("memory_horizon", DEFAULT_MEMORY_HORIZON, least=1),
        retries=number("retries", DEFAULT_RETRIES, least=0),
        rebalance_interval=number("rebalance_interval", 1, least=1),
        lookback_days=number("lookback_days", HISTORY_LOOKBACK_DAYS, least=0),
        news_window_days=number("news_window_days", NEWS_WINDOW_DAYS, least=0),
        renormalize_band=number("renormalize_band", RENORMALIZE_BAND, float),
        concurrency=(None if raw.get("concurrency") is None  # null means automatic
                     else number("concurrency", None, least=1)),
        discovery_limit=number("discovery_limit", DISCOVERY_LIMIT, least=1),
        fetch_policy=_fetch_policy(raw.get("fetch")),
    )
    try:
        config.spec()
    except ValueError as exc:  # only a stock universe can break MarketSpec's rules
        raise ConfigError(f"universe {list(universe)}: {exc}") from exc
    if not config.initial_capital > 0:
        raise ConfigError("initial_capital must be positive")
    if not 0 <= config.renormalize_band < 1:
        raise ConfigError(f"renormalize_band must lie in [0, 1), got {config.renormalize_band!r}")
    return config
