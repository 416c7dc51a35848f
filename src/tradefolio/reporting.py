"""Report rendering: metric tables, plot series, lag analysis.

Output is deterministic: the same logs in the same order yield the
same bytes, so reports can be diffed and committed as goldens.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .environment import SessionRecord
from .errors import CorruptLog, MetricsError
from .metrics import MetricsReport, lag_deltas
from .sessionlog import SessionLogHeader, read_session_log

__all__ = [
    "ReportRow",
    "build_report_rows",
    "render_report_table",
    "report_payload",
    "write_report",
    "DeltaTable",
    "build_delta_table",
    "render_delta_table",
    "write_delta_report",
]


@dataclass(frozen=True)
class ReportRow:
    market: str
    model: str
    steps: int
    metrics: MetricsReport
    values: list[float]
    cash_ratio: list[float]
    dates: list[str]


@contextmanager
def _scored(path: Path) -> Iterator[tuple[SessionLogHeader, Sequence[SessionRecord]]]:
    """The header and records of a log with at least one record; a
    ``MetricsError`` raised while scoring them is raised again with the
    log's path in front."""
    header, records = read_session_log(path)
    if not records:
        raise CorruptLog(f"{path}: log has no records")
    try:
        yield header, records
    except MetricsError as exc:
        raise MetricsError(f"{path}: {exc}") from exc


def _row_from_log(path: Path, risk_free_rate: float) -> ReportRow:
    with _scored(path) as (header, records):
        values = [header.initial_capital] + [r.value for r in records]
        rate = risk_free_rate if header.market.value == "stock" else 0.0
        metrics = MetricsReport.from_values(values, rate)
    dates = [records[0].date.isoformat()] + [r.date.isoformat() for r in records]
    return ReportRow(
        market=header.market.value,
        model=header.model,
        steps=len(records),
        metrics=metrics,
        values=values,
        # the share of each step's value held in cash, whose price is 1
        cash_ratio=[1.0] + [r.holdings_after[header.cash] / r.value for r in records],
        dates=dates,
    )


def build_report_rows(paths: Sequence[str | Path], risk_free_rate: float) -> list[ReportRow]:
    return [_row_from_log(Path(p), risk_free_rate) for p in paths]


def _pct(x: float) -> str:
    return f"{x * 100.0:.2f}"


def _sharpe_text(sharpe: float | None) -> str:
    return "undefined" if sharpe is None else f"{sharpe:.4f}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned columns two spaces apart, under a rule of dashes."""
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
    def fmt(parts: list[str]) -> str:
        return "  ".join(p.ljust(w) for p, w in zip(parts, widths)).rstrip()
    return "\n".join([fmt(headers), fmt(["-" * w for w in widths]), *map(fmt, rows)]) + "\n"


def _write(out_dir: str | Path, stem: str, text: str, payload_json: str) -> tuple[Path, Path]:
    """Write ``<stem>.txt`` and ``<stem>.json``; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text_path, json_path = out / f"{stem}.txt", out / f"{stem}.json"
    text_path.write_text(text, encoding="utf-8")
    json_path.write_text(payload_json + "\n", encoding="utf-8")
    return text_path, json_path


def render_report_table(rows: Sequence[ReportRow]) -> str:
    """Human-readable table: CR/MDD/WR as percentages, SR and the
    per-step volatility as raw ratios."""
    return _table(["market", "model", "steps", "CR%", "SR", "MDD%", "WR%", "vol"], [
        [
            row.market,
            row.model,
            str(row.steps),
            _pct(row.metrics.cumulative_return),
            _sharpe_text(row.metrics.sharpe),
            _pct(row.metrics.max_drawdown),
            _pct(row.metrics.win_rate),
            f"{row.metrics.volatility:.6f}",
        ]
        for row in rows
    ])


def report_payload(rows: Sequence[ReportRow]) -> dict:
    """Machine-readable report with plot-ready series."""
    return {
        "format": "tradefolio-report",
        "version": 1,
        "sessions": [
            {
                "market": row.market,
                "model": row.model,
                "steps": row.steps,
                "metrics": asdict(row.metrics),
                "series": {
                    "dates": row.dates,
                    "value": row.values,
                    "cash_ratio": row.cash_ratio,
                },
            }
            for row in rows
        ],
    }


def write_report(rows: Sequence[ReportRow], out_dir: str | Path) -> tuple[Path, Path]:
    """Write report.txt and report.json; returns their paths."""
    return _write(out_dir, "report", render_report_table(rows),
                  json.dumps(report_payload(rows), indent=2, ensure_ascii=False))


@dataclass(frozen=True)
class DeltaTable:
    lags: tuple[int, ...]
    models: tuple[str, ...]
    cells: dict[str, dict[int, float]]  # model -> lag -> delta
    mean: dict[int, float]
    band_low: dict[int, float]  # 25th percentile across models
    band_high: dict[int, float]  # 75th percentile


def _position_arrays(header: SessionLogHeader, records: Sequence[SessionRecord]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The units and price matrices ``lag_deltas`` reads: the all-cash
    starting book at the first record's prices, then each record's
    book at its execution prices, one column per asset in the order of
    the first record's prices. Decoding proved that every map names
    exactly the header's assets, so no key is checked here."""
    records = list(records)
    assets = list(records[0].prices)
    start = [header.initial_capital if a == header.cash else 0.0 for a in assets]
    q = np.array([start] + [[r.holdings_after[a] for a in assets] for r in records])
    p = np.array([[records[0].prices[a] for a in assets]]
                 + [[r.prices_after[a] for a in assets] for r in records])
    return q, p


def build_delta_table(paths: Sequence[str | Path], lags: Sequence[int]) -> DeltaTable:
    """Lagged-execution deltas per session log plus the cross-model
    spread per lag, each log read once into arrays that serve every
    lag."""
    lags = tuple(lags)
    cells: dict[str, dict[int, float]] = {}
    models = []
    for path in paths:
        with _scored(Path(path)) as (header, records):
            row = lag_deltas(*_position_arrays(header, records), lags)
        model = header.model
        suffix = 2
        while model in cells:
            model = f"{header.model}#{suffix}"
            suffix += 1
        cells[model] = row
        models.append(model)
    mean: dict[int, float] = {}
    low: dict[int, float] = {}
    high: dict[int, float] = {}
    for k in lags:
        column = np.array([cells[m][k] for m in models])
        mean[k] = float(column.mean())
        low[k] = float(np.percentile(column, 25))
        high[k] = float(np.percentile(column, 75))
    return DeltaTable(lags, tuple(models), cells, mean, low, high)


def render_delta_table(table: DeltaTable) -> str:
    rows = [
        [m] + [f"{table.cells[m][k] * 100.0:+.4f}" for k in table.lags]
        for m in table.models
    ]
    rows.append(["mean"] + [f"{table.mean[k] * 100.0:+.4f}" for k in table.lags])
    rows.append(["p25"] + [f"{table.band_low[k] * 100.0:+.4f}" for k in table.lags])
    rows.append(["p75"] + [f"{table.band_high[k] * 100.0:+.4f}" for k in table.lags])
    return _table(["model"] + [f"k={k}" for k in table.lags], rows)


def write_delta_report(table: DeltaTable, out_dir: str | Path) -> tuple[Path, Path]:
    """Write delta.txt and delta.json; returns their paths."""
    payload = {
        "format": "tradefolio-delta",
        "version": 1,
        "lags": list(table.lags),
        "models": {
            m: {str(k): table.cells[m][k] for k in table.lags} for m in table.models
        },
        "mean": {str(k): table.mean[k] for k in table.lags},
        "p25": {str(k): table.band_low[k] for k in table.lags},
        "p75": {str(k): table.band_high[k] for k in table.lags},
    }
    return _write(out_dir, "delta", render_delta_table(table), json.dumps(payload, indent=2))
