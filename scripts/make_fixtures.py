#!/usr/bin/env python3
"""Regenerate the committed replay fixtures.

Run from the repository root:

    python3 scripts/make_fixtures.py

The stores are seeded walks, so rerunning this script reproduces the
exact same files. Tests and the README demo replay against these.
"""

from __future__ import annotations

import datetime as dt
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tradefolio.synthetic import seed_prediction_store, seed_stock_store

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

STOCK_TICKERS = ["AAPL", "MSFT", "NVDA"]
STOCK_START = dt.date(2025, 3, 3)
STOCK_DAYS = 51  # 50 decision steps

QUESTIONS = [
    "Will the synthetic index close above its opening level?",
    "Will the sample reserve be drawn down this quarter?",
]
PREDICTION_START = dt.date(2025, 3, 3)
PREDICTION_DAYS = 13  # 12 decision steps

STOCK_CONFIG = """\
market: stock
mode: replay
store: stock-50d
out_dir: ../runs/stock-demo
dates:
  start: {start}
  end: {end}
  weekdays_only: true
universe: [{universe}]
models:
  - baseline:equal-weight
  - baseline:buy-and-hold
  - baseline:all-cash
"""

PREDICTION_CONFIG = """\
market: prediction
mode: replay
store: prediction-12d
out_dir: ../runs/prediction-demo
dates:
  start: {start}
  end: {end}
  weekdays_only: false
questions:
{questions}models:
  - baseline:equal-weight
  - baseline:all-cash
"""


def main() -> None:
    for name in ("stock-50d", "prediction-12d"):
        shutil.rmtree(FIXTURES / name, ignore_errors=True)
    FIXTURES.mkdir(exist_ok=True)

    stock_dates = seed_stock_store(str(FIXTURES / "stock-50d"), STOCK_TICKERS,
                                   STOCK_START, STOCK_DAYS)
    prediction_dates = seed_prediction_store(str(FIXTURES / "prediction-12d"), QUESTIONS,
                                             PREDICTION_START, PREDICTION_DAYS)

    (FIXTURES / "stock-replay.yaml").write_text(
        STOCK_CONFIG.format(start=stock_dates[0], end=stock_dates[-1],
                            universe=", ".join(STOCK_TICKERS)), encoding="utf-8")
    (FIXTURES / "prediction-replay.yaml").write_text(
        PREDICTION_CONFIG.format(start=prediction_dates[0], end=prediction_dates[-1],
                                 questions="".join(f"  - {json.dumps(q)}\n" for q in QUESTIONS)),
        encoding="utf-8")

    print(f"stock-50d: {len(stock_dates)} dates {stock_dates[0]} .. {stock_dates[-1]}")
    print(f"prediction-12d: {len(prediction_dates)} dates "
          f"{prediction_dates[0]} .. {prediction_dates[-1]}")


if __name__ == "__main__":
    main()
