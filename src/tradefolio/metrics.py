"""Performance metrics over portfolio value series.

Conventions, applied uniformly:

* A value series of n points yields T = n - 1 simple returns
  r_t = (v_t - v_{t-1}) / v_{t-1}.
* Nothing is annualized; the Sharpe ratio is per rebalancing step and
  its risk-free rate must be quoted per step as well.
* Cumulative return is (v_T - v_0) / v_0, maximum drawdown the largest
  fall from a running peak as a fraction of that peak, and win rate the
  share of strictly positive returns.
* Volatility is the sample standard deviation (denominator T - 1).
* Zero volatility makes the Sharpe ratio undefined; it is reported as
  None, never coerced to 0 or infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .domain import Holdings, PriceVector
from .errors import MetricsError

__all__ = ["MetricsReport", "rolling_k_delta"]


@dataclass(frozen=True)
class MetricsReport:
    """The five headline metrics for one session.

    All fields are dimensionless ratios; ``sharpe`` is None when the
    return series has zero volatility.
    """

    cumulative_return: float
    sharpe: float | None
    max_drawdown: float
    win_rate: float
    volatility: float

    @classmethod
    def from_values(cls, values: Sequence[float], risk_free_rate: float = 0.0) -> "MetricsReport":
        """All five metrics of a value series of at least three positive
        points; fewer raise ``MetricsError``, a point that is not
        positive ``ValueError``."""
        v = np.asarray(values, dtype=float)
        if len(v) < 3:
            raise MetricsError(f"need at least 2 returns, got {max(len(v) - 1, 0)}")
        if not (v > 0).all():
            i = int(np.argmin(v > 0))
            raise ValueError(f"portfolio values must be positive, got {v[i]} at index {i}")
        returns = np.diff(v) / v[:-1]
        sigma = float(np.std(returns, ddof=1))
        peaks = np.maximum.accumulate(v)
        return cls(
            cumulative_return=float((v[-1] - v[0]) / v[0]),
            sharpe=None if sigma == 0.0 else (float(np.mean(returns)) - risk_free_rate) / sigma,
            max_drawdown=float(((peaks - v) / peaks).max()),
            win_rate=int(np.count_nonzero(returns > 0)) / len(returns),
            volatility=sigma,
        )


def _history_matrices(
    holdings_history: Sequence[Holdings],
    prices_history: Sequence[PriceVector],
) -> tuple[list[str], np.ndarray, np.ndarray]:
    if len(holdings_history) != len(prices_history):
        raise MetricsError(
            f"{len(holdings_history)} holdings vs {len(prices_history)} price vectors"
        )
    if len(holdings_history) == 0:
        raise MetricsError("empty histories")
    assets = list(prices_history[0].prices)
    key_set = set(assets)
    for h, p in zip(holdings_history, prices_history):
        if set(h.units) != key_set or set(p.prices) != key_set:
            raise MetricsError("asset keys differ across the histories")
    q = np.array([[h.units[a] for a in assets] for h in holdings_history])
    p = np.array([[pv.prices[a] for a in assets] for pv in prices_history])
    return assets, q, p


def rolling_k_delta(
    holdings_history: Sequence[Holdings],
    prices_history: Sequence[PriceVector],
    k: int,
) -> float:
    """Compounded cost (or gain) of acting k steps late.

    Replays the session with every position lagged by k steps: the
    return earned over step t -> t+1 becomes the one the portfolio held
    at t-k would have earned. Both the lagged and the unlagged variants
    are compounded over the same window t in [k, T-k-1] (T = number of
    steps), and the delta is lagged minus unlagged. k = 0 is identically
    zero. A window that would be empty, histories that disagree in
    length or asset keys, and a position worth nothing at a step of the
    window raise ``MetricsError``.
    """
    if k < 0:
        raise ValueError(f"lag must be non-negative, got {k}")
    _, q, p = _history_matrices(holdings_history, prices_history)
    steps = len(q) - 1
    if 2 * k + 1 > steps:
        raise MetricsError(f"lag {k} leaves no window in {steps} steps")

    def compounded(lag: int) -> float:
        growth = 1.0
        for t in range(k, steps - k):
            held = q[t - lag]
            base = float(held @ p[t])
            if base == 0.0:
                raise MetricsError(f"zero-value position at step {t}")
            step_return = float(held @ (p[t + 1] - p[t])) / base
            growth *= 1.0 + step_return
        return growth - 1.0

    return compounded(k) - compounded(0)
