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

__all__ = ["MetricsReport", "lag_deltas", "rolling_k_delta"]


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


def lag_deltas(q: np.ndarray, p: np.ndarray, lags: Sequence[int]) -> dict[int, float]:
    """Compounded cost (or gain) of acting k steps late, for each lag k.

    Row t of ``q`` is the book held at the t-th session date and row t
    of ``p`` the prices there, one column per asset. Replaying the
    session with every position lagged by k steps, the return earned
    over step t -> t+1 becomes the one the book held at t-k would have
    earned. Both the lagged and the unlagged variants are compounded
    over the same window t in [k, T-k-1] (T = number of steps), and the
    delta is lagged minus unlagged; k = 0 is identically zero.

    Every lag is checked first, in the order given: a negative one
    raises ``ValueError``, one whose window would be empty
    ``MetricsError``. Then each lag's lagged returns are compounded,
    then its unlagged ones, which all lags share and which are computed
    when first needed; a position worth nothing at a step of the window
    raises ``MetricsError`` naming the first such step in that order.
    """
    steps = len(q) - 1
    for k in lags:
        if k < 0:
            raise ValueError(f"lag must be non-negative, got {k}")
        if 2 * k + 1 > steps:
            raise MetricsError(f"lag {k} leaves no window in {steps} steps")
    # row t of the differences is p[t + 1] - p[t], the same floats
    books, prices, moves = list(q), list(p), list(np.diff(p, axis=0))

    def step_return(held: np.ndarray, t: int) -> float:
        base = float(held @ prices[t])
        if base == 0.0:
            raise MetricsError(f"zero-value position at step {t}")
        return float(held @ moves[t]) / base

    unlagged: list[float | None] = [None] * steps
    deltas: dict[int, float] = {}
    for k in lags:
        lagged = growth = 1.0
        for t in range(k, steps - k):
            lagged *= 1.0 + step_return(books[t - k], t)
        for t in range(k, steps - k):
            r = unlagged[t]
            if r is None:
                r = unlagged[t] = step_return(books[t], t)
            growth *= 1.0 + r
        deltas[k] = (lagged - 1.0) - (growth - 1.0)
    return deltas


def rolling_k_delta(
    holdings_history: Sequence[Holdings],
    prices_history: Sequence[PriceVector],
    k: int,
) -> float:
    """Compounded cost (or gain) of acting k steps late, as ``lag_deltas``
    computes it, over aligned histories of books and price vectors. A
    negative lag raises ``ValueError``; histories that disagree in length
    or asset keys raise ``MetricsError``, as do the faults ``lag_deltas``
    names. ``delta`` does not call this: it reads each log into arrays
    and calls ``lag_deltas`` once for all lags. Acceptance check 5 and
    perfbench's ``metrics.rolling_k_delta_ms`` call it on the lists that
    ``position_histories`` gives.
    """
    if k < 0:
        raise ValueError(f"lag must be non-negative, got {k}")
    _, q, p = _history_matrices(holdings_history, prices_history)
    return lag_deltas(q, p, [k])[k]
