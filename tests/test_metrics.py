import datetime as dt
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefolio.domain import Holdings, PriceVector
from tradefolio.errors import MetricsError
from tradefolio.metrics import MetricsReport, lag_deltas, rolling_k_delta


# Brute-force re-implementations used as oracles. Written as plainly as
# possible, on purpose, with no shared code with the module under test.

def oracle_returns(values):
    return [(values[i] - values[i - 1]) / values[i - 1] for i in range(1, len(values))]


def oracle_cumulative(values):
    return (values[-1] - values[0]) / values[0]


def oracle_max_drawdown(values):
    worst = 0.0
    for i in range(len(values)):
        for j in range(i, len(values)):
            dd = (values[i] - values[j]) / values[i]
            if dd > worst:
                worst = dd
    return worst


def oracle_win_rate(values):
    rets = oracle_returns(values)
    return sum(1 for r in rets if r > 0) / len(rets)


def oracle_volatility(values):
    rets = oracle_returns(values)
    mean = sum(rets) / len(rets)
    return math.sqrt(sum((r - mean) ** 2 for r in rets) / (len(rets) - 1))


def oracle_sharpe(values, rate):
    rets = oracle_returns(values)
    sigma = oracle_volatility(values)
    if sigma == 0.0:
        return None
    return (sum(rets) / len(rets) - rate) / sigma


def metrics(values, rate=0.0):
    return MetricsReport.from_values(values, rate)


class TestReturnSeries:
    def test_simple_returns(self):
        # Returns +10% then -10%: they cancel in the mean, not in the value.
        report = metrics([100.0, 110.0, 99.0])
        assert report.cumulative_return == pytest.approx(-0.01)
        assert report.win_rate == 0.5
        assert report.volatility == pytest.approx(math.sqrt(0.02))
        assert report.sharpe == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_values(self):
        for values in ([], [100.0]):
            with pytest.raises(MetricsError, match="need at least 2 returns"):
                metrics(values)

    def test_rejects_non_positive_values(self):
        for values in ([100.0, 0.0, 100.0], [-1.0, 100.0, 100.0], [100.0, float("nan"), 1.0]):
            with pytest.raises(ValueError, match="must be positive"):
                metrics(values)


class TestScalarMetrics:
    def test_cumulative_return(self):
        assert metrics([100.0, 110.0, 120.0]).cumulative_return == pytest.approx(0.2)
        assert metrics([100.0, 80.0, 100.0]).cumulative_return == 0.0

    def test_cumulative_return_errors(self):
        with pytest.raises(MetricsError, match="need at least 2 returns, got 0"):
            metrics([100.0])
        with pytest.raises(ValueError):
            metrics([0.0, 100.0, 100.0])

    def test_max_drawdown_known_case(self):
        # Peak 120, trough 90: 25% down from the peak.
        assert metrics([100.0, 120.0, 90.0, 95.0, 130.0]).max_drawdown == pytest.approx(0.25)

    def test_max_drawdown_monotone_rise_is_zero(self):
        assert metrics([1.0, 2.0, 3.0]).max_drawdown == 0.0

    def test_max_drawdown_errors(self):
        with pytest.raises(MetricsError, match="need at least 2 returns, got 0"):
            metrics([])
        with pytest.raises(ValueError):
            metrics([100.0, -1.0, 100.0])

    def test_win_rate_counts_strict_gains(self):
        # Returns: +10%, flat, +3/105. Flat steps are not wins.
        assert metrics([100.0, 110.0, 110.0, 113.0]).win_rate == pytest.approx(2 / 3)
        assert metrics([100.0, 100.0, 90.0]).win_rate == 0.0

    def test_volatility_hand_case(self):
        # Returns +1% and -1%.
        report = metrics([100.0, 101.0, 99.99])
        assert report.volatility == pytest.approx(math.sqrt(0.0002), abs=1e-15)

    def test_volatility_needs_two_returns(self):
        with pytest.raises(MetricsError, match="need at least 2 returns, got 1"):
            metrics([100.0, 101.0])

    def test_sharpe_undefined_at_zero_volatility(self):
        assert metrics([100.0, 100.0, 100.0]).sharpe is None
        # Constant nonzero return also has zero volatility.
        assert metrics([1.0, 2.0, 4.0, 8.0]).sharpe is None

    def test_sharpe_uses_excess_return(self):
        # Returns +2% and 0: mean 0.01, excess 0.0, so the ratio is exactly zero.
        assert metrics([100.0, 102.0, 102.0], rate=0.01).sharpe == pytest.approx(0.0, abs=1e-15)


class TestAgainstBruteForce:
    def test_random_series_match_oracles(self):
        rng = random.Random(20250303)
        for trial in range(200):
            n = rng.randint(5, 60)
            values = [1000.0]
            for _ in range(n - 1):
                values.append(values[-1] * (1.0 + rng.uniform(-0.05, 0.05)))
            rate = rng.choice([0.0, 0.0001, 0.0004])
            report = metrics(values, rate)
            assert report.cumulative_return == pytest.approx(oracle_cumulative(values), abs=1e-9)
            assert report.max_drawdown == pytest.approx(oracle_max_drawdown(values), abs=1e-9)
            assert report.win_rate == pytest.approx(oracle_win_rate(values), abs=1e-9)
            assert report.volatility == pytest.approx(oracle_volatility(values), abs=1e-9)
            expected_sharpe = oracle_sharpe(values, rate)
            assert expected_sharpe is not None
            assert report.sharpe == pytest.approx(expected_sharpe, abs=1e-9)


def _two_asset_world():
    """Six dates, deterministic hand-written prices, varying holdings."""
    dates = [dt.date(2025, 1, 1) + dt.timedelta(days=i) for i in range(6)]
    prices = [
        {"X": 10.0, "CASH": 1.0},
        {"X": 11.0, "CASH": 1.0},
        {"X": 9.0, "CASH": 1.0},
        {"X": 12.0, "CASH": 1.0},
        {"X": 12.5, "CASH": 1.0},
        {"X": 11.5, "CASH": 1.0},
    ]
    units = [
        {"X": 0.0, "CASH": 100.0},
        {"X": 5.0, "CASH": 45.0},
        {"X": 2.0, "CASH": 70.0},
        {"X": 7.0, "CASH": 10.0},
        {"X": 4.0, "CASH": 50.0},
        {"X": 4.0, "CASH": 50.0},
    ]
    holdings = [Holdings(u) for u in units]
    vectors = [PriceVector(d, p) for d, p in zip(dates, prices)]
    return holdings, vectors, prices, units


def oracle_lagged_growth(units, prices, k, lag):
    """Compound the step returns the lag-shifted book would have earned
    over the shared window."""
    steps = len(units) - 1
    growth = 1.0
    for t in range(k, steps - k):
        held = units[t - lag]
        base = sum(held[a] * prices[t][a] for a in held)
        gain = sum(held[a] * (prices[t + 1][a] - prices[t][a]) for a in held)
        growth *= 1.0 + gain / base
    return growth - 1.0


class TestRollingKDelta:
    def test_zero_lag_is_identically_zero(self):
        holdings, vectors, _, _ = _two_asset_world()
        assert rolling_k_delta(holdings, vectors, 0) == 0.0

    def test_matches_term_by_term_oracle(self):
        holdings, vectors, prices, units = _two_asset_world()
        for k in (1, 2):
            expected = (oracle_lagged_growth(units, prices, k, k)
                        - oracle_lagged_growth(units, prices, k, 0))
            assert rolling_k_delta(holdings, vectors, k) == pytest.approx(expected, abs=1e-12)

    def test_lag_too_large(self):
        holdings, vectors, _, _ = _two_asset_world()
        # 5 steps allow k at most 2.
        rolling_k_delta(holdings, vectors, 2)
        with pytest.raises(MetricsError, match="lag 3 leaves no window in 5 steps"):
            rolling_k_delta(holdings, vectors, 3)

    def test_negative_lag_rejected(self):
        holdings, vectors, _, _ = _two_asset_world()
        with pytest.raises(ValueError):
            rolling_k_delta(holdings, vectors, -1)

    def test_misaligned_histories(self):
        holdings, vectors, _, _ = _two_asset_world()
        with pytest.raises(MetricsError, match="5 holdings vs 6 price vectors"):
            rolling_k_delta(holdings[:-1], vectors, 1)
        bad = [PriceVector(v.date, {"Y": 1.0, "CASH": 1.0}) for v in vectors]
        with pytest.raises(MetricsError, match="asset keys differ across the histories"):
            rolling_k_delta(holdings, bad, 1)
        with pytest.raises(MetricsError, match="empty histories"):
            rolling_k_delta([], [], 1)

    def test_a_worthless_position_is_a_metrics_error(self):
        holdings, vectors, _, _ = _two_asset_world()
        holdings[2] = Holdings({"X": 0.0, "CASH": 0.0})
        # the lag-1 replay holds step 2's book over step 3
        with pytest.raises(MetricsError, match="zero-value position at step 3"):
            rolling_k_delta(holdings, vectors, 1)

    def test_constant_holdings_have_zero_delta(self):
        # A book that never trades earns the same return lagged or not.
        dates = [dt.date(2025, 2, 1) + dt.timedelta(days=i) for i in range(6)]
        prices = [{"X": 10.0 + i, "CASH": 1.0} for i in range(6)]
        vectors = [PriceVector(d, p) for d, p in zip(dates, prices)]
        holdings = [Holdings({"X": 3.0, "CASH": 7.0})] * 6
        for k in (1, 2):
            assert rolling_k_delta(holdings, vectors, k) == pytest.approx(0.0, abs=1e-12)

    def test_random_worlds_match_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(4, 20)
            units = [
                {"X": rng.uniform(0.0, 50.0), "Y": rng.uniform(0.0, 50.0),
                 "CASH": rng.uniform(1.0, 100.0)}
                for _ in range(n)
            ]
            prices = [
                {"X": rng.uniform(1.0, 100.0), "Y": rng.uniform(1.0, 100.0), "CASH": 1.0}
                for _ in range(n)
            ]
            holdings = [Holdings(u) for u in units]
            vectors = [
                PriceVector(dt.date(2025, 1, 1) + dt.timedelta(days=i), p)
                for i, p in enumerate(prices)
            ]
            steps = n - 1
            max_k = (steps - 1) // 2
            for k in range(0, max_k + 1):
                expected = (oracle_lagged_growth(units, prices, k, k)
                            - oracle_lagged_growth(units, prices, k, 0))
                assert rolling_k_delta(holdings, vectors, k) == pytest.approx(expected, abs=1e-9)


_price = st.floats(0.01, 500.0) | st.integers(1, 50)
_units = st.floats(0.0, 100.0) | st.just(0.0)


@st.composite
def _histories(draw):
    """Aligned books and prices over two or three assets, as dicts; a
    book may be worth nothing."""
    assets = draw(st.sampled_from([("X", "CASH"), ("X", "Y", "CASH")]))
    n = draw(st.integers(1, 10))
    worthless = {a: 0.0 for a in assets}
    books = draw(st.lists(st.just(worthless) | st.fixed_dictionaries({a: _units for a in assets}),
                          min_size=n, max_size=n))
    prices = draw(st.lists(st.fixed_dictionaries({a: _price for a in assets}),
                           min_size=n, max_size=n))
    return books, prices


def _outcome(fn):
    """What ``fn`` returns, or the class and message of what it raised."""
    try:
        return fn()
    except (ValueError, MetricsError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(histories=_histories(), lags=st.lists(st.integers(-1, 6), unique=True, max_size=5))
def test_lag_deltas_equal_rolling_k_delta_lag_by_lag(histories, lags):
    """The engine's delta for each lag is ``rolling_k_delta``'s exactly,
    and where one raises the other raises the same message: a bad lag's
    first, in the order given, else the first lag's that fails."""
    books, prices = histories
    assets = list(prices[0])  # the column order ``rolling_k_delta`` sums in
    holdings = [Holdings(b) for b in books]
    vectors = [PriceVector(dt.date(2025, 1, 1) + dt.timedelta(days=i), p)
               for i, p in enumerate(prices)]
    q = np.array([[b[a] for a in assets] for b in books])
    p = np.array([[row[a] for a in assets] for row in prices])
    singles = {k: _outcome(lambda k=k: rolling_k_delta(holdings, vectors, k)) for k in lags}
    for k in lags:
        assert _outcome(lambda k=k: lag_deltas(q, p, [k])) == (
            {k: singles[k]} if isinstance(singles[k], float) else singles[k])
    failures = [singles[k] for k in lags if isinstance(singles[k], tuple)]
    bad_lags = [f for f in failures if "leaves no window" in f[1] or f[0] is ValueError]
    expected = (bad_lags or failures)[0] if failures else singles
    got = _outcome(lambda: lag_deltas(q, p, lags))
    assert got == expected
    if not failures:
        assert list(got) == lags
