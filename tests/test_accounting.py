import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradefolio.accounting import (
    RENORMALIZE_BAND,
    portfolio_value,
    rebalance,
    validate_allocation,
)
from tradefolio.domain import AllocationVector, Holdings, MarketSpec
from tradefolio.errors import (
    AccountingError,
    BothSidesSet,
    NegativeWeight,
    SumOutOfBand,
    UnknownAsset,
)

STOCK = MarketSpec.stock(("NVDA", "MSFT"))
PREDICTION = MarketSpec.prediction(("Will it rain?",))


class TestPortfolioValue:
    def test_hand_computed(self):
        holdings = Holdings({"NVDA": 10.0, "MSFT": 0.0, "CASH": 5.0})
        prices = {"NVDA": 2.0, "MSFT": 7.0, "CASH": 1.0}
        assert portfolio_value(holdings, prices) == 10.0 * 2.0 + 5.0

    def test_key_mismatch(self):
        with pytest.raises(AccountingError, match=re.escape(
                "holdings and prices disagree: only in holdings: ['NVDA'],"
                " only in prices: ['MSFT']")):
            portfolio_value(Holdings({"NVDA": 1.0}), {"MSFT": 2.0})


class TestRebalance:
    def test_hand_computed_example(self):
        # 10 NVDA and 5 cash, marked at the new price 2.5: value 30.
        # A 50/50 split buys 15/2.5 = 6 NVDA units and 15 cash.
        holdings = Holdings({"NVDA": 10.0, "CASH": 5.0})
        target = AllocationVector({"NVDA": 0.5, "CASH": 0.5})
        result = rebalance(holdings, {"NVDA": 2.5, "CASH": 1.0}, target)
        assert result.pre_trade_value == 30.0
        assert result.new_holdings.units == {"NVDA": 6.0, "CASH": 15.0}
        # 4 NVDA units sold, 10 cash units bought
        assert result.new_holdings["NVDA"] - holdings["NVDA"] == -4.0
        assert result.new_holdings["CASH"] - holdings["CASH"] == 10.0

    def test_zero_value_book_cannot_buy(self):
        empty = Holdings({"NVDA": 0.0, "CASH": 0.0})
        target = AllocationVector({"NVDA": 1.0, "CASH": 0.0})
        with pytest.raises(AccountingError, match="no capital to allocate to non-cash assets"):
            rebalance(empty, {"NVDA": 2.0, "CASH": 1.0}, target)

    def test_zero_value_book_may_stay_in_cash(self):
        empty = Holdings({"NVDA": 0.0, "CASH": 0.0})
        target = AllocationVector({"NVDA": 0.0, "CASH": 1.0})
        result = rebalance(empty, {"NVDA": 2.0, "CASH": 1.0}, target)
        assert result.pre_trade_value == 0.0
        assert result.new_holdings.units == {"NVDA": 0.0, "CASH": 0.0}


def _portfolio_strategy():
    units = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
    prices = st.floats(min_value=1e-3, max_value=1e5, allow_nan=False)
    n_weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3)
    return st.tuples(
        st.lists(units, min_size=3, max_size=3),
        st.lists(prices, min_size=2, max_size=2),
        n_weights,
    )


class TestRebalanceProperties:
    ASSETS = ("NVDA", "MSFT", "CASH")

    @settings(max_examples=300, deadline=None)
    @given(_portfolio_strategy())
    def test_value_conserved_and_weights_recovered(self, case):
        units, risky_prices, raw_weights = case
        holdings = Holdings(dict(zip(self.ASSETS, units)))
        prices = {"NVDA": risky_prices[0], "MSFT": risky_prices[1], "CASH": 1.0}
        total_w = sum(raw_weights)
        if total_w == 0.0:
            weights = {"NVDA": 0.0, "MSFT": 0.0, "CASH": 1.0}
        else:
            weights = dict(zip(self.ASSETS, (w / total_w for w in raw_weights)))
        target = AllocationVector(weights)
        value = portfolio_value(holdings, prices)
        if value == 0.0 and any(w > 0 for a, w in weights.items() if a != "CASH"):
            with pytest.raises(AccountingError, match="no capital to allocate to non-cash assets"):
                rebalance(holdings, prices, target)
            return
        result = rebalance(holdings, prices, target)
        # Conservation: the rebalance itself moves no value.
        after = portfolio_value(result.new_holdings, prices)
        assert after == pytest.approx(value, rel=1e-9, abs=1e-9)
        # Weight recovery: each position is worth its target share.
        for asset in self.ASSETS:
            position = result.new_holdings[asset] * prices[asset]
            assert position == pytest.approx(value * target[asset], rel=1e-9, abs=1e-9)
        # Long-only in, long-only out.
        assert all(u >= 0 for u in result.new_holdings.units.values())


class TestValidateAllocation:
    def test_passthrough_is_idempotent(self):
        raw = {"NVDA": 0.25, "MSFT": 0.25, "CASH": 0.5}
        once = validate_allocation(raw, STOCK)
        twice = validate_allocation(dict(once.weights), STOCK)
        assert once.weights == twice.weights == raw

    def test_missing_assets_imputed_as_zero_in_spec_order(self):
        out = validate_allocation({"CASH": 1.0}, STOCK)
        assert out.weights == {"NVDA": 0.0, "MSFT": 0.0, "CASH": 1.0}
        assert list(out.weights) == list(STOCK.assets)

    def test_renormalizes_with_the_ratio_rule(self):
        out = validate_allocation({"NVDA": 0.5, "CASH": 0.498}, STOCK)
        total = 0.5 + 0.498
        assert out.weights["NVDA"] == 0.5 / total
        assert out.weights["CASH"] == 0.498 / total
        assert math.fsum(out.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_band_edges(self):
        validate_allocation({"NVDA": 1.0199, "CASH": 0.0}, STOCK)
        validate_allocation({"NVDA": 0.9801, "CASH": 0.0}, STOCK)
        with pytest.raises(SumOutOfBand):
            validate_allocation({"NVDA": 1.0201, "CASH": 0.0}, STOCK)
        with pytest.raises(SumOutOfBand):
            validate_allocation({"NVDA": 0.9799, "CASH": 0.0}, STOCK)

    def test_custom_band(self):
        validate_allocation({"NVDA": 1.04, "CASH": 0.0}, STOCK, band=0.05)
        with pytest.raises(SumOutOfBand):
            validate_allocation({"NVDA": 1.04, "CASH": 0.0}, STOCK, band=0.03)

    def test_unknown_asset_rejected(self):
        with pytest.raises(UnknownAsset, match="TSLA"):
            validate_allocation({"TSLA": 1.0}, STOCK)

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight, match="NVDA"):
            validate_allocation({"NVDA": -0.5, "CASH": 1.5}, STOCK)

    def test_check_order_unknown_before_negative_before_sum(self):
        # All three violations at once: the unknown asset wins.
        with pytest.raises(UnknownAsset):
            validate_allocation({"TSLA": 9.0, "NVDA": -1.0}, STOCK)
        # Negative weight outranks the bad sum.
        with pytest.raises(NegativeWeight):
            validate_allocation({"NVDA": -1.0, "CASH": 9.0}, STOCK)

    def test_non_finite_sum_rejected(self):
        with pytest.raises(SumOutOfBand):
            validate_allocation({"NVDA": float("nan"), "CASH": 1.0}, STOCK)
        with pytest.raises(SumOutOfBand):
            validate_allocation({"NVDA": float("inf"), "CASH": 0.0}, STOCK)

    def test_both_sides_rejected_for_prediction(self):
        yes, no = "Will it rain?_Yes", "Will it rain?_No"
        with pytest.raises(BothSidesSet):
            validate_allocation({yes: 0.5, no: 0.5}, PREDICTION)
        out = validate_allocation({yes: 0.5, "CASH": 0.5}, PREDICTION)
        assert out.weights[no] == 0.0

    def test_both_sides_ok_for_stock_shape(self):
        # The pair check never fires on stock markets.
        out = validate_allocation({"NVDA": 0.5, "MSFT": 0.5}, STOCK)
        assert out.weights["CASH"] == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3))
    def test_validated_output_always_sums_to_one(self, raw_weights):
        total = math.fsum(raw_weights)
        raw = dict(zip(("NVDA", "MSFT", "CASH"), raw_weights))
        if not abs(total - 1.0) <= RENORMALIZE_BAND:
            with pytest.raises(SumOutOfBand):
                validate_allocation(raw, STOCK)
            return
        out = validate_allocation(raw, STOCK)
        assert math.fsum(out.weights.values()) == pytest.approx(1.0, abs=1e-9)
        # Idempotent: validating the result changes nothing.
        again = validate_allocation(dict(out.weights), STOCK)
        assert again.weights == out.weights
