import datetime as dt
import math

import pytest

from tradefolio.domain import (
    CASH,
    DEFAULT_STOCK_TICKERS,
    AllocationVector,
    Holdings,
    MarketKind,
    MarketSpec,
    PredictionPair,
    PricePoint,
    PriceVector,
)


class TestMarketSpec:
    def test_default_stock_universe_order(self):
        spec = MarketSpec.stock()
        assert spec.assets == (
            "AAPL", "MSFT", "NVDA", "JPM", "V", "JNJ", "UNH", "PG",
            "KO", "XOM", "CAT", "WMT", "META", "TSLA", "AMZN", "CASH",
        )
        assert spec.assets[:-1] == DEFAULT_STOCK_TICKERS
        assert spec.cash == CASH
        assert spec.kind is MarketKind.STOCK

    def test_stock_spec_has_no_pairs(self):
        spec = MarketSpec.stock(("AAPL",))
        assert spec.pairs == ()

    def test_prediction_universe_shape(self):
        spec = MarketSpec.prediction(("Will it rain?", "Will it snow?"))
        assert spec.assets == (
            "Will it rain?_Yes", "Will it rain?_No",
            "Will it snow?_Yes", "Will it snow?_No",
            "CASH",
        )
        assert len(spec.assets) == 2 * 2 + 1
        assert spec.questions == ("Will it rain?", "Will it snow?")
        pair = spec.pairs[1]
        assert (pair.question, pair.yes, pair.no) == (
            "Will it snow?", "Will it snow?_Yes", "Will it snow?_No")

    def test_news_tags(self):
        assert MarketSpec.stock(("AAPL", "MSFT")).news_tags == ("AAPL", "MSFT")
        spec = MarketSpec.prediction(("Will it rain?", "Will it snow?"))
        assert spec.news_tags == ("Will it rain?", "Will it snow?")

    def test_duplicate_assets_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            MarketSpec(MarketKind.STOCK, ("AAPL", "AAPL", "CASH"))

    def test_cash_must_be_in_universe(self):
        with pytest.raises(ValueError, match="cash"):
            MarketSpec(MarketKind.STOCK, ("AAPL", "MSFT"))

    def test_a_market_needs_an_asset(self):
        with pytest.raises(ValueError, match="at least one asset"):
            MarketSpec(MarketKind.STOCK, ())

    def test_a_stock_market_has_no_pairs(self):
        pair = PredictionPair("Q?", "Q?_Yes", "Q?_No")
        with pytest.raises(ValueError, match="stock markets have no outcome pairs"):
            MarketSpec(MarketKind.STOCK, ("AAPL", "CASH"), pairs=(pair,))

    def test_prediction_rejects_unpaired_assets(self):
        with pytest.raises(ValueError, match="pair"):
            MarketSpec(MarketKind.PREDICTION, ("Q?_Yes", "CASH"), pairs=())


class TestValueTypes:
    def test_price_point_requires_positive_price(self):
        with pytest.raises(ValueError):
            PricePoint(dt.date(2025, 1, 2), 0.0)
        with pytest.raises(ValueError):
            PricePoint(dt.date(2025, 1, 2), -3.0)
        for price in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                PricePoint(dt.date(2025, 1, 2), price)

    def test_price_vector_rejects_non_positive(self):
        for price in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="AAPL"):
                PriceVector(dt.date(2025, 1, 2), {"AAPL": price, "CASH": 1.0})

    def test_price_vector_copies_input(self):
        raw = {"AAPL": 10.0}
        vec = PriceVector(dt.date(2025, 1, 2), raw)
        raw["AAPL"] = 99.0
        assert vec["AAPL"] == 10.0

    def test_holdings_are_long_only(self):
        with pytest.raises(ValueError, match="negative"):
            Holdings({"AAPL": -1.0})
        assert Holdings({"AAPL": 0.0})["AAPL"] == 0.0

    def test_allocation_vector_sum_tolerance(self):
        AllocationVector({"AAPL": 0.5, "CASH": 0.5})
        with pytest.raises(ValueError, match="sum"):
            AllocationVector({"AAPL": 0.5, "CASH": 0.499})
        with pytest.raises(ValueError, match="negative"):
            AllocationVector({"AAPL": -0.5, "CASH": 1.5})
