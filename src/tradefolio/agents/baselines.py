"""Rule-based reference agents.

These exist as measuring sticks and test oracles. They speak the same
response protocol as the models so every decision, scripted or not,
passes through the identical parse-and-validate path.
"""

from __future__ import annotations

from ..accounting import portfolio_value
from ..domain import (
    AllocationVector,
    Holdings,
    MarketSpec,
    MemoryEntry,
    Observation,
    PriceVector,
)
from .harness import AgentDecision
from .parsing import render_allocation_response

__all__ = [
    "equal_weight_allocation",
    "all_cash_allocation",
    "hold_allocation",
    "EqualWeightAgent",
    "AllCashAgent",
    "BuyAndHoldAgent",
]


def equal_weight_allocation(spec: MarketSpec) -> AllocationVector:
    """1/N across the whole universe, cash included.

    Prediction markets forbid holding both sides of a question, so
    there the weight spreads over the yes sides plus cash only.
    """
    held = [p.yes for p in spec.pairs] + [spec.cash] if spec.pairs else spec.assets
    return AllocationVector({a: (1.0 / len(held) if a in held else 0.0) for a in spec.assets})


def all_cash_allocation(spec: MarketSpec) -> AllocationVector:
    return AllocationVector({a: 1.0 if a == spec.cash else 0.0 for a in spec.assets})


def hold_allocation(spec: MarketSpec, holdings: Holdings, prices: PriceVector) -> AllocationVector:
    """Current book expressed as weights at the given prices.

    A zero-value book has no weights; it degrades to all cash.
    """
    value = portfolio_value(holdings, prices.prices)
    if value == 0.0:
        return all_cash_allocation(spec)
    return AllocationVector({a: holdings.units[a] * prices[a] / value for a in spec.assets})


class EqualWeightAgent:
    name = "baseline:equal-weight"

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision:
        raw = render_allocation_response("equal weight across all assets",
                                         equal_weight_allocation(spec))
        return AgentDecision(prompt=None, raw_response=raw)


class AllCashAgent:
    name = "baseline:all-cash"

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision:
        raw = render_allocation_response("stay in cash", all_cash_allocation(spec))
        return AgentDecision(prompt=None, raw_response=raw)


class BuyAndHoldAgent:
    """Freezes the current book: the environment takes the weights at
    execution prices, so the implied trades are exactly zero every step."""

    name = "baseline:buy-and-hold"

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision:
        return AgentDecision.hold("hold current positions")
