"""Rule-based reference agents.

These exist as measuring sticks and test oracles. They speak the same
response protocol as the models so every distinct answer, scripted or
not, passes through the identical parse-and-validate path. Equal weight
and all cash depend on the market alone, so each renders its answer
once per ``MarketSpec``, and a session validates a repeated answer
text once (see ``run_episode``).
"""

from __future__ import annotations

from typing import Callable

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


class _ConstantAgent:
    """An agent whose answer depends on the market alone: the decision is
    rendered on the first step under a spec, and that same object is
    handed back on every later step under an equal one."""

    name: str
    reasoning: str
    allocation: Callable[[MarketSpec], AllocationVector]
    # the last spec asked about and its decision; a class default, so a
    # subclass needs no __init__ of its own
    _answer: tuple[MarketSpec, AgentDecision] | None = None

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision:
        answer = self._answer
        if answer is None or answer[0] != spec:
            raw = render_allocation_response(self.reasoning, self.allocation(spec))
            answer = self._answer = (spec, AgentDecision(prompt=None, raw_response=raw))
        return answer[1]


class EqualWeightAgent(_ConstantAgent):
    name = "baseline:equal-weight"
    reasoning = "equal weight across all assets"
    allocation = staticmethod(equal_weight_allocation)


class AllCashAgent(_ConstantAgent):
    name = "baseline:all-cash"
    reasoning = "stay in cash"
    allocation = staticmethod(all_cash_allocation)


class BuyAndHoldAgent:
    """Freezes the current book: the environment takes the weights at
    execution prices, so the implied trades are exactly zero every step."""

    name = "baseline:buy-and-hold"

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision:
        return AgentDecision.hold("hold current positions")
