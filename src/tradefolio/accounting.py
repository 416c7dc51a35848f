"""Portfolio accounting: valuation, rebalancing, allocation validation.

The rebalance rule is deliberately frictionless: the portfolio is marked
to the new prices first, and that pre-trade value is then redistributed
across assets exactly in the target proportions. Value is conserved
through every rebalance; only price moves change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .domain import AllocationVector, Holdings, MarketSpec
from .errors import AccountingError, BothSidesSet, NegativeWeight, SumOutOfBand, UnknownAsset

__all__ = [
    "RENORMALIZE_BAND",
    "RebalanceResult",
    "portfolio_value",
    "rebalance",
    "validate_allocation",
]

# Allocations whose sum misses 1.0 by more than this are rejected rather
# than repaired.
RENORMALIZE_BAND = 0.02

# Sums closer to 1.0 than this are left untouched, which makes
# validation idempotent at float precision.
_EXACT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class RebalanceResult:
    """Outcome of one rebalance: mark-to-market value and new book."""

    pre_trade_value: float
    new_holdings: Holdings


def _require_same_keys(label_a: str, a: Mapping[str, float],
                       label_b: str, b: Mapping[str, float]) -> None:
    if a.keys() != b.keys():
        only_a = sorted(a.keys() - b.keys())
        only_b = sorted(b.keys() - a.keys())
        raise AccountingError(
            f"{label_a} and {label_b} disagree: "
            f"only in {label_a}: {only_a}, only in {label_b}: {only_b}"
        )


def portfolio_value(holdings: Holdings, prices: Mapping[str, float]) -> float:
    """Mark the book to the given prices: sum of units times price."""
    _require_same_keys("holdings", holdings.units, "prices", prices)
    return sum(holdings.units[a] * prices[a] for a in holdings.units)


def rebalance(
    holdings: Holdings,
    new_prices: Mapping[str, float],
    target: AllocationVector,
    cash: str = "CASH",
) -> RebalanceResult:
    """Re-divide the marked-to-market book in the target proportions.

    The new unit count for each asset is ``value * weight / price``.
    A zero-value book can only be "rebalanced" to pure cash; asking it
    for risky exposure, or giving holdings, prices and target that name
    different assets, raises ``AccountingError``.
    """
    value = portfolio_value(holdings, new_prices)  # checks holdings against prices
    _require_same_keys("target", target.weights, "prices", new_prices)
    if value == 0.0 and any(w > 0 for a, w in target.weights.items() if a != cash):
        raise AccountingError("no capital to allocate to non-cash assets")
    new_units = {a: value * target.weights[a] / new_prices[a] for a in holdings.units}
    return RebalanceResult(value, Holdings(new_units))


def validate_allocation(
    raw: Mapping[str, float],
    spec: MarketSpec,
    band: float = RENORMALIZE_BAND,
) -> AllocationVector:
    """Turn raw model output into a canonical allocation.

    Checks, in order: no unknown assets, no negative weights, at most
    one side per prediction pair, sum within ``band`` of 1.0 and above
    0. Missing assets are imputed as zero and the result is renormalized
    to sum to one exactly (at float precision). Already-valid
    allocations pass through unchanged, so validation is idempotent.
    """
    unknown = sorted(set(raw) - set(spec.assets))
    if unknown:
        raise UnknownAsset(f"not in universe: {unknown}")
    negative = sorted(a for a, w in raw.items() if w < 0)
    if negative:
        raise NegativeWeight(f"negative weights for: {negative}")
    for pair in spec.pairs:
        if raw.get(pair.yes, 0.0) > 0 and raw.get(pair.no, 0.0) > 0:
            raise BothSidesSet(f"both sides of {pair.question!r} carry weight")
    total = math.fsum(raw.values())
    if not math.isfinite(total) or abs(total - 1.0) > band:
        raise SumOutOfBand(f"weights sum to {total!r}, outside 1 ± {band}")
    if not total > 0:  # inside a band of 1 or more, with no proportions to keep
        raise SumOutOfBand(f"weights sum to {total!r}, which is not positive")
    weights = {a: float(raw.get(a, 0.0)) for a in spec.assets}
    if abs(total - 1.0) > _EXACT_SUM_TOL:
        weights = {a: w / total for a, w in weights.items()}
    return AllocationVector(weights)
