"""Portfolio sessions over stock and prediction markets, driven by
language-model agents or scripted baselines, with replayable logs."""

from .accounting import rebalance, validate_allocation
from .domain import (
    CASH,
    AllocationVector,
    Holdings,
    MarketKind,
    MarketSpec,
    Observation,
    PricePoint,
    PriceVector,
)
from .environment import SessionState, SessionStatus, run_episode
from .metrics import MetricsReport, rolling_k_delta

__version__ = "0.1.0"

__all__ = [
    "CASH",
    "AllocationVector",
    "Holdings",
    "MarketKind",
    "MarketSpec",
    "MetricsReport",
    "Observation",
    "PricePoint",
    "PriceVector",
    "SessionState",
    "SessionStatus",
    "rebalance",
    "rolling_k_delta",
    "run_episode",
    "validate_allocation",
    "__version__",
]
