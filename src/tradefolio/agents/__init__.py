"""Agent-side plumbing: features, memory, prompts, parsing, clients."""

from .baselines import (
    AllCashAgent,
    BuyAndHoldAgent,
    EqualWeightAgent,
    ScriptedAgent,
    all_cash_allocation,
    equal_weight_allocation,
    hold_allocation,
)
from .clients import (
    DEFAULT_PROVIDER,
    PROVIDER_ROUTES,
    HttpChatClient,
    ModelClientConfig,
    ProviderRoute,
    ScriptedClient,
    resolve_provider,
)
from .features import AssetSummary, FeatureBundle, PriceChange, extract_features, format_change
from .harness import AgentDecision, LLMAgent
from .memory import MemoryEntry, MemoryWindow, observation_digest
from .parsing import extract_json_object, parse_allocation_response, render_allocation_response
from .prompts import build_context_prompt, build_decision_prompt

__all__ = [
    "AgentDecision",
    "AllCashAgent",
    "AssetSummary",
    "BuyAndHoldAgent",
    "DEFAULT_PROVIDER",
    "EqualWeightAgent",
    "FeatureBundle",
    "HttpChatClient",
    "LLMAgent",
    "MemoryEntry",
    "MemoryWindow",
    "ModelClientConfig",
    "PriceChange",
    "PROVIDER_ROUTES",
    "ProviderRoute",
    "ScriptedAgent",
    "ScriptedClient",
    "all_cash_allocation",
    "build_context_prompt",
    "build_decision_prompt",
    "equal_weight_allocation",
    "extract_features",
    "extract_json_object",
    "format_change",
    "hold_allocation",
    "observation_digest",
    "parse_allocation_response",
    "render_allocation_response",
    "resolve_provider",
]
