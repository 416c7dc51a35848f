"""Agent-side plumbing: memory, prompts, parsing, clients."""

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
from .harness import AgentDecision, LLMAgent
from .memory import MemoryEntry, MemoryWindow
from .parsing import extract_json_object, parse_allocation_response, render_allocation_response
from .prompts import build_context_prompt, build_decision_prompt

__all__ = [
    "AgentDecision",
    "AllCashAgent",
    "BuyAndHoldAgent",
    "DEFAULT_PROVIDER",
    "EqualWeightAgent",
    "HttpChatClient",
    "LLMAgent",
    "MemoryEntry",
    "MemoryWindow",
    "ModelClientConfig",
    "PROVIDER_ROUTES",
    "ProviderRoute",
    "ScriptedAgent",
    "ScriptedClient",
    "all_cash_allocation",
    "build_context_prompt",
    "build_decision_prompt",
    "equal_weight_allocation",
    "extract_json_object",
    "hold_allocation",
    "parse_allocation_response",
    "render_allocation_response",
    "resolve_provider",
]
