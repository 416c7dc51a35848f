"""Agent interface and the LLM-backed implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..domain import MarketSpec, Observation
from .clients import ChatClient, ModelClientConfig
from .memory import MemoryWindow
from .prompts import build_context_prompt, build_decision_prompt

__all__ = ["AgentDecision", "Agent", "LLMAgent"]


@dataclass(frozen=True)
class AgentDecision:
    """What an agent hands back: the prompt it saw (None for scripted
    agents that see none) and its raw response text.

    A decision that ``holds`` asks the environment to keep the current
    book at execution prices; its ``raw_response`` is only the
    reasoning, and the environment renders the held weights.
    """

    prompt: str | None
    raw_response: str
    holds: bool = False

    @classmethod
    def hold(cls, reasoning: str) -> "AgentDecision":
        return cls(prompt=None, raw_response=reasoning, holds=True)


@runtime_checkable
class Agent(Protocol):
    name: str

    def decide(self, spec: MarketSpec, obs: Observation, memory: MemoryWindow) -> AgentDecision: ...


class LLMAgent:
    """Builds the two-stage prompt, asks the model, returns raw text."""

    def __init__(self, client: ChatClient, config: ModelClientConfig, name: str | None = None) -> None:
        self.client = client
        self.config = config
        self.name = name or config.model

    def decide(self, spec: MarketSpec, obs: Observation, memory: MemoryWindow) -> AgentDecision:
        context = build_context_prompt(spec, obs, memory)
        prompt = build_decision_prompt(context, spec, obs.date)
        raw = self.client.complete(prompt, self.config)
        return AgentDecision(prompt=prompt, raw_response=raw)

