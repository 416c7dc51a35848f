"""Agent interface and the LLM-backed implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..domain import MarketSpec, MemoryEntry, Observation
from .clients import ChatClient, ModelClientConfig
from .prompts import build_context_prompt, build_decision_prompt

__all__ = ["AgentDecision", "Agent", "LLMAgent"]


@dataclass(frozen=True)
class AgentDecision:
    """What an agent hands back: the prompt it saw (None for rule-based
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


class Agent(Protocol):
    name: str

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision: ...


class LLMAgent:
    """Builds the two-stage prompt, asks the model, returns raw text.

    A retry sends the prompt already rendered for its step: ``decide``
    called again with the same observation and spec objects and equal
    memory entries reuses the last prompt, so a record's
    ``prompt_sha256`` names the prompt of every attempt.
    """

    def __init__(self, client: ChatClient, config: ModelClientConfig) -> None:
        self.client = client
        self.config = config
        self.name = config.model
        self._last: tuple[MarketSpec, Observation, tuple[MemoryEntry, ...], str] | None = None

    def decide(self, spec: MarketSpec, obs: Observation,
               memory: tuple[MemoryEntry, ...]) -> AgentDecision:
        last = self._last
        if last is not None and last[0] is spec and last[1] is obs and last[2] == memory:
            prompt = last[3]
        else:
            context = build_context_prompt(spec, obs, memory)
            prompt = build_decision_prompt(context, spec, obs.date)
            self._last = (spec, obs, memory, prompt)
        raw = self.client.complete(prompt, self.config)
        return AgentDecision(prompt=prompt, raw_response=raw)
