"""Agent interface and the LLM-backed implementation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from ..domain import MarketSpec, Observation
from .clients import ChatClient, ModelClientConfig
from .memory import MemoryEntry, MemoryWindow
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
    """Builds the two-stage prompt, asks the model, returns raw text.

    A retry sends the prompt already rendered for its step: ``decide``
    called again with the same observation and spec objects and equal
    memory entries reuses the last prompt, so a record's
    ``prompt_sha256`` names the prompt of every attempt.
    """

    def __init__(self, client: ChatClient, config: ModelClientConfig, name: str | None = None) -> None:
        self.client = client
        self.config = config
        self.name = name or config.model
        self._last: tuple[MarketSpec, Observation, tuple[MemoryEntry, ...], str] | None = None

    def decide(self, spec: MarketSpec, obs: Observation, memory: MemoryWindow) -> AgentDecision:
        entries = memory.entries
        last = self._last
        if last is not None and last[0] is spec and last[1] is obs and last[2] == entries:
            prompt = last[3]
        else:
            context = build_context_prompt(spec, obs, memory)
            prompt = build_decision_prompt(context, spec, obs.date)
            self._last = (spec, obs, entries, prompt)
        raw = self.client.complete(prompt, self.config)
        return AgentDecision(prompt=prompt, raw_response=raw)
