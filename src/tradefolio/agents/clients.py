"""Chat-completion clients and provider routing.

A model id like "openai/gpt-4.1" routes to the provider named by its
prefix; ids without a known prefix (including ids whose slash belongs
to the model name itself) fall through to the default provider. All
providers speak the OpenAI-style chat completions wire format here.
``HttpChatClient`` posts through ``ingestion.policy.send``, the one
request function, which imports ``urllib.request`` at the first
request, so a replay run never loads an HTTP library; tests fake the
network by patching ``urllib.request.urlopen``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Iterable, Protocol

from ..errors import ClientRejected, ClientTimeout, ConfigError
from ..ingestion.policy import send

__all__ = [
    "DEFAULT_TEMPERATURE",
    "DEFAULT_MAX_TOKENS",
    "DEFAULT_PROVIDER",
    "PROVIDER_ROUTES",
    "ModelClientConfig",
    "ProviderRoute",
    "ChatClient",
    "HttpChatClient",
    "ScriptedClient",
    "api_key",
    "resolve_provider",
]

DEFAULT_TEMPERATURE = 0.3
DEFAULT_MAX_TOKENS = 16000


@dataclass(frozen=True)
class ProviderRoute:
    name: str
    base_url: str
    api_key_env: str


PROVIDER_ROUTES: dict[str, ProviderRoute] = {
    "openai": ProviderRoute("openai", "https://api.openai.com/v1", "OPENAI_API_KEY"),
    "anthropic": ProviderRoute("anthropic", "https://api.anthropic.com/v1", "ANTHROPIC_API_KEY"),
    "gemini": ProviderRoute(
        "gemini", "https://generativelanguage.googleapis.com/v1beta/openai", "GEMINI_API_KEY"
    ),
    "x-ai": ProviderRoute("x-ai", "https://api.x.ai/v1", "XAI_API_KEY"),
    "deepseek": ProviderRoute("deepseek", "https://api.deepseek.com/v1", "DEEPSEEK_API_KEY"),
    "moonshot": ProviderRoute("moonshot", "https://api.moonshot.ai/v1", "MOONSHOT_API_KEY"),
    "together": ProviderRoute("together", "https://api.together.xyz/v1", "TOGETHER_API_KEY"),
}

DEFAULT_PROVIDER = "together"

_TIMEOUT_S = 120.0  # one chat completion, in seconds


def resolve_provider(model: str) -> tuple[ProviderRoute, str]:
    """Split a model id into (provider route, provider-local model id)."""
    prefix, _, rest = model.partition("/")
    if rest and prefix in PROVIDER_ROUTES:
        return PROVIDER_ROUTES[prefix], rest
    return PROVIDER_ROUTES[DEFAULT_PROVIDER], model


def api_key(route: ProviderRoute) -> str:
    """The route's API key, read from its environment variable;
    ``ConfigError`` when that is unset or empty."""
    key = os.environ.get(route.api_key_env, "")
    if not key:
        raise ConfigError(f"missing credential {route.api_key_env} for {route.name}")
    return key


@dataclass(frozen=True)
class ModelClientConfig:
    """One session's model: a model id with its sampling settings, or a
    baseline agent's name.

    A ``None`` setting is left out of the request payload, so a
    reasoning model that takes no temperature or token cap gets
    ``temperature=None, max_tokens=None``.
    """

    model: str
    temperature: float | None = DEFAULT_TEMPERATURE
    max_tokens: int | None = DEFAULT_MAX_TOKENS

    @property
    def is_baseline(self) -> bool:
        return self.model.startswith("baseline:")

    def request_payload(self, provider_model: str, prompt: str) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "model": provider_model,
            "messages": [{"role": "user", "content": prompt}],
        }
        if self.temperature is not None:
            payload["temperature"] = self.temperature
        if self.max_tokens is not None:
            payload["max_tokens"] = self.max_tokens
        return payload


class ChatClient(Protocol):
    def complete(self, prompt: str, config: ModelClientConfig) -> str: ...


def _post_json(route: ProviderRoute, headers: dict[str, str],
               payload: dict[str, Any]) -> tuple[int, Any]:
    """The status and body of one POST of ``payload`` to the route's chat
    completions; a body that is not JSON is kept as text. A request that
    times out is ``ClientTimeout``; one that fails otherwise is
    ``ClientRejected``."""
    from http.client import HTTPException

    try:
        status, raw = send(f"{route.base_url}/chat/completions", headers, _TIMEOUT_S,
                           json.dumps(payload).encode())
    except (OSError, HTTPException) as exc:
        # a read timeout is a TimeoutError; a connect timeout is a URLError's reason
        if isinstance(getattr(exc, "reason", exc), TimeoutError):
            raise ClientTimeout(f"{route.name} timed out after {_TIMEOUT_S}s") from exc
        raise ClientRejected(f"{route.name} request failed: {exc}") from exc
    try:
        return status, json.loads(raw)
    except ValueError:
        return status, raw.decode(errors="replace")


class HttpChatClient:
    """One blocking chat completion per decision."""

    def complete(self, prompt: str, config: ModelClientConfig) -> str:
        route, model = resolve_provider(config.model)
        try:
            key = api_key(route)
        except ConfigError as exc:
            raise ClientRejected(str(exc)) from exc
        headers = {
            "Authorization": f"Bearer {key}",
            "Content-Type": "application/json",
        }
        status, body = _post_json(route, headers, config.request_payload(model, prompt))
        if status >= 400:
            raise ClientRejected(f"{route.name} returned HTTP {status}: {body}")
        try:
            content = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientRejected(f"{route.name} returned an unexpected body shape") from exc
        if not isinstance(content, str):
            raise ClientRejected(f"{route.name} returned non-text content")
        return content


class ScriptedClient:
    """Deterministic stand-in for tests and replays.

    Returns the scripted responses in order, repeating the last one
    once the script is exhausted; records every prompt it was shown.
    """

    def __init__(self, responses: Iterable[str]) -> None:
        self.responses = list(responses)
        if not self.responses:
            raise ValueError("scripted client needs at least one response")
        self.prompts: list[str] = []
        self._cursor = 0

    def complete(self, prompt: str, config: ModelClientConfig) -> str:
        self.prompts.append(prompt)
        index = min(self._cursor, len(self.responses) - 1)
        self._cursor += 1
        return self.responses[index]
