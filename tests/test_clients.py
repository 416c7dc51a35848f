import json
from http.client import IncompleteRead
from urllib.error import URLError

import pytest
from conftest import FakeReply

from tradefolio.agents.clients import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_TEMPERATURE,
    PROVIDER_ROUTES,
    HttpChatClient,
    ModelClientConfig,
    ScriptedClient,
    resolve_provider,
)
from tradefolio.errors import ClientRejected, ClientTimeout


class TestRouting:
    def test_known_prefixes_route_and_strip(self):
        cases = {
            "openai/gpt-5": ("openai", "gpt-5"),
            "anthropic/claude-sonnet-4-5": ("anthropic", "claude-sonnet-4-5"),
            "gemini/gemini-2.5-pro": ("gemini", "gemini-2.5-pro"),
            "x-ai/grok-4": ("x-ai", "grok-4"),
            "deepseek/deepseek-chat-v3.1": ("deepseek", "deepseek-chat-v3.1"),
            "moonshot/kimi-k2": ("moonshot", "kimi-k2"),
            "together/anything": ("together", "anything"),
        }
        for model, (provider, local) in cases.items():
            route, resolved = resolve_provider(model)
            assert route.name == provider
            assert resolved == local

    def test_unknown_prefix_falls_back_whole_id(self):
        route, resolved = resolve_provider("acme-labs/frontier-1")
        assert route.name == "together"
        assert resolved == "acme-labs/frontier-1"

    def test_no_slash_goes_to_default(self):
        route, resolved = resolve_provider("Qwen3-235B")
        assert route.name == "together"
        assert resolved == "Qwen3-235B"

    def test_every_route_has_key_env_and_url(self):
        for name, route in PROVIDER_ROUTES.items():
            assert route.name == name
            assert route.base_url.startswith("https://")
            assert route.api_key_env.endswith("_KEY")


class TestModelClientConfig:
    def test_standard_defaults(self):
        config = ModelClientConfig(model="m")
        assert config.temperature == DEFAULT_TEMPERATURE == 0.3
        assert config.max_tokens == DEFAULT_MAX_TOKENS == 16000
        payload = config.request_payload("m", "hello")
        assert payload == {
            "model": "m",
            "messages": [{"role": "user", "content": "hello"}],
            "temperature": 0.3,
            "max_tokens": 16000,
        }

    def test_null_settings_send_neither_field(self):
        config = ModelClientConfig(model="m", temperature=None, max_tokens=None)
        assert config.request_payload("m", "hi") == {
            "model": "m",
            "messages": [{"role": "user", "content": "hi"}],
        }


def ok_body(text="fine"):
    return {"choices": [{"message": {"content": text}}]}


class TruncatedReply(FakeReply):
    """A reply whose connection closes before its body is whole."""

    def read(self, *args):
        raise IncompleteRead(b'{"choi', 40)


TOGETHER = "https://api.together.xyz/v1/chat/completions"


class TestHttpChatClient:
    def test_happy_path(self, monkeypatch, serve):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        urlopen = serve({"https://api.openai.com/v1/chat/completions": [ok_body("the answer")]})
        out = HttpChatClient().complete("prompt", ModelClientConfig(model="openai/gpt-5"))
        assert out == "the answer"
        [(request, _)] = urlopen.calls
        assert request.full_url == "https://api.openai.com/v1/chat/completions"
        assert request.get_header("Authorization") == "Bearer sk-test"
        assert json.loads(request.data)["model"] == "gpt-5"

    def test_missing_credential(self, monkeypatch, serve):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        urlopen = serve({"https://api.openai.com/v1/chat/completions": [ok_body()]})
        with pytest.raises(ClientRejected, match="OPENAI_API_KEY"):
            HttpChatClient().complete("p", ModelClientConfig(model="openai/gpt-5"))
        assert not urlopen.calls

    def test_http_error_status(self, monkeypatch, serve):
        monkeypatch.setenv("TOGETHER_API_KEY", "t")
        serve({TOGETHER: [(429, {"error": "slow down"})]})
        with pytest.raises(ClientRejected, match="429"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))

    def test_timeout_is_typed(self, monkeypatch, serve):
        monkeypatch.setenv("TOGETHER_API_KEY", "t")
        connect, read = URLError(TimeoutError("timed out")), TimeoutError("timed out")
        serve({TOGETHER: [connect, read, ConnectionRefusedError("refused")]})
        for _ in (connect, read):
            with pytest.raises(ClientTimeout, match=r"together timed out after 120\.0s"):
                HttpChatClient().complete("p", ModelClientConfig(model="m"))
        with pytest.raises(ClientRejected, match="together request failed: refused"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))

    def test_a_truncated_or_reset_reply_is_a_rejection(self, monkeypatch, serve):
        monkeypatch.setenv("TOGETHER_API_KEY", "t")
        reset = ConnectionResetError(104, "Connection reset by peer")
        serve({TOGETHER: [TruncatedReply(200, b""), reset]})
        with pytest.raises(ClientRejected, match=r"together request failed: IncompleteRead\(6 bytes"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))
        with pytest.raises(ClientRejected, match="together request failed: .*reset by peer"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))

    def test_malformed_body(self, monkeypatch, serve):
        monkeypatch.setenv("TOGETHER_API_KEY", "t")
        serve({TOGETHER: [{"choices": []}, {"choices": [{"message": {"content": None}}]}]})
        with pytest.raises(ClientRejected, match="shape"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))
        with pytest.raises(ClientRejected, match="non-text content"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))

    def test_default_transport_posts_and_keeps_a_body_that_is_not_json(self, monkeypatch, serve):
        monkeypatch.setenv("TOGETHER_API_KEY", "t")
        urlopen = serve({TOGETHER: [(200, json.dumps(ok_body("posted"))),
                                    (502, "<html>Bad Gateway</html>")]})
        client = HttpChatClient()
        config = ModelClientConfig(model="m")
        assert client.complete("p", config) == "posted"
        with pytest.raises(ClientRejected, match="HTTP 502: <html>Bad Gateway</html>"):
            client.complete("q", config)
        assert urlopen.errors[0].fp.closed
        for (request, timeout), prompt in zip(urlopen.calls, "pq", strict=True):
            assert (request.full_url, request.get_method(), timeout) == (TOGETHER, "POST", 120.0)
            assert request.data == json.dumps(config.request_payload("m", prompt)).encode()
            assert request.get_header("Authorization") == "Bearer t"
            assert request.get_header("Content-type") == "application/json"

    def test_default_transport_meets_the_network_guard_as_a_rejection(self, monkeypatch):
        monkeypatch.setenv("TOGETHER_API_KEY", "t")
        with pytest.raises(ClientRejected,
                           match=r"together request failed: .*may not look up.*api\.together\.xyz"):
            HttpChatClient().complete("p", ModelClientConfig(model="m"))


class TestScriptedClient:
    def test_plays_in_order_then_repeats_last(self):
        client = ScriptedClient(["one", "two"])
        config = ModelClientConfig(model="m")
        assert client.complete("p1", config) == "one"
        assert client.complete("p2", config) == "two"
        assert client.complete("p3", config) == "two"
        assert client.prompts == ["p1", "p2", "p3"]

    def test_needs_at_least_one_response(self):
        with pytest.raises(ValueError):
            ScriptedClient([])
