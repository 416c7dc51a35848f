"""A deterministic stand-in for a chat model.

Every response is a pure function of the workload seed, the model id,
the prompt (its sha256 and the decision date it names) and how many
times this client has already been shown that prompt. A session's prompts are unique per decision date, so
a resumed session asks a fresh client the same questions in the same
order and gets the same bytes back, exactly as an uninterrupted one.

The mix exercises every path of the parse-retry-fallback loop: clean
JSON, JSON wrapped in prose or a code fence after a few hundred to a
few thousand characters of reasoning, and malformed text of several
kinds. How many attempts fail on a decision date follows a fixed cycle
over the date (see ``_BAD_ATTEMPTS``), so every seed gets the same mix
of retries and fallbacks and the amount of work per step does not
depend on the seed; the text of each answer comes from the hashes.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import re
from collections import Counter
from typing import Iterator

# Malformed attempts before the first valid one, by decision day modulo
# ten: one date in ten never gets a valid answer (the session falls back
# to its last validated book), one needs a retry, one needs two.
_BAD_ATTEMPTS = (3, 1, 2, 0, 0, 0, 0, 0, 0, 0)
_TODAY = re.compile(r"Today is (\d{4}-\d{2}-\d{2})")

_WORDS = (
    "momentum", "drawdown", "volatility", "sector", "rotation", "earnings",
    "guidance", "liquidity", "spread", "exposure", "hedge", "trim", "add",
    "overweight", "underweight", "breadth", "yield", "curve", "defensive",
    "cyclical", "valuation", "catalyst", "risk", "budget", "conviction",
    "rebalance", "cash", "buffer", "trend", "reversal", "news", "flow",
)


def _stream(key: bytes) -> Iterator[float]:
    """Uniform floats in [0, 1) from sha256 in counter mode."""
    counter = 0
    while True:
        block = hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        counter += 1
        for i in range(0, 32, 8):
            yield int.from_bytes(block[i:i + 8], "big") / 2.0 ** 64


def _assets_from_prompt(prompt: str) -> list[str]:
    for line in prompt.splitlines():
        if line.startswith("AVAILABLE ASSETS: "):
            return line[len("AVAILABLE ASSETS: "):].split(", ")
    raise ValueError("prompt lists no AVAILABLE ASSETS line")


class FakeChatClient:
    """Implements the ``ChatClient`` protocol without a network."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._asked: Counter[bytes] = Counter()

    def complete(self, prompt: str, config) -> str:
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        attempt = self._asked[digest]
        self._asked[digest] += 1
        prefix = f"{self.seed}\x00{config.model}\x00".encode("utf-8")
        offset = hashlib.sha256(prefix).digest()[0]
        day = dt.date.fromisoformat(_TODAY.search(prompt).group(1)).toordinal()
        bad = attempt < _BAD_ATTEMPTS[(day + offset) % len(_BAD_ATTEMPTS)]
        rand = _stream(prefix + digest + attempt.to_bytes(4, "big"))
        return _response(_assets_from_prompt(prompt), rand, bad)


def _reasoning(rand: Iterator[float], assets: list[str]) -> str:
    target = 200 + int(next(rand) * 2800)
    words: list[str] = []
    length = 0
    while length < target:
        if next(rand) < 0.1:
            word = assets[int(next(rand) * len(assets))]
        else:
            word = _WORDS[int(next(rand) * len(_WORDS))]
        words.append(word)
        length += len(word) + 1
    return " ".join(words) + "."


def _weights(rand: Iterator[float], assets: list[str]) -> dict[str, float]:
    """A valid book: a random subset of assets, cash (listed last)
    always held, sums to one within rounding."""
    cash = assets[-1]
    picked = [a for a in assets if a == cash or next(rand) < 0.6]
    raw = [0.05 + next(rand) for _ in picked]
    total = sum(raw)
    return {a: round(w / total, 8) for a, w in zip(picked, raw)}


def _response(assets: list[str], rand: Iterator[float], bad: bool) -> str:
    reasoning = _reasoning(rand, assets)
    weights = _weights(rand, assets)
    style = next(rand)
    if bad:
        if style < 0.25:
            text = json.dumps({"reasoning": reasoning, "allocations": weights})
            return text[: int(len(text) * (0.4 + 0.5 * next(rand)))]
        if style < 0.45:
            return reasoning + " I would rather not commit to a book today."
        if style < 0.65:
            weights = {a: w * 1.3 for a, w in weights.items()}
        elif style < 0.85:
            weights["NOT-A-TICKER"] = 0.0
        else:
            first = next(iter(weights))
            weights[first] = -weights[first]
        return json.dumps({"reasoning": reasoning, "allocations": weights})
    obj = {"reasoning": reasoning, "allocations": weights}
    if style < 0.4:
        return json.dumps(obj)
    if style < 0.7:
        return (f"{reasoning}\n\nHere is the allocation:\n"
                f"{json.dumps(obj, indent=1)}\nEnd of answer.")
    return f"Thinking it through.\n```json\n{json.dumps(obj, indent=2)}\n```\n"
