"""Model response protocol: extraction, schema checks, rendering.

Extraction is deliberately tolerant (models wrap JSON in prose, code
fences, or reasoning), validation is deliberately strict. Every failure
is one of the typed parse or allocation errors; no raw exception from
malformed text ever escapes this module.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Mapping

from ..accounting import RENORMALIZE_BAND, validate_allocation
from ..domain import AllocationVector, MarketSpec
from ..errors import NoObjectFound, SchemaMismatch

__all__ = [
    "extract_json_object",
    "parse_allocation_response",
    "render_allocation_response",
]

# Parse at most this many balanced spans, the widest ones; bounds the
# work on brace-heavy inputs, where the answer is the widest span.
_MAX_CANDIDATES = 200


# The characters each scan stops at; the regex skips the rest in C.
_QUOTE_AWARE = re.compile(r'[{}"\\]')
_QUOTE_BLIND = re.compile(r"[{}]")


def _balanced_spans(text: str, quotes: bool) -> list[tuple[int, int]]:
    """Every balanced {...} span, found in one pass, in closing order;
    with ``quotes``, braces inside a string opened within a span don't
    count, and without, a stray quote in prose can't hide a span."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    in_string = False
    escaped = -1  # the index a backslash in a string escapes
    for match in (_QUOTE_AWARE if quotes else _QUOTE_BLIND).finditer(text):
        i, ch = match.start(), match.group()
        if in_string:
            if i == escaped:
                continue
            if ch == "\\":
                escaped = i + 1
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            # a quote in prose outside every span opens no string
            in_string = bool(stack)
        elif ch == "{":
            stack.append(i)
        elif ch == "}" and stack:
            spans.append((stack.pop(), i + 1))
    return spans


def extract_json_object(text: str) -> dict[str, Any]:
    """Find the JSON object embedded in free-form response text.

    Tries the whole text first, then the ``_MAX_CANDIDATES`` widest
    balanced brace spans, widest first, preferring spans that mention
    "allocations". Raises ``NoObjectFound`` when nothing parses to a
    dict. A candidate fails on ``ValueError``: ``JSONDecodeError`` and
    the int-string limit an integer of over 4300 digits meets alike.
    """
    if not isinstance(text, str) or "{" not in text:
        raise NoObjectFound("response contains no JSON object")
    try:
        whole = json.loads(text)
        if isinstance(whole, dict):
            return whole
    except (ValueError, RecursionError):
        pass
    # json.loads validates every candidate, so both passes' spans can be tried
    spans = sorted({*_balanced_spans(text, True), *_balanced_spans(text, False)},
                   key=lambda s: (-(s[1] - s[0]), s[0]))
    fallback: dict[str, Any] | None = None
    for start, end in spans[:_MAX_CANDIDATES]:
        try:
            candidate = json.loads(text[start:end])
        except (ValueError, RecursionError):
            continue
        if "allocations" in candidate:
            return candidate
        if fallback is None:
            fallback = candidate
    if fallback is not None:
        return fallback
    raise NoObjectFound("no balanced span parses as a JSON object")


def _schema_check(obj: Mapping[str, Any]) -> tuple[str, dict[str, float]]:
    if "reasoning" not in obj:
        raise SchemaMismatch('missing "reasoning" field')
    if "allocations" not in obj:
        raise SchemaMismatch('missing "allocations" field')
    reasoning = obj["reasoning"]
    if not isinstance(reasoning, str):
        raise SchemaMismatch('"reasoning" must be a string')
    allocations = obj["allocations"]
    if not isinstance(allocations, dict):
        raise SchemaMismatch('"allocations" must be an object')
    weights: dict[str, float] = {}
    for asset, value in allocations.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SchemaMismatch(f"weight for {asset!r} is not a number")
        value = float(value)
        if not math.isfinite(value):
            raise SchemaMismatch(f"weight for {asset!r} is not finite")
        weights[str(asset)] = value
    return reasoning, weights


def parse_allocation_response(
    raw: str,
    spec: MarketSpec,
    band: float = RENORMALIZE_BAND,
) -> tuple[str, AllocationVector]:
    """Raw response text to (reasoning, validated allocation)."""
    obj = extract_json_object(raw)
    reasoning, weights = _schema_check(obj)
    return reasoning, validate_allocation(weights, spec, band=band)


def render_allocation_response(reasoning: str, allocation: AllocationVector) -> str:
    """Canonical wire form of a decision.

    Weights keep full float precision, so rendering then parsing gives
    back the identical allocation.
    """
    return json.dumps(
        {"reasoning": reasoning, "allocations": dict(allocation.weights)},
        ensure_ascii=False,
    )
