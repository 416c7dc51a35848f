"""Model response protocol: extraction, schema checks, rendering.

Extraction is deliberately tolerant (models wrap JSON in prose, code
fences, or reasoning): the JSON decoder is tried wherever an object can
start, so the grammar, not a guess, says where each object ends.
Validation is deliberately strict. Every failure is one of the typed
parse or allocation errors; no raw exception from malformed text ever
escapes this module.
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

_OBJECT_START = re.compile(r'\{\s*["}]')  # how every JSON object opens
_DECODER = json.JSONDecoder()
# built once: json.dumps builds a new encoder per call when given options
_RENDER = json.JSONEncoder(ensure_ascii=False).encode

# Give up after this many starts fail to decode, so an answer after
# them is not found. Each failure builds a JSONDecodeError that counts
# the newlines before it, so unbounded failures would cost quadratic time.
_MAX_FAILED_STARTS = 1000


def _holding_allocations(obj: Any) -> dict[str, Any] | None:
    """The first dict in ``obj``, itself included, that has an
    "allocations" key, in text order and so the outermost; or None."""
    stack = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            if "allocations" in item:
                return item
            stack.extend(reversed(item.values()))
        elif isinstance(item, list):
            stack.extend(reversed(item))
    return None


def extract_json_object(text: str) -> dict[str, Any]:
    """Find the JSON object embedded in free-form response text.

    Decodes from every "{" that can open an object, skipping those
    inside an object already decoded. Of the decoded objects, the widest
    that holds an "allocations" key, at its top level or nested, gives
    its outermost holder; failing that, the widest object is returned
    (the first of equals). A start fails on ``ValueError``, which covers
    ``JSONDecodeError`` and an integer over the int-string limit, or on
    ``RecursionError``. Raises ``NoObjectFound`` when none decodes.
    """
    # Both messages land in a record's parse_error: they are log bytes.
    if not isinstance(text, str) or "{" not in text:
        raise NoObjectFound("response contains no JSON object")
    decoded: list[tuple[int, Any]] = []  # (width, object), in text order
    failed = 0
    match = _OBJECT_START.search(text)
    while match and failed < _MAX_FAILED_STARTS:
        start = match.start()
        try:
            obj, end = _DECODER.raw_decode(text, start)
        except (ValueError, RecursionError):
            failed, end = failed + 1, start + 1
        else:
            decoded.append((end - start, obj))
        match = _OBJECT_START.search(text, end)
    if not decoded:
        raise NoObjectFound("no balanced span parses as a JSON object")
    answers = [(width, holder) for width, obj in decoded
               if (holder := _holding_allocations(obj)) is not None]
    return max(answers or decoded, key=lambda pair: pair[0])[1]


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
    return _RENDER({"reasoning": reasoning, "allocations": dict(allocation.weights)})
