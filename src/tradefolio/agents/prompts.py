"""Prompt construction for allocation decisions.

These strings are the wire protocol between the environment and a
model: byte-identical input yields byte-identical prompts, and golden
tests pin the exact rendering. Change anything here and the goldens
must be regenerated on purpose.

From one step to the next most lines repeat: a price history line
(only the newest is new, and the oldest turns "N/A"), every news item
still in its window, and each memory entry's allocation line. So
``build_context_prompt`` takes a memo of the previous prompt's lines
and renders only the lines it lacks. A line's key is everything the
line shows: the market's close format, the date, the close and the
close below it for a history line; the zone and the item's date,
title and snippet for a news item; the cash asset and the entry object
for an account line. A reused line is therefore the text a fresh
render would give, so no prompt byte depends on the memo.
"""

from __future__ import annotations

import datetime as dt
from zoneinfo import ZoneInfo

from ..domain import MarketKind, MarketSpec, MemoryEntry, NewsItem, Observation

__all__ = [
    "SNIPPET_MAX_CHARS",
    "build_context_prompt",
    "build_decision_prompt",
]

SNIPPET_MAX_CHARS = 500

_SESSION_TZ = {
    MarketKind.STOCK: ("US Eastern Time", ZoneInfo("America/New_York")),
    MarketKind.PREDICTION: ("UTC", ZoneInfo("UTC")),
}

_STOCK_ROLE_LINE = (
    "You are a professional portfolio manager. "
    "Analyze the market data and generate a complete portfolio allocation."
)

_PREDICTION_ROLE_LINE = (
    "You are a professional prediction-market portfolio manager. "
    "Analyze the market data and generate a complete portfolio allocation."
)

_STOCK_GUIDANCE = """PORTFOLIO MANAGEMENT OBJECTIVE:
- Improve total returns by selecting allocations with higher expected return per unit of risk.
- Aim to outperform a reasonable baseline (e.g., equal-weight of AVAILABLE ASSETS) over the next 1–3 months.
- Use CASH tactically for capital protection in unfavorable markets.
EVALUATION CRITERIA:
- Prefer allocations that increase expected excess return and improve risk-adjusted return.
- Maintain sector and factor diversification.
- Be mindful of turnover and liquidity.
PORTFOLIO PRINCIPLES:
- Diversify across sectors and market caps.
- Consider market momentum and fundamentals.
- Balance growth and value opportunities.
- Maintain appropriate position sizes.
- Total allocation must equal 1.0.
- CASH is a valid asset."""

_PREDICTION_GUIDANCE = """PORTFOLIO MANAGEMENT OBJECTIVE:
- For each market, YES and NO are two assets. Allocate to only one at a time. CASH is also valid.
- YES and NO prices represent public-implied probabilities.
DECISION LOGIC:
- Derive market probability p_mkt from price.
- Go LONG {question}_YES if p > p_mkt + costs.
- Go LONG {question}_NO if p < p_mkt - costs.
- Otherwise keep the capital in CASH.

PORTFOLIO PRINCIPLES:
- Diversify across markets.
- No simultaneous YES and NO allocations.
- Total allocation must equal 1.0."""

_STOCK_RULES = """RULES:
1. Return ONLY the JSON object.
2. Allocations must sum to 1.0.
3. CASH allocation should reflect market conditions.
4. Use double quotes for strings.
5. No trailing commas.
6. No extra text outside the JSON.
Your objective is to maximize return while considering previous allocations and performance history."""

_PREDICTION_RULES = """RULES:
1. Return ONLY the JSON object.
2. Allocations must sum to 1.0.
3. Only one side (YES or NO) per question may be non-zero.
4. Use double quotes; no trailing commas.
Your objective is to maximize portfolio return using past allocations and performance history."""

# How a history line shows a close, per market.
_STOCK_CLOSE = "close price ${:.2f}"
_PREDICTION_CLOSE = "{:.4f}"

_STOCK_REASONING_HINT = "Brief explanation about why this allocation improves return rate"
_PREDICTION_REASONING_HINT = "Brief explanation of the allocation"


def _collapse_whitespace(text: str) -> str:
    return " ".join(text.split())


def _render_snippet(snippet: str) -> str:
    text = _collapse_whitespace(snippet)
    if len(text) > SNIPPET_MAX_CHARS:
        text = text[:SNIPPET_MAX_CHARS]
    return text + "..."


def _history_lines(series: list[tuple[dt.date, float]], close: str,
                   memo: dict, used: dict) -> list[str]:
    """Newest first; each change is measured against the line below it.

    ``close`` formats a price (``_STOCK_CLOSE`` or ``_PREDICTION_CLOSE``).
    A line is keyed by that format, its date, its close and the close
    below it (None for the oldest, whose change reads "N/A"); it is
    taken from ``memo`` when there and recorded in ``used`` either way.
    """
    lines = []
    prev = None
    get = memo.get
    for date, price in series:
        key = (close, date, price, prev)
        line = get(key)
        if line is None:
            if prev is None:
                change = "N/A"
            else:
                diff = price - prev
                change = f"{diff:+.2f} ({diff / prev * 100.0:+.2f}%)"
            # a date's ISO text is rendered once per prompt, kept under the date
            iso = used.get(date)
            if iso is None:
                iso = used[date] = date.isoformat()
            line = f"  - {iso}: {close.format(price)} (Change: {change})"
        used[key] = line
        lines.append(line)
        prev = price
    lines.reverse()
    return lines


def _series(obs: Observation, asset: str) -> list[tuple[dt.date, float]]:
    """An asset's stored closes, oldest first, then today's price."""
    series = [(pt.date, pt.price) for pt in obs.price_history.get(asset, ())]
    series.append((obs.date, obs.prices[asset]))
    return series


def _stock_market_lines(spec: MarketSpec, obs: Observation, memo: dict,
                        used: dict) -> list[str]:
    lines = []
    for asset in spec.assets:
        if asset == spec.cash:
            continue
        lines.append(f"{asset}: Current price is ${obs.prices[asset]:.2f}")
        lines.extend(_history_lines(_series(obs, asset), _STOCK_CLOSE, memo, used))
    return lines


def _prediction_market_lines(spec: MarketSpec, obs: Observation, memo: dict,
                             used: dict) -> list[str]:
    lines = []
    for pair in spec.pairs:
        lines.append(f"Question: {pair.question}")
        lines.append(f"  - Betting YES current price: {obs.prices[pair.yes]:.3f}")
        lines.append(f"  - Betting NO current price: {obs.prices[pair.no]:.3f}")
        for label, asset in (("YES", pair.yes), ("NO", pair.no)):
            lines.append(f"  - Betting {label} History:")
            lines.extend(_history_lines(_series(obs, asset), _PREDICTION_CLOSE, memo, used))
    return lines


def _news_lines(spec: MarketSpec, obs: Observation, tz: ZoneInfo, memo: dict,
                used: dict) -> list[str]:
    """News grouped under each tag in universe order; tags without items
    get no header, and items tagged outside the universe are left out.

    An item's two lines are one entry, keyed by the zone and the item
    fields they show, taken from ``memo`` when there and recorded in
    ``used`` either way."""
    by_tag: dict[str, list[NewsItem]] = {}
    for item in obs.news:
        by_tag.setdefault(item.tagged_asset, []).append(item)
    lines = []
    for tag in spec.news_tags:
        items = by_tag.get(tag)
        if not items:
            continue
        lines.append(f"• {tag}:")
        for item in items:
            key = (tz, item.published_at, item.title, item.snippet)
            text = memo.get(key)
            if text is None:
                day = dt.datetime.fromtimestamp(item.published_at, tz).date()
                text = (f"  - {_collapse_whitespace(item.title)} ({day.isoformat()})\n"
                        f"    {_render_snippet(item.snippet)}")
            used[key] = text
            lines.append(text)
    return lines


def _allocation_literal(spec: MarketSpec, weights: dict[str, float]) -> str:
    """Dict-literal rendering with two-decimal quoted weights.

    Zero positions are omitted; cash always shows.
    """
    shown = [
        (a, w) for a, w in weights.items()
        if w > 0 or a == spec.cash
    ]
    body = ", ".join(f"'{a}': '{w:.2f}'" for a, w in shown)
    return "{" + body + "}"


def _account_lines(spec: MarketSpec, memory: tuple[MemoryEntry, ...], memo: dict,
                   used: dict) -> list[str]:
    """The header, then one line per memory entry, oldest first.

    An entry's line is keyed by the cash asset and the entry object,
    which a session carries from step to step unchanged; the entry is
    kept beside its line, so no other object can take its ``id`` while
    the line is memoized.
    """
    indent = "  " if spec.kind is MarketKind.STOCK else ""
    lines = [f"{indent}Recent Historical Allocations under this account:"]
    for entry in memory:
        key = (spec.cash, id(entry))
        hit = memo.get(key)
        if hit is not None and hit[0] is entry:
            line = hit[1]
        else:
            alloc = _allocation_literal(spec, dict(entry.allocation.weights))
            rate = entry.cumulative_return * 100.0
            line = (f"    - Asset Allocation at {entry.date.isoformat()}: {alloc} "
                    f"(Accumulated return rate: {rate:.1f}%)")
        used[key] = (entry, line)
        lines.append(line)
    return lines


def build_context_prompt(spec: MarketSpec, obs: Observation,
                         memory: tuple[MemoryEntry, ...], memo: dict | None = None) -> str:
    """Market analysis, recent news, and account history as one block.

    ``memo`` holds the lines the previous call with it rendered. A line
    found there is reused rather than rendered again; the call then
    leaves in ``memo`` exactly the lines it used, so it never holds more
    than one prompt's. Each key carries everything its line shows, so
    the text is the same with a memo, without one, or with a stale one.
    """
    _, tz = _SESSION_TZ[spec.kind]
    memo = {} if memo is None else memo
    used: dict = {}
    if spec.kind is MarketKind.STOCK:
        market = _stock_market_lines(spec, obs, memo, used)
    else:
        market = _prediction_market_lines(spec, obs, memo, used)
    sections = [
        "MARKET ANALYSIS:\n" + "\n".join(market),
        "RECENT NEWS:\n" + "\n".join(_news_lines(spec, obs, tz, memo, used)),
        "ACCOUNT INFO:\n" + "\n".join(_account_lines(spec, memory, memo, used)),
    ]
    memo.clear()
    memo.update(used)
    # The news header sits two blank lines under the market block, the
    # account header one blank line under the news block.
    return sections[0] + "\n\n\n" + sections[1] + "\n\n" + sections[2]


def _json_format_block(spec: MarketSpec) -> str:
    if spec.kind is MarketKind.STOCK:
        hint = _STOCK_REASONING_HINT
        risky = [a for a in spec.assets if a != spec.cash][:3]
        weights = ["0.25", "0.20", "0.15"][: len(risky)]
        entries = list(zip(risky, weights))
    else:
        hint = _PREDICTION_REASONING_HINT
        entries = []
        if len(spec.pairs) >= 1:
            entries.append((spec.pairs[0].yes, "0.25"))
        if len(spec.pairs) >= 2:
            entries.append((spec.pairs[1].no, "0.15"))
    cash_weight = 1.0 - sum(float(w) for _, w in entries)
    entries.append((spec.cash, f"{cash_weight:.2f}"))
    lines = ["{", f' "reasoning": "{hint}",', ' "allocations": {']
    for i, (asset, weight) in enumerate(entries):
        comma = "," if i < len(entries) - 1 else ""
        lines.append(f'   "{asset}": {weight}{comma}')
    lines.extend([" }", "}"])
    return "\n".join(lines)


def build_decision_prompt(context: str, spec: MarketSpec, date: dt.date) -> str:
    """Full model input for one decision date.

    The context block produced by ``build_context_prompt`` is embedded
    verbatim between the role line and the management guidance.
    """
    tz_label, _ = _SESSION_TZ[spec.kind]
    if spec.kind is MarketKind.STOCK:
        role, guidance, rules, gap = _STOCK_ROLE_LINE, _STOCK_GUIDANCE, _STOCK_RULES, []
    else:
        # the prediction prompt sets its guidance and rules off by a blank line
        role, guidance, rules, gap = (_PREDICTION_ROLE_LINE, _PREDICTION_GUIDANCE,
                                      _PREDICTION_RULES, [""])
    parts = [
        f"Today is {date.isoformat()} ({tz_label}).",
        role,
        context,
        *gap,
        guidance,
        "",
        "AVAILABLE ASSETS: " + ", ".join(spec.assets),
        "",
        "CRITICAL: Return ONLY valid JSON. No extra text.",
        "REQUIRED JSON FORMAT:",
        _json_format_block(spec),
        *gap,
        rules,
    ]
    return "\n".join(parts)
