"""Prompt construction for allocation decisions.

These strings are the wire protocol between the environment and a
model: byte-identical input yields byte-identical prompts, and golden
tests pin the exact rendering. Change anything here and the goldens
must be regenerated on purpose.

A history line and a news item's text are pure functions of what they
show, cached process-wide, so sessions that render a date while its
lines are cached render them once between them. Each cache is kept
within ``LINE_CACHE_PROMPTS`` of the largest prompts rendered.
"""

from __future__ import annotations

import datetime as dt
import functools
from zoneinfo import ZoneInfo

from ..domain import MarketKind, MarketSpec, MemoryEntry, NewsItem, Observation

__all__ = [
    "LINE_CACHE_PROMPTS",
    "SNIPPET_MAX_CHARS",
    "build_context_prompt",
    "build_decision_prompt",
]

SNIPPET_MAX_CHARS = 500

# Before a prompt renders, a line cache holding more than this many
# prompts of lines (counted on the largest rendered) is emptied: room
# for the current and next date of each of the four sessions
# `tradefolio run` keeps on threads by default, and the caches never
# outgrow nine prompts.
LINE_CACHE_PROMPTS = 8

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


@functools.cache
def _history_line(close: str, date: dt.date, price: float, prev: float | None) -> str:
    """One history line: ``close`` formats the price (``_STOCK_CLOSE``
    or ``_PREDICTION_CLOSE``), and its change is measured against
    ``prev``, the close below it (None for the oldest, which reads "N/A")."""
    if prev is None:
        change = "N/A"
    else:
        diff = price - prev
        change = f"{diff:+.2f} ({diff / prev * 100.0:+.2f}%)"
    return f"  - {date.isoformat()}: {close.format(price)} (Change: {change})"


def _history_lines(series: list[tuple[dt.date, float]], close: str) -> list[str]:
    """Newest first; each change is measured against the line below it."""
    lines = []
    prev = None
    for date, price in series:
        lines.append(_history_line(close, date, price, prev))
        prev = price
    lines.reverse()
    return lines


def _series(obs: Observation, asset: str) -> list[tuple[dt.date, float]]:
    """An asset's stored closes, oldest first, then today's price."""
    series = [(pt.date, pt.price) for pt in obs.price_history.get(asset, ())]
    series.append((obs.date, obs.prices[asset]))
    return series


def _stock_market_lines(spec: MarketSpec, obs: Observation) -> list[str]:
    lines = []
    for asset in spec.assets:
        if asset == spec.cash:
            continue
        lines.append(f"{asset}: Current price is ${obs.prices[asset]:.2f}")
        lines.extend(_history_lines(_series(obs, asset), _STOCK_CLOSE))
    return lines


def _prediction_market_lines(spec: MarketSpec, obs: Observation) -> list[str]:
    lines = []
    for pair in spec.pairs:
        lines.append(f"Question: {pair.question}")
        lines.append(f"  - Betting YES current price: {obs.prices[pair.yes]:.3f}")
        lines.append(f"  - Betting NO current price: {obs.prices[pair.no]:.3f}")
        for label, asset in (("YES", pair.yes), ("NO", pair.no)):
            lines.append(f"  - Betting {label} History:")
            lines.extend(_history_lines(_series(obs, asset), _PREDICTION_CLOSE))
    return lines


@functools.cache
def _news_text(tz: ZoneInfo, published_at: int, title: str, snippet: str) -> str:
    """An item's two lines, dated in the market's zone."""
    day = dt.datetime.fromtimestamp(published_at, tz).date()
    return (f"  - {_collapse_whitespace(title)} ({day.isoformat()})\n"
            f"    {_render_snippet(snippet)}")


def _news_lines(spec: MarketSpec, obs: Observation, tz: ZoneInfo) -> list[str]:
    """News grouped under each tag in universe order; tags without items
    get no header, and items tagged outside the universe are left out."""
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
            lines.append(_news_text(tz, item.published_at, item.title, item.snippet))
    return lines


# The most lines one prompt has added to each line cache.
_PROMPT_LINES: dict = {}


def _make_room(cache, lines: int) -> None:
    """Before a prompt adds up to ``lines`` lines to ``cache``, empty it
    if it holds more than ``LINE_CACHE_PROMPTS`` of the largest prompts
    rendered, so a small prompt (a first date, a day without news) does
    not empty the lines of larger ones."""
    most = _PROMPT_LINES[cache] = max(lines, _PROMPT_LINES.get(cache, 0))
    if cache.cache_info().currsize > LINE_CACHE_PROMPTS * most:
        cache.cache_clear()


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


def _account_lines(spec: MarketSpec, memory: tuple[MemoryEntry, ...]) -> list[str]:
    """The header, then one line per memory entry, oldest first.

    Rendered fresh, not cached: a key of the values shown would take a
    cash weight of -0.0 for 0.0, which render apart."""
    indent = "  " if spec.kind is MarketKind.STOCK else ""
    lines = [f"{indent}Recent Historical Allocations under this account:"]
    for entry in memory:
        alloc = _allocation_literal(spec, dict(entry.allocation.weights))
        rate = entry.cumulative_return * 100.0
        lines.append(f"    - Asset Allocation at {entry.date.isoformat()}: {alloc} "
                     f"(Accumulated return rate: {rate:.1f}%)")
    return lines


def build_context_prompt(spec: MarketSpec, obs: Observation,
                         memory: tuple[MemoryEntry, ...]) -> str:
    """Market analysis, recent news, and account history as one block."""
    _, tz = _SESSION_TZ[spec.kind]
    _make_room(_history_line, len(spec.assets) + sum(map(len, obs.price_history.values())))
    _make_room(_news_text, len(obs.news))
    if spec.kind is MarketKind.STOCK:
        market = _stock_market_lines(spec, obs)
    else:
        market = _prediction_market_lines(spec, obs)
    sections = [
        "MARKET ANALYSIS:\n" + "\n".join(market),
        "RECENT NEWS:\n" + "\n".join(_news_lines(spec, obs, tz)),
        "ACCOUNT INFO:\n" + "\n".join(_account_lines(spec, memory)),
    ]
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
