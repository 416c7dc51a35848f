"""In-memory spans recorded around the objects the benchmark hands to
the library.

The program itself carries no instrumentation, so the traced run wraps
what it passes in: the feed, the agent, the chat client and the
``on_record`` callback. A span has a name, a start, an end and the
index of the span that was open when it began. Sessions run on one
thread while traced, so a single stack tracks the parent.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

FEED_SPANS = ("feeds.latest_price", "feeds.price_window", "feeds.news_window")
AGENT_SPAN = "agents.decide"
CLIENT_SPAN = "clients.complete"
APPEND_SPAN = "sessionlog.append"
SESSION_SPAN = "session"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.prompt_chars: list[int] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class TracedFeed:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def latest_price(self, asset, on_or_before):
        with self._tracer.span("feeds.latest_price"):
            return self._inner.latest_price(asset, on_or_before)

    def price_window(self, asset, start, end):
        with self._tracer.span("feeds.price_window"):
            return self._inner.price_window(asset, start, end)

    def news_window(self, tag, start, end, target=None):
        with self._tracer.span("feeds.news_window"):
            return self._inner.news_window(tag, start, end, target)


class TracedClient:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def complete(self, prompt, config):
        self._tracer.prompt_chars.append(len(prompt))
        with self._tracer.span(CLIENT_SPAN):
            return self._inner.complete(prompt, config)


class TracedAgent:
    """For agents that answer ``decide``."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def decide(self, spec, obs, memory):
        with self._tracer.span(AGENT_SPAN):
            return self._inner.decide(spec, obs, memory)


class TracedPricedAgent:
    """For agents that answer ``allocation_at`` from execution prices."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = inner.name

    def allocation_at(self, spec, obs, memory, exec_prices):
        with self._tracer.span(AGENT_SPAN):
            return self._inner.allocation_at(spec, obs, memory, exec_prices)


def traced_agent(agent, tracer: Tracer):
    if hasattr(agent, "allocation_at"):
        return TracedPricedAgent(agent, tracer)
    return TracedAgent(agent, tracer)


def traced_callback(callback: Callable, tracer: Tracer) -> Callable:
    def on_record(record) -> None:
        with tracer.span(APPEND_SPAN):
            callback(record)
    return on_record


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else _mean(values)


def analyse(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the spans of one or more traced sessions.

    A step runs from the end of one ``on_record`` call to the end of the
    next (the first from the session's start). A span's self time is
    its duration minus the time its children cover.
    """
    spans = tracer.spans
    children_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            children_time[parent] += end - start

    calls: dict[str, list[float]] = {name: [] for name in FEED_SPANS}
    decide_self: list[float] = []
    appends: list[float] = []
    steps: list[float] = []
    step_self: list[float] = []
    feed_per_step: list[float] = []
    growth: list[float] = []

    for idx, (name, start, end, parent) in enumerate(spans):
        if name != SESSION_SPAN:
            continue
        session_steps: list[float] = []
        step_start = start
        covered = feed = 0.0
        for child in range(idx + 1, len(spans)):
            cname, cstart, cend, cparent = spans[child]
            if cparent != idx:
                if cstart >= end:
                    break
                continue
            took = cend - cstart
            if cname in calls:
                calls[cname].append(took)
                feed += took
                covered += took
            elif cname == AGENT_SPAN:
                decide_self.append(took - children_time[child])
                covered += took
            elif cname == APPEND_SPAN:
                appends.append(took)
                covered += took
                step = cend - step_start
                session_steps.append(step)
                step_self.append(step - covered)
                feed_per_step.append(feed)
                step_start = cend
                covered = feed = 0.0
        steps.extend(session_steps)
        # Medians, so the first step's cold store load does not pose
        # as growth in reverse.
        tenth = max(1, len(session_steps) // 10)
        if len(session_steps) >= 2:
            growth.append(statistics.median(session_steps[-tenth:])
                          / statistics.median(session_steps[:tenth]))

    n_steps = max(1, len(steps))
    ms = 1e3
    us = 1e6
    return {
        "feeds.latest_price_calls_per_step": len(calls["feeds.latest_price"]) / n_steps,
        "feeds.latest_price_us": _mean(calls["feeds.latest_price"]) * us,
        "feeds.price_window_us": _mean(calls["feeds.price_window"]) * us,
        "feeds.news_window_us": _mean(calls["feeds.news_window"]) * us,
        "feeds.ms_per_step": _mean(feed_per_step) * ms,
        "environment.step_ms_p50": (statistics.median(steps) if steps else 0.0) * ms,
        "environment.step_ms_p90": _p90(steps) * ms,
        "environment.step_growth": _mean(growth),
        "environment.self_ms_per_step": _mean(step_self) * ms,
        "agents.decide_ms": _mean(decide_self) * ms,
        "agents.attempts_per_step": len(decide_self) / n_steps,
        "prompts.chars_mean": _mean(tracer.prompt_chars),
        "sessionlog.append_us": _mean(appends) * us,
    }
