"""The committed replay configs still write the same log bytes.

``goldens/session_log_sha256.json`` holds the sha256 of every log that
``tradefolio run`` writes for the fixture configs, plus the stock config
gated to ``rebalance_interval: 2``, and of model-backed sessions over
the stock fixture store whose scripted replies exercise retries and
both fallbacks (all cash before any valid reply, the previous step's
allocation after one), fresh and resumed from a cut at an odd step.
The model sessions run through ``tradefolio run``'s session runner,
``cli._run_one``, so a cut one resumes through the same header check,
date check and resume as a baseline's log.
Set UPDATE_GOLDENS=1 to rewrite it after an intentional change to the
log bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import yaml
from click.testing import CliRunner

from tradefolio import cli
from tradefolio.agents.clients import ModelClientConfig, ScriptedClient
from tradefolio.agents.harness import LLMAgent
from tradefolio.cli import main
from tradefolio.config import load_config
from tradefolio.environment import MarketMemo
from tradefolio.ingestion.feeds import ReplayFeed
from tradefolio.ingestion.snapshots import SnapshotStore

from conftest import FIXTURES, assert_golden

VARIANTS = {
    "stock-replay": ("stock-replay.yaml", {}),
    "stock-replay-interval-2": ("stock-replay.yaml", {"rebalance_interval": 2}),
    "prediction-replay": ("prediction-replay.yaml", {}),
}

# (rebalance_interval, records written before the cut, or None for an
# uninterrupted session)
MODEL_VARIANTS = {
    "model-interval-1": (1, None),
    "model-interval-1-resumed-at-5": (1, 5),
    "model-interval-2": (2, None),
    "model-interval-2-resumed-at-7": (2, 7),
}

_MODEL = "test/scripted"


def _log_hashes(workdir, config_name: str, overrides: dict) -> dict[str, str]:
    workdir.mkdir()
    raw = yaml.safe_load((FIXTURES / config_name).read_text(encoding="utf-8"))
    raw.update(overrides)
    raw["store"] = str(FIXTURES / raw["store"])
    raw["out_dir"] = str(workdir / "runs")
    config = workdir / config_name
    config.write_text(yaml.safe_dump(raw), encoding="utf-8")
    result = CliRunner().invoke(main, ["run", "--config", str(config)])
    assert result.exit_code == 0, result.output
    return {
        log.name: hashlib.sha256(log.read_bytes()).hexdigest()
        for log in sorted((workdir / "runs").glob("*.jsonl"))
    }


def _reply(weights: dict[str, float]) -> str:
    return json.dumps({"reasoning": "scripted", "allocations": weights})


def _script(decisions: int) -> list[str]:
    """The client's replies, decision by decision, cycling through junk
    before any valid reply, a retry, an out-of-band sum, a partial reply
    renormalised within the band, and runs of fallbacks."""
    junk = "no allocation here"
    out_of_band = _reply({"AAPL": 0.7, "MSFT": 0.7, "NVDA": 0.0, "CASH": 0.0})
    replies: list[str] = []
    for i in range(decisions):
        aapl = round(0.05 * (i % 9), 2)
        valid = _reply({"AAPL": aapl, "MSFT": 0.2, "NVDA": 0.1, "CASH": round(0.7 - aapl, 2)})
        replies += [
            [junk] * 3,                                   # falls back
            [junk, valid],                                # one retry
            [valid],
            [junk] * 3,                                   # falls back
            [out_of_band] * 3,                            # falls back again
            [junk] * 3,                                   # and again
            [_reply({"AAPL": 0.5, "CASH": 0.51})],        # renormalised
            [junk, out_of_band, valid],                   # two retries
            [out_of_band, valid],
            [junk] * 3,
        ][i % 10]
    return replies


def _model_log_hashes(workdir, interval: int, cut: int | None) -> dict[str, str]:
    entry = ModelClientConfig(_MODEL)
    cfg = replace(load_config(FIXTURES / "stock-replay.yaml"), out_dir=workdir,
                  models=(entry,), rebalance_interval=interval)
    dates = list(cfg.dates)
    market = MarketMemo(ReplayFeed(SnapshotStore(cfg.store), cfg.market), cfg.spec(),
                        cfg.lookback_days, cfg.news_window_days)
    responses = _script(len(dates))
    clients: list[ScriptedClient] = []

    def make_agent(entry):
        """An agent over the replies no earlier session of this log used."""
        used = sum(len(client.prompts) for client in clients)
        clients.append(ScriptedClient(responses[used:]))
        return LLMAgent(clients[-1], entry)

    done = 0
    for last in ([] if cut is None else [cut]) + [len(dates) - 1]:  # each run's final step
        outcome = cli._run_one(entry, cfg, market, dates[:last + 1], make_agent)
        assert (outcome.status, outcome.error, outcome.new_steps) == ("ended", None, last - done)
        done = last
    path = outcome.log_path
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()}


def test_replay_logs_match_golden_hashes(tmp_path):
    hashes = {
        variant: _log_hashes(tmp_path / variant, config_name, overrides)
        for variant, (config_name, overrides) in VARIANTS.items()
    }
    for variant, (interval, cut) in MODEL_VARIANTS.items():
        hashes[variant] = _model_log_hashes(tmp_path / variant, interval, cut)
    assert_golden("session_log_sha256.json",
                  json.dumps(hashes, indent=2, sort_keys=True) + "\n")
