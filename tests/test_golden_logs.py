"""The committed replay configs still write the same log bytes.

``goldens/session_log_sha256.json`` holds the sha256 of every log that
``tradefolio run`` writes for the fixture configs, plus the stock config
gated to ``rebalance_interval: 2``. Set UPDATE_GOLDENS=1 to rewrite it
after an intentional change to the log bytes.
"""

from __future__ import annotations

import hashlib
import json

import yaml
from click.testing import CliRunner

from tradefolio.cli import main

from conftest import FIXTURES, assert_golden

VARIANTS = {
    "stock-replay": ("stock-replay.yaml", {}),
    "stock-replay-interval-2": ("stock-replay.yaml", {"rebalance_interval": 2}),
    "prediction-replay": ("prediction-replay.yaml", {}),
}


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


def test_replay_logs_match_golden_hashes(tmp_path):
    hashes = {
        variant: _log_hashes(tmp_path / variant, config_name, overrides)
        for variant, (config_name, overrides) in VARIANTS.items()
    }
    assert_golden("session_log_sha256.json",
                  json.dumps(hashes, indent=2, sort_keys=True) + "\n")
