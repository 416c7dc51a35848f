"""Portfolio sessions over stock and prediction markets, driven by
language-model agents or scripted baselines, with replayable logs."""

__version__ = "0.1.0"
