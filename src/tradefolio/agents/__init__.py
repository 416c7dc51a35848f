"""Agent-side plumbing: the agent interface, baselines, prompts, parsing, clients."""
