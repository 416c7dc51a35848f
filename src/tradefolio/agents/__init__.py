"""Agent-side plumbing: memory, prompts, parsing, clients."""
