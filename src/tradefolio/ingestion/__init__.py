"""Market data acquisition, normalization, and file-backed snapshots."""
