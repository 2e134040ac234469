"""Cold, per-layer benchmark of the cache simulator; see README.md."""
