"""The repository's benchmark: one command, three workloads, end-to-end and
per-layer metrics.  See README.md in this directory."""
