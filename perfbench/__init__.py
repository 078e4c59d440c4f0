"""The repository benchmark: live GPS ingest, bulk sharded ingest and geo
queries, with per-layer traces.  Run ``python3 perfbench/run.py``."""
