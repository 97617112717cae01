"""Benchmark for albertson: four workloads, end-to-end and per-layer metrics.
See perfbench/README.md; run with `python3 perfbench/run.py --help`."""
