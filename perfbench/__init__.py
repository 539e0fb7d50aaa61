"""Benchmark of the reproduction; see perfbench/README.md."""
