"""Benchmark of the meetpoint library: see run.py and BENCHMARK.json."""
