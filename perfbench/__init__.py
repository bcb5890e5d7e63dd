"""Benchmark of the sgds engine; entry point is ``perfbench/run.py``."""
