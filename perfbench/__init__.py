"""Benchmark harness for qns1d: three workloads, end-to-end metrics and a
separate outside-in layer trace. Run ``python3 perfbench/run.py --help``."""
