"""Benchmark for mvfed: seeded workloads, end-to-end and per-layer metrics.

Run ``python3 mvbench/run.py --help`` from the repository root; see
README.md in this directory for the workloads and metrics.
"""
