"""Steady end-to-end and per-layer benchmark of the ``repro`` pipeline.

Run one workload with ``python3 syncbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``syncbench/README.md``
explains the workloads and metrics.
"""
