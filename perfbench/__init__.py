"""The repository benchmark: host- and simulated-clock metrics.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in a fresh process and prints its metrics; see
``perfbench/README.md`` for the workloads, the metrics and why each
was chosen.
"""
