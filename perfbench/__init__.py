"""The repository benchmark: batch pipeline and serve latency.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see :mod:`perfbench.run` for what it measures.
"""
