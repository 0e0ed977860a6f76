"""The repo benchmark: ``python3 perfbench/run.py --workload NAME`` (see run.py)."""
