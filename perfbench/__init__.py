"""The repository benchmark: seeded campaign workloads over the public
``repro`` APIs, end-to-end metrics from untraced runs and per-layer metrics
from a separate traced run.  Entry point: ``python3 perfbench/run.py``."""
