"""End-to-end and per-layer benchmark of llab; run it with ``python3 perfbench/run.py``."""
