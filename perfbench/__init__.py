"""The repository benchmark (run ``python3 perfbench/run.py``)."""
