"""The repository benchmark (entry point: ``perfbench/run.py``)."""
