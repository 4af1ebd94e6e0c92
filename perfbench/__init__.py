"""The repository's benchmark; ``perfbench/run.py`` is the entry point."""
