"""Session-level benchmark of the reproduction (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
