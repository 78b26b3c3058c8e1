"""Per-layer table of traced benchmark runs.

    python3 perfbench/summarize.py perfbench/.work/trace-fig7-top20-study-17.jsonl [...]

Reads the span files ``perfbench/run.py --trace 1`` writes (a JSON header
line, then one span per line) and prints, per workload, every metric
group's calls, rows and self time in set-up and in the timed phase, each
layer's share of the timed phase, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> tuple[dict, list[tuple]]:
    """The header and the spans of one trace file."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [tuple(json.loads(line)) for line in fh if line.strip()]
    return header, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Print the per-layer table of traced runs.")
    parser.add_argument("traces", nargs="+", help="files written by perfbench/run.py --trace 1")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from perfbench.metrics import layer_table

    for path in args.traces:
        header, spans = load(path)
        print(layer_table(spans, header))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
