"""Session-level benchmark of the tuning stack: one command, three workloads.

    python3 perfbench/run.py --workload full197-model --seed 17 --seconds 10 --trace 0

``--trace 0`` prints the six end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer breakdown of a traced run and writes
its spans to ``perfbench/.work/trace-<workload>-<seed>.jsonl`` (read them
back with ``perfbench/summarize.py``).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Run it from the repository root; ``perfbench/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"


def _prepare() -> None:
    """Make ``src`` importable and keep every write inside the checkout."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/repro not found next to perfbench/; run from a full checkout")
    # One busy thread at a time: a BLAS pool would add a second, and its
    # contention with the host is noise.  Set before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # Pin the benchmark, and the pool workers it forks, to one CPU.  The
    # guard hands every evaluation to a fresh watchdog thread; unpinned,
    # each hand-off may wake the other virtual CPU, and that wake-up
    # latency made guarded-eval run at 26-70% of its pinned speed and
    # spread its timings by 36-46% of their median over five seeds.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # The executor's attempt journals and the tree kernel's compile cache
    # live in the temp dir; keep them in the checkout.
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Session-level benchmark of the tuning stack.")
    parser.add_argument(
        "--workload", required=True, help="full197-model, fig7-top20-study or guarded-eval"
    )
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="sizes the timed phase: round(seconds / round_s) whole rounds, at least min_rounds",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare()

    from perfbench.harness import run
    from perfbench.workloads import make_workloads

    names = list(make_workloads(str(WORK / "study")))
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    print(
        f"perfbench: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds:g} s, trace {args.trace}",
        flush=True,
    )
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
