"""Runs one workload: set-up, timed phase, metrics and correctness checks.

A run of ``seconds`` does ``round(seconds / round_s)`` rounds of the
workload, at least ``min_rounds``: a number fixed by ``seconds`` alone, so
every run of one seed does the same work on any host.  An untraced run
(:func:`untraced`) times the workload's set-up ``setup_repeats`` times,
runs the rounds and reports the end-to-end metrics.  A traced run
(:func:`traced`) sets up once with the wrappers installed, then runs every
session of the rounds twice, untraced and traced in alternating order, and
reports the per-layer metrics of the traced runs; each pair must produce
identical histories, and the traced runs' wall time against the untraced
ones gives the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.perf.treefast import native_kernel

from perfbench.metrics import (
    END_TO_END,
    PER_LAYER,
    layer_table,
    per_layer_metrics,
    percentile,
    tail_bp,
)
from perfbench.tracer import GROUP, PHASE, ROWS, SESSION, Tracer, default_entries
from perfbench.workloads import Outcome, make_workloads, peak_rss_kb

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Timed:
    """The sessions of one timed phase."""

    outcomes: list[Outcome]
    rounds: int

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def iterations(self) -> int:
        return sum(o.n_iterations for o in self.outcomes)

    def fingerprints(self) -> dict[str, str | None]:
        return {o.sid: o.fingerprint for o in self.outcomes}

    def problems(self) -> list[str]:
        return [p for o in self.outcomes for p in o.problems]


def n_rounds(wl, seconds: float) -> int:
    """Rounds a run of ``seconds`` does: ``seconds`` alone fixes it, never
    the host's speed."""
    return max(wl.min_rounds, round(seconds / wl.round_s))


def run_timed(wl, ref, seed: int, rounds: int) -> Timed:
    """Rounds ``0 .. rounds - 1`` of the workload, one session after another."""
    return Timed([wl.run_session(p, ref) for p in wl.plan(seed, rounds)], rounds)


def improvement_pct(timed: Timed) -> float:
    """Median over sessions of the best improvement over the default, in %."""
    scored = [o.improvement for o in timed.outcomes if o.improvement is not None]
    return 100.0 * statistics.median(scored) if scored else 0.0


def end_to_end(
    setup_times: list[float], timed: Timed
) -> tuple[dict[str, float], dict[str, str]]:
    """The end-to-end metrics, and how each was formed."""
    outcomes = timed.outcomes
    samples = [x for o in outcomes for x in o.intervals]
    bp = tail_bp(len(samples))
    ok = sum(o.ok for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "iters_per_s": timed.iterations / timed.wall_s,
        "iter_p50_ms": 1e3 * statistics.median(samples) if samples else 0.0,
        "iter_tail_ms": 1e3 * percentile(samples, bp) if samples else 0.0,
        "peak_rss_mb": max([peak_rss_kb()] + [o.worker_rss_kb for o in outcomes]) / 1024.0,
        "session_ok_ratio": ok / len(outcomes),
    }
    failed_evals = sum(o.n_failed_evals for o in outcomes)
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "iters_per_s": f"{timed.iterations} iterations in {timed.wall_s:.3f} s of session "
        f"time, {timed.rounds} round(s)",
        "iter_p50_ms": f"median of {len(samples)} samples",
        "iter_tail_ms": f"p{bp / 100:g} of {len(samples)} samples",
        "peak_rss_mb": "largest of this process and its pool workers",
        "session_ok_ratio": f"{ok} of {len(outcomes)} sessions completed their budget; "
        f"{failed_evals} of {timed.iterations} evaluations failed in the simulator",
    }
    return values, notes


def _guard_line(timed: Timed) -> list[str]:
    guards = [o.guard for o in timed.outcomes if o.guard is not None]
    if not guards:
        return []
    total = {
        key: sum(g[key] for g in guards)
        for key in ("n_retries", "n_quarantine_regions", "n_short_circuits", "breaker_trips")
    }
    most = max(g["n_quarantine_regions"] for g in guards)
    return [
        f"guard over {len(guards)} sessions: {total['n_retries']} retries, "
        f"{total['n_quarantine_regions']} quarantine regions (at most {most} in one session), "
        f"{total['n_short_circuits']} short circuits, {total['breaker_trips']} breaker trips"
    ]


def code_digest() -> str:
    """Hash of the program and benchmark sources; records of other code never compare."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class RecordStore:
    """Deterministic outputs of earlier runs of this code, workload and seed.

    Lets two runs of one seed check that they agree: every session both
    runs completed has the same history fingerprint and, in traced runs,
    the same call and row count per metric group.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data: dict[str, dict[str, Any]] = (
            json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        )

    def compare(self, kind: str, values: dict[str, Any]) -> tuple[list[str], int]:
        """Problems for every value an earlier run recorded differently, and
        how many values an earlier run had recorded."""
        seen = self.data.setdefault(kind, {})
        common = [key for key in values if key in seen]
        problems = [
            f"{kind} of session {key} differ from an earlier run of this seed"
            for key in common
            if seen[key] != values[key]
        ]
        seen.update(values)
        return problems, len(common)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def same_seed_check(store: RecordStore, kinds: dict[str, dict[str, Any]]) -> tuple[list[str], str]:
    """Compare ``kind -> values`` with earlier runs; the problems and a report line."""
    problems: list[str] = []
    counts = []
    for kind, values in kinds.items():
        found, compared = store.compare(kind, values)
        problems += found
        counts.append(f"{compared} of {len(values)} {kind}")
    return problems, "same-seed check against earlier runs: compared " + ", ".join(counts)


def session_counts(spans: list[tuple]) -> dict[str, dict[str, list[int]]]:
    """Session -> metric group -> [calls, rows] over the timed phase."""
    counts: dict[str, dict[str, list[int]]] = defaultdict(dict)
    for s in spans:
        if s[PHASE] == "timed":
            c = counts[s[SESSION]].setdefault(s[GROUP], [0, 0])
            c[0] += 1
            c[1] += s[ROWS]
    return dict(counts)


def _result(timed: Timed, metrics: dict[str, dict], problems: list[str]) -> dict[str, Any]:
    return {
        "correct": not problems,
        "attempted": len(timed.outcomes),
        "failed": sum(not o.ok for o in timed.outcomes),
        "metrics": metrics,
    }


def _lines(values: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> list[str]:
    return [
        f"{name:<30}{values[name]:>14.4f} {unit:<7}{notes.get(name, '')}".rstrip()
        for name, unit in units.items()
    ]


def _report(timed: Timed, problems: list[str]) -> list[str]:
    lines = _guard_line(timed)
    lines += [f"session {o.sid} failed: {o.error}" for o in timed.outcomes if not o.ok]
    lines += [f"check failed: {p}" for p in problems]
    return lines


def untraced(wl, seed: int, seconds: float, store: RecordStore) -> tuple[dict, list[str]]:
    setup_times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        ref = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    timed = run_timed(wl, ref, seed, n_rounds(wl, seconds))
    values, notes = end_to_end(setup_times, timed)
    problems, checked = same_seed_check(store, {"fingerprints": timed.fingerprints()})
    problems = timed.problems() + problems
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    lines = _lines(values, END_TO_END, notes)
    lines.append(
        f"improvement over default {improvement_pct(timed):.4f} % (median of "
        f"{len(timed.outcomes)} sessions; per-layer metric tuning.improvement_pct)"
    )
    lines += [checked] + _report(timed, problems)
    return _result(timed, metrics, problems), lines


def traced(
    wl, seed: int, seconds: float, store: RecordStore, work: Path
) -> tuple[dict, list[str]]:
    tracer = Tracer(str(work / "spans"))
    entries = default_entries()
    before = [(e.owner, e.attr, vars(e.owner).get(e.attr)) for e in entries]
    wl.mark = tracer.mark
    tracer.mark("setup")
    t0 = time.perf_counter()
    with tracer.installed(entries):
        ref = wl.setup()
    setup_wall = time.perf_counter() - t0
    rounds = n_rounds(wl, seconds)
    tracer.phase = "timed"
    # Every session runs twice, untraced and traced, and the two alternate
    # which goes first: the overhead then depends neither on pass order nor
    # on a host slow-down that outlasts one session.
    plain_runs: list[Outcome] = []
    traced_runs: list[Outcome] = []
    for k, planned in enumerate(wl.plan(seed, rounds)):
        for trace in (k % 2 == 1, k % 2 == 0):
            if trace:
                with tracer.installed(entries):
                    traced_runs.append(wl.run_session(planned, ref))
            else:
                plain_runs.append(wl.run_session(planned, ref))
    plain, timed = Timed(plain_runs, rounds), Timed(traced_runs, rounds)

    problems = plain.problems() + timed.problems()
    left = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in before
        if vars(owner).get(attr) is not original
    ]
    if left:
        problems.append("wrappers not restored: " + ", ".join(left))
    if timed.fingerprints() != plain.fingerprints():
        problems.append("traced histories differ from untraced runs of the same sessions")
    found, checked = same_seed_check(
        store,
        {"fingerprints": timed.fingerprints(), "counts": session_counts(tracer.spans)},
    )
    problems += found

    suggest = [x for o in timed.outcomes for x in o.suggest_s]
    header = {
        "workload": wl.name,
        "seed": seed,
        "rounds": timed.rounds,
        "setup_wall_s": setup_wall,
        "timed_wall_s": timed.wall_s,
        "untraced_wall_s": plain.wall_s,
        "iterations": timed.iterations,
        "suggest_p50_ms": 1e3 * statistics.median(suggest) if suggest else 0.0,
        "improvement_pct": improvement_pct(timed),
    }
    trace_path = work / f"trace-{wl.name}-{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    values = per_layer_metrics(tracer.spans, header)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    lines = [layer_table(tracer.spans, header), f"spans: {os.path.relpath(trace_path, ROOT)}"]
    lines += _lines(values, PER_LAYER, {}) + [checked] + _report(timed, problems)
    return _result(timed, metrics, problems), lines


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, list[str]]:
    """One benchmark run: the JSON result and the lines printed above it."""
    wl = make_workloads(str(work / "study"))[workload]
    # The first forest prediction on a machine compiles the C descent
    # kernel; that must never land in a measurement.
    native_kernel()
    store = RecordStore(work / "records" / f"{code_digest()}-{workload}-{seed}.json")
    if trace:
        outcome = traced(wl, seed, seconds, store, work)
    else:
        outcome = untraced(wl, seed, seconds, store)
    store.save()
    return outcome
