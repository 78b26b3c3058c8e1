"""Numbers from measurements: tail percentiles, self time, layer metrics.

End-to-end metrics come from untraced runs (:mod:`perfbench.harness`);
per-layer metrics come from the spans of a traced run
(:mod:`perfbench.tracer`).  ``END_TO_END`` and ``PER_LAYER`` are the
metric lists ``BENCHMARK.json`` declares, with their units.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from perfbench.tracer import ATTRS, END, GROUP, ID, PARENT, PHASE, ROWS, START

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "iters_per_s": "iter/s",
    "iter_p50_ms": "ms",
    "iter_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "session_ok_ratio": "ratio",
}

#: The ``repro`` subpackages the workloads drive, in reporting order.
LAYERS = ("space", "ml", "optimizers", "dbms", "tuning", "resilience", "parallel", "selection")

PER_LAYER: dict[str, str] = {
    "space.encode.rows": "count",
    "space.encode.self_s": "s",
    "space.decode.rows": "count",
    "space.decode.self_s": "s",
    "space.snap.rows": "count",
    "space.snap.self_s": "s",
    "space.sample.rows": "count",
    "space.sample.self_s": "s",
    "space.neighbors.rows": "count",
    "space.neighbors.self_s": "s",
    "space.share": "ratio",
    "ml.forest_fit.calls": "count",
    "ml.forest_fit.self_s": "s",
    "ml.forest_predict.rows": "count",
    "ml.forest_predict.self_s": "s",
    "ml.gp_fit.calls": "count",
    "ml.gp_fit.rows": "count",
    "ml.gp_fit.self_s": "s",
    "ml.gp_predict.rows": "count",
    "ml.gp_predict.self_s": "s",
    "ml.mlp.calls": "count",
    "ml.mlp.self_s": "s",
    "ml.share": "ratio",
    "optimizers.suggest.calls": "count",
    "optimizers.suggest.p50_ms": "ms",
    "optimizers.suggest.self_s": "s",
    "optimizers.observe.calls": "count",
    "optimizers.observe.self_s": "s",
    "optimizers.ei.rows": "count",
    "optimizers.share": "ratio",
    "dbms.evaluate.calls": "count",
    "dbms.evaluate.self_s": "s",
    "dbms.failed_share": "ratio",
    "dbms.share": "ratio",
    "tuning.session.self_s": "s",
    "tuning.objective.self_s": "s",
    "tuning.improvement_pct": "%",
    "tuning.share": "ratio",
    "resilience.guard.calls": "count",
    "resilience.guard.self_s": "s",
    "resilience.retries": "count",
    "resilience.quarantine_regions": "count",
    "resilience.short_circuits": "count",
    "resilience.breaker_trips": "count",
    "resilience.share": "ratio",
    "parallel.batches": "count",
    "parallel.attempts": "count",
    "parallel.worker_busy_s": "s",
    "parallel.overhead_s": "s",
    "parallel.checkpoint.records": "count",
    "parallel.checkpoint.bytes": "bytes",
    "parallel.checkpoint.self_s": "s",
    "parallel.telemetry.records": "count",
    "parallel.telemetry.self_s": "s",
    "parallel.share": "ratio",
    "selection.pool_evals": "count",
    "selection.rank.self_s": "s",
    "setup.space.self_s": "s",
    "setup.ml.self_s": "s",
    "setup.dbms.self_s": "s",
    "setup.selection.self_s": "s",
    "trace.setup_wall_s": "s",
    "trace.timed_wall_s": "s",
    "trace.iters_per_s": "iter/s",
    "trace.untraced_iters_per_s": "iter/s",
    "trace.overhead_pct": "%",
}

#: Tail percentiles in basis points, so nearest ranks are exact integers.
TAIL_LADDER_BP = (5000, 7500, 9000, 9500, 9900, 9950, 9990, 9995, 9999)


def nearest_rank(n: int, bp: int) -> int:
    """0-based nearest-rank index of percentile ``bp / 100`` among ``n`` samples."""
    return max(0, -(-bp * n // 10000) - 1)


def tail_bp(n: int) -> int:
    """The highest ladder percentile with at least ten of ``n`` samples beyond it.

    Below 20 samples no rung has ten beyond it; the median stands in.
    """
    best = TAIL_LADDER_BP[0]
    for bp in TAIL_LADDER_BP:
        if n - 1 - nearest_rank(n, bp) >= 10:
            best = bp
    return best


def percentile(samples: list[float], bp: int) -> float:
    """Nearest-rank percentile ``bp / 100`` of ``samples``."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), bp)]


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if run_hi is not None and a <= run_hi:
            run_hi = max(run_hi, b)
            continue
        if run_hi is not None:
            total += run_hi - run_lo
        run_lo, run_hi = a, b
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover.

    Children on other threads (the guard's watchdog) and in other
    processes (pool workers) count like any other; overlapping children
    are merged and clipped to the parent, so self time is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {
        s[ID]: (s[END] - s[START]) - covered(children.get(s[ID], ()), s[START], s[END])
        for s in spans
    }


def _empty() -> dict[str, Any]:
    return {"calls": 0, "rows": 0, "self_s": 0.0, "wall_s": 0.0, "attrs": []}


def group_totals(spans: list[tuple]) -> dict[tuple[str, str], dict[str, Any]]:
    """``(phase, group)`` -> calls, rows, self and wall seconds, attrs."""
    selfs = self_times(spans)
    totals: dict[tuple[str, str], dict[str, Any]] = {}
    for s in spans:
        t = totals.setdefault((s[PHASE], s[GROUP]), _empty())
        t["calls"] += 1
        t["rows"] += s[ROWS]
        t["self_s"] += selfs[s[ID]]
        t["wall_s"] += s[END] - s[START]
        if s[ATTRS]:
            t["attrs"].append(s[ATTRS])
    return totals


def _layer_self(totals: dict, layer: str, phase: str) -> float:
    return sum(
        t["self_s"]
        for (ph, group), t in totals.items()
        if ph == phase and group.split(".")[0] == layer
    )


def per_layer_metrics(spans: list[tuple], header: dict[str, Any]) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run.

    ``header`` carries what spans cannot: the timed-phase wall time of the
    traced session runs and of their untraced twins, the iteration count,
    the set-up wall time, the median ``Observation.suggest_seconds`` in
    milliseconds and the sessions' median improvement over the default.
    """
    totals = group_totals(spans)

    def get(group: str, phase: str = "timed") -> dict[str, Any]:
        return totals.get((phase, group)) or _empty()

    def attr_sum(group: str, key: str) -> float:
        return sum(a[key] for a in get(group)["attrs"])

    wall = header["timed_wall_s"]
    m: dict[str, float] = {}
    for group, keys in (
        ("space.encode", ("rows", "self_s")),
        ("space.decode", ("rows", "self_s")),
        ("space.snap", ("rows", "self_s")),
        ("space.sample", ("rows", "self_s")),
        ("space.neighbors", ("rows", "self_s")),
        ("ml.forest_fit", ("calls", "self_s")),
        ("ml.forest_predict", ("rows", "self_s")),
        ("ml.gp_fit", ("calls", "rows", "self_s")),
        ("ml.gp_predict", ("rows", "self_s")),
        ("ml.mlp", ("calls", "self_s")),
        ("optimizers.suggest", ("calls", "self_s")),
        ("optimizers.observe", ("calls", "self_s")),
        ("optimizers.ei", ("rows",)),
        ("dbms.evaluate", ("calls", "self_s")),
        ("tuning.session", ("self_s",)),
        ("tuning.objective", ("self_s",)),
        ("resilience.guard", ("calls", "self_s")),
        ("parallel.checkpoint", ("self_s",)),
        ("parallel.telemetry", ("self_s",)),
    ):
        for key in keys:
            m[f"{group}.{key}"] = get(group)[key]
    m["optimizers.suggest.p50_ms"] = header["suggest_p50_ms"]
    m["tuning.improvement_pct"] = header["improvement_pct"]
    evaluations = get("dbms.evaluate")
    crashes = sum(1 for a in evaluations["attrs"] if a["failed"])
    m["dbms.failed_share"] = crashes / evaluations["calls"] if evaluations["calls"] else 0.0
    for key in ("retries", "quarantine_regions", "short_circuits", "breaker_trips"):
        m[f"resilience.{key}"] = attr_sum("resilience.summary", key)
    busy = attr_sum("parallel.run", "worker_busy_s")
    m["parallel.batches"] = get("parallel.run")["calls"]
    m["parallel.attempts"] = attr_sum("parallel.run", "attempts")
    m["parallel.worker_busy_s"] = busy
    m["parallel.overhead_s"] = get("parallel.run")["wall_s"] - busy
    sizes: dict[str, int] = {}
    for a in get("parallel.checkpoint")["attrs"]:
        sizes[a["path"]] = max(sizes.get(a["path"], 0), a["size"])
    m["parallel.checkpoint.records"] = get("parallel.checkpoint")["calls"]
    m["parallel.checkpoint.bytes"] = sum(sizes.values())
    m["parallel.telemetry.records"] = get("parallel.telemetry")["rows"]
    m["selection.pool_evals"] = get("selection.collect", "setup")["rows"]
    m["selection.rank.self_s"] = get("selection.rank", "setup")["self_s"]
    for layer in LAYERS[:-1]:
        m[f"{layer}.share"] = _layer_self(totals, layer, "timed") / wall
    for layer in ("space", "ml", "dbms", "selection"):
        m[f"setup.{layer}.self_s"] = _layer_self(totals, layer, "setup")
    m["trace.setup_wall_s"] = header["setup_wall_s"]
    m["trace.timed_wall_s"] = wall
    plain = header["untraced_wall_s"]
    m["trace.iters_per_s"] = header["iterations"] / wall
    m["trace.untraced_iters_per_s"] = header["iterations"] / plain
    m["trace.overhead_pct"] = 100.0 * (wall / plain - 1.0)
    return {name: m[name] for name in PER_LAYER}


def layer_table(spans: list[tuple], header: dict[str, Any]) -> str:
    """The per-layer table of one traced run: every metric group's calls,
    rows and self time in set-up and in the timed phase, each layer's
    share of the timed phase, and the tracing overhead."""
    totals = group_totals(spans)
    wall = header["timed_wall_s"]
    lines = [
        f"{header['workload']} (seed {header['seed']}): set-up {header['setup_wall_s']:.3f} s; "
        f"timed phase {wall:.3f} s, {header['rounds']} round(s), {header['iterations']} iterations",
        f"{'group':<22}{'setup calls':>12}{'rows':>9}{'self s':>9}"
        f"{'timed calls':>13}{'rows':>10}{'self s':>9}{'share':>8}",
    ]
    groups = sorted({group for _, group in totals})
    for layer in LAYERS:
        members = [g for g in groups if g.split(".")[0] == layer]
        for group in members:
            su = totals.get(("setup", group)) or _empty()
            ti = totals.get(("timed", group)) or _empty()
            lines.append(
                f"{group:<22}{su['calls']:>12}{su['rows']:>9}{su['self_s']:>9.3f}"
                f"{ti['calls']:>13}{ti['rows']:>10}{ti['self_s']:>9.3f}{ti['self_s'] / wall:>8.1%}"
            )
        if members:
            s_setup = _layer_self(totals, layer, "setup")
            s_timed = _layer_self(totals, layer, "timed")
            lines.append(
                f"{'  layer ' + layer:<22}{'':>12}{'':>9}{s_setup:>9.3f}"
                f"{'':>13}{'':>10}{s_timed:>9.3f}{s_timed / wall:>8.1%}"
            )
    plain = header["untraced_wall_s"]
    lines.append(
        f"tracing overhead: {header['iterations'] / wall:.3f} iter/s traced vs "
        f"{header['iterations'] / plain:.3f} iter/s untraced "
        f"({100.0 * (wall / plain - 1.0):+.1f}% wall time; every session ran once untraced "
        f"and once traced, alternating which went first)"
    )
    return "\n".join(lines)
