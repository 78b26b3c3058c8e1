"""Self-tests of the benchmark's arithmetic and harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from perfbench.harness import (
    RecordStore,
    end_to_end,
    n_rounds,
    run_timed,
    same_seed_check,
    traced,
)
from perfbench.metrics import END_TO_END, PER_LAYER, nearest_rank, percentile, self_times, tail_bp
from perfbench.tracer import END, GROUP, ID, PARENT, START, THREAD, Entry, Tracer, default_entries
from perfbench.workloads import LocalWorkload, make_workloads
from repro.parallel.faults import RaisingObjective
from repro.tuning.objective import DatabaseObjective

ROOT = Path(__file__).resolve().parents[2]


def _span(sid, parent, start, end, thread=1):
    return (sid, parent, "f", "g.f", start, end, "s0", thread, 0, "timed", None)


def test_self_time_subtracts_children_on_every_thread():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 6.0, thread=2),  # a watchdog thread, overlapping span 2
        _span(4, 3, 4.0, 5.0, thread=2),  # a grandchild counts against 3 only
        _span(5, 1, 9.0, 12.0, thread=2),  # outlives its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(3.0)


class _Guard:
    def __call__(self):
        watchdog = threading.Thread(target=self.evaluate)
        watchdog.start()
        watchdog.join(timeout=5.0)
        assert not watchdog.is_alive()

    def evaluate(self):
        time.sleep(0.02)


def test_watchdog_spans_hang_under_the_open_guard_span(tmp_path):
    tracer = Tracer(str(tmp_path))
    entries = [
        Entry(_Guard, "__call__", "resilience.guard", adopts_threads=True),
        Entry(_Guard, "evaluate", "tuning.objective"),
    ]
    with tracer.installed(entries):
        _Guard()()
    (guard,) = [s for s in tracer.spans if s[GROUP] == "resilience.guard"]
    (inner,) = [s for s in tracer.spans if s[GROUP] == "tuning.objective"]
    assert inner[PARENT] == guard[ID]
    assert inner[THREAD] != guard[THREAD]
    guard_wall = guard[END] - guard[START]
    assert self_times(tracer.spans)[guard[ID]] == pytest.approx(
        guard_wall - (inner[END] - inner[START])
    )


@pytest.mark.parametrize(
    "n, bp",
    [
        (5, 5000),
        (19, 5000),
        (20, 5000),
        (39, 5000),
        (40, 7500),
        (100, 9000),
        (199, 9000),
        (200, 9500),
        (1000, 9900),
        (10000, 9990),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, bp):
    assert tail_bp(n) == bp
    samples = [float(i) for i in range(n)]
    beyond = sum(1 for x in samples if x > percentile(samples, bp))
    assert beyond == n - 1 - nearest_rank(n, bp)
    if n >= 20:
        assert beyond >= 10


def _toy(**overrides) -> LocalWorkload:
    params = dict(
        name="toy",
        optimizers=("random",),
        n_iterations=6,
        guarded=False,
        round_s=1.0,
    )
    params.update(overrides)
    return LocalWorkload(**params)


def test_rounds_depend_on_the_requested_seconds_only():
    wl = _toy(round_s=0.9)
    assert [n_rounds(wl, s) for s in (0.0, 0.4, 1.0, 10.0, 20.0)] == [1, 1, 1, 11, 22]
    study = make_workloads("unused")["fig7-top20-study"]
    assert [n_rounds(study, s) for s in (1.0, 10.0, 36.0)] == [2, 2, 3]


def test_a_session_that_raises_is_counted_and_the_run_goes_on():
    built = []

    def make_objective(server, space):
        built.append(server)
        objective = DatabaseObjective(server, space)
        return RaisingObjective(objective, at_calls=(3,)) if len(built) == 2 else objective

    wl = _toy(optimizers=("random", "random", "random"), make_objective=make_objective)
    timed = run_timed(wl, wl.setup(), 17, rounds=1)
    assert [o.ok for o in timed.outcomes] == [True, False, True]
    assert "injected objective bug at call 3" in timed.outcomes[1].error
    assert timed.outcomes[1].n_iterations == 3
    assert timed.problems() == []
    values, _ = end_to_end([0.001], timed)
    assert values["session_ok_ratio"] == pytest.approx(2 / 3)


def test_same_seed_check_flags_a_fingerprint_or_count_an_earlier_run_recorded_differently(
    tmp_path,
):
    wl = _toy(optimizers=("random", "ga"))
    fingerprints = run_timed(wl, wl.setup(), 17, rounds=1).fingerprints()
    counts = {sid: {"dbms.evaluate": [6, 6]} for sid in fingerprints}
    path = tmp_path / "records.json"

    first = RecordStore(path)
    problems, line = same_seed_check(first, {"fingerprints": fingerprints, "counts": counts})
    assert problems == [] and "compared 0 of 2 fingerprints, 0 of 2 counts" in line
    first.save()

    # A second run of the same seed reproduces the fingerprints.
    again = run_timed(wl, wl.setup(), 17, rounds=1).fingerprints()
    problems, line = same_seed_check(RecordStore(path), {"fingerprints": again, "counts": counts})
    assert problems == [] and "compared 2 of 2 fingerprints, 2 of 2 counts" in line

    sid = sorted(fingerprints)[0]
    doctored = dict(fingerprints, **{sid: "0" * 16})
    problems, _ = same_seed_check(RecordStore(path), {"fingerprints": doctored})
    assert problems == [f"fingerprints of session {sid} differ from an earlier run of this seed"]
    miscounted = dict(counts, **{sid: {"dbms.evaluate": [6, 5]}})
    problems, _ = same_seed_check(RecordStore(path), {"counts": miscounted})
    assert problems == [f"counts of session {sid} differ from an earlier run of this seed"]


def test_a_traced_run_restores_every_wrapped_attribute(tmp_path):
    entries = default_entries()
    before = [(e.owner, e.attr, vars(e.owner).get(e.attr), getattr(e.owner, e.attr)) for e in entries]
    wl = _toy(optimizers=("random", "ga"), guarded=True)
    ref = wl.setup()
    plain = run_timed(wl, ref, 17, rounds=1)
    tracer = Tracer(str(tmp_path))
    wl.mark = tracer.mark
    tracer.phase = "timed"
    with tracer.installed(entries):
        traced = run_timed(wl, ref, 17, rounds=1)
    groups = {s[GROUP] for s in tracer.spans}
    assert {"resilience.guard", "tuning.objective", "dbms.evaluate", "optimizers.suggest"} <= groups
    assert traced.fingerprints() == plain.fingerprints()
    for owner, attr, own, resolved in before:
        assert vars(owner).get(attr) is own, f"{owner}.{attr}"
        assert getattr(owner, attr) is resolved, f"{owner}.{attr}"


def test_a_traced_run_pairs_every_session_with_an_untraced_run_of_it(tmp_path):
    wl = _toy(optimizers=("random", "ga", "random"), guarded=True)
    result, lines = traced(wl, 17, 1.0, RecordStore(tmp_path / "records.json"), tmp_path)
    assert result["correct"], lines
    assert (result["attempted"], result["failed"]) == (3, 0)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(PER_LAYER)
    assert metrics["resilience.guard.calls"] == metrics["dbms.evaluate.calls"] == 3 * 6
    assert metrics["trace.untraced_iters_per_s"] > 0
    header = json.loads((tmp_path / "trace-toy-17.jsonl").read_text(encoding="utf-8").split("\n")[0])
    assert header["iterations"] == 3 * 6 and header["untraced_wall_s"] > 0


def test_benchmark_json_declares_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(make_workloads("unused"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
