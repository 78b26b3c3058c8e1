"""The ``repro.perf.bench`` harness: payload generation, schema validation,
and the CLI round trip.  Timing *magnitudes* are never asserted — CI
runners are too noisy for that — only structure and value domains."""

import json

import pytest

from repro.perf import bench


@pytest.fixture(scope="module")
def payload():
    # One tiny real run shared by the structural tests.
    return bench.run_bench(sizes=(6,), seed=3, repeats=1, pool_rows=32, smoke=True)


def test_run_bench_payload_is_schema_valid(payload):
    assert bench.validate_payload(payload) == []


def test_payload_covers_all_operations(payload):
    ops = {row["op"] for row in payload["results"]}
    assert ops == set(bench.OPS)
    assert payload["schema_version"] == bench.SCHEMA_VERSION
    assert payload["seed"] == 3
    assert payload["smoke"] is True


def test_payload_has_no_wall_clock_state(payload):
    # Reproducibility contract: rerunning with the same seed must produce a
    # payload that differs only in measured durations — no timestamps.
    text = json.dumps(payload)
    for banned in ("timestamp", "created_at", "wall_clock"):
        assert banned not in text


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda p: p.update(schema_version=99), "schema_version"),
        (lambda p: p.pop("seed"), "seed"),
        (lambda p: p.update(results=[]), "non-empty"),
        (lambda p: p["results"][0].update(op="warp_drive"), "op"),
        (lambda p: p["results"][0].update(seconds=-1.0), "seconds"),
        # A schema-1 row carries its time as ``optimized_seconds``.
        (lambda p: p.update(schema_version=1), "optimized_seconds"),
        (lambda p: p["results"][0].update(n="six"), ".n"),
        (lambda p: p.update(sizes=[0]), "sizes"),
        (lambda p: p["env"].pop("numpy"), "env.numpy"),
    ],
)
def test_validator_catches_broken_payloads(payload, mutate, fragment):
    broken = json.loads(json.dumps(payload))  # deep copy
    mutate(broken)
    errors = bench.validate_payload(broken)
    assert errors, f"mutation {fragment!r} was not caught"
    assert any(fragment in e for e in errors)


def test_validator_rejects_non_object():
    assert bench.validate_payload([1, 2, 3]) == ["payload is not a JSON object"]


def test_cli_smoke_and_validate_round_trip(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = bench.main(
        ["--smoke", "--sizes", "6", "--repeats", "1", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert bench.main(["--validate", str(out)]) == 0
    captured = capsys.readouterr()
    assert "schema OK" in captured.out


def test_cli_validate_rejects_broken_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 0}))
    assert bench.main(["--validate", str(bad)]) == 1
    assert "schema violation" in capsys.readouterr().err


def test_cli_validate_missing_file(tmp_path, capsys):
    assert bench.main(["--validate", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


#: The committed trajectory payloads, oldest first.
TRACKED = [
    "BENCH_PR4.json",
    "BENCH_PR9.json",
    "BENCH_PR13.json",
    "BENCH_PR14.json",
    "BENCH_PR15.json",
]


@pytest.mark.parametrize("name", TRACKED)
def test_tracked_payload_is_valid(name):
    """Committed trajectory payloads must always pass the current schema."""
    from pathlib import Path

    tracked = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / name
    assert tracked.exists(), f"benchmarks/perf/{name} is missing"
    assert bench.validate_payload(json.loads(tracked.read_text())) == []


def test_tracked_trajectory_is_comparable():
    """Consecutive tracked payloads must diff cleanly: same suite,
    overlapping cells — across the schema-1 -> schema-2 step too, where
    a schema-1 row's time is its ``optimized_seconds``."""
    from pathlib import Path

    perf_dir = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"
    payloads = [json.loads((perf_dir / name).read_text()) for name in TRACKED]
    for old, new in zip(payloads, payloads[1:]):
        errors, rows = bench.compare_payloads(old, new)
        assert errors == []
        compared_ops = {row["op"] for row in rows}
        assert {"gp_fit", "gp_predict", "bo_iteration", "candidate_pool"} <= compared_ops
        assert all(row["ratio"] > 0 for row in rows)
    assert payloads[2]["schema_version"] == bench.SCHEMA_VERSION
    old_cells = {(r["op"], r["n"]): r["optimized_seconds"] for r in payloads[1]["results"]}
    _, rows = bench.compare_payloads(payloads[1], payloads[2])
    assert all(row["old_seconds"] == old_cells[row["op"], row["n"]] for row in rows)


# ----------------------------------------------------------------------
# --compare mode
# ----------------------------------------------------------------------
def test_compare_identical_payloads(payload):
    errors, rows = bench.compare_payloads(payload, payload)
    assert errors == []
    assert {(r["op"], r["n"]) for r in rows} == {
        (r["op"], r["n"]) for r in payload["results"]
    }
    assert all(r["ratio"] == pytest.approx(1.0) for r in rows)


def test_compare_subset_of_ops_is_fine(payload):
    # Trajectories grow suites over time: an old payload missing the new
    # ops still compares on the intersection.
    old = json.loads(json.dumps(payload))
    old["results"] = [r for r in old["results"] if r["op"] in ("gp_fit", "gp_predict")]
    errors, rows = bench.compare_payloads(old, payload)
    assert errors == []
    assert {r["op"] for r in rows} == {"gp_fit", "gp_predict"}


def test_compare_rejects_schema_violations(payload):
    broken = json.loads(json.dumps(payload))
    broken.pop("results")
    errors, rows = bench.compare_payloads(broken, payload)
    assert rows == []
    assert any("old" in e and "results" in e for e in errors)


def test_compare_rejects_suite_mismatch(payload):
    other = json.loads(json.dumps(payload))
    other["benchmark"] = "somebody.elses.bench"
    errors, rows = bench.compare_payloads(payload, other)
    assert rows == []
    assert any("suite mismatch" in e for e in errors)


def test_compare_rejects_disjoint_cells(payload):
    shifted = json.loads(json.dumps(payload))
    for row in shifted["results"]:
        row["n"] += 1
    errors, rows = bench.compare_payloads(payload, shifted)
    assert rows == []
    assert any("no common" in e for e in errors)


def test_cli_compare_round_trip(tmp_path, capsys, payload):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert bench.main(["--compare", str(path), str(path)]) == 0
    assert "old/new" in capsys.readouterr().out


def test_cli_compare_exit_codes(tmp_path, capsys, payload):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(payload))
    missing = tmp_path / "nope.json"
    assert bench.main(["--compare", str(missing), str(good)]) == 2
    assert "cannot read" in capsys.readouterr().err
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json")
    assert bench.main(["--compare", str(malformed), str(good)]) == 2
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"schema_version": 0}))
    assert bench.main(["--compare", str(bad_schema), str(good)]) == 1
    assert "compare error" in capsys.readouterr().err
