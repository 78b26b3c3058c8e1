"""GuardedObjective: exception containment, deadlines, retries, quarantine,
and the circuit breaker."""

import gc
import math
import threading

import numpy as np
import pytest

from repro.dbms.server import MySQLServer
from repro.optimizers import OPTIMIZER_REGISTRY
from repro.parallel.faults import (
    HangingObjective,
    RaisingObjective,
    TransientObjective,
)
from repro.resilience import FailureKind, GuardedObjective, GuardPolicy
from repro.tuning.objective import DatabaseObjective
from repro.tuning.session import TuningSession

GIB = 1 << 30


def _db_objective(space, seed=11):
    return DatabaseObjective(MySQLServer("SYSBENCH", "B", seed=seed), space)


class _ThreadRecorder:
    """Objective wrapper recording the thread that runs each call."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = []

    def __call__(self, config):
        self.threads.append(threading.current_thread())
        return self.inner(config)


def _watchdog_threads():
    return {t for t in threading.enumerate() if t.name == "repro-guard-watchdog"}


def _run_session(objective, space, n_iterations=8, seed=3, **kwargs):
    optimizer = OPTIMIZER_REGISTRY["random"](space, seed=seed)
    session = TuningSession(
        objective,
        optimizer,
        space,
        max_iterations=n_iterations,
        n_initial=2,
        seed=seed,
        **kwargs,
    )
    return session, session.run()


# ----------------------------------------------------------------------
# the regression the guard exists for
# ----------------------------------------------------------------------
def test_unguarded_objective_exception_aborts_session(sysbench_space):
    chaos = RaisingObjective(_db_objective(sysbench_space), at_calls=(2,))
    with pytest.raises(ValueError, match="injected objective bug"):
        _run_session(chaos, sysbench_space)


def test_guarded_session_completes_budget_with_clamped_errors(sysbench_space):
    chaos = RaisingObjective(_db_objective(sysbench_space), at_calls=(2, 4))
    guarded = GuardedObjective(chaos, sysbench_space, seed=0)
    _, history = _run_session(guarded, sysbench_space, n_iterations=8)
    assert len(history) == 8
    # The space also produces natural crashes (oversized buffer pools), so
    # select the injected exceptions by kind.
    errors = [
        o for o in history if o.failure_kind is FailureKind.EVALUATION_ERROR
    ]
    assert len(errors) == 2
    assert all(not math.isnan(o.score) for o in errors)  # clamped, not NaN
    assert all("ValueError" in o.failure_reason for o in errors)
    # Every failure, injected or natural, is clamped to a finite score.
    assert np.isfinite(history.scores()).all()


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
def test_wall_clock_watchdog_yields_timeout(sysbench_space):
    chaos = HangingObjective(
        _db_objective(sysbench_space), at_calls=(1,), hang_seconds=5.0
    )
    policy = GuardPolicy(eval_timeout_seconds=0.05)
    guarded = GuardedObjective(chaos, sysbench_space, policy=policy, seed=0)
    _, history = _run_session(guarded, sysbench_space, n_iterations=4)
    assert len(history) == 4
    timeouts = [o for o in history if o.failure_kind is FailureKind.TIMEOUT]
    assert len(timeouts) == 1
    assert timeouts[0].simulated_seconds == 0.0  # no cap configured


def test_watchdog_is_one_thread_per_guard(sysbench_space):
    gc.collect()
    before = _watchdog_threads()
    recorder = _ThreadRecorder(_db_objective(sysbench_space))
    policy = GuardPolicy(eval_timeout_seconds=30.0)
    guarded = GuardedObjective(recorder, sysbench_space, policy=policy, seed=0)
    for config in sysbench_space.sample_configurations(20, np.random.default_rng(0)):
        guarded(config)
        assert len(_watchdog_threads() - before) == 1
    assert len(set(recorder.threads)) == 1
    watchdog = recorder.threads[0]
    assert watchdog is not threading.current_thread() and watchdog.daemon
    # Without a deadline no thread is started: the caller evaluates.
    unbounded = _ThreadRecorder(_db_objective(sysbench_space))
    GuardedObjective(unbounded, sysbench_space, seed=0)(sysbench_space.default_configuration())
    assert unbounded.threads == [threading.current_thread()]


def test_watchdog_breach_abandons_the_thread(sysbench_space):
    recorder = _ThreadRecorder(
        HangingObjective(_db_objective(sysbench_space), at_calls=(1,), hang_seconds=1.0)
    )
    policy = GuardPolicy(eval_timeout_seconds=0.25)
    guarded = GuardedObjective(recorder, sysbench_space, policy=policy, seed=0)
    default = sysbench_space.default_configuration()
    assert not guarded(default).failed
    assert guarded(default).failure_kind is FailureKind.TIMEOUT
    first, abandoned = recorder.threads
    assert first is abandoned
    after_breach = [guarded(default)]
    # The hung call returns, raising InjectedFault, and its thread exits.
    abandoned.join(timeout=10.0)
    assert not abandoned.is_alive()
    after_breach += [guarded(default) for _ in range(3)]
    # A fresh thread served every later call, and the abandoned call's
    # late exception reached none of them.
    assert all(not obs.failed for obs in after_breach)
    assert set(recorder.threads[2:]) == {recorder.threads[2]}
    assert recorder.threads[2] is not abandoned
    assert guarded.n_guard_failures == 1


def test_idle_watchdog_exits_with_its_guard(sysbench_space):
    recorder = _ThreadRecorder(_db_objective(sysbench_space))
    policy = GuardPolicy(eval_timeout_seconds=30.0)
    guarded = GuardedObjective(recorder, sysbench_space, policy=policy, seed=0)
    guarded(sysbench_space.default_configuration())
    (watchdog,) = recorder.threads
    assert watchdog.is_alive()
    del guarded
    gc.collect()
    watchdog.join(timeout=10.0)
    assert not watchdog.is_alive()


def test_simulated_seconds_cap_converts_success_to_timeout(sysbench_space):
    policy = GuardPolicy(max_simulated_seconds=100.0)  # below 215s per eval
    guarded = GuardedObjective(_db_objective(sysbench_space), sysbench_space, policy=policy)
    obs = guarded(sysbench_space.default_configuration())
    assert obs.failed
    assert obs.failure_kind is FailureKind.TIMEOUT
    assert obs.simulated_seconds == 100.0  # clamped at the cap


# ----------------------------------------------------------------------
# transient retries
# ----------------------------------------------------------------------
def test_transient_failures_are_retried_with_attempt_accounting(sysbench_space):
    chaos = TransientObjective(_db_objective(sysbench_space), fail_calls=(1,))
    sleeps = []
    policy = GuardPolicy(max_transient_retries=2)
    guarded = GuardedObjective(
        chaos, sysbench_space, policy=policy, seed=0, sleep=sleeps.append
    )
    first = guarded(sysbench_space.default_configuration())
    assert not first.failed and first.eval_attempts == 1
    second = guarded(sysbench_space.default_configuration())  # fails once, retried
    assert not second.failed
    assert second.eval_attempts == 2
    assert guarded.n_retries == 1
    assert len(sleeps) == 1 and sleeps[0] > 0.0


def test_transient_retries_are_bounded(sysbench_space):
    chaos = TransientObjective(
        _db_objective(sysbench_space), fail_calls=tuple(range(10))
    )
    policy = GuardPolicy(max_transient_retries=2)
    guarded = GuardedObjective(
        chaos, sysbench_space, policy=policy, seed=0, sleep=lambda _: None
    )
    obs = guarded(sysbench_space.default_configuration())
    assert obs.failed
    assert obs.failure_kind is FailureKind.TRANSIENT
    assert obs.eval_attempts == 3  # 1 original + 2 retries


def test_backoff_schedule_is_seed_deterministic(sysbench_space):
    def collect(seed):
        chaos = TransientObjective(
            _db_objective(sysbench_space), fail_calls=tuple(range(10))
        )
        sleeps = []
        guarded = GuardedObjective(
            chaos,
            sysbench_space,
            policy=GuardPolicy(max_transient_retries=3),
            seed=seed,
            sleep=sleeps.append,
        )
        guarded(sysbench_space.default_configuration())
        return sleeps

    assert collect(7) == collect(7)
    assert collect(7) != collect(8)


def test_crash_is_never_retried(sysbench_space):
    guarded = GuardedObjective(
        _db_objective(sysbench_space),
        sysbench_space,
        policy=GuardPolicy(max_transient_retries=5),
        seed=0,
        sleep=lambda _: None,
    )
    crash = dict(sysbench_space.default_configuration())
    crash["innodb_buffer_pool_size"] = 16 * GIB  # ~RAM: crash band
    obs = guarded(crash)
    assert obs.failed
    assert obs.failure_kind is FailureKind.CRASH
    assert obs.eval_attempts == 1
    assert guarded.n_retries == 0


# ----------------------------------------------------------------------
# quarantine
# ----------------------------------------------------------------------
def _crashing_config(space, bp_gib, **overrides):
    config = dict(space.default_configuration(), **overrides)
    config["innodb_buffer_pool_size"] = bp_gib * GIB
    return config


def test_quarantine_short_circuits_at_zero_simulated_cost(sysbench_space):
    inner = _db_objective(sysbench_space)
    policy = GuardPolicy(quarantine_crashes=3, quarantine_radius=0.2)
    guarded = GuardedObjective(inner, sysbench_space, policy=policy, seed=0)
    for bp in (30, 31, 32):
        obs = guarded(_crashing_config(sysbench_space, bp))
        assert obs.failed and obs.failure_kind in (
            FailureKind.CRASH,
            FailureKind.UNSTARTABLE,
        )
        assert obs.simulated_seconds > 0.0  # real crashes still cost the restart
    assert len(guarded.quarantine_regions) == 1

    calls_before = inner.server.n_evaluations
    post = guarded(_crashing_config(sysbench_space, 31))
    assert post.failed
    assert post.failure_kind is FailureKind.CRASH
    assert post.simulated_seconds == 0.0  # short-circuit: no restart paid
    assert "quarantined" in post.failure_reason
    assert inner.server.n_evaluations == calls_before  # inner never touched
    assert guarded.n_short_circuits == 1
    assert guarded.quarantine_log[-1]["event"] == "short_circuit"

    # A second crash cluster far from the first becomes region 1, and a
    # configuration inside it short-circuits against that region.
    far = dict(sync_binlog=4096, innodb_thread_concurrency=1000, thread_cache_size=16384)
    for bp in (30, 31, 32):
        assert guarded(_crashing_config(sysbench_space, bp, **far)).simulated_seconds > 0.0
    assert len(guarded.quarantine_regions) == 2
    hit = guarded(_crashing_config(sysbench_space, 31, **far))
    assert hit.failure_kind is FailureKind.CRASH
    assert hit.simulated_seconds == 0.0
    assert guarded.n_short_circuits == 2
    assert guarded.quarantine_log[-1] == {
        "event": "short_circuit",
        "region": 1,
        "n_short_circuits": 1,
    }


def test_quarantine_leaves_distant_configs_alone(sysbench_space):
    policy = GuardPolicy(quarantine_crashes=3, quarantine_radius=0.05)
    guarded = GuardedObjective(
        _db_objective(sysbench_space), sysbench_space, policy=policy, seed=0
    )
    for bp in (30, 31, 32):
        guarded(_crashing_config(sysbench_space, bp))
    assert guarded.quarantine_regions
    ok = guarded(sysbench_space.default_configuration())
    assert not ok.failed


def _count_encodes(monkeypatch, space):
    """Record every ``space.encode`` call made on ``space``."""
    calls = []
    encode = space.encode

    def spy(config):
        calls.append(config)
        return encode(config)

    monkeypatch.setattr(space, "encode", spy)
    return calls


def test_guard_encodes_only_when_quarantine_needs_coordinates(sysbench_space, monkeypatch):
    encodes = _count_encodes(monkeypatch, sysbench_space)
    policy = GuardPolicy(quarantine_crashes=3, quarantine_radius=0.2)
    guarded = GuardedObjective(
        _db_objective(sysbench_space), sysbench_space, policy=policy, seed=0
    )
    default = sysbench_space.default_configuration()
    # No failure, no region: nothing to encode.
    for _ in range(3):
        assert not guarded(default).failed
    assert len(encodes) == 0
    # One encode per config-induced failure, to register it.
    for n, bp in enumerate((30, 31, 32), start=1):
        assert guarded(_crashing_config(sysbench_space, bp)).failed
        assert len(encodes) == n
    assert len(guarded.quarantine_regions) == 1
    # Once a region exists, one encode per call: a short circuit, a crash
    # outside the region (the lookup's encoding registers it) and a
    # success outside it.
    far = dict(sync_binlog=4096, innodb_thread_concurrency=1000, thread_cache_size=16384)
    calls = [
        _crashing_config(sysbench_space, 31),
        _crashing_config(sysbench_space, 30, **far),
        dict(default, **far),
    ]
    observations = []
    for n, config in enumerate(calls, start=4):
        observations.append(guarded(config))
        assert len(encodes) == n
    assert [o.failed for o in observations] == [True, True, False]
    assert guarded.n_short_circuits == 1
    assert len(guarded._crash_points) == 1


def test_disabled_quarantine_never_encodes(sysbench_space, monkeypatch):
    encodes = _count_encodes(monkeypatch, sysbench_space)
    policy = GuardPolicy(quarantine_enabled=False, quarantine_crashes=1)
    guarded = GuardedObjective(
        _db_objective(sysbench_space), sysbench_space, policy=policy, seed=0
    )
    for bp in (30, 31, 32):
        assert guarded(_crashing_config(sysbench_space, bp)).failed
    assert not guarded(sysbench_space.default_configuration()).failed
    assert encodes == []


def test_quarantine_can_be_disabled(sysbench_space):
    policy = GuardPolicy(quarantine_enabled=False, quarantine_crashes=1)
    guarded = GuardedObjective(
        _db_objective(sysbench_space), sysbench_space, policy=policy, seed=0
    )
    for bp in (30, 31, 32):
        guarded(_crashing_config(sysbench_space, bp))
    assert guarded.quarantine_regions == []
    assert guarded.n_short_circuits == 0


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def test_breaker_trips_and_probe_closes_it(sysbench_space):
    chaos = RaisingObjective(_db_objective(sysbench_space), at_calls=tuple(range(3)))
    policy = GuardPolicy(breaker_failures=3, quarantine_enabled=False)
    guarded = GuardedObjective(chaos, sysbench_space, policy=policy, seed=0)
    default = sysbench_space.default_configuration()
    for _ in range(3):
        assert guarded(default).failed
    assert guarded.breaker_trips == 1
    # Next call probes the default (healthy now), closes the breaker, and
    # evaluates normally — folding the probe's simulated cost in.
    obs = guarded(default)
    assert not obs.failed
    assert obs.metrics.get("guard_probe_seconds", 0.0) > 0.0
    assert guarded.summary()["breaker_open"] is False


def test_breaker_stays_open_while_probe_fails(sysbench_space):
    chaos = RaisingObjective(_db_objective(sysbench_space), always=True)
    policy = GuardPolicy(breaker_failures=2, quarantine_enabled=False)
    guarded = GuardedObjective(chaos, sysbench_space, policy=policy, seed=0)
    default = sysbench_space.default_configuration()
    for _ in range(2):
        guarded(default)
    assert guarded.breaker_trips == 1
    calls_before = chaos.n_calls
    obs = guarded(default)
    assert obs.failed
    assert "circuit breaker open" in obs.failure_reason
    # The probe consumed one inner call; the config itself was never tried.
    assert chaos.n_calls == calls_before + 1


@pytest.mark.parametrize("max_simulated_seconds", [None, 300.0])
def test_breaker_probe_runs_under_the_deadline(sysbench_space, max_simulated_seconds):
    chaos = HangingObjective(
        RaisingObjective(_db_objective(sysbench_space), at_calls=(0, 1)),
        at_calls=(2,),
        hang_seconds=5.0,
    )
    policy = GuardPolicy(
        eval_timeout_seconds=0.05,
        max_simulated_seconds=max_simulated_seconds,
        breaker_failures=2,
        quarantine_enabled=False,
    )
    guarded = GuardedObjective(chaos, sysbench_space, policy=policy, seed=0)
    default = sysbench_space.default_configuration()
    for _ in range(2):
        assert guarded(default).failed
    assert guarded.breaker_trips == 1
    # The probe (call 2) hangs past the deadline: a failed probe.
    obs = guarded(default)
    assert obs.failed
    assert "circuit breaker open" in obs.failure_reason
    assert guarded.quarantine_log[-1] == {"event": "probe_failed", "error": "timeout"}
    assert guarded.summary()["breaker_open"] is True
    # Charged what a timed-out evaluation is charged.
    charge = max_simulated_seconds or 0.0
    assert obs.simulated_seconds == charge
    assert obs.metrics.get("guard_probe_seconds", 0.0) == charge


# ----------------------------------------------------------------------
# transparency
# ----------------------------------------------------------------------
def test_guard_delegates_inner_interface(sysbench_space):
    inner = _db_objective(sysbench_space)
    guarded = GuardedObjective(inner, sysbench_space, seed=0)
    assert guarded.direction == inner.direction
    assert guarded.default_score() == inner.default_score()
    assert guarded.failure_fallback_score() == inner.failure_fallback_score()
    assert guarded.server is inner.server


def test_guard_policy_validation():
    with pytest.raises(ValueError):
        GuardPolicy(eval_timeout_seconds=0.0)
    with pytest.raises(ValueError):
        GuardPolicy(max_transient_retries=-1)
    with pytest.raises(ValueError):
        GuardPolicy(quarantine_crashes=0)
    with pytest.raises(ValueError):
        GuardPolicy(breaker_failures=0)


def test_guard_summary_counts(sysbench_space):
    chaos = TransientObjective(_db_objective(sysbench_space), fail_calls=(0,))
    guarded = GuardedObjective(
        chaos,
        sysbench_space,
        policy=GuardPolicy(max_transient_retries=1),
        seed=0,
        sleep=lambda _: None,
    )
    guarded(sysbench_space.default_configuration())
    summary = guarded.summary()
    assert summary["n_calls"] == 1
    assert summary["n_retries"] == 1
    assert summary["n_guard_failures"] == 1
