"""The guarded evaluation boundary between sessions and objectives.

:class:`GuardedObjective` wraps any session objective and enforces the
resilience contract the paper's real testbed needed operationally but
never formalized:

* **No escaped exceptions.**  An exception raised by the inner objective
  becomes a failed :class:`~repro.optimizers.base.Observation` with
  ``failure_kind=EVALUATION_ERROR`` instead of killing the session.
* **Deadlines.**  A wall-clock watchdog converts hung evaluations into
  ``TIMEOUT`` observations; a simulated-seconds cap does the same for
  evaluations whose *simulated* cost exceeds the per-evaluation budget.
  With a deadline, each guard runs its evaluations (and breaker probes)
  on one daemon watchdog thread; a breach abandons that thread to its
  hung call, and the next evaluation starts a fresh one.
* **Bounded transient retries.**  ``TRANSIENT`` failures are retried a
  bounded number of times with deterministically-seeded jittered backoff
  — the retry schedule derives from the run's SeedSequence, so serial,
  parallel and resumed executions retry identically.  ``CRASH`` is never
  retried: a config that OOM-kills mysqld will OOM-kill it again.
* **Crash quarantine.**  After ``k`` crashes inside an encoded-space
  neighbourhood, further evaluations in that region are short-circuited
  to immediate clamped failures with *zero* simulated restart cost — the
  region is known-bad, no need to pay 35 simulated seconds to re-learn it.
  A configuration is encoded only when quarantine needs its coordinates:
  to look it up once a region exists, or to register a config-induced
  failure.
* **Circuit breaker.**  After ``m`` consecutive failed evaluations the
  guard suspects the server itself (not the configs) is wedged and probes
  the safe default configuration, under the same deadline, before letting
  further evaluations through.

The guard is deliberately transparent: attribute access it does not
intercept is delegated to the inner objective, so sessions, executors and
timers see the wrapped objective's interface unchanged.
"""

from __future__ import annotations

import math
import queue
import threading
import time
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

from repro.optimizers.base import Observation
from repro.resilience.taxonomy import (
    CONFIG_INDUCED_KINDS,
    FailureKind,
    TransientEvaluationError,
    classify_failure_reason,
    is_retryable,
)
from repro.space import Configuration, ConfigurationSpace


@dataclass(frozen=True)
class GuardPolicy:
    """Configuration of the guarded evaluation boundary.

    Frozen and hashable so it can ride inside a RunSpec and contribute a
    stable payload to checkpoint spec keys.
    """

    #: Wall-clock deadline per evaluation attempt (None disables the
    #: watchdog).  Exceeding it yields a ``TIMEOUT`` observation.
    eval_timeout_seconds: float | None = None
    #: Cap on an evaluation's *simulated* cost.  A result whose
    #: ``simulated_seconds`` exceeds this is converted to a ``TIMEOUT``
    #: failure clamped at the cap (None disables).
    max_simulated_seconds: float | None = None
    #: How many times a ``TRANSIENT`` failure is retried (0 disables).
    max_transient_retries: int = 2
    #: Jittered-backoff parameters for transient retries (real seconds;
    #: affects wall-clock only, never the simulated accounting).
    backoff_base_seconds: float = 0.01
    backoff_cap_seconds: float = 0.25
    #: Quarantine: after this many config-induced crashes within
    #: ``quarantine_radius`` of each other (normalized Euclidean distance
    #: over the unit-encoded space), the neighbourhood is quarantined.
    quarantine_crashes: int = 3
    quarantine_radius: float = 0.15
    quarantine_enabled: bool = True
    #: Circuit breaker: this many *consecutive* failures trip a
    #: safe-default health probe before further evaluations.
    breaker_failures: int = 8

    def __post_init__(self) -> None:
        if self.eval_timeout_seconds is not None and self.eval_timeout_seconds <= 0:
            raise ValueError("eval_timeout_seconds must be > 0")
        if self.max_simulated_seconds is not None and self.max_simulated_seconds <= 0:
            raise ValueError("max_simulated_seconds must be > 0")
        if self.max_transient_retries < 0:
            raise ValueError("max_transient_retries must be >= 0")
        if self.quarantine_crashes < 1:
            raise ValueError("quarantine_crashes must be >= 1")
        if self.quarantine_radius <= 0:
            raise ValueError("quarantine_radius must be > 0")
        if self.breaker_failures < 1:
            raise ValueError("breaker_failures must be >= 1")

    def describe(self) -> dict[str, Any]:
        """Deterministic payload for spec keys and telemetry."""
        return {
            "eval_timeout_seconds": self.eval_timeout_seconds,
            "max_simulated_seconds": self.max_simulated_seconds,
            "max_transient_retries": self.max_transient_retries,
            "quarantine_crashes": self.quarantine_crashes,
            "quarantine_radius": self.quarantine_radius,
            "quarantine_enabled": self.quarantine_enabled,
            "breaker_failures": self.breaker_failures,
        }


@dataclass
class QuarantineRegion:
    """A quarantined neighbourhood of the encoded configuration space."""

    center: np.ndarray
    radius: float
    #: Encoded crash points the region was built from.
    crash_points: list[np.ndarray] = field(default_factory=list)
    #: Evaluations short-circuited by this region.
    n_short_circuits: int = 0

    def contains(self, encoded: np.ndarray) -> bool:
        return _normalized_distance(self.center, encoded) <= self.radius


def _normalized_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance over the unit cube, normalized by sqrt(d).

    Normalizing keeps ``quarantine_radius`` meaningful across subspaces
    of different dimensionality (the max possible distance is 1.0).
    """
    d = max(1, a.shape[-1])
    return float(np.linalg.norm(np.asarray(a, float) - np.asarray(b, float)) / math.sqrt(d))


class GuardedObjective:
    """Wraps an objective with the resilience contract (module docstring).

    Parameters
    ----------
    inner:
        The objective to guard (anything with the session's
        ``Objective`` protocol).
    space:
        The knob subspace being tuned; used to encode configurations for
        quarantine geometry and to build the breaker's health probe.
    policy:
        The :class:`GuardPolicy`; defaults to a policy with no deadline
        and quarantine/breaker/retry defaults.
    seed:
        Seed for the retry-backoff jitter stream.  Derive it from the
        run's SeedSequence so retry accounting is identical across
        serial, parallel and resumed executions.
    sleep:
        Injection point for the backoff sleep (tests pass a recorder).
    """

    def __init__(
        self,
        inner,
        space: ConfigurationSpace,
        policy: GuardPolicy | None = None,
        seed: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._inner = inner
        self._space = space
        self.policy = policy if policy is not None else GuardPolicy()
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep
        # Quarantine state.
        self.quarantine_regions: list[QuarantineRegion] = []
        self.quarantine_log: list[dict[str, Any]] = []
        self._crash_points: list[np.ndarray] = []
        self.n_short_circuits = 0
        # Circuit-breaker state.
        self._consecutive_failures = 0
        self.breaker_trips = 0
        self._breaker_open = False
        self._probe_simulated = 0.0
        # The watchdog thread's request queue and the finalizer that stops
        # it; None until the first deadline-bearing call and after a breach.
        # Set here: ``__getattr__`` would find a nested guard's otherwise.
        self._watchdog: tuple[queue.SimpleQueue, weakref.finalize] | None = None
        # Accounting.
        self.n_calls = 0
        self.n_retries = 0
        self.n_guard_failures = 0

    # ------------------------------------------------------------------
    # transparent delegation
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        # Guard against recursion during unpickling, before __init__ ran.
        if name.startswith("__") or name == "_inner":
            raise AttributeError(name)
        return getattr(self._inner, name)

    def failure_fallback_score(self) -> float:
        return self._inner.failure_fallback_score()

    def default_score(self) -> float:
        return self._inner.default_score()

    # ------------------------------------------------------------------
    # the guarded call
    # ------------------------------------------------------------------
    def __call__(self, config: Mapping[str, Any]) -> Observation:
        self.n_calls += 1
        cfg = config if isinstance(config, Configuration) else Configuration(config)
        # The unit encoding, computed only when quarantine needs it.
        encoded = None
        if self.policy.quarantine_enabled and self.quarantine_regions:
            encoded = self._space.encode(cfg)
            index = self._find_quarantine(encoded)
            if index is not None:
                return self._short_circuit(cfg, index)

        if self._breaker_open and not self._health_probe():
            # Breaker stays open: fail fast without touching the config.
            obs = self._failed_obs(
                cfg,
                FailureKind.EVALUATION_ERROR,
                "circuit breaker open: safe-default health probe failed",
                simulated_seconds=0.0,
            )
            self._after(obs, cfg, encoded)
            return obs

        obs = self._evaluate_with_retries(cfg)
        self._after(obs, cfg, encoded)
        return obs

    # ------------------------------------------------------------------
    # evaluation pipeline
    # ------------------------------------------------------------------
    def _evaluate_with_retries(self, cfg: Configuration) -> Observation:
        attempts = 0
        while True:
            attempts += 1
            obs = self._one_attempt(cfg)
            if (
                obs.failed
                and obs.failure_kind is not None
                and is_retryable(obs.failure_kind)
                and attempts <= self.policy.max_transient_retries
            ):
                self.n_retries += 1
                self._sleep(self._backoff_seconds(attempts))
                continue
            obs.eval_attempts = attempts
            return obs

    def _backoff_seconds(self, attempt: int) -> float:
        """Deterministically-jittered exponential backoff (wall-clock)."""
        base = self.policy.backoff_base_seconds * (2.0 ** (attempt - 1))
        jitter = float(self._rng.uniform(0.0, base))
        return min(base + jitter, self.policy.backoff_cap_seconds)

    def _one_attempt(self, cfg: Configuration) -> Observation:
        policy = self.policy
        try:
            obs = self._call_inner(cfg)
        except TransientEvaluationError as exc:
            self.n_guard_failures += 1
            return self._failed_obs(
                cfg, FailureKind.TRANSIENT, f"transient: {exc}", simulated_seconds=0.0
            )
        except Exception as exc:  # noqa: BLE001 — converted to a failed Observation
            self.n_guard_failures += 1
            return self._failed_obs(
                cfg,
                FailureKind.EVALUATION_ERROR,
                f"{type(exc).__name__}: {exc}",
                simulated_seconds=0.0,
            )
        if obs is _TIMED_OUT:
            self.n_guard_failures += 1
            simulated = policy.max_simulated_seconds or 0.0
            return self._failed_obs(
                cfg,
                FailureKind.TIMEOUT,
                f"timeout: evaluation exceeded {policy.eval_timeout_seconds:g}s wall-clock "
                "deadline",
                simulated_seconds=simulated,
            )
        if obs.failed and obs.failure_kind is None:
            # Legacy objective: classify from the reason string if possible.
            obs.failure_kind = classify_failure_reason(obs.failure_reason)
        if (
            not obs.failed
            and policy.max_simulated_seconds is not None
            and obs.simulated_seconds > policy.max_simulated_seconds
        ):
            # Simulated-deadline breach: the real testbed would have
            # aborted the stress test at the cap.
            obs.failed = True
            obs.failure_kind = FailureKind.TIMEOUT
            obs.failure_reason = (
                f"timeout: evaluation cost {obs.simulated_seconds:g} simulated seconds, "
                f"cap is {policy.max_simulated_seconds:g}"
            )
            obs.score = float("nan")
            obs.simulated_seconds = policy.max_simulated_seconds
        return obs

    def _call_inner(self, cfg: Configuration):
        """The inner objective's result for ``cfg``, or ``_TIMED_OUT``.

        Without a deadline the call runs on the caller's thread.  With
        one it runs on the guard's watchdog thread, started by the first
        such call, and the caller waits up to ``eval_timeout_seconds`` for
        the reply; an exception raised there (``BaseException`` included)
        is re-raised here.  On a breach the thread is abandoned to its
        hung call -- cooperative cancellation is impossible for arbitrary
        objectives -- and told to exit once that call returns.  Its late
        reply lands in a queue nobody reads, and the next call starts a
        fresh thread, so a hung evaluation never wedges later ones.
        """
        timeout = self.policy.eval_timeout_seconds
        if timeout is None:
            return self._inner(cfg)
        if self._watchdog is None:
            requests = queue.SimpleQueue()
            threading.Thread(
                target=_serve, args=(requests,), daemon=True, name="repro-guard-watchdog"
            ).start()
            # The thread holds no reference to the guard: collecting the
            # guard sends it the stop sentinel.
            self._watchdog = (requests, weakref.finalize(self, requests.put, None))
        requests, stop = self._watchdog
        reply = queue.SimpleQueue()
        requests.put((self._inner, cfg, reply))
        try:
            value, exc = reply.get(timeout=timeout)
        except queue.Empty:
            stop()
            self._watchdog = None
            return _TIMED_OUT
        if exc is not None:
            raise exc
        return value

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def _find_quarantine(self, encoded: np.ndarray) -> int | None:
        """Index of the first quarantined region containing ``encoded``.

        An index rather than the region: regions hold ndarrays, so
        ``list.index`` (which compares with ``==``) cannot look one up.
        """
        for index, region in enumerate(self.quarantine_regions):
            if region.contains(encoded):
                return index
        return None

    def _short_circuit(self, cfg: Configuration, index: int) -> Observation:
        """Immediate clamped failure: the region is known to crash."""
        region = self.quarantine_regions[index]
        self.n_short_circuits += 1
        region.n_short_circuits += 1
        self.quarantine_log.append(
            {
                "event": "short_circuit",
                "region": index,
                "n_short_circuits": region.n_short_circuits,
            }
        )
        # Zero simulated cost: no restart attempt is paid for a region
        # the guard already knows is fatal.
        return self._failed_obs(
            cfg,
            FailureKind.CRASH,
            "quarantined: configuration inside a known crash region",
            simulated_seconds=0.0,
        )

    def _register_crash(self, encoded: np.ndarray) -> None:
        self._crash_points.append(np.asarray(encoded, float))
        cluster = [
            p
            for p in self._crash_points
            if _normalized_distance(p, encoded) <= self.policy.quarantine_radius
        ]
        if len(cluster) >= self.policy.quarantine_crashes:
            center = np.mean(np.stack(cluster), axis=0)
            region = QuarantineRegion(
                center=center, radius=self.policy.quarantine_radius, crash_points=cluster
            )
            self.quarantine_regions.append(region)
            self._crash_points = [
                p for p in self._crash_points if not any(p is q for q in cluster)
            ]
            self.quarantine_log.append(
                {
                    "event": "quarantine",
                    "region": len(self.quarantine_regions) - 1,
                    "n_crashes": len(cluster),
                    "center": [round(float(v), 6) for v in center],
                }
            )

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _health_probe(self) -> bool:
        """Probe the safe default configuration; close the breaker on success.

        The probe runs under the evaluation deadline.  A probe past it is
        a failed probe, charged what a timed-out evaluation is charged.
        """
        default = self._space.default_configuration()
        try:
            probe = self._call_inner(default)
        except Exception:  # reprolint: disable=R009 probe failure keeps the breaker open; no observation is recorded for probes
            self.quarantine_log.append({"event": "probe_failed", "error": "exception"})
            return False
        if probe is _TIMED_OUT:
            self._probe_simulated = self.policy.max_simulated_seconds or 0.0
            self.quarantine_log.append({"event": "probe_failed", "error": "timeout"})
            return False
        self._probe_simulated = getattr(probe, "simulated_seconds", 0.0)
        if getattr(probe, "failed", True):
            self.quarantine_log.append({"event": "probe_failed", "error": "failed"})
            return False
        self._breaker_open = False
        self._consecutive_failures = 0
        self.quarantine_log.append({"event": "breaker_closed"})
        return True

    def _after(self, obs: Observation, cfg: Configuration, encoded: np.ndarray | None) -> None:
        """Post-evaluation bookkeeping: breaker counter and quarantine.

        ``encoded`` is ``cfg``'s encoding if the quarantine lookup made it.
        """
        probe_cost = self._probe_simulated
        if probe_cost:
            # Fold the health probe's simulated cost into this
            # observation so session budgets account for it.
            obs.simulated_seconds += probe_cost
            obs.metrics = dict(obs.metrics)
            obs.metrics["guard_probe_seconds"] = probe_cost
        self._probe_simulated = 0.0
        if obs.failed:
            self._consecutive_failures += 1
            if (
                not self._breaker_open
                and self._consecutive_failures >= self.policy.breaker_failures
            ):
                self._breaker_open = True
                self.breaker_trips += 1
                self.quarantine_log.append(
                    {"event": "breaker_open", "consecutive_failures": self._consecutive_failures}
                )
            if obs.failure_kind in CONFIG_INDUCED_KINDS and self.policy.quarantine_enabled:
                self._register_crash(self._space.encode(cfg) if encoded is None else encoded)
        else:
            self._consecutive_failures = 0

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _failed_obs(
        self,
        cfg: Configuration,
        kind: FailureKind,
        reason: str,
        simulated_seconds: float,
    ) -> Observation:
        return Observation(
            config=cfg,
            objective=float("nan"),
            score=float("nan"),
            failed=True,
            failure_reason=reason,
            failure_kind=kind,
            simulated_seconds=simulated_seconds,
        )

    def summary(self) -> dict[str, Any]:
        """Guard-level accounting for telemetry and CLI output."""
        return {
            "n_calls": self.n_calls,
            "n_retries": self.n_retries,
            "n_guard_failures": self.n_guard_failures,
            "n_short_circuits": self.n_short_circuits,
            "n_quarantine_regions": len(self.quarantine_regions),
            "breaker_trips": self.breaker_trips,
            "breaker_open": self._breaker_open,
        }


def _serve(requests: queue.SimpleQueue) -> None:
    """A guard's watchdog thread: run each ``(fn, arg, reply)`` request in
    turn, putting ``(result, None)`` or ``(None, exception)`` on ``reply``,
    until the stop sentinel ``None`` arrives.  Nothing of a request stays
    referenced while the thread waits for the next one."""
    while (request := requests.get()) is not None:
        fn, arg, reply = request
        try:
            outcome = (fn(arg), None)
        except BaseException as exc:  # reprolint: disable=R009 re-raised on the caller thread by GuardedObjective._call_inner
            outcome = (None, exc)
        reply.put(outcome)
        del request, fn, arg, reply, outcome


class _TimedOutSentinel:
    """Unique marker returned by the watchdog when the deadline passes."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<timed out>"


_TIMED_OUT = _TimedOutSentinel()
