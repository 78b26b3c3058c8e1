"""Parallel experiment execution.

Every evaluation artifact in the reproduction boils down to a batch of
fully independent ``(server, optimizer, session)`` runs.  This package
fans those runs out over child processes while keeping them bit-identical
to serial execution — and keeps the work durable when a process dies:

- :mod:`repro.parallel.spec` describes one run (:class:`RunSpec`) and its
  outcome (:class:`RunResult`), and derives per-run seeds from a single
  root seed via ``numpy.random.SeedSequence.spawn`` so the simulator's
  noise stream, the optimizer's sampling stream, and the session's LHS
  stream are statistically independent *and* independent of the execution
  order.
- :mod:`repro.parallel.executor` runs each attempt of a spec in a
  process of its own, at most ``n_workers`` at a time, taking results as
  they arrive over one-way pipes.  A process that dies costs only its
  own run a retryable failed attempt; no other run shares it.
- :mod:`repro.parallel.telemetry` streams one JSON line per finished run
  *attempt* the moment it completes (plus per-run ``"final"`` records at
  study end) — tailable, append-only, and readable past a torn final
  line.
- :mod:`repro.parallel.checkpoint` persists completed results to an
  append-only :class:`StudyCheckpoint` keyed by a content hash of the
  spec, so a killed study resumes without re-running finished work.
- :mod:`repro.parallel.faults` injects deterministic process deaths,
  objective failures, and torn writes — the harness proving all of the
  above.
"""

from repro.parallel.checkpoint import (
    StudyCheckpoint,
    history_fingerprint,
    record_to_result,
    result_fingerprint,
    result_to_record,
    spec_key,
)
from repro.parallel.executor import ParallelExecutor, execute_run
from repro.parallel.faults import (
    FlakyEval,
    HangingObjective,
    InjectedFault,
    RaisingObjective,
    TransientObjective,
    WorkerKiller,
    choose_victims,
    transient_schedule,
    truncate_tail,
)
from repro.parallel.spec import (
    RegistryOptimizerFactory,
    RunResult,
    RunSeeds,
    RunSpec,
    derive_run_seeds,
)
from repro.parallel.telemetry import (
    append_telemetry_record,
    attempt_records,
    final_records,
    read_telemetry,
    telemetry_record,
    write_telemetry,
)

__all__ = [
    "FlakyEval",
    "HangingObjective",
    "InjectedFault",
    "ParallelExecutor",
    "RaisingObjective",
    "RegistryOptimizerFactory",
    "RunResult",
    "RunSeeds",
    "RunSpec",
    "StudyCheckpoint",
    "TransientObjective",
    "WorkerKiller",
    "append_telemetry_record",
    "attempt_records",
    "choose_victims",
    "derive_run_seeds",
    "execute_run",
    "final_records",
    "history_fingerprint",
    "read_telemetry",
    "record_to_result",
    "result_fingerprint",
    "result_to_record",
    "spec_key",
    "telemetry_record",
    "transient_schedule",
    "truncate_tail",
    "write_telemetry",
]
