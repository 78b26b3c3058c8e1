"""Parallel experiment engine: serial/parallel equivalence and speedup.

The engine's contract is that ``n_workers`` is a pure throughput knob:
for a fixed seed every run's history is bit-identical whether the batch
executes serially or fans out over child processes.  This bench runs
the same batch both ways, asserts equivalence, and prints the measured
wall-clock (a genuine speedup needs >1 CPU; on a single-core host the
processes only add overhead, so the speedup assertion is gated on
``os.cpu_count()``).
"""

from __future__ import annotations

import os
import time

from conftest import run_once

from repro.analysis import format_table
from repro.dbms.catalog import mysql_knob_space
from repro.experiments.runner import run_sessions
from repro.parallel import RegistryOptimizerFactory

KNOBS = [
    "innodb_flush_log_at_trx_commit",
    "innodb_log_file_size",
    "innodb_buffer_pool_size",
    "innodb_io_capacity",
]
N_RUNS = 4
N_ITERATIONS = 25


def _run(n_workers: int):
    space = mysql_knob_space("B", knob_names=KNOBS, seed=0)
    t0 = time.perf_counter()
    histories = run_sessions(
        "SYSBENCH",
        space,
        RegistryOptimizerFactory("smac"),
        n_runs=N_RUNS,
        n_iterations=N_ITERATIONS,
        n_initial=5,
        seed=17,
        n_workers=n_workers,
    )
    return histories, time.perf_counter() - t0


def test_parallel_runner_equivalence_and_speedup(benchmark):
    serial, serial_seconds = _run(n_workers=1)
    (parallel, parallel_seconds) = run_once(benchmark, lambda: _run(n_workers=4))

    assert len(serial) == len(parallel) == N_RUNS
    for a, b in zip(serial, parallel):
        assert a.scores().tolist() == b.scores().tolist()
        assert [o.iteration for o in a] == [o.iteration for o in b]
        assert [o.config for o in a] == [o.config for o in b]

    speedup = serial_seconds / parallel_seconds
    print()
    print(
        format_table(
            ["Mode", "Workers", "Wall seconds", "Speedup"],
            [
                ("serial", 1, serial_seconds, 1.0),
                ("parallel", 4, parallel_seconds, speedup),
            ],
            title=f"Parallel runner: {N_RUNS} x {N_ITERATIONS}-iteration SMAC "
            f"sessions ({os.cpu_count()} CPU(s) available)",
        )
    )
    if (os.cpu_count() or 1) >= 4:
        # With real cores behind the processes, 4 independent runs should beat
        # serial execution comfortably.
        assert speedup > 1.3
