"""Shared benchmark configuration.

Benches run at :func:`repro.experiments.scale.bench_scale` by default
(minutes); set ``REPRO_SCALE=paper`` for the paper's full budgets.
Each bench prints the regenerated table/figure data so results can be
compared against EXPERIMENTS.md.
"""

from __future__ import annotations

import faulthandler

import pytest

from repro.experiments.scale import bench_scale


@pytest.fixture(autouse=True)
def _no_hang_timeout():
    """A bench runs for minutes, hours at paper scale: cancel the per-test
    hang timeout (``faulthandler_timeout``) that ``pyproject.toml`` sets
    for the test suite, which would otherwise end the run."""
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
