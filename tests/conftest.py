"""Shared fixtures: small spaces, quick servers, and cached sample pools."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dbms.catalog import mysql_knob_space
from repro.dbms.server import MySQLServer
from repro.selection.base import collect_samples
from repro.space import (
    CategoricalKnob,
    Configuration,
    ConfigurationSpace,
    ContinuousKnob,
    IntegerKnob,
)

#: A representative SYSBENCH-impactful knob subset used across tests.
SYSBENCH_KNOBS = [
    "innodb_flush_log_at_trx_commit",
    "sync_binlog",
    "innodb_log_file_size",
    "innodb_io_capacity",
    "innodb_buffer_pool_size",
    "innodb_doublewrite",
    "innodb_flush_method",
    "innodb_thread_concurrency",
    "thread_cache_size",
    "innodb_write_io_threads",
]


@pytest.fixture
def tiny_space() -> ConfigurationSpace:
    """A 4-knob mixed space for unit tests."""
    return ConfigurationSpace(
        [
            ContinuousKnob("x", 0.0, 1.0, 0.5),
            IntegerKnob("n", 1, 1024, 16, log=True),
            CategoricalKnob("mode", ["a", "b", "c"], "a"),
            IntegerKnob("count", 0, 100, 10),
        ],
        seed=0,
    )


@pytest.fixture(scope="session")
def mysql_space() -> ConfigurationSpace:
    """The full 197-knob MySQL space on instance B."""
    return mysql_knob_space("B", seed=0)


@pytest.fixture(scope="session")
def sysbench_space() -> ConfigurationSpace:
    """A 10-knob impactful SYSBENCH subspace."""
    return mysql_knob_space("B", knob_names=SYSBENCH_KNOBS, seed=0)


@pytest.fixture
def sysbench_server() -> MySQLServer:
    return MySQLServer("SYSBENCH", "B", seed=11)


@pytest.fixture
def job_server() -> MySQLServer:
    return MySQLServer("JOB", "B", seed=12)


@pytest.fixture(scope="session")
def sysbench_pool(mysql_space):
    """A cached 500-sample LHS pool over the full space (configs, scores,
    default score)."""
    server = MySQLServer("SYSBENCH", "B", seed=7)
    return collect_samples(server, mysql_space, 500, seed=7)


@pytest.fixture(scope="session")
def small_regression_data():
    """Synthetic regression data with known structure."""
    rng = np.random.default_rng(0)
    X = rng.random((250, 6))
    y = 4.0 * X[:, 0] - 3.0 * X[:, 1] + 2.0 * X[:, 2] * X[:, 3] + rng.normal(0, 0.05, 250)
    return X, y


class ScalarCodec:
    """The space codec one value at a time: ``Knob.to_unit``,
    ``Knob.from_unit`` and ``Knob.sample`` per knob, in knob order.

    The reference the space's batch codec is held to bit for bit.  Its
    neighbourhood is the one-knob-at-a-time loop ``ConfigurationSpace``
    ran before it built neighbours as unit rows.
    """

    def __init__(self, space: ConfigurationSpace) -> None:
        self.knobs = space.knobs

    def encode(self, configs) -> np.ndarray:
        rows = [[k.to_unit(c[k.name]) for k in self.knobs] for c in configs]
        return np.array(rows, dtype=float).reshape(len(rows), len(self.knobs))

    def decode(self, U) -> list[Configuration]:
        return [
            Configuration({k.name: k.from_unit(float(u)) for k, u in zip(self.knobs, row)})
            for row in np.atleast_2d(U)
        ]

    def sample(self, n: int, rng: np.random.Generator) -> list[Configuration]:
        return [Configuration({k.name: k.sample(rng) for k in self.knobs}) for _ in range(n)]

    def neighbors(self, config, rng, n_continuous=4, stdev=0.2) -> list[Configuration]:
        base = dict(config)
        result = []
        for knob in self.knobs:
            if isinstance(knob, CategoricalKnob):
                for choice in knob.choices:
                    if choice != base[knob.name]:
                        result.append(Configuration({**base, knob.name: choice}))
            else:
                u = knob.to_unit(base[knob.name])
                for _ in range(n_continuous):
                    nu = float(np.clip(u + rng.normal(0.0, stdev), 0.0, 1.0))
                    value = knob.from_unit(nu)
                    if value != base[knob.name]:
                        result.append(Configuration({**base, knob.name: value}))
        return result


@pytest.fixture
def scalar_codec():
    """``ScalarCodec``, to build over a space."""
    return ScalarCodec


@pytest.fixture
def run_python():
    """Run code in a fresh interpreter with a fixed string-hash seed.

    Returns a function ``(code, hash_seed, stdin="") -> stdout`` that fails
    the test if the interpreter exits non-zero.
    """
    src = Path(__file__).resolve().parents[1] / "src"

    def run(code: str, hash_seed: int, stdin: str = "") -> str:
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            input=stdin,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
