"""Tests of the analytical performance model: calibration, interactions,
failure semantics, and internal-metric consistency."""

import numpy as np
import pytest

from repro.dbms.engine import PerformanceModel
from repro.dbms.instances import INSTANCES
from repro.dbms.metrics import INTERNAL_METRIC_NAMES
from repro.dbms.server import MySQLServer
from repro.workloads import ALL_WORKLOADS

GB = 1024**3
MB = 1024**2


@pytest.fixture
def quiet_server():
    return MySQLServer("SYSBENCH", "B", noise=False)


@pytest.fixture
def quiet_job():
    return MySQLServer("JOB", "B", noise=False)


class TestCalibration:
    def test_default_matches_anchor_for_all_workloads(self):
        for name, profile in ALL_WORKLOADS.items():
            server = MySQLServer(name, "B", noise=False)
            result = server.evaluate(server.default_configuration())
            anchor = (
                profile.base_latency_s if profile.is_analytical else profile.base_throughput
            )
            assert result.objective == pytest.approx(anchor, rel=1e-6), name

    def test_sysbench_headroom_in_paper_range(self, quiet_server):
        """A well-tuned config should land roughly at the paper's ~2.5-4x."""
        d = quiet_server.default_configuration()
        tuned = d.with_values(
            innodb_flush_log_at_trx_commit="0",
            sync_binlog=0,
            innodb_log_file_size=4 * GB,
            innodb_io_capacity=8000,
            innodb_doublewrite="OFF",
            innodb_flush_method="O_DIRECT",
            innodb_buffer_pool_size=13 * GB,
            thread_cache_size=128,
        )
        ratio = quiet_server.evaluate(tuned).objective / quiet_server.evaluate(d).objective
        assert 2.0 < ratio < 4.5

    def test_job_headroom_in_paper_range(self, quiet_job):
        d = quiet_job.default_configuration()
        tuned = d.with_values(
            join_buffer_size=64 * MB,
            tmp_table_size=256 * MB,
            max_heap_table_size=256 * MB,
            sort_buffer_size=32 * MB,
            innodb_stats_method="nulls_unequal",
            innodb_random_read_ahead="ON",
            read_rnd_buffer_size=8 * MB,
            innodb_read_io_threads=16,
        )
        reduction = 1.0 - quiet_job.evaluate(tuned).objective / quiet_job.evaluate(d).objective
        assert 0.25 < reduction < 0.6

    def test_deterministic_without_noise(self, quiet_server):
        config = quiet_server.default_configuration().with_values(sync_binlog=0)
        a = quiet_server.evaluate(config).objective
        b = quiet_server.evaluate(config).objective
        assert a == b

    def test_seeded_noise_reproducible(self):
        s1 = MySQLServer("SYSBENCH", "B", seed=5)
        s2 = MySQLServer("SYSBENCH", "B", seed=5)
        c = s1.default_configuration()
        assert s1.evaluate(c).objective == s2.evaluate(c).objective


class TestKnobEffects:
    def test_durability_knobs_help_write_heavy(self, quiet_server):
        d = quiet_server.default_configuration()
        base = quiet_server.evaluate(d).objective
        relaxed = quiet_server.evaluate(
            d.with_values(innodb_flush_log_at_trx_commit="0")
        ).objective
        assert relaxed > base * 1.3

    def test_query_cache_is_a_trap_for_write_heavy(self, quiet_server):
        d = quiet_server.default_configuration()
        base = quiet_server.evaluate(d).objective
        qc_on = quiet_server.evaluate(
            d.with_values(query_cache_type="ON", query_cache_size=256 * MB)
        ).objective
        assert qc_on < base  # high variance, negative tunability

    def test_max_connections_trap(self, quiet_server):
        d = quiet_server.default_configuration()
        base = quiet_server.evaluate(d).objective
        throttled = quiet_server.evaluate(d.with_values(max_connections=10)).objective
        raised = quiet_server.evaluate(d.with_values(max_connections=5000)).objective
        assert throttled < base * 0.7  # catastrophic downside
        assert raised == pytest.approx(base, rel=0.02)  # no upside

    def test_big_tables_trap_for_olap(self, quiet_job):
        d = quiet_job.default_configuration()
        base = quiet_job.evaluate(d).objective
        forced_disk = quiet_job.evaluate(d.with_values(big_tables="ON")).objective
        assert forced_disk > base  # latency increases

    def test_filler_knob_has_no_effect(self, quiet_server):
        d = quiet_server.default_configuration()
        base = quiet_server.evaluate(d).objective
        changed = quiet_server.evaluate(
            d.with_values(ft_min_word_len=10, net_retry_count=500, default_week_format=3)
        ).objective
        assert changed == pytest.approx(base, rel=1e-9)

    def test_tmp_table_max_heap_interaction(self, quiet_job):
        """min(tmp_table_size, max_heap_table_size): either alone is useless."""
        d = quiet_job.default_configuration()
        base = quiet_job.evaluate(d).objective
        only_tmp = quiet_job.evaluate(d.with_values(tmp_table_size=512 * MB)).objective
        both = quiet_job.evaluate(
            d.with_values(tmp_table_size=512 * MB, max_heap_table_size=512 * MB)
        ).objective
        assert abs(only_tmp - base) / base < 0.02
        assert both < base * 0.9

    def test_flush_method_buffer_pool_interaction(self, quiet_server):
        """O_DIRECT only pays off with a big buffer pool (no OS cache).

        The baseline relaxes checkpoint/flush saturation so the read-path
        effect is visible at the throughput bottleneck; the assertion is
        on the interaction sign: O_DIRECT's advantage grows with the
        buffer pool.
        """
        d = quiet_server.default_configuration().with_values(
            innodb_log_file_size=4 * GB, innodb_io_capacity=3000
        )

        def value(bp_gb, method):
            return quiet_server.evaluate(
                d.with_values(
                    innodb_buffer_pool_size=bp_gb * GB, innodb_flush_method=method
                )
            ).objective

        advantage_small = value(2, "O_DIRECT") - value(2, "fsync")
        advantage_big = value(13, "O_DIRECT") - value(13, "fsync")
        assert advantage_big > advantage_small

    def test_io_capacity_is_unimodal(self, quiet_server):
        d = quiet_server.default_configuration().with_values(
            innodb_log_file_size=4 * GB
        )
        values = [
            quiet_server.evaluate(d.with_values(innodb_io_capacity=cap)).objective
            for cap in (100, 12000, 40000)
        ]
        assert values[1] > values[0]  # too low stalls
        assert values[1] > values[2]  # too high interferes


class TestFailureSemantics:
    def test_memory_overcommit_crashes(self, quiet_server):
        d = quiet_server.default_configuration()
        oom = d.with_values(
            innodb_buffer_pool_size=15 * GB,
            sort_buffer_size=64 * MB,
            join_buffer_size=64 * MB,
        )
        result = quiet_server.evaluate(oom)
        assert result.failed
        assert "oom" in (result.failure_reason or "")
        assert np.isnan(result.objective)

    def test_failure_counted(self, quiet_server):
        before = quiet_server.n_failures
        quiet_server.evaluate(
            quiet_server.default_configuration().with_values(
                innodb_buffer_pool_size=30 * GB
            )
        )
        assert quiet_server.n_failures == before + 1

    def test_memory_footprint_monotone_in_buffer_pool(self):
        model = PerformanceModel(INSTANCES["B"])
        server = MySQLServer("SYSBENCH", "B", noise=False)
        d = server.full_space.complete(server.default_configuration())
        small = model.memory_footprint(d, server.workload)
        big = model.memory_footprint(
            server.full_space.complete(d.with_values(innodb_buffer_pool_size=12 * GB)),
            server.workload,
        )
        assert big > small


class TestInternalMetrics:
    def test_all_metrics_present_and_finite(self, quiet_server):
        result = quiet_server.evaluate(quiet_server.default_configuration())
        assert set(result.metrics) == set(INTERNAL_METRIC_NAMES)
        assert all(np.isfinite(v) for v in result.metrics.values())

    def test_metrics_track_buffer_pool(self, quiet_server):
        d = quiet_server.default_configuration()
        small = quiet_server.evaluate(d.with_values(innodb_buffer_pool_size=512 * MB))
        large = quiet_server.evaluate(d.with_values(innodb_buffer_pool_size=13 * GB))
        assert small.metrics["bp_hit_rate"] < large.metrics["bp_hit_rate"]
        assert small.metrics["bp_disk_reads_per_s"] > large.metrics["bp_disk_reads_per_s"]

    def test_metrics_track_tmp_tables(self, quiet_job):
        d = quiet_job.default_configuration()
        disk = quiet_job.evaluate(d.with_values(big_tables="ON"))
        mem = quiet_job.evaluate(
            d.with_values(tmp_table_size=512 * MB, max_heap_table_size=512 * MB)
        )
        assert (
            disk.metrics["created_tmp_disk_tables_per_s"]
            > mem.metrics["created_tmp_disk_tables_per_s"]
        )


class _PerMetricNoise(PerformanceModel):
    """Reference: one scalar noise draw per metric, in key order."""

    def _internal_metrics(self, config, workload, inter, rng):
        metrics = super()._internal_metrics(config, workload, inter, None)
        if rng is not None:
            for key in metrics:
                metrics[key] *= float(np.exp(rng.normal(0.0, 0.01)))
        return metrics


def test_metric_noise_matches_per_metric_draws(mysql_space):
    workload = MySQLServer("SYSBENCH", "B").workload
    instance = INSTANCES["B"]
    model, reference = PerformanceModel(instance, seed=3), _PerMetricNoise(instance, seed=3)
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    configs = mysql_space.sample_configurations(2000, np.random.default_rng(0))
    n_ok = 0
    for config in configs:
        got = model.evaluate(config, workload, rng=rng)
        want = reference.evaluate(config, workload, rng=ref_rng)
        assert got.failed == want.failed
        if got.failed:
            continue
        n_ok += 1
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()
        assert list(got.metrics) == list(want.metrics)
        assert (
            np.array(list(got.metrics.values())).tobytes()
            == np.array(list(want.metrics.values())).tobytes()
        )
    assert n_ok > 1000
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestHardwareScaling:
    def test_bigger_instance_defaults_scale(self):
        d_small = MySQLServer("SYSBENCH", "A", noise=False)
        d_big = MySQLServer("SYSBENCH", "D", noise=False)
        # anchored defaults are equal by design, but the *achievable*
        # tuned throughput must be higher on the big box
        tuned_kwargs = dict(
            innodb_flush_log_at_trx_commit="0", sync_binlog=0,
            innodb_log_file_size=4 * GB, innodb_io_capacity=8000,
        )
        small_gain = (
            d_small.evaluate(d_small.default_configuration().with_values(**tuned_kwargs)).objective
        )
        big_gain = (
            d_big.evaluate(d_big.default_configuration().with_values(**tuned_kwargs)).objective
        )
        assert small_gain > 0 and big_gain > 0
