"""Analytical MySQL/InnoDB performance model.

The model maps (configuration, workload, hardware) to a performance
objective plus internal metrics, realizing the response-surface properties
the paper's conclusions rest on:

- **few impactful knobs among 197** — only :data:`~repro.dbms.catalog.MODELED_KNOBS`
  have first-order effects; the rest are inert, so knob selection matters;
- **robust defaults** — several knobs (query cache, ``max_connections``,
  ``big_tables``) have high *variance* but no *tunability*: bad values
  destroy performance while the default is already optimal.  These are the
  knobs that separate SHAP from variance-based importance measurements;
- **interactions** — e.g. ``tmp_table_size x innodb_thread_concurrency``
  via memory pressure (the paper's own example), change buffering x buffer
  pool hit rate, group commit x client parallelism;
- **heterogeneity** — several categorical knobs carry real gains;
- **failure regions** — memory overcommit crashes the DBMS ("unable to
  start"), which tuning sessions clamp to the worst seen (paper §4.1).

Throughput is a bottleneck-resource capacity model: CPU, redo-log
serialization (group commit), and read I/O each impose a rate bound, and
checkpoint/flush pressure applies multiplicative stall factors.  Analytical
latency (JOB) is a sum of planning, join CPU, scan I/O, and sort/temp-table
components.  Constants live at module level so ablation benches can modify
them to show which surface property drives which algorithm ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.dbms.instances import GIB, HardwareInstance
from repro.resilience.taxonomy import FailureKind
from repro.workloads.profiles import WorkloadProfile

KB = 1024
MB = 1024**2
GB = 1024**3
PAGE = 16 * KB

# --- tunable model constants (ablation hooks) ---------------------------
#: Memory fraction above which the stress test OOM-crashes the DBMS.
OOM_FRACTION = 0.95
#: Memory fraction above which the DBMS cannot even allocate its buffers:
#: startup itself fails (§4.1's "unable to start") rather than the OOM
#: killer reaping mysqld mid-stress.
UNSTARTABLE_FRACTION = 1.10
#: Memory fraction above which swapping degrades performance.
SWAP_FRACTION = 0.80
#: Base server memory footprint outside of configured buffers.
SERVER_BASE_BYTES = 400 * MB
#: OLTP buffer-pool hit curve steepness.
OLTP_HIT_STEEPNESS = 2.2
#: Stall-factor weights for checkpoint (log) and flush (io) pressure.
LOG_STALL_WEIGHT = 0.09
IO_STALL_WEIGHT = 0.045
STALL_CAP = 6.0
#: Multiplicative noise scale (throughput / latency).
NOISE_SIGMA_TPS = 0.02
NOISE_SIGMA_LAT = 0.025

_FLUSH_METHOD_FACTOR = {
    "fsync": 1.00,
    "O_DSYNC": 0.92,
    "O_DIRECT": 1.10,
    "O_DIRECT_NO_FSYNC": 1.12,
}
_FLUSH_NEIGHBOR_FACTOR = {"0": 1.06, "1": 1.00, "2": 0.90}
_CHANGE_BUFFER_COVERAGE = {
    "none": 0.0,
    "inserts": 0.5,
    "deletes": 0.3,
    "purges": 0.2,
    "changes": 0.7,
    "all": 1.0,
}


def _sat(x: float) -> float:
    """Smooth saturation in [0, 1): x / (1 + x)."""
    return x / (1.0 + x) if x > 0 else 0.0


@dataclass
class EngineResult:
    """Outcome of one simulated stress test.

    ``failure_kind`` classifies failures into the taxonomy of
    :mod:`repro.resilience.taxonomy` (``None`` on success).
    """

    objective: float
    failed: bool
    failure_reason: str | None
    failure_kind: FailureKind | None = None
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed


class PerformanceModel:
    """Maps configurations to performance for one hardware instance."""

    def __init__(self, instance: HardwareInstance, seed: int | None = None) -> None:
        self.instance = instance
        self.seed = seed
        self._baseline_cache: dict[tuple[str, str], EngineResult] = {}

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        config: Mapping[str, Any],
        workload: WorkloadProfile,
        rng: np.random.Generator | None = None,
        noise: bool = True,
    ) -> EngineResult:
        """Simulate a stress test of ``workload`` under ``config``.

        ``config`` must be a complete knob assignment (all catalog knobs).
        The objective is throughput (txn/s, maximize) for OLTP workloads
        and 95%-quantile latency (seconds, minimize) for analytical ones,
        normalized so the default configuration reproduces the workload's
        anchor value on this instance.
        """
        failure = self.classify_failure(config, workload)
        if failure is not None:
            reason, kind = failure
            return EngineResult(
                objective=float("nan"),
                failed=True,
                failure_reason=reason,
                failure_kind=kind,
            )

        raw, inter = self._raw_performance(config, workload)
        baseline = self._baseline(workload)
        if workload.is_analytical:
            objective = workload.base_latency_s * (raw / baseline)
            sigma = NOISE_SIGMA_LAT
        else:
            objective = workload.base_throughput * (raw / baseline)
            sigma = NOISE_SIGMA_TPS
        if noise:
            rng = np.random.default_rng(self.seed) if rng is None else rng
            objective *= float(np.exp(rng.normal(0.0, sigma)))
            if rng.random() < 0.04:
                # Cloud-instance fluctuation: occasional degraded interval.
                dip = 1.0 + 0.08 * float(rng.random())
                objective = objective * dip if workload.is_analytical else objective / dip
        metrics = self._internal_metrics(config, workload, inter, rng if noise else None)
        return EngineResult(objective=float(objective), failed=False, failure_reason=None, metrics=metrics)

    def default_objective(self, workload: WorkloadProfile) -> float:
        """Noise-free objective of the default configuration."""
        return workload.base_latency_s if workload.is_analytical else workload.base_throughput

    # ------------------------------------------------------------------
    # failure semantics
    # ------------------------------------------------------------------
    def memory_footprint(
        self, config: Mapping[str, Any], workload: WorkloadProfile
    ) -> float:
        """Estimated peak resident bytes under the workload."""
        threads = min(workload.client_threads, int(config["max_connections"]))
        per_conn = (
            config["sort_buffer_size"]
            + config["join_buffer_size"]
            + config["read_buffer_size"]
            + config["read_rnd_buffer_size"]
            + config["binlog_cache_size"]
            + config["thread_stack"]
        )
        heap_tmp_unit = min(config["tmp_table_size"], config["max_heap_table_size"])
        if config["big_tables"] == "ON":
            heap_tmp_unit = 0  # all temp tables forced to disk
        heap_tmp = heap_tmp_unit * workload.temp_table_intensity * threads
        qcache = config["query_cache_size"] if config["query_cache_type"] != "OFF" else 0
        return float(
            config["innodb_buffer_pool_size"]
            + config["innodb_log_buffer_size"]
            + threads * per_conn
            + heap_tmp
            + qcache
            + config["key_buffer_size"]
            + SERVER_BASE_BYTES
        )

    def classify_failure(
        self, config: Mapping[str, Any], workload: WorkloadProfile
    ) -> tuple[str, FailureKind] | None:
        """``(reason, kind)`` for a failing config, ``None`` when it runs.

        The single memory-overcommit predicate splits into the paper's two
        failure classes: allocation so far past physical RAM that startup
        itself fails (``UNSTARTABLE``), versus a footprint that clears
        startup but gets mysqld OOM-killed under workload pressure
        (``CRASH``).  Both are deterministic functions of the config, so
        neither is ever worth retrying.
        """
        footprint = self.memory_footprint(config, workload)
        ram = self.instance.ram_bytes
        if footprint > UNSTARTABLE_FRACTION * ram:
            return (
                "oom: memory overcommit, mysqld unable to start "
                f"(footprint {footprint / ram:.2f}x RAM)",
                FailureKind.UNSTARTABLE,
            )
        if footprint > OOM_FRACTION * ram:
            return (
                "oom: memory overcommit, mysqld killed during stress test "
                f"(footprint {footprint / ram:.2f}x RAM)",
                FailureKind.CRASH,
            )
        return None

    # ------------------------------------------------------------------
    # core response surface
    # ------------------------------------------------------------------
    def _baseline(self, workload: WorkloadProfile) -> float:
        key = (self.instance.name, workload.name)
        cached = self._baseline_cache.get(key)
        if cached is None:
            from repro.dbms.catalog import mysql_knob_space

            default = mysql_knob_space(self.instance).default_configuration()
            raw, __ = self._raw_performance(default, workload)
            cached = EngineResult(objective=raw, failed=False, failure_reason=None)
            self._baseline_cache[key] = cached
        return cached.objective

    def _raw_performance(
        self, config: Mapping[str, Any], workload: WorkloadProfile
    ) -> tuple[float, dict[str, float]]:
        if workload.is_analytical:
            return self._olap_latency(config, workload)
        return self._oltp_throughput(config, workload)

    # --- shared sub-models ------------------------------------------------
    def _swap_penalty(self, config: Mapping[str, Any], workload: WorkloadProfile) -> float:
        frac = self.memory_footprint(config, workload) / self.instance.ram_bytes
        if frac <= SWAP_FRACTION:
            return 1.0
        return 1.0 + 6.0 * (frac - SWAP_FRACTION)

    def _oltp_hit_rate(self, config: Mapping[str, Any], workload: WorkloadProfile) -> float:
        ws_bytes = max(workload.working_set_gb * GIB, 1.0)
        ratio = min(config["innodb_buffer_pool_size"] / ws_bytes, 20.0)
        hit = 1.0 - 0.45 * math.exp(-OLTP_HIT_STEEPNESS * ratio)
        return min(hit, 0.9995)

    def _thread_efficiency(self, config: Mapping[str, Any], workload: WorkloadProfile) -> tuple[float, float]:
        """(effective client threads, contention multiplier on CPU time)."""
        cores = self.instance.cpu_cores
        threads = min(workload.client_threads, int(config["max_connections"]))
        tc = int(config["innodb_thread_concurrency"])
        running = threads if tc == 0 else min(threads, tc)
        # Admission throttling below ~1.5x cores starves the CPU.
        starvation = max(0.0, 1.0 - running / max(1.0, 1.5 * cores))
        # Over-subscription with contended rows costs spinning/context switches.
        oversub = max(0.0, running / cores - 2.0)
        contention_mult = (
            (1.0 + 0.35 * starvation)
            * (1.0 + 0.22 * workload.contention * oversub)
        )
        spin = int(config["innodb_spin_wait_delay"])
        contention_mult *= 1.0 + 0.02 * workload.contention * abs(math.log10(max(spin, 1) / 6.0))
        return float(running), contention_mult

    # --- OLTP -------------------------------------------------------------
    def _oltp_throughput(
        self, config: Mapping[str, Any], workload: WorkloadProfile
    ) -> tuple[float, dict[str, float]]:
        inst = self.instance
        cores = inst.cpu_cores
        w = workload

        threads, contention_mult = self._thread_efficiency(config, w)
        hit = self._oltp_hit_rate(config, w)

        # ---- CPU time per transaction (ms) ----
        cpu_ms = 0.015 * w.reads_per_txn + 0.04 * w.writes_per_txn + 0.3 * w.join_complexity
        if config["innodb_adaptive_hash_index"] == "ON":
            cpu_ms *= 1.0 - 0.15 * w.point_read_frac
            cpu_ms *= 1.0 + 0.10 * w.write_frac * w.contention * min(threads / cores, 8.0) / 8.0
        churn = max(0.0, 1.0 - config["thread_cache_size"] / max(threads, 1.0))
        cpu_ms *= 1.0 + 0.14 * churn
        toc_need = w.n_tables * 4.0
        toc_miss = max(0.0, 1.0 - config["table_open_cache"] / toc_need)
        cpu_ms *= 1.0 + 0.10 * toc_miss
        if config["general_log"] == "ON":
            cpu_ms *= 1.30
        if config["slow_query_log"] == "ON":
            cpu_ms *= 1.02
        if config["performance_schema"] == "OFF":
            cpu_ms *= 0.94

        # ---- query cache: high variance, negative tunability for OLTP ----
        qcache_hit = 0.0
        qc_mode = config["query_cache_type"]
        if qc_mode != "OFF" and config["query_cache_size"] > 8 * MB:
            scale = 1.0 if qc_mode == "ON" else 0.5
            qcache_hit = scale * w.repetitive_read_frac * 0.55 * _sat(
                config["query_cache_size"] / (64 * MB)
            )
            cpu_ms *= 1.0 - 0.25 * qcache_hit * w.read_only_frac
            invalidation = 0.30 * w.write_frac + 0.12 * w.write_frac * math.sqrt(threads / cores)
            cpu_ms *= 1.0 + invalidation

        cpu_ms *= contention_mult * self._swap_penalty(config, w)

        # ---- read I/O per transaction (ms) ----
        # Buffered flush methods (fsync/O_DSYNC) double-buffer pages in the
        # OS cache: with a small buffer pool the OS cache absorbs misses,
        # with a large one it wastes memory.  O_DIRECT bypasses the OS
        # cache entirely — a strong bp x flush_method interaction.
        miss_frac = 1.0 - hit
        bp_ram_frac = config["innodb_buffer_pool_size"] / self.instance.ram_bytes
        if config["innodb_flush_method"] in ("fsync", "O_DSYNC"):
            os_cache = 0.60 * max(0.0, 0.8 - bp_ram_frac)
            miss_frac *= 1.0 - os_cache
        miss_pages = w.reads_per_txn * miss_frac * 0.9
        read_boost = min(max((config["innodb_read_io_threads"] / 4.0) ** 0.25, 0.75), 1.5)
        read_io_ms = miss_pages * inst.io_read_latency_ms / read_boost
        if config["innodb_flush_method"] in ("O_DIRECT", "O_DIRECT_NO_FSYNC"):
            if bp_ram_frac >= 0.5:
                read_io_ms *= 0.92  # no double copy on the read path
            else:
                read_io_ms *= 1.0 + 1.0 * (0.5 - bp_ram_frac)
        if config["innodb_random_read_ahead"] == "ON":
            read_io_ms *= 1.0 - 0.06 * w.range_scan_frac

        # ---- commit path (redo + binlog), amortized by group commit ----
        writers = max(threads * w.write_frac, 1e-6)
        group = max(writers, 1.0) ** 0.52
        fsync = inst.fsync_latency_ms
        flush_mode = config["innodb_flush_log_at_trx_commit"]
        # Serialized portion: actual fsyncs through the (group-committed)
        # redo/binlog mutexes.  Non-durable modes only buffer.
        if flush_mode == "1":
            redo_fsync_ms = fsync / group
            if config["innodb_flush_method"] == "O_DIRECT_NO_FSYNC":
                redo_fsync_ms *= 0.90
            redo_base_ms = 0.02
        elif flush_mode == "2":
            redo_fsync_ms = 0.0
            redo_base_ms = 0.06
        else:
            redo_fsync_ms = 0.0
            redo_base_ms = 0.03
        log_buffer_need = 1.0 * MB * math.sqrt(max(writers, 1.0))
        if config["innodb_log_buffer_size"] < log_buffer_need:
            deficit = math.log2(log_buffer_need / config["innodb_log_buffer_size"])
            redo_base_ms += 0.05 * min(1.0, deficit / 4.0)
        sync_binlog = int(config["sync_binlog"])
        binlog_fsync_ms = fsync / group / sync_binlog if sync_binlog >= 1 else 0.0
        serial_ms = redo_fsync_ms + binlog_fsync_ms
        if qc_mode != "OFF" and config["query_cache_size"] > 8 * MB:
            # The query cache's global mutex serializes invalidating writes
            # (the notorious reason it was removed in MySQL 8.0).
            serial_ms += 0.15
        if config["general_log"] == "ON":
            # Synchronous general-log writes serialize statement execution.
            serial_ms += 0.08 * w.write_frac + 0.02
        commit_ms = serial_ms + redo_base_ms + 0.02
        if config["innodb_support_xa"] == "OFF":
            commit_ms *= 0.94
        if config["binlog_row_image"] in ("minimal", "noblob"):
            commit_ms *= 0.98

        # ---- background flush & checkpoint pressure ----
        page_writes_per_s = w.base_throughput * w.writes_per_txn * 0.5
        coverage = _CHANGE_BUFFER_COVERAGE[config["innodb_change_buffering"]]
        if config["innodb_change_buffer_max_size"] < 10:
            coverage *= 0.5
        cb_saving = 0.60 * coverage * w.secondary_index_write_frac * math.sqrt(1.0 - hit)
        page_writes_per_s *= 1.0 - cb_saving

        write_boost = min(max((config["innodb_write_io_threads"] / 4.0) ** 0.25, 0.75), 1.4)
        flush_eff = (
            write_boost
            * _FLUSH_NEIGHBOR_FACTOR[config["innodb_flush_neighbors"]]
            * _FLUSH_METHOD_FACTOR[config["innodb_flush_method"]]
        )
        if config["innodb_doublewrite"] == "ON":
            flush_eff *= 0.80
        if config["innodb_page_cleaners"] >= 4:
            flush_eff *= 1.02
        io_cap = config["innodb_io_capacity"]
        io_cap_max = max(config["innodb_io_capacity_max"], io_cap)
        flush_capacity = flush_eff * (0.75 * io_cap + 0.25 * min(io_cap_max, 2.5 * io_cap))
        flush_capacity = min(flush_capacity, inst.disk_write_iops)
        # Foreground read misses compete with background flushing for the
        # same device — couples buffer-pool sizing into the write path.
        disk_reads_nominal = w.base_throughput * miss_pages
        read_pressure = min(disk_reads_nominal / inst.disk_read_iops, 0.85)
        flush_capacity *= 1.0 - 0.6 * read_pressure
        stall_io = max(0.0, page_writes_per_s / max(flush_capacity, 1.0) - 1.0)
        mdp = int(config["innodb_max_dirty_pages_pct"])
        if mdp < 25:
            stall_io += 0.4 * (25 - mdp) / 25.0
        if config["innodb_adaptive_flushing"] == "OFF":
            stall_io *= 1.25
        lwm = int(config["innodb_adaptive_flushing_lwm"])
        stall_io *= 1.0 + 0.02 * abs(lwm - 10) / 70.0
        lsd = int(config["innodb_lru_scan_depth"])
        if lsd < 512:
            stall_io += 0.05
        elif lsd > 8192:
            stall_io += 0.02

        # Overprovisioned background I/O competes for the device: InnoDB
        # issues flush/read-ahead I/O at the configured io_capacity even
        # when the dirty-page rate does not warrant it, crowding out
        # foreground reads and queueing writes.
        io_target = flush_eff * (0.75 * io_cap + 0.25 * min(io_cap_max, 2.5 * io_cap))
        device_pressure = (min(io_target, 50000.0) + disk_reads_nominal) / (
            inst.disk_write_iops + inst.disk_read_iops
        )
        if device_pressure > 0.75:
            stall_io += 1.2 * (device_pressure - 0.75)
            read_io_ms *= 1.0 + 0.3 * (device_pressure - 0.75)

        log_total = config["innodb_log_file_size"] * config["innodb_log_files_in_group"]
        write_bytes_per_s = w.base_throughput * w.writes_per_txn * 3 * KB
        ckpt_pressure = write_bytes_per_s * 45.0 / max(log_total, 1.0)
        stall_log = max(0.0, ckpt_pressure - 1.0)

        purge_need = w.write_frac * w.writes_per_txn / 3.5
        purge_lag = max(0.0, purge_need - config["innodb_purge_threads"]) / 8.0

        write_penalty = (
            (1.0 + LOG_STALL_WEIGHT * min(stall_log, STALL_CAP + 1.0))
            * (1.0 + IO_STALL_WEIGHT * min(stall_io, STALL_CAP))
            * (1.0 + 0.18 * min(purge_lag, 1.0))
        )

        # ---- bottleneck capacity analysis (ms of bottleneck per txn) ----
        cpu_cost = cpu_ms / cores
        redo_cost = (serial_ms + 0.15 * (commit_ms - serial_ms)) * w.write_frac
        # The disk itself bounds the miss rate: every buffer-pool miss is
        # one random read against the device's IOPS budget (shared with
        # background flushing).  This is what makes the buffer pool a
        # first-order knob for workloads larger than memory.
        read_iops_budget = inst.disk_read_iops * (
            1.0 - 0.25 * min(io_target / inst.disk_write_iops, 1.0)
        )
        device_cost = 1000.0 * miss_pages / max(read_iops_budget, 1.0)
        io_parallel = min(threads, 8.0 * config["innodb_read_io_threads"], 64.0)
        read_cost = read_io_ms / max(io_parallel, 1.0)
        thread_cost = (cpu_ms + read_io_ms + commit_ms * w.write_frac) / max(threads, 1.0)
        # Smooth bottleneck: a p-norm over resource costs.  Pure max() would
        # be a perfectly rigid bottleneck; real systems interleave resources
        # imperfectly, so secondary resources still cost something.
        costs = np.array([cpu_cost, redo_cost, read_cost, device_cost, thread_cost])
        bottleneck_ms = float(np.sum(costs**3.0) ** (1.0 / 3.0))

        tps = 1000.0 / bottleneck_ms
        tps /= write_penalty ** min(1.0, 1.4 * w.write_frac)

        inter = {
            "hit": hit,
            "threads": threads,
            "cpu_ms": cpu_ms,
            "read_io_ms": read_io_ms,
            "commit_ms": commit_ms,
            "stall_io": stall_io,
            "stall_log": stall_log,
            "purge_lag": purge_lag,
            "qcache_hit": qcache_hit,
            "page_writes_per_s": page_writes_per_s,
            "flush_capacity": flush_capacity,
            "tps_raw": tps,
            "churn": churn,
            "toc_miss": toc_miss,
            "tmp_disk_frac": 0.0,
        }
        return tps, inter

    # --- OLAP (JOB) ---------------------------------------------------------
    def _olap_hit_rate(self, config: Mapping[str, Any], workload: WorkloadProfile) -> float:
        # Scans thrash the LRU; hit grows more slowly than for point reads
        # and is sensitive to the midpoint-insertion (old blocks) policy.
        ws_bytes = max(workload.working_set_gb * GIB, 1.0)
        ratio = min(config["innodb_buffer_pool_size"] / ws_bytes, 8.0)
        hit = min(0.98, 0.55 * ratio**0.8)
        old_pct = int(config["innodb_old_blocks_pct"])
        hit *= 1.0 + 0.04 * (old_pct - 37) / 58.0  # keeping scans out of the young list
        if config["innodb_old_blocks_time"] < 100:
            hit *= 0.97
        return float(min(max(hit, 0.0), 0.985))

    def _olap_latency(
        self, config: Mapping[str, Any], workload: WorkloadProfile
    ) -> tuple[float, dict[str, float]]:
        inst = self.instance
        w = workload
        hit = self._olap_hit_rate(config, w)
        swap = self._swap_penalty(config, w)

        # ---- optimizer / planning ----
        depth = int(config["optimizer_search_depth"])
        eff_depth = 62 if depth == 0 else depth
        plan_quality = 1.0 + 0.35 * max(0.0, (14 - eff_depth)) / 14.0 * w.join_complexity
        planning_s = 4.0 * (0.25 + 0.75 * _sat(eff_depth / 20.0))
        if config["optimizer_prune_level"] == "0":
            plan_quality *= 0.95
            planning_s *= 2.0
        stats_pages = int(config["innodb_stats_persistent_sample_pages"])
        plan_quality *= 1.0 - 0.07 * _sat(math.log2(max(stats_pages, 1) / 20.0) / 3.0 if stats_pages > 20 else 0.0)
        if config["innodb_stats_method"] == "nulls_unequal":
            plan_quality *= 0.95
        elif config["innodb_stats_method"] == "nulls_ignored":
            plan_quality *= 1.03
        if config["innodb_stats_persistent"] == "OFF":
            plan_quality *= 1.06

        # ---- join execution CPU ----
        join_cpu_s = 112.0 * plan_quality
        jb = config["join_buffer_size"]
        jb_gain = 0.26 * _sat(math.log2(max(jb / (256.0 * KB), 1.0)) / 6.0 * 3.0)
        join_cpu_s *= 1.0 - jb_gain
        if config["innodb_adaptive_hash_index"] == "ON":
            join_cpu_s *= 0.97

        # ---- scan / index read I/O ----
        scan_gb = 4.0 * (1.0 - hit)
        seq_s = scan_gb * 1024.0 / inst.disk_seq_mb_s
        read_boost = min(max((config["innodb_read_io_threads"] / 4.0) ** 0.3, 0.7), 1.6)
        scan_io_s = seq_s * 1.4 / read_boost
        if config["innodb_random_read_ahead"] == "ON":
            scan_io_s *= 0.90
        rat = int(config["innodb_read_ahead_threshold"])
        scan_io_s *= 1.0 - 0.03 * (56 - rat) / 56.0
        if config["innodb_checksum_algorithm"] == "none":
            scan_io_s *= 0.98
        rrb = config["read_rnd_buffer_size"]
        scan_io_s *= 1.0 - 0.08 * _sat(math.log2(max(rrb / (256.0 * KB), 1.0)) / 8.0 * 2.0)

        # ---- sorting / temp tables ----
        tmp_limit = min(config["tmp_table_size"], config["max_heap_table_size"])
        if config["big_tables"] == "ON":
            in_mem_frac = 0.0
        else:
            in_mem_frac = _sat(tmp_limit / (256.0 * MB)) / _sat(1.0)  # ~1 when >=256MB
            in_mem_frac = min(in_mem_frac, 1.0)
        disk_tmp_penalty = 1.0 + 1.1 * (1.0 - in_mem_frac) * w.temp_table_intensity
        if config["internal_tmp_disk_storage_engine"] == "MYISAM":
            disk_tmp_penalty = 1.0 + (disk_tmp_penalty - 1.0) * 0.85
        sb = config["sort_buffer_size"]
        sort_gain = 0.22 * _sat(math.log2(max(sb / (256.0 * KB), 1.0)) / 7.0 * 2.5)
        sort_tmp_s = 46.0 * disk_tmp_penalty * (1.0 - sort_gain)

        latency = (planning_s + join_cpu_s + scan_io_s + sort_tmp_s) * swap
        if config["general_log"] == "ON":
            latency *= 1.12

        inter = {
            "hit": hit,
            "threads": float(w.client_threads),
            "cpu_ms": join_cpu_s * 1000.0 / 50.0,
            "read_io_ms": scan_io_s * 1000.0 / 50.0,
            "commit_ms": 0.0,
            "stall_io": 0.0,
            "stall_log": 0.0,
            "purge_lag": 0.0,
            "qcache_hit": 0.0,
            "page_writes_per_s": 0.0,
            "flush_capacity": float(config["innodb_io_capacity"]),
            "tps_raw": 1.0 / max(latency, 1e-9),
            "churn": 0.0,
            "toc_miss": 0.0,
            "tmp_disk_frac": 1.0 - in_mem_frac,
            "latency_raw": latency,
        }
        return latency, inter

    # ------------------------------------------------------------------
    # internal metrics
    # ------------------------------------------------------------------
    def _internal_metrics(
        self,
        config: Mapping[str, Any],
        workload: WorkloadProfile,
        inter: dict[str, float],
        rng: np.random.Generator | None,
    ) -> dict[str, float]:
        w = workload
        inst = self.instance
        tps = inter["tps_raw"] if not w.is_analytical else 1.0 / max(inter["latency_raw"], 1e-9)
        threads = inter["threads"]
        hit = inter["hit"]
        reads_per_s = tps * w.reads_per_txn
        writes_per_s = tps * w.writes_per_txn
        disk_reads = reads_per_s * (1.0 - hit)
        bp_pages = config["innodb_buffer_pool_size"] / PAGE
        data_pages = min(bp_pages, w.size_gb * GIB / PAGE)
        dirty_pct = min(90.0, 100.0 * inter["stall_io"] / 3.0 + 10.0 * w.write_frac + 2.0)
        flush_mode = config["innodb_flush_log_at_trx_commit"]
        fsyncs = writes_per_s if flush_mode == "1" else (1.0 if flush_mode == "2" else 0.2)
        if int(config["sync_binlog"]) >= 1:
            fsyncs += writes_per_s / int(config["sync_binlog"])
        tmp_tables = tps * w.temp_table_intensity * 2.0
        metrics = {
            "bp_hit_rate": hit,
            "bp_pages_data_pct": 100.0 * data_pages / max(bp_pages, 1.0),
            "bp_pages_dirty_pct": dirty_pct,
            "bp_logical_reads_per_s": reads_per_s,
            "bp_disk_reads_per_s": disk_reads,
            "bp_pages_flushed_per_s": min(inter["page_writes_per_s"], inter["flush_capacity"]),
            "bp_read_ahead_per_s": disk_reads * (0.3 if config["innodb_random_read_ahead"] == "ON" else 0.05),
            "bp_wait_free_per_s": max(0.0, inter["stall_io"]) * 100.0,
            "log_waits_per_s": max(0.0, inter["stall_log"]) * 50.0,
            "log_writes_per_s": writes_per_s,
            "log_fsyncs_per_s": fsyncs,
            "checkpoint_age_pct": min(95.0, 60.0 * min(inter["stall_log"] + 0.5, 1.5)),
            "rows_read_per_s": reads_per_s,
            "rows_inserted_per_s": writes_per_s * 0.4,
            "rows_updated_per_s": writes_per_s * 0.45,
            "rows_deleted_per_s": writes_per_s * 0.15,
            "qps": tps * (w.reads_per_txn * 0.2 + w.writes_per_txn * 0.3 + 1.0),
            "tps": tps,
            "threads_running": min(threads, inst.cpu_cores * 3.0),
            "threads_connected": threads,
            "threads_created_per_s": inter["churn"] * threads * 0.5,
            "connection_usage_pct": 100.0 * threads / max(int(config["max_connections"]), 1),
            "created_tmp_tables_per_s": tmp_tables,
            "created_tmp_disk_tables_per_s": tmp_tables * inter["tmp_disk_frac"],
            "sort_merge_passes_per_s": tps * w.temp_table_intensity * inter["tmp_disk_frac"] * 0.8,
            "select_full_join_per_s": tps * w.join_complexity * 0.5,
            "select_range_per_s": tps * w.range_scan_frac,
            "table_open_cache_hit_rate": 1.0 - inter["toc_miss"],
            "qcache_hit_rate": inter["qcache_hit"],
            "qcache_invalidations_per_s": inter["qcache_hit"] * writes_per_s,
            "io_read_mb_per_s": disk_reads * PAGE / MB,
            "io_write_mb_per_s": inter["page_writes_per_s"] * PAGE / MB,
            "io_pending_flushes": inter["stall_io"] * 20.0,
            "row_lock_waits_per_s": tps * w.contention * 0.3,
            "row_lock_time_avg_ms": w.contention * (threads / inst.cpu_cores) * 0.8,
            "mutex_spin_waits_per_s": tps * w.contention * threads / inst.cpu_cores,
            "purge_lag_pages": inter["purge_lag"] * 10000.0,
            "change_buffer_merges_per_s": writes_per_s
            * w.secondary_index_write_frac
            * _CHANGE_BUFFER_COVERAGE[config["innodb_change_buffering"]],
            "adaptive_hash_searches_per_s": (
                reads_per_s * 0.6 if config["innodb_adaptive_hash_index"] == "ON" else 0.0
            ),
            "cpu_util_pct": min(98.0, 100.0 * inter["cpu_ms"] * tps / 1000.0 / inst.cpu_cores),
            "mem_util_pct": 100.0
            * self.memory_footprint(config, w)
            / inst.ram_bytes,
            "disk_util_pct": min(
                98.0,
                100.0
                * (disk_reads + inter["page_writes_per_s"])
                / (inst.disk_read_iops + inst.disk_write_iops),
            ),
        }
        if rng is not None:
            # One draw per metric, in key order: the same stream and values
            # as a scalar ``np.exp(rng.normal(0.0, 0.01))`` per metric.
            factors = np.exp(rng.normal(0.0, 0.01, size=len(metrics))).tolist()
            for key, factor in zip(metrics, factors):
                metrics[key] *= factor
        return metrics
