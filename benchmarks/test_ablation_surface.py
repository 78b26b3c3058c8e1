"""Ablation benches: which response-surface property drives which result.

DESIGN.md calls out three load-bearing properties of the simulated
surface; each ablation removes one and shows the corresponding paper
phenomenon disappearing:

1. **failure regions** drive the variance-based promotion of per-session
   memory knobs — with OOM disabled, ``sort_buffer_size``/
   ``join_buffer_size`` lose Gini rank for SYSBENCH;
2. **trap knobs** drive the SHAP-vs-Gini split — with the query-cache
   penalty removed, ``query_cache_type`` stops being a trap;
3. **evaluation noise** inflates best-of-N results — without noise the
   same random search finds a lower best.
"""

import numpy as np
from conftest import run_once

import repro.dbms.engine as engine
from repro.dbms import MySQLServer, mysql_knob_space
from repro.selection import GiniImportance, collect_samples


def _gini_split_share(knobs, seed=11, n=400):
    """Fraction of forest splits spent on the given knobs, plus fail rate."""
    space = mysql_knob_space("B", seed=0)
    server = MySQLServer("SYSBENCH", "B", seed=seed)
    configs, scores, default_score = collect_samples(server, space, n, seed=seed)
    result = GiniImportance(space, seed=5, n_trees=20).rank(
        configs, scores, default_score=default_score
    )
    total = sum(result.knob_scores.values())
    share = sum(result.knob_scores[k] for k in knobs) / max(total, 1e-9)
    return share, server.n_failures / n


def test_ablation_failure_regions_drive_memory_knob_variance(benchmark, monkeypatch):
    """Per-session memory knobs owe their variance signal to OOM crashes."""
    knobs = (
        "sort_buffer_size",
        "join_buffer_size",
        "innodb_buffer_pool_size",
        "tmp_table_size",
    )

    def experiment():
        with_failures = _gini_split_share(knobs)
        # Disable the OOM/swap region and the unable-to-start band:
        # memory overcommit can no longer crash or refuse to start.
        monkeypatch.setattr(engine, "OOM_FRACTION", 1e9)
        monkeypatch.setattr(engine, "SWAP_FRACTION", 1e9)
        monkeypatch.setattr(engine, "UNSTARTABLE_FRACTION", 1e9)
        without_failures = _gini_split_share(knobs)
        return with_failures, without_failures

    (share_with, fails_with), (share_without, fails_without) = run_once(
        benchmark, experiment
    )
    print(f"\nmemory-knob split share with failures:    {share_with:.3f} "
          f"(fail rate {fails_with:.2f})")
    print(f"memory-knob split share without failures: {share_without:.3f} "
          f"(fail rate {fails_without:.2f})")
    assert fails_with > 0.05 and fails_without == 0.0
    assert share_with > share_without


def test_ablation_noise_inflates_best_of_n(benchmark):
    def experiment():
        space = mysql_knob_space("B", seed=0).subspace(
            ["innodb_log_file_size", "innodb_io_capacity", "sync_binlog"], seed=0
        )
        rng = np.random.default_rng(0)
        configs = space.sample_configurations(120, rng)
        noisy = MySQLServer("SYSBENCH", "B", seed=1, noise=True)
        clean = MySQLServer("SYSBENCH", "B", noise=False)
        best_noisy = max(
            r.objective for r in map(noisy.evaluate, configs) if not r.failed
        )
        best_clean = max(
            r.objective for r in map(clean.evaluate, configs) if not r.failed
        )
        return best_noisy, best_clean

    best_noisy, best_clean = run_once(benchmark, experiment)
    print(f"\nbest of 120 random configs: noisy {best_noisy:.0f} vs clean {best_clean:.0f}")
    assert best_noisy > best_clean  # the noise lottery
