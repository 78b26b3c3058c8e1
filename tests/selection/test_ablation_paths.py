"""Ablation walks its greedy paths on unit rows.

``AblationImportance._ablation_path`` builds each step's candidates from
the current encoded row and the target's, column by column, instead of
building and encoding one configuration per candidate.  The reference
below is the configuration walk, stepped with ``with_values`` and
encoded by ``encode_many``; the scores must be the same bytes.
"""

import numpy as np
import pytest

from repro.dbms.server import MySQLServer
from repro.selection.ablation import AblationImportance
from repro.selection.base import collect_samples


class _ConfigurationWalkAblation(AblationImportance):
    def _ablation_path(self, forest, default, target):
        remaining = [n for n in self.space.names if default[n] != target[n]]
        current = default
        current_pred = float(forest.predict(self.space.encode(current)[None, :])[0])
        credits = {}
        while remaining:
            candidates = [current.with_values(**{name: target[name]}) for name in remaining]
            preds = forest.predict(self.space.encode_many(candidates))
            j = int(np.argmax(preds))
            credits[remaining[j]] = max(float(preds[j] - current_pred), 0.0)
            current = candidates[j]
            current_pred = float(preds[j])
            remaining.pop(j)
        return credits


def _score_bytes(measurement, pool):
    configs, scores, default_score = pool
    result = measurement.rank(configs, scores, default_score=default_score)
    return np.array(list(result.knob_scores.values())).tobytes()


def test_rank_equals_configuration_walk_on_full_space(mysql_space, sysbench_pool):
    params = dict(seed=3, n_targets=3, n_trees=10)
    fast = _score_bytes(AblationImportance(mysql_space, **params), sysbench_pool)
    ref = _score_bytes(_ConfigurationWalkAblation(mysql_space, **params), sysbench_pool)
    assert fast == ref


@pytest.mark.parametrize("workload", ["JOB", "TPC-C", "Twitter"])
def test_rank_equals_configuration_walk_on_other_pools(mysql_space, workload):
    pool = collect_samples(MySQLServer(workload, "B", seed=5), mysql_space, 80, seed=5)
    params = dict(seed=1, n_targets=2, n_trees=8)
    fast = _score_bytes(AblationImportance(mysql_space, **params), pool)
    ref = _score_bytes(_ConfigurationWalkAblation(mysql_space, **params), pool)
    assert fast == ref
