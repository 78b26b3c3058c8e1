"""SHAP builds its permutation chains as unit rows.

``ShapImportance.shap_values`` mixes the encoded default and target row
column by column instead of building and encoding one configuration per
chain step.  The reference below is the configuration chain, walked
with ``with_values`` and encoded by ``encode_many``; the scores must be
the same bytes.
"""

import numpy as np
import pytest

from repro.dbms.server import MySQLServer
from repro.selection.base import collect_samples
from repro.selection.shap import ShapImportance


class _ConfigurationChainShap(ShapImportance):
    def shap_values(self, forest, default, target):
        differing = [n for n in self.space.names if default[n] != target[n]]
        if not differing:
            return {}
        phi = {name: 0.0 for name in differing}
        for __ in range(self.n_permutations):
            order = list(self.rng.permutation(differing))
            chain = [default]
            current = default
            for name in order:
                current = current.with_values(**{name: target[name]})
                chain.append(current)
            preds = forest.predict(self.space.encode_many(chain))
            for i, name in enumerate(order):
                phi[name] += float(preds[i + 1] - preds[i])
        return {name: value / self.n_permutations for name, value in phi.items()}


def _score_bytes(measurement, pool):
    configs, scores, default_score = pool
    result = measurement.rank(configs, scores, default_score=default_score)
    return np.array(list(result.knob_scores.values())).tobytes()


def test_rank_equals_configuration_chains_on_full_space(mysql_space, sysbench_pool):
    params = dict(seed=3, n_targets=6, n_permutations=4, n_trees=10)
    fast = _score_bytes(ShapImportance(mysql_space, **params), sysbench_pool)
    ref = _score_bytes(_ConfigurationChainShap(mysql_space, **params), sysbench_pool)
    assert fast == ref


@pytest.mark.parametrize("workload", ["JOB", "TPC-C", "Twitter"])
def test_rank_equals_configuration_chains_on_other_pools(mysql_space, workload):
    pool = collect_samples(MySQLServer(workload, "B", seed=5), mysql_space, 80, seed=5)
    params = dict(seed=1, n_targets=5, n_permutations=3, n_trees=8)
    fast = _score_bytes(ShapImportance(mysql_space, **params), pool)
    ref = _score_bytes(_ConfigurationChainShap(mysql_space, **params), pool)
    assert fast == ref
