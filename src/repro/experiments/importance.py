"""Knob-selection experiments: Table 6 / Figure 3 and Figure 4 (paper §5)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.sensitivity import SensitivityPoint, sensitivity_analysis
from repro.dbms.catalog import mysql_knob_space
from repro.experiments.runner import median_improvement, run_sessions
from repro.experiments.scale import Scale, bench_scale
from repro.experiments.spaces import workload_pool
from repro.parallel import RegistryOptimizerFactory
from repro.selection import MEASUREMENT_REGISTRY
from repro.tuning.metrics import average_ranks

#: The measurements of Table 2, in the paper's reporting order.
MEASUREMENTS = ("gini", "lasso", "fanova", "ablation", "shap")

#: Reduced estimator budgets: both harnesses below pass them at every
#: scale, the paper's included.
FAST_MEASUREMENT_KWARGS: dict[str, dict] = {
    "shap": {"n_targets": 10, "n_permutations": 5},
    "ablation": {"n_targets": 6},
    "gini": {"n_trees": 24},
    "fanova": {"n_trees": 12},
    "lasso": {"n_alphas": 10},
}


@dataclass
class ImportanceRow:
    """One Figure 3 bar: tuning outcome on one measurement's knob set."""

    workload: str
    measurement: str
    top_k: int
    optimizer: str
    improvement: float


@dataclass
class ImportanceComparison:
    """Figure 3 bars plus the Table 6 overall ranking."""

    rows: list[ImportanceRow]
    overall_ranking: dict[str, float]
    top_knobs: dict[tuple[str, str], list[str]]


def _optimizer_factory(name: str) -> RegistryOptimizerFactory:
    if name not in ("vanilla_bo", "ddpg"):
        raise ValueError(f"unsupported optimizer {name!r}")
    return RegistryOptimizerFactory(name)


def importance_comparison(
    workloads: tuple[str, ...] = ("SYSBENCH", "JOB"),
    measurements: tuple[str, ...] = MEASUREMENTS,
    top_ks: tuple[int, ...] = (5, 20),
    optimizers: tuple[str, ...] = ("vanilla_bo", "ddpg"),
    scale: Scale | None = None,
    instance: str = "B",
    seed: int = 17,
    n_workers: int = 1,
) -> ImportanceComparison:
    """Tune over each measurement's top-k knob sets (Figure 3, Table 6).

    For every (workload, measurement) pair the knob ranking is computed
    from the shared LHS pool; each top-k subspace is then tuned by each
    optimizer and the median improvement over the default reported.
    Table 6's overall ranking averages each measurement's rank across all
    (workload, top-k, optimizer) settings.
    """
    scale = scale or bench_scale()
    full = mysql_knob_space(instance, seed=seed)
    rows: list[ImportanceRow] = []
    top_knobs: dict[tuple[str, str], list[str]] = {}
    for workload in workloads:
        configs, scores, default_score = workload_pool(
            workload, instance, scale.n_pool_samples, seed
        )
        rankings = {}
        for name in measurements:
            kwargs = FAST_MEASUREMENT_KWARGS.get(name, {})
            m = MEASUREMENT_REGISTRY[name](full, seed=seed, **kwargs)
            rankings[name] = m.rank(configs, scores, default_score=default_score)
            top_knobs[(workload, name)] = rankings[name].top(max(top_ks))
        for name in measurements:
            for k in top_ks:
                subspace = full.subspace(rankings[name].top(k), seed=seed)
                for opt_name in optimizers:
                    histories = run_sessions(
                        workload,
                        subspace,
                        _optimizer_factory(opt_name),
                        n_runs=scale.n_runs,
                        n_iterations=scale.n_iterations,
                        n_initial=scale.n_initial,
                        instance=instance,
                        seed=seed,
                        n_workers=n_workers,
                    )
                    rows.append(
                        ImportanceRow(
                            workload=workload,
                            measurement=name,
                            top_k=k,
                            optimizer=opt_name,
                            improvement=median_improvement(histories, workload, instance),
                        )
                    )

    per_setting: dict[str, list[float]] = {name: [] for name in measurements}
    settings = sorted({(r.workload, r.top_k, r.optimizer) for r in rows})
    for setting in settings:
        for name in measurements:
            value = next(
                r.improvement
                for r in rows
                if r.measurement == name and (r.workload, r.top_k, r.optimizer) == setting
            )
            per_setting[name].append(value)
    ranking = average_ranks(per_setting, higher_is_better=True)
    return ImportanceComparison(rows=rows, overall_ranking=ranking, top_knobs=top_knobs)


def importance_sensitivity(
    workload: str = "SYSBENCH",
    measurements: tuple[str, ...] = MEASUREMENTS,
    sample_sizes: tuple[int, ...] = (100, 200, 400, 800),
    n_repeats: int = 3,
    top_k: int = 5,
    scale: Scale | None = None,
    instance: str = "B",
    seed: int = 17,
) -> dict[str, list[SensitivityPoint]]:
    """Figure 4: top-k stability (IoU) and surrogate R² vs training size."""
    scale = scale or bench_scale()
    full = mysql_knob_space(instance, seed=seed)
    configs, scores, default_score = workload_pool(
        workload, instance, scale.n_pool_samples, seed
    )
    out: dict[str, list[SensitivityPoint]] = {}
    for name in measurements:
        kwargs = FAST_MEASUREMENT_KWARGS.get(name, {})
        out[name] = sensitivity_analysis(
            lambda s, _n=name, _kw=kwargs: MEASUREMENT_REGISTRY[_n](full, seed=s, **_kw),
            configs,
            scores,
            default_score,
            sample_sizes=sample_sizes,
            n_repeats=n_repeats,
            top_k=top_k,
            seed=seed,
        )
    return out
