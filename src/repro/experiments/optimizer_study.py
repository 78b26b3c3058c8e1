"""Optimizer experiments: Figure 7 / Table 7, Figure 8, Figure 9 (paper §6)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.overhead import overhead_at_checkpoints
from repro.experiments.runner import median_improvement, run_sessions
from repro.experiments.scale import Scale, bench_scale
from repro.experiments.spaces import heterogeneity_spaces, paper_spaces
from repro.parallel import RegistryOptimizerFactory
from repro.tuning.metrics import average_ranks

#: The seven optimizers of Table 3, in the paper's reporting order.
OPTIMIZERS = (
    "vanilla_bo",
    "mixed_kernel_bo",
    "smac",
    "tpe",
    "turbo",
    "ddpg",
    "ga",
)

@dataclass
class OptimizerRow:
    """One Figure 7 curve endpoint."""

    workload: str
    space_size: str
    optimizer: str
    improvement: float
    best_trajectory: list[float]

@dataclass
class OptimizerComparison:
    """Figure 7 data plus Table 7 per-size and overall rankings."""

    rows: list[OptimizerRow]
    rankings: dict[str, dict[str, float]]  # space size (+ "overall") -> ranking

def optimizer_comparison(
    workloads: tuple[str, ...] = ("SYSBENCH", "JOB"),
    space_sizes: tuple[str, ...] = ("small", "medium", "large"),
    optimizers: tuple[str, ...] = OPTIMIZERS,
    scale: Scale | None = None,
    instance: str = "B",
    seed: int = 17,
    n_workers: int = 1,
) -> OptimizerComparison:
    """Figure 7 / Table 7: all optimizers over small/medium/large spaces."""
    scale = scale or bench_scale()
    rows: list[OptimizerRow] = []
    for workload in workloads:
        spaces = paper_spaces(workload, instance, scale.n_pool_samples, seed)
        for size in space_sizes:
            space = spaces[size]
            for name in optimizers:
                histories = run_sessions(
                    workload,
                    space,
                    RegistryOptimizerFactory(name),
                    n_runs=scale.n_runs,
                    n_iterations=scale.n_iterations,
                    n_initial=scale.n_initial,
                    instance=instance,
                    seed=seed,
                    n_workers=n_workers,
                )
                trajectory = histories[0].best_score_trajectory().tolist()
                rows.append(
                    OptimizerRow(
                        workload=workload,
                        space_size=size,
                        optimizer=name,
                        improvement=median_improvement(histories, workload, instance),
                        best_trajectory=trajectory,
                    )
                )

    rankings: dict[str, dict[str, float]] = {}
    for size in space_sizes:
        per_opt = {
            name: [
                r.improvement
                for r in rows
                if r.optimizer == name and r.space_size == size
            ]
            for name in optimizers
        }
        rankings[size] = average_ranks(per_opt, higher_is_better=True)
    per_opt_all = {
        name: [r.improvement for r in rows if r.optimizer == name] for name in optimizers
    }
    rankings["overall"] = average_ranks(per_opt_all, higher_is_better=True)
    return OptimizerComparison(rows=rows, rankings=rankings)

@dataclass
class HeterogeneityRow:
    """One Figure 8 curve."""

    space_kind: str  # "continuous" | "heterogeneous"
    optimizer: str
    improvement: float
    best_trajectory: list[float]

def heterogeneity_comparison(
    workload: str = "JOB",
    optimizers: tuple[str, ...] = ("vanilla_bo", "mixed_kernel_bo", "smac", "ddpg"),
    scale: Scale | None = None,
    instance: str = "B",
    seed: int = 17,
    n_workers: int = 1,
) -> list[HeterogeneityRow]:
    """Figure 8: continuous vs heterogeneous top-20 spaces on JOB."""
    scale = scale or bench_scale()
    spaces = heterogeneity_spaces(workload, instance, scale.n_pool_samples, seed)
    rows: list[HeterogeneityRow] = []
    for kind, space in spaces.items():
        for name in optimizers:
            histories = run_sessions(
                workload,
                space,
                RegistryOptimizerFactory(name),
                n_runs=scale.n_runs,
                n_iterations=scale.n_iterations,
                n_initial=scale.n_initial,
                instance=instance,
                seed=seed,
                n_workers=n_workers,
            )
            rows.append(
                HeterogeneityRow(
                    space_kind=kind,
                    optimizer=name,
                    improvement=median_improvement(histories, workload, instance),
                    best_trajectory=histories[0].best_score_trajectory().tolist(),
                )
            )
    return rows

@dataclass
class OverheadRow:
    """One Figure 9 series: per-iteration overhead at checkpoints."""

    optimizer: str
    checkpoints: dict[int, float]
    total_seconds: float

def overhead_comparison(
    workload: str = "JOB",
    optimizers: tuple[str, ...] = OPTIMIZERS,
    n_iterations: int | None = None,
    checkpoints: tuple[int, ...] = (50, 100, 150, 200, 400),
    scale: Scale | None = None,
    instance: str = "B",
    seed: int = 17,
    n_workers: int = 1,
    telemetry_path: str | None = None,
    checkpoint_path: str | None = None,
) -> list[OverheadRow]:
    """Figure 9: suggestion wall-time per iteration over the medium space.

    GP-based optimizers refit an exact GP on the full history each
    iteration, so their overhead grows superlinearly; forest/parzen/RL
    methods stay near-constant.  ``telemetry_path`` appends the per-run
    JSONL records (suggest/eval wall-time, failures, simulated hours)
    that this figure's analysis is derived from.  ``checkpoint_path``
    makes the study resumable: an interrupted invocation re-run with the
    same arguments skips every optimizer's already-completed run.
    """
    scale = scale or bench_scale()
    iters = n_iterations if n_iterations is not None else min(3 * scale.n_iterations, 400)
    space = paper_spaces(workload, instance, scale.n_pool_samples, seed)["medium"]
    rows: list[OverheadRow] = []
    for name in optimizers:
        histories = run_sessions(
            workload,
            space,
            RegistryOptimizerFactory(name),
            n_runs=1,
            n_iterations=iters,
            n_initial=scale.n_initial,
            instance=instance,
            seed=seed,
            n_workers=n_workers,
            telemetry_path=telemetry_path,
            checkpoint_path=checkpoint_path,
        )
        times = [o.suggest_seconds for o in histories[0]]
        rows.append(
            OverheadRow(
                optimizer=name,
                checkpoints=overhead_at_checkpoints(times, checkpoints),
                total_seconds=float(np.sum(times)),
            )
        )
    return rows
