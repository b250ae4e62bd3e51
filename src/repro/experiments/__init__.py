"""Experiment harness: OPT estimation, ratio measurement, sweeps and reports."""

from repro.core.seeding import stable_seed
from repro.experiments.confidence import (
    ConfidenceInterval,
    RatioWithConfidence,
    bootstrap_mean_interval,
    measure_ratio_with_confidence,
)
from repro.experiments.competitive_ratio import (
    OptEstimate,
    RatioMeasurement,
    estimate_opt,
    measure_ratio,
    measure_suite,
)
from repro.experiments.fabric import (
    FABRIC_SPECS,
    FabricError,
    FabricIncompleteError,
    FabricWorkReport,
    SweepSpec,
    load_manifest,
    manifest_units,
    plan_manifest,
    reduce_shards,
    single_host_result,
    work,
    write_manifest,
)
from repro.experiments.faults import Fault, FaultInjected, FaultPlan
from repro.experiments.harness import ExperimentRow, SweepResult, run_sweep, summarize_rows
from repro.experiments.opt_cache import OptCache, default_opt_cache
from repro.experiments.orchestrator import (
    SweepUnit,
    SweepUnitResult,
    build_sweep_units,
    instance_seed,
    run_units_resilient,
)
from repro.experiments.parallel import (
    partition_trials,
    resolve_workers,
    workers_from_env,
)
from repro.experiments.resilience import (
    FailureReport,
    ResilientMapResult,
    RetryPolicy,
    map_ordered,
)
from repro.experiments.report import banner, format_markdown_table, format_sweep, format_table
from repro.experiments.store import (
    SolutionStore,
    StoreCorruptionWarning,
    merge_stores,
    resolve_store,
    resolve_store_path,
    set_default_store_path,
    store_for_path,
    store_path_from_env,
    unit_key,
)

__all__ = [
    "ConfidenceInterval",
    "RatioWithConfidence",
    "bootstrap_mean_interval",
    "measure_ratio_with_confidence",
    "OptEstimate",
    "RatioMeasurement",
    "estimate_opt",
    "measure_ratio",
    "measure_suite",
    "ExperimentRow",
    "SweepResult",
    "run_sweep",
    "summarize_rows",
    "OptCache",
    "default_opt_cache",
    "FABRIC_SPECS",
    "FabricError",
    "FabricIncompleteError",
    "FabricWorkReport",
    "SweepSpec",
    "load_manifest",
    "manifest_units",
    "plan_manifest",
    "reduce_shards",
    "single_host_result",
    "work",
    "write_manifest",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "merge_stores",
    "SweepUnit",
    "SweepUnitResult",
    "build_sweep_units",
    "instance_seed",
    "run_units_resilient",
    "map_ordered",
    "partition_trials",
    "resolve_workers",
    "stable_seed",
    "workers_from_env",
    "FailureReport",
    "ResilientMapResult",
    "RetryPolicy",
    "banner",
    "format_markdown_table",
    "format_sweep",
    "format_table",
    "SolutionStore",
    "StoreCorruptionWarning",
    "resolve_store",
    "resolve_store_path",
    "set_default_store_path",
    "store_for_path",
    "store_path_from_env",
    "unit_key",
]
