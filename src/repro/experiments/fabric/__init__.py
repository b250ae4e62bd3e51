"""Multi-host sweep fabric: shared unit manifest, shard workers, reducer.

The orchestrator (PR 2) fans a sweep out to one process pool; the store
(PR 6) made results durable, content-addressed and mergeable; PR 7 added
advisory leases and the supervised resilient pool.  This module is the last
scaling rung (ROADMAP item 3): it composes those pieces into a *fabric*
that runs one sweep across many hosts, with no coordinator process and no
new on-disk formats.

The fabric is three verbs over one shared **unit manifest**:

``plan``
    Enumerate the sweep's :class:`~repro.experiments.orchestrator.SweepUnit`
    content keys into a deterministic JSON manifest
    (``python -m repro.experiments.fabric plan``).  Planning draws no
    conclusions and runs no trials — the manifest is a list of
    ``(point_index, instance_index, unit_key)`` rows plus the sweep spec
    needed to rebuild the units bit-identically anywhere.

``work``
    A worker entry point (``fabric work manifest.json --store shard.sqlite
    --workers auto``).  Each worker claims units through the existing
    ``leases`` table of a shared *coordination store* (claim / steal after
    TTL — leases stay advisory: correctness never depends on them),
    executes claimed units on the supervised resilient pool
    (:func:`~repro.experiments.orchestrator.run_units_resilient`), and
    writes rows into its **own shard store**.  Finished results are also
    published to the coordination store so peers copy instead of
    recomputing.  Any number of workers may run concurrently on any number
    of hosts; duplicated work is wasted wall clock, never wrong bits.

``reduce``
    Merge the N shard stores (``frontiers`` and ``constructions`` tables
    included) into one canonical store via
    :func:`~repro.experiments.store.merge_stores`, check the merged store
    answers **every** manifest key, and re-emit the deterministic
    :class:`~repro.experiments.harness.SweepResult` rows by replaying the
    sweep against the canonical store — every unit warm-hits, so the rows
    are bit-identical to a single-host ``run_sweep(workers=1)`` and the
    canonical file is byte-stable under repeated reduction.

**Bit-identity contract.**  Hosts, workers, shards, kill schedules and
lease steals are wall-clock knobs: every unit is a pure function of its
content (seeds derive from
:func:`~repro.core.seeding.stable_seed`), the store keys are
content hashes, and merged rows converge by ``INSERT OR IGNORE``
first-writer-wins.  ``engine="fast"`` rows carry their engine tag in the
key exactly as on one host — the fabric adds **no** key format changes and
no ``STORE_FORMAT_VERSION`` bump.

>>> spec = FABRIC_SPECS["smoke"]
>>> manifest = plan_manifest(spec)
>>> len(manifest["units"]) == len(spec.element_counts) * spec.instances_per_point
True
>>> sorted(manifest["units"][0])
['index', 'instance_index', 'key', 'label', 'point_index']
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms import (
    FirstListedAlgorithm,
    GreedyWeightAlgorithm,
    RandPrAlgorithm,
    UniformRandomAlgorithm,
    UnweightedPriorityAlgorithm,
)
from repro.exceptions import MeasurementFailedError, OspError
from repro.experiments.competitive_ratio import EXACT_SOLVER_SET_LIMIT, validate_engine
from repro.experiments.harness import SweepResult, run_sweep
from repro.experiments.orchestrator import (
    SweepUnit,
    build_sweep_units,
    run_units_resilient,
)
from repro.experiments.parallel import resolve_workers
from repro.experiments.report import format_table
from repro.experiments.resilience import FailureReport, RetryPolicy
from repro.experiments.store import (
    LEASE_DEFAULT_TTL,
    STORE_FORMAT_VERSION,
    SolutionStore,
    merge_stores,
    unit_key,
)
from repro.workloads import random_online_instance

__all__ = [
    "FABRIC_SPECS",
    "MANIFEST_FORMAT",
    "FabricError",
    "algorithm_registry",
    "FabricIncompleteError",
    "FabricWorkReport",
    "SweepSpec",
    "load_manifest",
    "main",
    "manifest_units",
    "plan_manifest",
    "reduce_shards",
    "rows_as_dicts",
    "single_host_result",
    "work",
    "write_manifest",
]

#: The manifest's self-identifying format marker.  Bumped only if the
#: manifest JSON layout itself changes; the *unit keys* inside follow the
#: store's :data:`~repro.experiments.store.STORE_FORMAT_VERSION` and need
#: no separate version.
MANIFEST_FORMAT = "osp-fabric-manifest-v1"

_ALGORITHM_REGISTRY: Dict[str, type] = {
    "randPr": RandPrAlgorithm,
    "uniform-priority": UnweightedPriorityAlgorithm,
    "uniform-random": UniformRandomAlgorithm,
    "greedy-weight": GreedyWeightAlgorithm,
    "first-listed": FirstListedAlgorithm,
}


def algorithm_registry() -> Dict[str, type]:
    """Zero-argument algorithm constructors by their stable ``name``.

    Only algorithms with a stable
    :func:`~repro.experiments.store.algorithm_identity` may appear in a
    manifest — an uncacheable algorithm has no unit key for workers to
    rendezvous on.
    """
    return _ALGORITHM_REGISTRY


class FabricError(OspError):
    """Raised when a manifest is malformed or drifts from this revision.

    Drift example: a manifest planned under a different key composition —
    every worker recomputes the unit keys from the spec and refuses to run
    if they disagree with the manifest, because rows written under foreign
    keys could never be reduced against it.
    """


class FabricIncompleteError(FabricError):
    """Raised by :func:`reduce_shards` when merged shards miss manifest units.

    ``missing`` carries the absent unit keys; rerunning ``fabric work``
    against any shard (or reducing with ``recompute_missing=True``) fills
    exactly the gap — the fabric is resumable by construction.
    """

    def __init__(self, message: str, missing: Sequence[str] = ()):
        super().__init__(message)
        self.missing = tuple(missing)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to rebuild a sweep's units bit-identically.

    The spec is the manifest's payload: any host that loads it re-derives
    the same instances (via :func:`~repro.experiments.orchestrator.build_sweep_units`
    and :func:`~repro.workloads.random_online_instance`), the same measure
    seeds and therefore the same content-addressed unit keys.  Algorithms
    travel as registry names (:func:`algorithm_registry`), never as pickles.
    """

    name: str
    num_sets: int
    element_counts: Tuple[int, ...]
    set_size_range: Tuple[int, int]
    weight_range: Tuple[float, float]
    instances_per_point: int
    trials_per_instance: int
    seed: int
    algorithms: Tuple[str, ...]
    opt_method: str = "auto"
    engine: str = "auto"

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        if self.instances_per_point < 1:
            raise FabricError("instances_per_point must be at least 1")
        unknown = [
            name for name in self.algorithms if name not in _ALGORITHM_REGISTRY
        ]
        if unknown:
            raise FabricError(
                f"unknown algorithm name(s) {unknown!r}; "
                f"known: {sorted(_ALGORITHM_REGISTRY)}"
            )

    def algorithm_instances(self):
        """Fresh algorithm objects, in spec order."""
        return [_ALGORITHM_REGISTRY[name]() for name in self.algorithms]

    def points(self):
        """The ``(label, factory)`` parameter points of this sweep."""
        points = []
        for num_elements in self.element_counts:
            def factory(rng, num_elements=num_elements):
                return random_online_instance(
                    self.num_sets,
                    num_elements,
                    tuple(self.set_size_range),
                    rng,
                    weight_range=tuple(self.weight_range),
                    name=f"{self.num_sets}x{num_elements}",
                )

            points.append((f"n={num_elements}", factory))
        return points

    def build_units(self) -> List[SweepUnit]:
        """Draw every unit of the sweep, deterministically."""
        return build_sweep_units(
            self.points(), self.instances_per_point, self.seed
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SweepSpec":
        try:
            return cls(
                name=str(data["name"]),
                num_sets=int(data["num_sets"]),
                element_counts=tuple(int(n) for n in data["element_counts"]),
                set_size_range=tuple(int(n) for n in data["set_size_range"]),
                weight_range=tuple(float(w) for w in data["weight_range"]),
                instances_per_point=int(data["instances_per_point"]),
                trials_per_instance=int(data["trials_per_instance"]),
                seed=int(data["seed"]),
                algorithms=tuple(str(a) for a in data["algorithms"]),
                opt_method=str(data.get("opt_method", "auto")),
                engine=str(data.get("engine", "auto")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed sweep spec: {exc}") from exc


#: The named sweep specs.  ``standard`` mirrors the standard 200-set sweep
#: of ``benchmarks/bench_sweep_parallel.py`` (same instances, seeds, trials
#: and algorithm order, so its rows are comparable across the benchmark
#: suite); ``smoke`` is the CI-sized fabric exercise.
FABRIC_SPECS = {
    "standard": SweepSpec(
        name="standard",
        num_sets=200,
        element_counts=(500, 400, 300),
        set_size_range=(2, 5),
        weight_range=(1.0, 6.0),
        instances_per_point=2,
        trials_per_instance=300,
        seed=2025,
        algorithms=(
            "randPr",
            "uniform-priority",
            "uniform-random",
            "greedy-weight",
            "first-listed",
        ),
    ),
    "smoke": SweepSpec(
        name="smoke",
        num_sets=40,
        element_counts=(100, 60),
        set_size_range=(2, 5),
        weight_range=(1.0, 6.0),
        instances_per_point=2,
        trials_per_instance=20,
        seed=2025,
        algorithms=("randPr", "greedy-weight"),
    ),
}


def _spec_keys(spec: SweepSpec) -> List[Tuple[SweepUnit, str]]:
    """The sweep's units paired with their content-addressed store keys."""
    algorithms = spec.algorithm_instances()
    pairs = []
    for unit in spec.build_units():
        key = unit_key(
            unit.instance,
            unit.measure_seed,
            algorithms,
            spec.trials_per_instance,
            spec.opt_method,
            EXACT_SOLVER_SET_LIMIT,
            engine=spec.engine,
        )
        if key is None:  # registry guarantees cacheable algorithms
            raise FabricError(
                f"unit ({unit.point_index}, {unit.instance_index}) is "
                "uncacheable; fabric sweeps need content-addressed keys"
            )
        pairs.append((unit, key))
    return pairs


def plan_manifest(spec: SweepSpec) -> Dict[str, object]:
    """Enumerate the sweep's unit keys into a shareable manifest dict.

    Purely deterministic — no timestamps, no host identity — so two hosts
    planning the same spec write byte-identical manifests.
    """
    units = [
        {
            "index": index,
            "point_index": unit.point_index,
            "instance_index": unit.instance_index,
            "label": unit.label,
            "key": key,
        }
        for index, (unit, key) in enumerate(_spec_keys(spec))
    ]
    return {
        "format": MANIFEST_FORMAT,
        "store_format_version": STORE_FORMAT_VERSION,
        "spec": spec.to_dict(),
        "units": units,
    }


def write_manifest(manifest: Dict[str, object], path: str) -> None:
    """Write a manifest as canonical JSON (sorted keys, trailing newline)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_manifest(path: str) -> Dict[str, object]:
    """Load and structurally validate a manifest file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise FabricError(f"cannot read manifest {path!r}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise FabricError(
            f"{path!r} is not a {MANIFEST_FORMAT} manifest"
        )
    if manifest.get("store_format_version") != STORE_FORMAT_VERSION:
        raise FabricError(
            f"manifest {path!r} was planned for store format "
            f"{manifest.get('store_format_version')!r}, this repo writes "
            f"version {STORE_FORMAT_VERSION}"
        )
    return manifest


def manifest_units(
    manifest: Dict[str, object],
) -> Tuple[SweepSpec, List[Tuple[SweepUnit, str]]]:
    """Rebuild the sweep units and verify the manifest's keys match.

    Every host recomputes the unit keys from the spec; a mismatch means the
    manifest was planned under a different code revision (changed workload
    generator, changed key composition) and is refused — rows written under
    drifted keys could never be reduced against this manifest.
    """
    spec = SweepSpec.from_dict(manifest["spec"])
    pairs = _spec_keys(spec)
    entries = manifest["units"]
    if len(entries) != len(pairs):
        raise FabricError(
            f"manifest lists {len(entries)} unit(s), spec rebuilds {len(pairs)}"
        )
    for entry, (unit, key) in zip(entries, pairs):
        if entry["key"] != key:
            raise FabricError(
                f"manifest key drift at unit {entry['index']} "
                f"({entry['label']}[instance {entry['instance_index']}]): "
                f"manifest has {entry['key'][:12]}…, this revision computes "
                f"{key[:12]}… — replan the manifest"
            )
    return spec, pairs


def default_coordination_path(manifest_path: str) -> str:
    """The coordination store path derived from the manifest's location.

    Workers that share a manifest file share its directory, so the default
    coordination store — leases plus published results — lives next to it.
    """
    return str(manifest_path) + ".coord.sqlite"


def _fabric_owner() -> str:
    """The lease owner token of this fabric worker: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class FabricWorkReport:
    """What one ``fabric work`` invocation did, unit by unit.

    ``computed`` counts units this worker executed (including units whose
    lease it stole from an expired owner — ``stolen`` of them), ``copied``
    counts units answered from a peer's published result, ``already_stored``
    counts units the worker's own shard already held (a resumed worker), and
    ``failures`` carries the quarantine reports of units that exhausted
    their retry budget here.
    """

    owner: str
    computed: int = 0
    copied: int = 0
    already_stored: int = 0
    stolen: int = 0
    waits: int = 0
    failures: List[FailureReport] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.computed + self.copied + self.already_stored


def work(
    manifest: Dict[str, object],
    shard_path: str,
    *,
    coordination_path: str,
    workers: "int | str" = 1,
    lease_ttl: float = LEASE_DEFAULT_TTL,
    policy: Optional[RetryPolicy] = None,
    poll_seconds: float = 0.05,
    max_wait: Optional[float] = None,
) -> FabricWorkReport:
    """Claim, execute and publish manifest units until none remain.

    The loop over the manifest's units is: already in my shard → publish
    and move on; published by a peer in the coordination store → copy into
    my shard; otherwise try to claim its lease (an expired lease is stolen)
    and execute a batch of claimed units on the supervised pool, writing
    into my shard and publishing each finished result.  When every
    remaining unit is leased by a live peer, the worker polls until the
    peer publishes or the lease expires — so a crashed peer's units are
    stolen after ``lease_ttl`` and the sweep always completes as long as
    one worker survives.

    Leases stay advisory: a duplicate claim (fail-open on a broken lease
    table, races between hosts) duplicates wall clock, and the
    content-addressed first-writer-wins store makes the bits converge.

    ``policy`` defaults to ``RetryPolicy()``: a fabric worker quarantines a
    poison unit into ``report.failures`` rather than crashing on it.
    ``max_wait`` bounds the total time spent polling on peers (``None``:
    wait indefinitely); on timeout the worker returns with the remaining
    units unfinished — the reducer's completeness check will name them.
    """
    spec, pairs = manifest_units(manifest)
    algorithms = spec.algorithm_instances()
    batch_size = max(1, resolve_workers(workers))
    report = FabricWorkReport(owner=_fabric_owner())
    shard = SolutionStore(str(shard_path))
    coordination = SolutionStore(str(coordination_path))
    waited = 0.0
    try:
        remaining = dict(enumerate(pairs))
        while remaining:
            claimed: List[Tuple[int, SweepUnit, str]] = []
            for index in sorted(remaining):
                unit, key = remaining[index]
                mine = shard.get_unit(key)
                if mine is not None:
                    coordination.put_unit(key, mine)
                    report.already_stored += 1
                    del remaining[index]
                    continue
                published = coordination.get_unit(key)
                if published is not None:
                    shard.put_unit(key, published)
                    report.copied += 1
                    del remaining[index]
                    continue
                if len(claimed) >= batch_size:
                    continue
                lease = coordination.get_lease(key)
                stealing = (
                    lease is not None
                    and lease.owner != report.owner
                    and lease.expired()
                )
                if coordination.claim_lease(key, report.owner, ttl=lease_ttl):
                    if stealing:
                        report.stolen += 1
                    claimed.append((index, unit, key))
            if claimed:
                results, failures = run_units_resilient(
                    [unit for _, unit, _ in claimed],
                    algorithms,
                    trials=spec.trials_per_instance,
                    opt_method=spec.opt_method,
                    engine=spec.engine,
                    workers=workers,
                    store=str(shard_path),
                    policy=policy or RetryPolicy(),
                )
                for (index, unit, key), result in zip(claimed, results):
                    if result is None:
                        continue
                    coordination.put_unit(key, result)
                    coordination.release_lease(key, report.owner)
                    report.computed += 1
                    del remaining[index]
                for failure in failures:
                    index, unit, key = claimed[failure.index]
                    coordination.release_lease(key, report.owner)
                    report.failures.append(failure)
                    del remaining[index]
                continue  # progress made (or quarantined) — rescan, no sleep
            if not remaining:
                break
            # Everything left is leased by a live peer: poll for its result
            # (or for the lease to expire, at which point we steal it).
            if max_wait is not None and waited >= max_wait:
                break
            report.waits += 1
            waited += poll_seconds
            time.sleep(poll_seconds)
    finally:
        coordination.close()
        shard.close()
    return report


def reduce_shards(
    manifest: Dict[str, object],
    shard_paths: Sequence[str],
    output_path: str,
    *,
    recompute_missing: bool = False,
) -> Tuple[SweepResult, Dict[str, int], List[str]]:
    """Merge shard stores into a canonical store and re-emit the sweep rows.

    The merge is :func:`~repro.experiments.store.merge_stores`: checksummed
    first-writer-wins over every payload table (``opt``, ``units``,
    ``constructions``, ``frontiers``), garbled shard rows skipped.  The
    merged store must then answer **every** manifest unit key — a unit
    garbled in one shard but healthy in another is fine; a unit present in
    no shard raises :class:`FabricIncompleteError` naming the missing keys
    (pass ``recompute_missing=True`` to compute the stragglers in-process
    instead: the fabric is resumable by construction).

    The returned rows come from replaying the sweep against the canonical
    store with ``workers=1``: every unit warm-hits, so the rows — and,
    because a complete replay writes nothing, the canonical file itself —
    are bit-identical to a single-host ``run_sweep`` and byte-stable under
    repeated reduction.
    """
    spec, pairs = manifest_units(manifest)
    merge_report = merge_stores(str(output_path), [str(p) for p in shard_paths])
    canonical = SolutionStore(str(output_path))
    try:
        missing = [key for _, key in pairs if canonical.get_unit(key) is None]
    finally:
        canonical.close()
    if missing and not recompute_missing:
        raise FabricIncompleteError(
            f"{len(missing)} of {len(pairs)} manifest unit(s) missing from "
            f"the merged shards: {', '.join(key[:12] + '…' for key in missing)}",
            missing=missing,
        )
    result = single_host_result(manifest, store=str(output_path))
    return result, merge_report, missing


def single_host_result(
    manifest: Dict[str, object],
    *,
    store: "str | bool | None" = False,
    workers: "int | str" = 1,
) -> SweepResult:
    """The manifest's sweep executed through plain :func:`run_sweep`.

    This is the fabric's golden reference: by the bit-identity contract the
    reducer's rows must equal this result's rows exactly, at any fabric
    configuration.  ``store=False`` (the default) keeps the reference run
    fully independent of any store file.
    """
    spec, _ = manifest_units(manifest)
    return run_sweep(
        name=f"fabric:{spec.name}",
        parameter_points=spec.points(),
        algorithms=spec.algorithm_instances(),
        instances_per_point=spec.instances_per_point,
        trials_per_instance=spec.trials_per_instance,
        seed=spec.seed,
        opt_method=spec.opt_method,
        engine=spec.engine,
        workers=workers,
        store=store,
    )


def rows_as_dicts(result: SweepResult) -> List[Dict[str, object]]:
    """The sweep rows as JSON-ready dicts, at full float precision.

    ``json.dumps`` renders floats with ``repr`` (shortest round-trip), so
    two row lists serialize identically **iff** they are bit-identical —
    which is exactly what the fabric's golden-row comparisons diff.
    """
    return [asdict(row) for row in result.rows]


def _write_rows(result: SweepResult, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows_as_dicts(result), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _print_result(result: SweepResult) -> None:
    rows = [
        {
            "point": row.parameter_label,
            "algorithm": row.algorithm_name,
            "mean_ratio": round(row.mean_ratio, 4),
            "max_ratio": round(row.max_ratio, 4),
            "best_bound": round(row.best_bound, 4),
        }
        for row in result.rows
    ]
    print(format_table(rows, columns=list(rows[0]), title=result.name))


def _parse_workers(value: "int | str") -> "int | str":
    """Normalize a ``--workers`` CLI value: ``'auto'`` or a positive int."""
    if value == "auto":
        return "auto"
    try:
        return int(value)
    except (TypeError, ValueError):
        raise FabricError(
            f"--workers must be an integer or 'auto', got {value!r}"
        )


def _cli_plan(args) -> int:
    spec = FABRIC_SPECS[args.spec]
    if args.seed is not None or args.trials is not None or args.engine is not None:
        overrides = spec.to_dict()
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.trials is not None:
            overrides["trials_per_instance"] = args.trials
        if args.engine is not None:
            overrides["engine"] = args.engine
        spec = SweepSpec.from_dict(overrides)
    manifest = plan_manifest(spec)
    write_manifest(manifest, args.out)
    print(
        f"planned {len(manifest['units'])} unit(s) of spec {spec.name!r} "
        f"into {os.path.abspath(args.out)}"
    )
    return 0


def _cli_work(args) -> int:
    manifest = load_manifest(args.manifest)
    policy = None
    if args.max_attempts is not None or args.unit_timeout is not None:
        policy = RetryPolicy(
            max_attempts=args.max_attempts or 3, timeout=args.unit_timeout
        )
    coordination = args.coord or default_coordination_path(args.manifest)
    started = time.perf_counter()
    report = work(
        manifest,
        args.store,
        coordination_path=coordination,
        workers=_parse_workers(args.workers),
        lease_ttl=args.lease_ttl,
        policy=policy,
        max_wait=args.max_wait,
    )
    elapsed = time.perf_counter() - started
    print(
        f"worker {report.owner}: computed {report.computed} "
        f"(stole {report.stolen}), copied {report.copied} from peers, "
        f"already stored {report.already_stored}, "
        f"quarantined {len(report.failures)}"
    )
    # Machine-readable drain time: benchmarks compare this across worker
    # counts without charging the fabric for interpreter startup.
    print(f"work seconds: {elapsed:.3f}")
    if report.failures:
        raise MeasurementFailedError.after_retries("fabric unit", report.failures)
    return 0


def _cli_reduce(args) -> int:
    manifest = load_manifest(args.manifest)
    result, merge_report, missing = reduce_shards(
        manifest,
        args.shards,
        args.out,
        recompute_missing=args.recompute_missing,
    )
    print(
        f"reduced {len(args.shards)} shard(s) into {os.path.abspath(args.out)}: "
        f"examined {merge_report['examined']} row(s), "
        f"skipped {merge_report['skipped']} garbled, "
        f"recomputed {len(missing)} missing unit(s)"
    )
    if args.rows:
        _write_rows(result, args.rows)
        print(f"rows written to {os.path.abspath(args.rows)}")
    _print_result(result)
    return 0


def _cli_rows(args) -> int:
    manifest = load_manifest(args.manifest)
    result = single_host_result(manifest, workers=_parse_workers(args.workers))
    if args.rows:
        _write_rows(result, args.rows)
        print(f"rows written to {os.path.abspath(args.rows)}")
    _print_result(result)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The ``python -m repro.experiments.fabric`` entry point.

    Four verbs: ``plan`` (write the shared unit manifest), ``work`` (claim
    and execute units into a shard store), ``reduce`` (merge shards, check
    completeness, re-emit the deterministic rows) and ``rows`` (the
    single-host golden reference for row comparisons).  Exit codes follow
    the runner's conventions: 0 on success, 1 when the reduce completeness
    check or a row comparison fails, 3 when a worker exhausts its retry
    budget (with the JSON failure summary on stdout).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fabric",
        description="Run one sweep across many hosts: plan / work / reduce.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan_parser = commands.add_parser(
        "plan", help="enumerate a sweep's unit keys into a shared manifest"
    )
    plan_parser.add_argument(
        "--spec", choices=sorted(FABRIC_SPECS), default="smoke",
        help="named sweep spec (default: smoke)",
    )
    plan_parser.add_argument("--out", required=True, help="manifest JSON path")
    plan_parser.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    plan_parser.add_argument(
        "--trials", type=int, default=None, help="override trials per instance"
    )
    plan_parser.add_argument(
        "--engine", default=None, help="override the spec's engine"
    )
    plan_parser.set_defaults(handler=_cli_plan)

    work_parser = commands.add_parser(
        "work", help="claim and execute manifest units into a shard store"
    )
    work_parser.add_argument("manifest", help="shared manifest JSON path")
    work_parser.add_argument(
        "--store", required=True, help="this worker's shard store file"
    )
    work_parser.add_argument(
        "--coord", default=None,
        help="coordination store (default: <manifest>.coord.sqlite)",
    )
    work_parser.add_argument(
        "--workers", default="1", metavar="N|auto",
        help="worker processes for claimed units (wall-clock knob)",
    )
    work_parser.add_argument(
        "--lease-ttl", type=float, default=LEASE_DEFAULT_TTL, metavar="SECONDS",
        help=f"advisory lease TTL before peers steal (default {LEASE_DEFAULT_TTL:g})",
    )
    work_parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="retry budget per unit under the supervised pool",
    )
    work_parser.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-unit wall-clock timeout under supervision",
    )
    work_parser.add_argument(
        "--max-wait", type=float, default=None, metavar="SECONDS",
        help="bound the total time spent polling on peers' leases",
    )
    work_parser.set_defaults(handler=_cli_work)

    reduce_parser = commands.add_parser(
        "reduce", help="merge shards into a canonical store and emit the rows"
    )
    reduce_parser.add_argument("manifest", help="shared manifest JSON path")
    reduce_parser.add_argument(
        "--out", required=True, help="canonical output store file"
    )
    reduce_parser.add_argument(
        "shards", nargs="+", help="shard store files to merge"
    )
    reduce_parser.add_argument(
        "--rows", default=None, metavar="PATH",
        help="also write the rows as canonical JSON (diffable golden rows)",
    )
    reduce_parser.add_argument(
        "--recompute-missing", action="store_true",
        help="compute units missing from every shard instead of failing",
    )
    reduce_parser.set_defaults(handler=_cli_reduce)

    rows_parser = commands.add_parser(
        "rows", help="single-host golden reference rows for comparisons"
    )
    rows_parser.add_argument("manifest", help="shared manifest JSON path")
    rows_parser.add_argument(
        "--rows", default=None, metavar="PATH", help="write rows as canonical JSON"
    )
    rows_parser.add_argument(
        "--workers", default="1", metavar="N|auto",
        help="worker processes (wall-clock knob; rows are identical)",
    )
    rows_parser.set_defaults(handler=_cli_rows)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FabricIncompleteError as exc:
        print(f"REDUCE INCOMPLETE — {exc}")
        return 1
    except MeasurementFailedError as exc:
        print("MEASUREMENT FAILED — retry budget exhausted")
        print(
            json.dumps(
                {
                    "error": str(exc),
                    "failures": [report.as_dict() for report in exc.failures],
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 3
    except FabricError as exc:
        raise SystemExit(f"error: {exc}")
