"""Fleet benchmark: the multi-stream engine under an interleaved workload.

Measures how fast a fleet of device streams (generated by
:func:`repro.engine.simulate.fleet_fixes`) flows through three setups over
the *same* interleaved fix stream:

``per-device``
    The throughput ceiling: every device's fixes pre-grouped, each stream
    compressed sequentially through its own compressor's columnar path.
    No dispatch, no interleaving — what a batch job with perfect knowledge
    would do.

``engine``
    The single-process :class:`~repro.engine.core.StreamEngine` fed
    interleaved columnar batches — measures the cost of online per-batch
    regrouping and dict dispatch.

``sharded-N``
    The :class:`~repro.engine.sharded.ShardedStreamEngine` with N worker
    processes.  Measures multi-core scale-out (or, on a single core, the
    pipe overhead; the numbers are recorded either way), with the last
    repeat's per-shard :meth:`~repro.engine.sharded.ShardedStreamEngine.
    transport_stats` attached to each record.

Every mode must produce the identical per-device key points — the digest
over all devices is compared and a mismatch raises
:class:`~repro.bench.harness.BenchError` (determinism is a correctness
property, never timing noise).
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence

from ..engine.core import StreamEngine
from ..engine.sanitize import (
    DROP_DUPLICATE,
    DROP_OUT_OF_ORDER,
    DROP_TELEPORT,
    SPLIT_GAP,
    FeedSanitizer,
    SanitizePolicy,
)
from ..engine.sharded import ShardedStreamEngine
from ..engine.simulate import (
    bqs_fleet_factory,
    fleet_fixes,
    inject_disorder,
    iter_fix_batches,
    iter_geo_fix_batches,
)
from ..model.columns import TrajectoryColumns
from ..model.point import PlanePoint
from .harness import BenchError, key_point_digest

__all__ = [
    "DirtyFleetRecord",
    "FleetRecord",
    "run_dirty_fleet_bench",
    "run_fleet_bench",
    "fleet_digest",
]


@dataclass(frozen=True)
class FleetRecord:
    """One engine mode's measurements over one fleet stream."""

    mode: str  #: "per-device", "engine", or "sharded-N"
    devices: int
    fixes_per_device: int
    fixes: int  #: total fixes in the interleaved stream
    batch_size: int
    epsilon: float
    workers: int  #: worker processes (0 = in-process)
    fixes_per_sec: float
    wall_seconds: float
    trajectories: int
    key_points: int
    key_digest: str  #: digest over every device's exact key points
    shards: list | None = None  #: per-shard transport_stats (last repeat)

    def to_json(self) -> dict:
        return asdict(self)


def fleet_digest(results: Dict[object, List]) -> str:
    """Order-insensitive digest of per-device compressed trajectories.

    Hashes every device's id and the exact key points of each of its
    trajectories (in completion order), with devices visited in sorted-id
    order — equal digests mean every device got bit-identical output.
    """
    digest = hashlib.sha256()
    for device_id in sorted(results, key=repr):
        digest.update(repr(device_id).encode())
        for trajectory in results[device_id]:
            digest.update(key_point_digest(trajectory.key_points).encode())
    return digest.hexdigest()[:16]


def _summarise(results) -> tuple[int, int]:
    trajectories = sum(len(v) for v in results.values())
    key_points = sum(len(t) for v in results.values() for t in v)
    return trajectories, key_points


def run_fleet_bench(
    devices: int,
    fixes_per_device: int,
    epsilon: float = 10.0,
    seed: int = 7,
    batch_size: int = 4096,
    worker_counts: Sequence[int] = (2,),
    progress: Callable[[str], None] | None = None,
    repeats: int = 2,
) -> List[FleetRecord]:
    """Benchmark every engine mode over one seeded fleet stream.

    Each mode runs ``repeats`` times and records its fastest wall
    (best-of-N against scheduler noise); the digest audit covers every
    repeat's results.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    ids, cols = fleet_fixes(devices, fixes_per_device, seed=seed)
    total = len(ids)
    factory = functools.partial(bqs_fleet_factory, epsilon)
    records: List[FleetRecord] = []

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    def record(
        mode: str,
        workers: int,
        wall: float,
        results,
        shards: list | None = None,
    ) -> None:
        trajectories, key_points = _summarise(results)
        records.append(
            FleetRecord(
                mode=mode,
                devices=devices,
                fixes_per_device=fixes_per_device,
                fixes=total,
                batch_size=batch_size,
                epsilon=epsilon,
                workers=workers,
                fixes_per_sec=total / wall if wall > 0.0 else 0.0,
                wall_seconds=wall,
                trajectories=trajectories,
                key_points=key_points,
                key_digest=fleet_digest(results),
                shards=shards,
            )
        )

    def best_of(run) -> tuple[float, dict]:
        """Fastest wall over ``repeats`` runs; results digest-checked later
        on every repeat (determinism makes them interchangeable)."""
        best_wall = math.inf
        best_results = None
        for _ in range(repeats):
            wall, results = run()
            if wall < best_wall:
                best_wall = wall
            if best_results is None:
                best_results = results
            elif fleet_digest(results) != fleet_digest(best_results):
                raise BenchError(
                    "fleet: repeats disagree (non-deterministic engine?)"
                )
        return best_wall, best_results

    # Mode 1: per-device sequential ceiling (grouping outside the timer).
    note(f"fleet/per-device ({devices} devices x {fixes_per_device} fixes)")
    grouped: Dict[object, TrajectoryColumns] = {}
    for i, device_id in enumerate(ids):
        dev_cols = grouped.get(device_id)
        if dev_cols is None:
            dev_cols = grouped[device_id] = TrajectoryColumns()
        dev_cols.append(cols.ts[i], cols.xs[i], cols.ys[i])

    def run_per_device():
        t0 = time.perf_counter()
        reference = {}
        for device_id, dev_cols in grouped.items():
            compressor = factory(device_id)
            compressor.push_xyt(dev_cols.ts, dev_cols.xs, dev_cols.ys)
            reference[device_id] = [compressor.finish()]
        return time.perf_counter() - t0, reference

    wall, results = best_of(run_per_device)
    record("per-device", 0, wall, results)
    expected_digest = records[0].key_digest

    # Mode 2: single-process engine over interleaved batches.
    note(f"fleet/engine (batches of {batch_size})")

    def run_engine():
        t0 = time.perf_counter()
        engine = StreamEngine(factory)
        for batch in iter_fix_batches(ids, cols, batch_size):
            engine.push_columns(*batch)
        results = engine.finish_all()
        return time.perf_counter() - t0, results

    wall, results = best_of(run_engine)
    record("engine", 0, wall, results)

    # Mode 3: sharded engines, per worker count.  Worker spawn
    # happens outside the timer (a deployment pays it once per process
    # lifetime, not per batch); the timed region covers dispatch, worker
    # compute, and result collection.  The per-shard transport stats come
    # from whichever repeat ran last — counters, not timings, so any
    # repeat's are representative.
    for workers in worker_counts:
        mode = f"sharded-{workers}"
        note(f"fleet/{mode}")
        stats_box: list = []

        def run_sharded(workers=workers):
            sharded = ShardedStreamEngine(factory, workers=workers)
            try:
                t0 = time.perf_counter()
                for batch in iter_fix_batches(ids, cols, batch_size):
                    sharded.push_columns(*batch)
                results = sharded.finish_all()
                wall = time.perf_counter() - t0
                stats_box[:] = sharded.transport_stats()
                return wall, results
            finally:
                sharded.close()

        wall, results = best_of(run_sharded)
        record(mode, workers, wall, results, list(stats_box))

    for rec in records[1:]:
        if rec.key_digest != expected_digest:
            raise BenchError(
                f"fleet/{rec.mode}: per-device output diverged from the "
                f"sequential reference (digest {rec.key_digest} vs "
                f"{expected_digest})"
            )
    return records


@dataclass(frozen=True)
class DirtyFleetRecord:
    """One audited dirty-feed ingest: the robustness number on record."""

    devices: int
    fixes_per_device: int
    clean_fixes: int  #: fixes in the clean stream before injection
    dirty_fixes: int  #: fixes in the injected stream (clean + duplicates)
    batch_size: int
    epsilon: float
    seed: int
    swaps: int
    dups: int
    teleports: int
    gaps: int
    policy: dict  #: the SanitizePolicy the run sanitized under
    fixes_per_sec: float  #: dirty fixes through the sanitizing engine
    wall_seconds: float
    trajectories: int  #: sealed sub-trajectories (splits included)
    key_points: int
    max_deviation: float  #: worst per-sub-trajectory deviation (<= epsilon)
    feed: dict  #: the run's FeedReport
    key_digest: str  #: digest over the dirty run's exact output
    clean_digest: str  #: digest of the clean stream, sanitizer off

    def to_json(self) -> dict:
        return asdict(self)


def run_dirty_fleet_bench(
    devices: int,
    fixes_per_device: int,
    epsilon: float = 10.0,
    seed: int = 7,
    batch_size: int = 4096,
    swaps: int | None = None,
    dups: int | None = None,
    teleports: int | None = None,
    gaps: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> DirtyFleetRecord:
    """Benchmark — and audit — the sanitizing engine over a hostile feed.

    Injects seeded disorder into the same fleet stream the clean bench
    uses (artifact counts default to ~2% of the stream each, gaps to one
    per five devices) and ingests it through a :class:`StreamEngine`
    under a drop-mode :class:`SanitizePolicy`.  Before anything is
    recorded, four invariants are enforced (violation raises
    :class:`BenchError`, failing the bench like a digest mismatch):

    1. The feed ledger reconciles — fixes in = compressed + dropped, by
       reason — and matches the injection ground truth *exactly*.
    2. Every sealed sub-trajectory's ``max_deviation_from`` its own
       cleaned input is ≤ ε (the paper's bound survives sanitation).
    3. Sealed trajectories carry exactly the fixes the sanitizer let
       through (per-device counts match an independent sanitizer replay).
    4. On the *clean* stream the same policy is a no-op: its digest
       equals the sanitizer-off digest, which is the one the clean fleet
       bench records.
    """
    if devices < 5 or fixes_per_device < 40:
        raise BenchError(
            "dirty fleet needs >= 5 devices x 40 fixes to place artifacts"
        )
    ids, cols = fleet_fixes(devices, fixes_per_device, seed=seed)
    total = len(ids)
    if swaps is None:
        swaps = max(1, total // 50)
    if dups is None:
        dups = max(1, total // 50)
    if teleports is None:
        teleports = max(1, total // 50)
    if gaps is None:
        gaps = max(1, devices // 5)
    policy = SanitizePolicy(max_speed_mps=50.0, gap_seconds=60.0)
    dirty_ids, dirty_ts, dirty_xs, dirty_ys, summary = inject_disorder(
        ids,
        cols.ts,
        cols.xs,
        cols.ys,
        seed=seed,
        swaps=swaps,
        dups=dups,
        teleports=teleports,
        gaps=gaps,
    )
    factory = functools.partial(bqs_fleet_factory, epsilon)
    if progress is not None:
        progress(
            f"dirty-fleet ({devices} devices x {fixes_per_device} fixes, "
            f"{summary.artifacts} artifacts)"
        )

    t0 = time.perf_counter()
    engine = StreamEngine(factory, policy=policy)
    for batch in iter_geo_fix_batches(
        dirty_ids, dirty_ts, dirty_xs, dirty_ys, batch_size
    ):
        engine.push_columns(*batch)
    results = engine.finish_all()
    wall = time.perf_counter() - t0
    report = engine.feed_report()

    # Invariant 1: the ledger reconciles and matches ground truth.
    if not report.reconciles:
        raise BenchError(f"dirty-fleet: ledger does not reconcile: {report}")
    expected_dropped = {
        DROP_OUT_OF_ORDER: summary.swaps,
        DROP_DUPLICATE: summary.dups,
        DROP_TELEPORT: summary.teleports,
    }
    expected_dropped = {k: v for k, v in expected_dropped.items() if v}
    expected_splits = {SPLIT_GAP: summary.gaps} if summary.gaps else {}
    if (
        report.fixes_in != len(dirty_ids)
        or report.dropped != expected_dropped
        or dict(report.splits) != expected_splits
        or report.buffered != 0
        or report.reordered != 0
    ):
        raise BenchError(
            f"dirty-fleet: ledger diverged from injection ground truth: "
            f"{report.to_json()} vs drops {expected_dropped}, "
            f"splits {expected_splits}"
        )

    # Invariants 2 + 3: replay the sanitizer standalone to recover each
    # device's cleaned sub-streams, then hold every sealed trajectory to
    # the epsilon bound against exactly the fixes it represents.
    segments: Dict[object, List[List[PlanePoint]]] = {}
    per_device: Dict[object, TrajectoryColumns] = {}
    for i, device_id in enumerate(dirty_ids):
        dev_cols = per_device.get(device_id)
        if dev_cols is None:
            dev_cols = per_device[device_id] = TrajectoryColumns()
        dev_cols.append(dirty_ts[i], dirty_xs[i], dirty_ys[i])
    for device_id, dev_cols in per_device.items():
        sanitizer = FeedSanitizer(policy)
        chunks = sanitizer.process(dev_cols.ts, dev_cols.xs, dev_cols.ys)
        chunks += sanitizer.flush()
        device_segments: List[List[PlanePoint]] = []
        current: List[PlanePoint] = []
        for seal_before, ts, xs, ys in chunks:
            if seal_before and current:
                device_segments.append(current)
                current = []
            for k in range(len(ts)):
                current.append(PlanePoint(x=xs[k], y=ys[k], t=ts[k]))
        if current:
            device_segments.append(current)
        segments[device_id] = device_segments
    max_dev = 0.0
    for device_id, trajectories in results.items():
        expected_segments = segments.get(device_id, [])
        if len(trajectories) != len(expected_segments):
            raise BenchError(
                f"dirty-fleet: device {device_id!r} sealed "
                f"{len(trajectories)} trajectories, sanitizer replay "
                f"expects {len(expected_segments)}"
            )
        for trajectory, original in zip(trajectories, expected_segments):
            if trajectory.original_count != len(original):
                raise BenchError(
                    f"dirty-fleet: device {device_id!r} trajectory covers "
                    f"{trajectory.original_count} fixes, replay expects "
                    f"{len(original)}"
                )
            deviation = trajectory.max_deviation_from(original)
            if deviation > epsilon:
                raise BenchError(
                    f"dirty-fleet: device {device_id!r} deviates "
                    f"{deviation:.3f} m > epsilon {epsilon} after sanitation"
                )
            if deviation > max_dev:
                max_dev = deviation

    # Invariant 4: the same policy is a no-op on the clean stream — its
    # output digest equals the sanitizer-off digest the clean bench pins.
    clean_engine = StreamEngine(factory)
    sanitized_engine = StreamEngine(factory, policy=policy)
    for batch in iter_fix_batches(ids, cols, batch_size):
        clean_engine.push_columns(*batch)
        sanitized_engine.push_columns(*batch)
    clean_digest = fleet_digest(clean_engine.finish_all())
    transparent_digest = fleet_digest(sanitized_engine.finish_all())
    if transparent_digest != clean_digest:
        raise BenchError(
            "dirty-fleet: sanitizer is not transparent on clean input "
            f"(digest {transparent_digest} vs {clean_digest})"
        )

    trajectories_n, key_points = _summarise(results)
    return DirtyFleetRecord(
        devices=devices,
        fixes_per_device=fixes_per_device,
        clean_fixes=total,
        dirty_fixes=len(dirty_ids),
        batch_size=batch_size,
        epsilon=epsilon,
        seed=seed,
        swaps=summary.swaps,
        dups=summary.dups,
        teleports=summary.teleports,
        gaps=summary.gaps,
        policy=policy.to_json(),
        fixes_per_sec=len(dirty_ids) / wall if wall > 0.0 else 0.0,
        wall_seconds=wall,
        trajectories=trajectories_n,
        key_points=key_points,
        max_deviation=max_dev,
        feed=report.to_json(),
        key_digest=fleet_digest(results),
        clean_digest=clean_digest,
    )
