"""Per-run correctness audits, run outside the timer.

Each audit returns a list of failure messages (empty when it holds); the
runner counts every audit as one attempted operation and every non-empty
result as one failed operation.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Dict, List, Sequence

from repro.engine import shard_of
from repro.model import CompressedTrajectory, PlanePoint
from repro.storage import TrajectoryStore

#: Slack on the definite ⊆ truth test: ``definite`` is proven from key
#: points stored at the codec's 1 cm quantum, about 1e-7 degrees.
DEFINITE_SLACK_DEG = 1e-6


def feed_ledger(report, summary: Dict[str, int], offered: int) -> List[str]:
    """live_gps: the ledger reconciles and matches the injected disorder
    reason by reason (drop-mode policy: a late fix is an out-of-order
    drop, a gap is one split)."""
    expected = {
        "fixes_in": offered,
        "out_of_order": summary["swaps"],
        "duplicate": summary["dups"],
        "teleport": summary["teleports"],
        "gap": summary["gaps"],
    }
    seen = {
        "fixes_in": report.fixes_in,
        "out_of_order": report.dropped.get("out_of_order", 0),
        "duplicate": report.dropped.get("duplicate", 0),
        "teleport": report.dropped.get("teleport", 0),
        "gap": report.splits.get("gap", 0),
    }
    failures = [
        f"feed ledger {key}: {seen[key]} != injected {value}"
        for key, value in expected.items()
        if seen[key] != value
    ]
    if not report.reconciles:
        failures.append(f"feed ledger does not reconcile: {report}")
    extra = set(report.dropped) - {"out_of_order", "duplicate", "teleport"}
    if extra:
        failures.append(f"feed ledger has unexpected drop reasons {sorted(extra)}")
    return failures


def epsilon_bound(
    store_base: Path,
    workers: int,
    ids: Sequence[str],
    ts, xs, ys,
    epsilon: float,
    seed: int,
    sample: int = 40,
) -> List[str]:
    """bulk_sharded: every raw fix of a seeded device sample lies within
    ε (+ the codec's xy quantum) of the compressed trajectory read back
    from its shard's store."""
    names = sorted(set(ids))
    chosen = set(random.Random(seed * 31 + 5).sample(names, min(sample, len(names))))
    raw: Dict[str, List[PlanePoint]] = {name: [] for name in chosen}
    for k, device in enumerate(ids):
        if device in chosen:
            raw[device].append(PlanePoint(xs[k], ys[k], ts[k]))
    failures: List[str] = []
    stores: Dict[int, TrajectoryStore] = {}
    try:
        for device in sorted(chosen):
            shard = shard_of(device, workers)
            store = stores.get(shard)
            if store is None:
                store = stores[shard] = TrajectoryStore(
                    store_base / f"shard-{shard:04d}"
                )
            refs = store.device_manifest(device)
            if len(refs) != 1:
                failures.append(f"{device}: {len(refs)} records, expected 1")
                continue
            decoded = store.read(refs[0])
            cols = decoded.columns
            trajectory = CompressedTrajectory(
                key_points=tuple(
                    PlanePoint(x, y, t) for t, x, y in zip(cols.ts, cols.xs, cols.ys)
                ),
                original_count=decoded.original_count,
                metric=decoded.metric,
            )
            if decoded.original_count != len(raw[device]):
                failures.append(
                    f"{device}: record covers {decoded.original_count} fixes, "
                    f"{len(raw[device])} were pushed"
                )
            deviation = trajectory.max_deviation_from(raw[device])
            if deviation > epsilon + decoded.xy_quantum:
                failures.append(
                    f"{device}: deviation {deviation:.3f} m > "
                    f"ε {epsilon} + quantum {decoded.xy_quantum}"
                )
    finally:
        for store in stores.values():
            store.close()
    return failures


def _record_key(match) -> tuple:
    return (match.ref.segment, match.ref.offset)


def query_containment(
    store: TrajectoryStore,
    query_fn,
    queries: Sequence[dict],
    ids: Sequence[str],
    ts, lats, lons,
    seed: int,
    sample: int = 24,
) -> List[str]:
    """geo_query: ``definite ⊆ truth ⊆ exact ⊆ approximate`` for a seeded
    sample of the run's queries, against a brute-force scan of the raw
    lat/lon fixes each record covers."""
    by_device: Dict[str, List[int]] = {}
    for k, device in enumerate(ids):
        by_device.setdefault(device, []).append(k)
    device_ts = {d: [ts[k] for k in rows] for d, rows in by_device.items()}
    # Raw fixes per record: the device's fixes inside the record's span,
    # with their lat/lon box so a query only scans records near it.
    covered = []
    for ref in store.records():
        rows = by_device.get(ref.device_id, [])
        times = device_ts.get(ref.device_id, [])
        rows = rows[bisect_left(times, ref.t_min - 1e-3):
                    bisect_right(times, ref.t_max + 1e-3)]
        if rows:
            box = (min(lats[k] for k in rows), min(lons[k] for k in rows),
                   max(lats[k] for k in rows), max(lons[k] for k in rows))
            covered.append(((ref.segment, ref.offset), rows, box))
    rng = random.Random(seed * 131 + 3)
    picks = rng.sample(range(len(queries)), min(sample, len(queries)))
    failures: List[str] = []
    for q in picks:
        query = queries[q]
        lat0, lon0, lat1, lon1 = query["rect"]
        window = query["window"]
        kwargs = {} if window is None else {"t0": window[0], "t1": window[1]}

        def inside(k: int, slack: float) -> bool:
            if window is not None and not window[0] <= ts[k] <= window[1]:
                return False
            return (lat0 - slack <= lats[k] <= lat1 + slack
                    and lon0 - slack <= lons[k] <= lon1 + slack)

        truth = set()
        near = set()
        s = DEFINITE_SLACK_DEG
        for key, rows, (b0, b1, b2, b3) in covered:
            if b0 > lat1 + s or b2 < lat0 - s or b1 > lon1 + s or b3 < lon0 - s:
                continue
            if any(inside(k, 0.0) for k in rows):
                truth.add(key)
            if any(inside(k, s) for k in rows):
                near.add(key)
        exact = query_fn(store, tuple(query["rect"]), mode="exact", **kwargs)
        approx = query_fn(store, tuple(query["rect"]), mode="approximate", **kwargs)
        exact_keys = {_record_key(m) for m in exact}
        approx_keys = {_record_key(m) for m in approx}
        definite = {_record_key(m) for m in exact if m.definite}
        for name, small, big in (
            ("definite ⊆ truth", definite, near),
            ("truth ⊆ exact", truth, exact_keys),
            ("exact ⊆ approximate", exact_keys, approx_keys),
        ):
            missing = small - big
            if missing:
                failures.append(
                    f"query {q}: {name} fails for {len(missing)} record(s)"
                )
    return failures


#: Share of the traced wall the runner may leave untimed (entering the
#: region and the span, reading the clock).
TRACE_GAP_SHARE = 0.05


def trace_wall(tracer, clocked_s: float) -> List[str]:
    """Traced runs: every span lies inside the traced region, and the
    region's wall agrees with the runner's own timing of what it ran there.

    The self times plus ``trace.unattributed_s`` add back to the wall by
    construction, so this checks what that sum cannot: a span recorded
    outside the region drives the unattributed time below zero, and a
    region that holds untimed work or lost its timing departs from
    ``clocked_s``.
    """
    wall = tracer.wall_ns / 1e9
    unattributed = tracer.unattributed_seconds()
    failures = []
    if unattributed < 0:
        failures.append(
            f"spans take {wall - unattributed:.6f} s of a {wall:.6f} s traced "
            "wall: some span lies outside the traced region"
        )
    if clocked_s > wall + 1e-6:
        failures.append(
            f"the runner timed {clocked_s:.6f} s inside a {wall:.6f} s traced wall"
        )
    elif wall - clocked_s > TRACE_GAP_SHARE * wall + 1e-3:
        failures.append(
            f"traced wall {wall:.6f} s exceeds the runner's own "
            f"{clocked_s:.6f} s by more than {TRACE_GAP_SHARE:.0%}"
        )
    return failures


def finite_positive(metrics: Dict[str, float]) -> List[str]:
    """Every end-to-end metric is a finite, positive number."""
    return [
        f"metric {name} = {value!r}"
        for name, value in metrics.items()
        if not (math.isfinite(value) and value > 0)
    ]
