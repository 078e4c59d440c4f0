"""Seeded workload inputs, written to disk by a separate process.

Inputs are generated in a child process (:func:`generate`, run as
``python -m perfbench.inputs``) and loaded by the measuring process, so
the generator's allocations never show in the measured peak RSS.  For ``geo_query`` the child also builds the fixture
store, with the code under test, and picks the queries.

Work is a fixed amount per ``--seconds`` (see :data:`TICKS_PER_SECOND`),
calibrated so that one run's :data:`ROUNDS` rounds together take about
that long on a 2-core host at the commit that defined the benchmark.
Each round runs the same inputs.  Fixed work keeps the output digests
comparable across commits.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import sys
from array import array
from pathlib import Path

from repro.engine import (
    GeoStreamEngine,
    bqs_fleet_factory,
    fleet_fixes,
    gps_fleet_fixes,
    inject_disorder,
)
from repro.storage import StoreSink, TrajectoryStore

EPSILON = 10.0
DEVICES = 400
#: Timed rounds per run, each over the same inputs.  Queries and live
#: batches are timed one by one next to a reference loop, so few rounds
#: of more distinct work steady them best; the sharded ingest is
#: referenced on the parent's core, not on the worker's that carries its
#: wall, so it takes more, shorter rounds.
ROUNDS = {"live_gps": 2, "bulk_sharded": 12, "geo_query": 1}
#: Fleet ticks (one fix per device each) per measured second.
TICKS_PER_SECOND = {"live_gps": 70, "bulk_sharded": 240}
#: ``bulk_sharded`` pushes this many ticks per ``push_columns`` call.
BULK_BATCH_TICKS = 60
#: ``geo_query`` fixture: checkpoints every CHECKPOINT_TICKS ticks.
FIXTURE_TICKS = 450
CHECKPOINT_TICKS = 36
QUERIES_PER_SECOND = 100
#: Query rectangle half-widths in metres.
HALF_WIDTHS_M = (200.0, 500.0, 1000.0)
WINDOW_S = 3600.0
METRES_PER_DEG_LAT = 111_320.0


def factory():
    """The compressor factory every workload uses: BQS at ε = 10 m."""
    return functools.partial(bqs_fleet_factory, EPSILON)


def _write_columns(work: Path, ids, ts, c1, c2) -> str:
    """Write a fix stream; returns its digest."""
    names = list(dict.fromkeys(ids))
    index = {name: i for i, name in enumerate(names)}
    idx = array("I", (index[d] for d in ids))
    (work / "names.json").write_text(json.dumps(names))
    h = hashlib.sha256(json.dumps(names).encode())
    for name, column in (("idx", idx), ("ts", ts), ("c1", c1), ("c2", c2)):
        column = column if isinstance(column, array) else array("d", column)
        with open(work / f"{name}.bin", "wb") as handle:
            column.tofile(handle)
        h.update(column.tobytes())
    return h.hexdigest()


def load_columns(work: Path):
    """``(ids, ts, c1, c2)`` as written by :func:`_write_columns`."""
    names = json.loads((work / "names.json").read_text())
    columns = {}
    for name, code in (("idx", "I"), ("ts", "d"), ("c1", "d"), ("c2", "d")):
        column = array(code)
        path = work / f"{name}.bin"
        with open(path, "rb") as handle:
            column.fromfile(handle, path.stat().st_size // column.itemsize)
        columns[name] = column
    ids = [names[i] for i in columns["idx"]]
    return ids, columns["ts"], columns["c1"], columns["c2"]


def _live_gps(work: Path, seed: int, seconds: int) -> dict:
    ticks = max(10, TICKS_PER_SECOND["live_gps"] * seconds // ROUNDS["live_gps"])
    ids, ts, lats, lons = gps_fleet_fixes(
        DEVICES, ticks, seed=seed, multi_zone=True, noise_m=3.0
    )
    n = len(ids)
    # About 2% each of late, duplicate and teleport fixes (the teleport
    # offset is in degrees of latitude, so it never crosses a UTM zone),
    # and a gap silence planted on a third of the devices' draws, which
    # lands on well over a fifth of the devices.
    ids, ts, lats, lons, summary = inject_disorder(
        ids, ts, lats, lons, seed=seed,
        swaps=n // 50, dups=n // 50, teleports=n // 50,
        gaps=DEVICES // 3, teleport_offset=0.5,
    )
    digest = _write_columns(work, ids, ts, lats, lons)
    summary = {
        "swaps": summary.swaps, "dups": summary.dups,
        "teleports": summary.teleports, "gaps": summary.gaps,
    }
    digest = hashlib.sha256(
        (digest + json.dumps(summary, sort_keys=True)).encode()
    ).hexdigest()
    return {"input_digest": digest, "summary": summary, "batch": DEVICES}


def _bulk_sharded(work: Path, seed: int, seconds: int) -> dict:
    ticks = max(BULK_BATCH_TICKS,
                TICKS_PER_SECOND["bulk_sharded"] * seconds
                // ROUNDS["bulk_sharded"])
    ids, cols = fleet_fixes(DEVICES, ticks, seed=seed)
    digest = _write_columns(work, ids, cols.ts, cols.xs, cols.ys)
    return {"input_digest": digest, "batch": DEVICES * BULK_BATCH_TICKS}


def _queries(seed: int, count: int, ts, lats, lons) -> list:
    """Seeded query mix: ~200 m / 500 m / 1 km half-width rectangles
    centred on a random raw fix (so near the anchors), ¾ exact and ¼
    approximate, half with a 1-hour window overlapping the fixture span."""
    rng = random.Random(seed * 7_919 + 17)
    t_lo, t_hi = ts[0], ts[len(ts) - 1]
    out = []
    for _ in range(count):
        k = rng.randrange(len(ts))
        half = rng.choice(HALF_WIDTHS_M)
        dlat = half / METRES_PER_DEG_LAT
        dlon = half / (METRES_PER_DEG_LAT * math.cos(math.radians(lats[k])))
        query = {
            "rect": [lats[k] - dlat, lons[k] - dlon, lats[k] + dlat, lons[k] + dlon],
            "mode": "approximate" if rng.random() < 0.25 else "exact",
            "window": None,
        }
        if rng.random() < 0.5:
            t0 = rng.uniform(t_lo - WINDOW_S + 300.0, t_hi - 300.0)
            query["window"] = [t0, t0 + WINDOW_S]
        out.append(query)
    return out


def _geo_query(work: Path, seed: int, seconds: int) -> dict:
    ids, ts, lats, lons = gps_fleet_fixes(
        DEVICES, FIXTURE_TICKS, seed=seed, multi_zone=True, noise_m=3.0
    )
    digest = _write_columns(work, ids, ts, lats, lons)
    count = max(10, QUERIES_PER_SECOND * seconds // ROUNDS["geo_query"])
    queries = _queries(seed, count, ts, lats, lons)
    (work / "queries.json").write_text(json.dumps(queries))
    digest = hashlib.sha256(
        (digest + json.dumps(queries)).encode()
    ).hexdigest()
    # The fixture store, built by the code under test: the GPS fleet
    # through GeoStreamEngine + StoreSink, checkpointed so each device
    # leaves one record per CHECKPOINT_TICKS ticks.
    sink = StoreSink(work / "store")
    engine = GeoStreamEngine(factory(), collect=False, sink=sink)
    step = DEVICES * CHECKPOINT_TICKS
    for start in range(0, len(ids), step):
        stop = start + step
        engine.push_columns(ids[start:stop], ts[start:stop],
                            lats[start:stop], lons[start:stop])
        engine.finish_all()
    sink.close()
    with TrajectoryStore(work / "store") as store:
        key_points = store.key_point_count
        store_digest = decoded_digest(store)
    return {
        "input_digest": digest,
        "fixes": len(ids),
        "key_points": key_points,
        "store_digest": store_digest,
        "store_bytes": tree_bytes(work / "store"),
    }


GENERATORS = {
    "live_gps": _live_gps,
    "bulk_sharded": _bulk_sharded,
    "geo_query": _geo_query,
}


def generate(workload: str, seed: int, seconds: int, work: str) -> None:
    """Child-process entry: write the workload's inputs under ``work``."""
    path = Path(work)
    path.mkdir(parents=True, exist_ok=True)
    meta = GENERATORS[workload](path, seed, seconds)
    (path / "meta.json").write_text(json.dumps(meta))


def decoded_digest(store: TrajectoryStore) -> str:
    """SHA-256 over every live record's device, envelope and decoded key
    points, in append order.  Stands in for ``content_digest()`` on the
    fixture, whose per-device manifest scans cost seconds at 5k records."""
    h = hashlib.sha256()
    for ref, decoded in store.iter_decoded():
        cols = decoded.columns
        h.update(repr((ref.device_id, ref.t_min, ref.t_max, ref.x_min, ref.x_max,
                       ref.y_min, ref.y_max, ref.utm_zone, ref.utm_south,
                       decoded.original_count)).encode())
        for column in (cols.ts, cols.xs, cols.ys):
            h.update(array("d", column).tobytes())
    return h.hexdigest()


def tree_bytes(directory: str | os.PathLike) -> int:
    """Bytes in every file under ``directory`` (segment logs, sidecars,
    manifests)."""
    total = 0
    for root, _, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


if __name__ == "__main__":
    # python -m perfbench.inputs WORKLOAD SEED SECONDS DIR (run.py's child)
    name, seed_arg, seconds_arg, directory = sys.argv[1:]
    generate(name, int(seed_arg), int(seconds_arg), directory)
