"""CLI entry point: ``python -m repro.bench``.

Modes::

    # run the suite and write BENCH_<date>.json (repo root by convention)
    PYTHONPATH=src python -m repro.bench --points 100000 --epsilon 10

    # small, fast run for CI (same workloads, 2000 points; smaller fleet)
    PYTHONPATH=src python -m repro.bench --smoke --out bench-smoke.json

    # profile one workload instead of timing it
    PYTHONPATH=src python -m repro.bench --profile --workloads random_walk

    # profile the engine or sharded-engine hot path instead
    PYTHONPATH=src python -m repro.bench --profile --profile-mode sharded

    # diff two recorded runs and flag regressions
    PYTHONPATH=src python -m repro.bench compare OLD.json NEW.json --strict
    PYTHONPATH=src python -m repro.bench compare OLD.json NEW.json --fail-on-behaviour

Each run covers the per-compressor suite (object + columnar passes) and,
unless ``--no-fleet``, the multi-stream fleet benchmark (per-device
ceiling, single-process engine, sharded engine per ``--fleet-workers``).
External reference numbers (e.g. the pre-optimization throughput this PR
is measured against) can be recorded straight into the output with
``--baseline name=value`` so one file carries both sides of a comparison.
"""

from __future__ import annotations

import argparse
import cProfile
import datetime
import json
import platform
import pstats
import sys
from typing import Sequence

from .. import fsio

from .compare import diff_benches, format_diff, load_bench_file
from .durability import run_durability_bench
from .fleet import run_dirty_fleet_bench, run_fleet_bench
from .geodetic import run_geodetic_bench
from .harness import default_factories, run_bench
from .storage import run_scale_bench, run_storage_bench
from .workloads import WORKLOADS, make_workload

__all__ = ["main"]

_SMOKE_POINTS = 2_000
_SMOKE_FLEET_DEVICES = 25
_SMOKE_FLEET_FIXES = 80
_SMOKE_STORAGE_DEVICES = 15
_SMOKE_STORAGE_FIXES = 60
#: Store sizes for the open-time scale stage; the smoke run keeps one
#: small size so CI still pins the match digest and the parity check.
_SCALE_SIZES = (10_000, 100_000, 1_000_000)
_SMOKE_SCALE_SIZES = (5_000,)
#: Engine batch size for the durability stage.  The smoke fleet is only
#: 2 000 fixes, so the stage needs smaller batches than the fleet default
#: to have a stream it can crash mid-way through.
_SMOKE_DURABILITY_BATCH = 256


def _parse_baseline(pairs: Sequence[str]) -> dict:
    baselines = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise SystemExit(f"--baseline expects name=value, got {pair!r}")
        try:
            baselines[name] = float(value)
        except ValueError:
            raise SystemExit(f"--baseline value must be numeric, got {pair!r}")
    return baselines


def _format_records(records) -> str:
    header = (
        f"{'workload':<16}{'algorithm':<18}{'pts/s':>10}{'col pts/s':>11}"
        f"{'p50us':>8}{'p99us':>8}{'maxus':>9}{'keys':>8}{'rate':>7}"
        f"{'max dev':>9}{'peak':>6}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r.workload:<16}{r.algorithm:<18}{r.points_per_sec:>10,.0f}"
            f"{r.columnar_points_per_sec:>11,.0f}"
            f"{r.push_us_p50:>8.1f}{r.push_us_p99:>8.1f}{r.push_us_max:>9.1f}"
            f"{r.key_points:>8}{r.compression_rate:>7.3f}"
            f"{r.max_deviation:>9.2f}{r.peak_retained_points:>6}"
        )
    return "\n".join(lines)


def _format_fleet(records) -> str:
    header = (
        f"{'fleet mode':<16}{'workers':>8}{'fixes/s':>12}{'wall s':>9}"
        f"{'trajs':>7}{'keys':>8}{'util':>6}{'ack p99':>10}  digest"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        shards = getattr(r, "shards", None) or []
        if shards:
            # Worst shard: the load-balance and latency view that matters.
            util = f"{max(s['utilization'] for s in shards):.2f}"
            p99 = max(s["ack_us_p99"] for s in shards)
            ack = f"{p99 / 1e3:.1f}ms" if p99 else "-"
        else:
            util, ack = "-", "-"
        lines.append(
            f"{r.mode:<16}{r.workers:>8}{r.fixes_per_sec:>12,.0f}"
            f"{r.wall_seconds:>9.3f}{r.trajectories:>7}{r.key_points:>8}"
            f"{util:>6}{ack:>10}  {r.key_digest}"
        )
    return "\n".join(lines)


def _format_dirty_fleet(r) -> str:
    feed = r.feed
    dropped = (
        ", ".join(f"{k}={v}" for k, v in sorted(feed["dropped"].items()))
        or "none"
    )
    splits = (
        ", ".join(f"{k}={v}" for k, v in sorted(feed["splits"].items()))
        or "none"
    )
    lines = [
        f"dirty fleet ({r.devices}x{r.fixes_per_device}, "
        f"{r.dirty_fixes} dirty fixes: +{r.dups} dup, {r.swaps} late, "
        f"{r.teleports} teleport, {r.gaps} gap)",
        "-" * 72,
        f"ingest: {r.fixes_per_sec:,.0f} fixes/s -> {r.trajectories} "
        f"trajectories, {r.key_points} keys, max deviation "
        f"{r.max_deviation:.2f} m (epsilon {r.epsilon})",
        f"feed: {feed['fixes_in']} in -> {feed['fixes_out']} compressed, "
        f"dropped ({dropped}), splits ({splits})",
        f"digests: dirty {r.key_digest}, clean {r.clean_digest}",
    ]
    return "\n".join(lines)


def _format_durability(r) -> str:
    lines = [
        f"durability ({r.devices}x{r.fixes_per_device}, "
        f"{r.batches} batches of {r.batch_size})",
        "-" * 72,
        f"ingest: plain {r.plain_fixes_per_sec:,.0f} fixes/s, "
        f"journal {r.journal_fixes_per_sec:,.0f} fixes/s "
        f"({r.overhead_pct:+.1f}% wall, journal peak {r.journal_bytes} B)",
        f"recovery: {r.recovery_batches} batches / {r.recovery_fixes} fixes "
        f"replayed in {r.recovery_seconds * 1e3:.1f} ms "
        f"({r.recovery_fixes_per_sec:,.0f} fixes/s)",
        f"digests: reference {r.store_digest[:16]}, "
        f"recovered {r.recovered_digest[:16]}",
    ]
    return "\n".join(lines)


def _format_storage(r) -> str:
    lines = [
        f"storage ({r.workload}, {r.points} points, "
        f"{r.fleet_devices}x{r.fleet_fixes} fleet)",
        "-" * 72,
        f"codec: {r.key_points} keys -> {r.encoded_bytes} B "
        f"({r.bytes_per_key_point:.2f} B/key, {r.bytes_per_raw_point:.4f} "
        f"B/raw pt, {r.end_to_end_ratio:.0f}x vs {r.raw_gps_bytes} B raw GPS) "
        f"digest {r.blob_digest}",
        f"ingest: {r.ingest_fixes_per_sec:,.0f} fixes/s -> "
        f"{r.store_bytes} B on disk",
        f"query: window {r.time_query_seconds * 1e3:.2f} ms "
        f"(brute {r.time_query_brute_seconds * 1e3:.2f} ms), "
        f"range {r.range_query_seconds * 1e3:.2f} ms "
        f"(brute {r.range_query_brute_seconds * 1e3:.2f} ms) "
        f"digest {r.query_digest}",
    ]
    return "\n".join(lines)


def _format_scale(records) -> str:
    header = (
        f"{'scale records':<14}{'segs':>6}{'MB':>8}{'open idx':>10}"
        f"{'open scan':>11}{'speedup':>9}{'q idx':>9}{'q scan':>9}  digest"
    )
    lines = [header, "-" * len(header)]
    for r in records:
        lines.append(
            f"{r.records:<14,}{r.segments:>6}{r.store_bytes / 1e6:>8.1f}"
            f"{r.open_indexed_seconds * 1e3:>8.1f}ms"
            f"{r.open_scan_seconds * 1e3:>9.1f}ms"
            f"{r.open_speedup:>8.0f}x"
            f"{r.query_indexed_seconds * 1e3:>7.1f}ms"
            f"{r.query_scan_seconds * 1e3:>7.1f}ms"
            f"  {r.match_digest}"
        )
    return "\n".join(lines)


def _format_geodetic(projection_records, fleet_records) -> str:
    lines = ["geodetic"]
    lines.append("-" * 72)
    for p in projection_records:
        lines.append(
            f"projection {p.projection:<14} {p.points} pts -> "
            f"{p.points_per_sec:,.0f} pts/s"
        )
    for r in fleet_records:
        lines.append(
            f"{r.variant}: {r.devices}x{r.fixes_per_device} fixes, "
            f"zones {','.join(r.zones)}, "
            f"ingest {r.ingest_fixes_per_sec:,.0f} fixes/s, "
            f"geo query exact {r.exact_query_seconds * 1e3:.2f} ms / "
            f"approx {r.approx_query_seconds * 1e3:.2f} ms "
            f"(brute {r.brute_query_seconds * 1e3:.2f} ms), "
            f"{r.definite_devices}/{r.truth_devices}/{r.exact_devices}/"
            f"{r.approx_devices} dev (def/truth/exact/approx) "
            f"digest {r.query_digest}"
        )
    return "\n".join(lines)


def _run_profile(workload_name, points, epsilon, uniform_period, algorithms, top):
    """Satellite mode: run one workload under cProfile, print top-N cumulative."""
    profiler = cProfile.Profile()
    profiler.enable()
    run_bench(
        {workload_name: points},
        epsilon=epsilon,
        uniform_period=uniform_period,
        algorithms=algorithms,
    )
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top)


def _run_profile_engine(
    mode: str,
    devices: int,
    fixes_per_device: int,
    epsilon: float,
    seed: int,
    batch_size: int,
    workers: int,
    top: int,
) -> None:
    """Profile the fleet ingest path through the single-process engine
    (``mode="engine"``) or the sharded engine (``mode="sharded"``, using
    the first ``--fleet-workers`` count).  Worker spawn and data generation stay outside the
    profiler, matching what the fleet bench times."""
    import functools

    from ..engine.core import StreamEngine
    from ..engine.sharded import ShardedStreamEngine
    from ..engine.simulate import bqs_fleet_factory, fleet_fixes, iter_fix_batches

    ids, cols = fleet_fixes(devices, fixes_per_device, seed=seed)
    batches = list(iter_fix_batches(ids, cols, batch_size))
    factory = functools.partial(bqs_fleet_factory, epsilon)
    if mode == "sharded":
        engine = ShardedStreamEngine(factory, workers=workers)
        label = f"sharded-{workers}"
    else:
        engine = StreamEngine(factory)
        label = "engine"
    print(
        f"bench: profiling {label} over {devices}x{fixes_per_device} fixes",
        file=sys.stderr,
    )
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        for batch in batches:
            engine.push_columns(*batch)
        engine.finish_all()
    finally:
        profiler.disable()
        if mode == "sharded":
            engine.close()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(top)


def main_run(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Benchmark the trajectory compressors on synthetic workloads.",
    )
    parser.add_argument("--points", type=int, default=100_000)
    parser.add_argument("--epsilon", type=float, default=10.0, help="metres")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--uniform-period", type=int, default=10)
    parser.add_argument(
        "--workloads",
        default=",".join(WORKLOADS),
        help=f"comma-separated subset of: {', '.join(WORKLOADS)}",
    )
    parser.add_argument(
        "--algorithms",
        default=None,
        help="comma-separated subset of: "
        + ", ".join(default_factories(1.0)),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI-sized run ({_SMOKE_POINTS} points per workload)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_<date>.json in the cwd)",
    )
    parser.add_argument(
        "--baseline",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="record an external reference number in the output (repeatable)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the first selected workload under cProfile and print the "
        "top cumulative functions instead of benchmarking (no JSON output)",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=25,
        metavar="N",
        help="how many functions --profile prints (default 25)",
    )
    parser.add_argument(
        "--profile-mode",
        choices=("compressor", "engine", "sharded"),
        default="compressor",
        help="what --profile profiles: the per-compressor suite (default), "
        "the single-process engine's fleet ingest, or the sharded engine "
        "(first --fleet-workers count)",
    )
    parser.add_argument(
        "--no-fleet",
        action="store_true",
        help="skip the multi-stream fleet benchmark",
    )
    parser.add_argument(
        "--no-dirty-fleet",
        action="store_true",
        help="skip the dirty-fleet benchmark (sanitizer over injected "
        "disorder, audited against ground truth)",
    )
    parser.add_argument(
        "--no-durability",
        action="store_true",
        help="skip the durability benchmark (write-ahead journal overhead "
        "and crash-recovery wall, digest-audited)",
    )
    parser.add_argument(
        "--no-storage",
        action="store_true",
        help="skip the storage benchmark (codec density + query latency)",
    )
    parser.add_argument(
        "--no-geodetic",
        action="store_true",
        help="skip the geodetic benchmark (projection throughput + GPS "
        "fleet ingestion + lat/lon query latency)",
    )
    parser.add_argument(
        "--no-scale",
        action="store_true",
        help="skip the store-scale benchmark (sidecar vs scan open time)",
    )
    parser.add_argument(
        "--scale-sizes",
        default=",".join(str(s) for s in _SCALE_SIZES),
        help="comma-separated store sizes for the scale stage (smoke: "
        f"{','.join(str(s) for s in _SMOKE_SCALE_SIZES)})",
    )
    parser.add_argument(
        "--scale-devices",
        type=int,
        default=500,
        help="devices in the synthetic scale-stage stores",
    )
    parser.add_argument(
        "--fleet-devices",
        type=int,
        default=200,
        help="devices in the fleet workload (smoke: "
        f"{_SMOKE_FLEET_DEVICES})",
    )
    parser.add_argument(
        "--fleet-fixes",
        type=int,
        default=500,
        help="fixes per device in the fleet workload (smoke: "
        f"{_SMOKE_FLEET_FIXES})",
    )
    parser.add_argument(
        "--fleet-batch",
        type=int,
        default=4096,
        help="interleaved fixes per engine batch",
    )
    parser.add_argument(
        "--fleet-workers",
        default="2,4",
        help="comma-separated worker counts for the sharded engine",
    )
    args = parser.parse_args(argv)

    # Validate before the (potentially minutes-long) run so a malformed
    # flag fails in milliseconds instead of discarding every measurement.
    baselines = _parse_baseline(args.baseline)
    points_per_workload = _SMOKE_POINTS if args.smoke else args.points
    if points_per_workload < 2:
        raise SystemExit(f"--points must be >= 2, got {points_per_workload}")
    workload_names = [w for w in args.workloads.split(",") if w]
    algorithms = (
        [a for a in args.algorithms.split(",") if a] if args.algorithms else None
    )

    try:
        fleet_workers = [
            int(w) for w in args.fleet_workers.split(",") if w.strip()
        ]
    except ValueError:
        raise SystemExit(
            f"--fleet-workers expects comma-separated ints, got "
            f"{args.fleet_workers!r}"
        )
    if any(w < 1 for w in fleet_workers):
        raise SystemExit("--fleet-workers values must be >= 1")

    if args.smoke:
        scale_sizes = list(_SMOKE_SCALE_SIZES)
    else:
        try:
            scale_sizes = [
                int(s) for s in args.scale_sizes.split(",") if s.strip()
            ]
        except ValueError:
            raise SystemExit(
                f"--scale-sizes expects comma-separated ints, got "
                f"{args.scale_sizes!r}"
            )
    if any(s < 1 for s in scale_sizes):
        raise SystemExit("--scale-sizes values must be >= 1")

    workload_points = {}
    for name in workload_names:
        workload_points[name] = make_workload(name, points_per_workload, args.seed)

    if args.profile:
        if args.profile_mode != "compressor":
            _run_profile_engine(
                args.profile_mode,
                _SMOKE_FLEET_DEVICES if args.smoke else args.fleet_devices,
                _SMOKE_FLEET_FIXES if args.smoke else args.fleet_fixes,
                args.epsilon,
                args.seed,
                args.fleet_batch,
                fleet_workers[0],
                args.profile_top,
            )
            return 0
        first = workload_names[0]
        if len(workload_names) > 1:
            print(
                f"bench: --profile uses one workload; profiling {first!r}",
                file=sys.stderr,
            )
        _run_profile(
            first,
            workload_points[first],
            args.epsilon,
            args.uniform_period,
            algorithms,
            args.profile_top,
        )
        return 0

    records = run_bench(
        workload_points,
        epsilon=args.epsilon,
        uniform_period=args.uniform_period,
        algorithms=algorithms,
        progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
    )

    fleet_records = []
    if not args.no_fleet:
        fleet_devices = (
            _SMOKE_FLEET_DEVICES if args.smoke else args.fleet_devices
        )
        fleet_fixes = _SMOKE_FLEET_FIXES if args.smoke else args.fleet_fixes
        fleet_records = run_fleet_bench(
            fleet_devices,
            fleet_fixes,
            epsilon=args.epsilon,
            seed=args.seed,
            batch_size=args.fleet_batch,
            worker_counts=fleet_workers,
            progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
        )

    dirty_fleet_record = None
    if not (args.no_fleet or args.no_dirty_fleet):
        dirty_fleet_record = run_dirty_fleet_bench(
            _SMOKE_FLEET_DEVICES if args.smoke else args.fleet_devices,
            _SMOKE_FLEET_FIXES if args.smoke else args.fleet_fixes,
            epsilon=args.epsilon,
            seed=args.seed,
            batch_size=args.fleet_batch,
            progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
        )

    durability_record = None
    if not (args.no_fleet or args.no_durability):
        durability_record = run_durability_bench(
            _SMOKE_FLEET_DEVICES if args.smoke else args.fleet_devices,
            _SMOKE_FLEET_FIXES if args.smoke else args.fleet_fixes,
            epsilon=args.epsilon,
            seed=args.seed,
            batch_size=(
                _SMOKE_DURABILITY_BATCH if args.smoke else args.fleet_batch
            ),
            progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
        )

    storage_record = None
    if not args.no_storage:
        storage_record = run_storage_bench(
            points=points_per_workload,
            epsilon=args.epsilon,
            seed=args.seed,
            fleet_devices=(
                _SMOKE_STORAGE_DEVICES if args.smoke else args.fleet_devices
            ),
            fleet_fixes_per_device=(
                _SMOKE_STORAGE_FIXES if args.smoke else args.fleet_fixes
            ),
            progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
        )

    scale_records = []
    if not args.no_scale:
        scale_records = run_scale_bench(
            sizes=tuple(scale_sizes),
            devices=args.scale_devices,
            progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
        )

    geo_projection = []
    geo_fleets = []
    if not args.no_geodetic:
        geo_projection, geo_fleets = run_geodetic_bench(
            points=points_per_workload,
            epsilon=args.epsilon,
            seed=args.seed,
            fleet_devices=(
                _SMOKE_STORAGE_DEVICES if args.smoke else args.fleet_devices
            ),
            fleet_fixes_per_device=(
                _SMOKE_STORAGE_FIXES if args.smoke else args.fleet_fixes
            ),
            progress=lambda msg: print(f"bench: {msg}", file=sys.stderr),
        )

    out_path = args.out or f"BENCH_{datetime.date.today().isoformat()}.json"
    document = {
        # Schema 8: sharded fleet records carry per-shard stats.
        "schema": 8,
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "epsilon": args.epsilon,
        "seed": args.seed,
        "smoke": bool(args.smoke),
        "workloads": {
            name: {"points": len(pts), "seed": args.seed}
            for name, pts in workload_points.items()
        },
        "baselines": baselines,
        "results": [r.to_json() for r in records],
        "fleet": [r.to_json() for r in fleet_records],
        "dirty_fleet": (
            dirty_fleet_record.to_json()
            if dirty_fleet_record is not None
            else None
        ),
        "durability": (
            durability_record.to_json()
            if durability_record is not None
            else None
        ),
        "storage": (
            storage_record.to_json() if storage_record is not None else None
        ),
        "scale": [r.to_json() for r in scale_records],
        "geodetic": (
            {
                "projection": [p.to_json() for p in geo_projection],
                "fleets": [r.to_json() for r in geo_fleets],
            }
            if not args.no_geodetic
            else None
        ),
    }
    with fsio.open_file(out_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(_format_records(records))
    if fleet_records:
        print()
        print(_format_fleet(fleet_records))
    if dirty_fleet_record is not None:
        print()
        print(_format_dirty_fleet(dirty_fleet_record))
    if durability_record is not None:
        print()
        print(_format_durability(durability_record))
    if storage_record is not None:
        print()
        print(_format_storage(storage_record))
    if scale_records:
        print()
        print(_format_scale(scale_records))
    if geo_fleets:
        print()
        print(_format_geodetic(geo_projection, geo_fleets))
    print(f"\nwrote {out_path}")
    return 0


def main_compare(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench compare",
        description="Diff two bench result files and flag regressions.",
    )
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="flag pairs whose new throughput is below THRESHOLD x old",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when anything is flagged (off by default: timing noise)",
    )
    parser.add_argument(
        "--fail-on-behaviour",
        action="store_true",
        help="exit 1 only for behaviour changes (key points moved/changed); "
        "throughput deltas still print but only warn — the CI mode",
    )
    args = parser.parse_args(argv)

    rows, flagged = diff_benches(
        load_bench_file(args.old), load_bench_file(args.new), args.threshold
    )
    print(format_diff(rows))
    if flagged:
        behaviour = [r for r in flagged if r["behaviour"]]
        print(
            f"\n{len(flagged)} pair(s) flagged"
            + (f", {len(behaviour)} behaviour change(s)" if behaviour else "")
        )
        if args.strict:
            return 1
        if args.fail_on_behaviour and behaviour:
            return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        return main_compare(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return main_run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
