"""Timing harness: throughput, per-push latency, and correctness audits.

Each (workload, algorithm) pair is measured in three passes over the same
point stream.  All three drive the compressor's one decision kernel, each
through a different entry point:

1. **Throughput pass** — one :meth:`push_many` batch plus ``finish()``,
   timed wall-clock.  ``points_per_sec = n / wall`` is the headline number.
2. **Columnar pass** — the same stream pre-shredded into
   :class:`~repro.model.columns.TrajectoryColumns` and fed through one
   :meth:`push_xyt` call plus ``finish()``.  ``columnar_points_per_sec``
   skips the ``push_many`` adapter's shredding, so ``columnar_speedup``
   is that adapter's cost; the harness raises :class:`BenchError` if the
   key points differ from the ``push_many`` pass's.
3. **Latency pass** — a fresh compressor driven point-by-point with a
   ``perf_counter`` bracket around every ``push`` call, yielding the
   per-push latency percentiles (p50/p90/p99/max) and the peak number of
   points the compressor retained.  The harness raises :class:`BenchError`
   if it disagrees with the batched pass on the key points.

The harness also audits the error bound on every run — an error-bounded
compressor whose output deviates beyond ``epsilon`` is a correctness bug,
not timing noise, so it raises :class:`BenchError` (which fails the CI
smoke job).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Sequence

from ..compression.base import StreamingCompressor
from ..compression.baselines import (
    DeadReckoningCompressor,
    DouglasPeucker,
    TDTRCompressor,
    UniformSampler,
)
from ..compression.bqs import BQSCompressor
from ..compression.fast_bqs import FastBQSCompressor
from ..model.columns import TrajectoryColumns
from ..model.point import PlanePoint

__all__ = [
    "BenchError",
    "BenchRecord",
    "default_factories",
    "percentile",
    "bench_compressor",
    "run_bench",
]


class BenchError(RuntimeError):
    """A benchmarked run violated a correctness invariant (not timing)."""


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence (0 if empty)."""
    n = len(sorted_values)
    if n == 0:
        return 0.0
    rank = math.ceil(q / 100.0 * n)
    return sorted_values[min(n - 1, max(0, rank - 1))]


@dataclass(frozen=True)
class BenchRecord:
    """One algorithm's measurements over one workload."""

    workload: str
    algorithm: str
    points: int
    epsilon: float
    points_per_sec: float  #: n / (push_many + finish) wall
    wall_seconds: float  #: the wall time behind ``points_per_sec``
    columnar_points_per_sec: float  #: columnar path: n / (push_xyt + finish)
    columnar_wall_seconds: float  #: the wall time behind the columnar figure
    columnar_speedup: float  #: columnar_points_per_sec / points_per_sec
    push_us_p50: float  #: push() latency percentiles (µs)
    push_us_p90: float
    push_us_p99: float
    push_us_max: float
    key_points: int
    key_digest: str  #: order-sensitive digest of the exact key points
    compression_rate: float
    max_deviation: float
    error_bounded: bool
    within_bound: bool | None  #: None when the algorithm has no bound
    peak_retained_points: int
    finish_seconds: float
    decisions: Dict[str, int]

    def to_json(self) -> dict:
        return asdict(self)


def key_point_digest(key_points) -> str:
    """Short stable digest of a key-point sequence (exact coordinates).

    Lets ``compare`` detect behaviour changes that keep the key-point
    *count* but move the points — ``repr`` round-trips floats exactly, so
    equal digests mean bit-identical outputs.
    """
    payload = "|".join(f"{p.x!r},{p.y!r},{p.t!r}" for p in key_points)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def default_factories(
    epsilon: float, uniform_period: int = 10
) -> Dict[str, Callable[[], StreamingCompressor]]:
    """Fresh-instance factories for the paper's comparison set.

    Factories (not instances) because the harness needs a pristine
    compressor per measurement pass.
    """
    return {
        "bqs": lambda: BQSCompressor(epsilon),
        "fast-bqs": lambda: FastBQSCompressor(epsilon),
        "dead-reckoning": lambda: DeadReckoningCompressor(epsilon),
        "uniform": lambda: UniformSampler(uniform_period),
        "douglas-peucker": lambda: DouglasPeucker(epsilon),
        "td-tr": lambda: TDTRCompressor(epsilon),
    }


def bench_compressor(
    make: Callable[[], StreamingCompressor],
    points: Sequence[PlanePoint],
    workload_name: str,
    repeats: int = 3,
) -> BenchRecord:
    """Measure one compressor over one stream (three passes, audited).

    Both throughput passes run ``repeats`` times on fresh compressors and
    record the fastest wall (best-of-N, the standard defence against
    scheduler/GC spikes — a single slow pass would otherwise flip the
    push_many-vs-push_xyt comparison on a noisy host).  Outputs must be
    identical across repeats, which every compressor's determinism
    guarantees.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    n = len(points)

    # Pass 1: throughput through push_many.
    wall = math.inf
    finish_wall = math.inf
    compressed = None
    for _ in range(repeats):
        fast = make()
        t0 = time.perf_counter()
        fast.push_many(points)
        push_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = fast.finish()
        this_finish = time.perf_counter() - t0
        if push_wall + this_finish < wall:
            wall = push_wall + this_finish
            finish_wall = this_finish
        if compressed is None:
            compressed = result
        elif result.key_points != compressed.key_points:
            raise BenchError(
                f"{workload_name}/{result.algorithm}: push_many() repeats "
                f"disagree on key points (non-deterministic compressor?)"
            )

    # Pass 2: throughput through push_xyt.  The columns are shredded
    # outside the timed region, mirroring how the push_many pass receives
    # pre-built points.
    cols = TrajectoryColumns.from_points(points)
    col_wall = math.inf
    col_compressed = None
    for _ in range(repeats):
        columnar = make()
        t0 = time.perf_counter()
        columnar.push_xyt(cols.ts, cols.xs, cols.ys)
        col_push_wall = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = columnar.finish()
        this_wall = col_push_wall + (time.perf_counter() - t0)
        if this_wall < col_wall:
            col_wall = this_wall
        if col_compressed is None:
            col_compressed = result
        elif result.key_points != col_compressed.key_points:
            raise BenchError(
                f"{workload_name}/{result.algorithm}: push_xyt() repeats "
                f"disagree on key points (non-deterministic compressor?)"
            )
    if col_compressed.key_points != compressed.key_points:
        raise BenchError(
            f"{workload_name}/{compressed.algorithm}: push_xyt() and "
            f"push_many() produced different key points "
            f"(columnar {len(col_compressed)} keys, digest "
            f"{key_point_digest(col_compressed.key_points)} vs push_many "
            f"{len(compressed)} keys, digest "
            f"{key_point_digest(compressed.key_points)})"
        )

    # Pass 3: per-push latency through push().
    slow = make()
    latencies: List[float] = []
    record_latency = latencies.append
    peak_retained = 0
    clock = time.perf_counter
    for p in points:
        start = clock()
        slow.push(p)
        record_latency(clock() - start)
        retained = slow.buffered_points
        if retained > peak_retained:
            peak_retained = retained
    reference = slow.finish()

    if reference.key_points != compressed.key_points:
        for i, (a, b) in enumerate(zip(compressed.key_points, reference.key_points)):
            if a != b:
                detail = f"first divergence at key {i}: batched {a} vs per-point {b}"
                break
        else:
            detail = (
                f"key counts differ: batched {len(compressed)} "
                f"vs per-point {len(reference)}"
            )
        raise BenchError(
            f"{workload_name}/{compressed.algorithm}: push_many() and "
            f"push() produced different key points ({detail})"
        )

    max_deviation = compressed.max_deviation_from(points)
    error_bounded = math.isfinite(fast.epsilon)
    within_bound: bool | None = None
    if error_bounded:
        within_bound = max_deviation <= fast.epsilon * (1.0 + 1e-9)
        if not within_bound:
            raise BenchError(
                f"{workload_name}/{compressed.algorithm}: max deviation "
                f"{max_deviation:.3f} exceeds epsilon {fast.epsilon:.3f}"
            )

    latencies.sort()
    return BenchRecord(
        workload=workload_name,
        algorithm=compressed.algorithm,
        points=n,
        epsilon=fast.epsilon,
        points_per_sec=n / wall if wall > 0.0 else 0.0,
        wall_seconds=wall,
        columnar_points_per_sec=n / col_wall if col_wall > 0.0 else 0.0,
        columnar_wall_seconds=col_wall,
        columnar_speedup=wall / col_wall if col_wall > 0.0 else 0.0,
        push_us_p50=percentile(latencies, 50.0) * 1e6,
        push_us_p90=percentile(latencies, 90.0) * 1e6,
        push_us_p99=percentile(latencies, 99.0) * 1e6,
        push_us_max=(latencies[-1] * 1e6) if latencies else 0.0,
        key_points=len(compressed),
        key_digest=key_point_digest(compressed.key_points),
        compression_rate=compressed.compression_rate,
        max_deviation=max_deviation,
        error_bounded=error_bounded,
        within_bound=within_bound,
        peak_retained_points=peak_retained,
        finish_seconds=finish_wall,
        decisions=dict(fast.stats),
    )


def run_bench(
    workload_points: Dict[str, Sequence[PlanePoint]],
    epsilon: float,
    uniform_period: int = 10,
    algorithms: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
    repeats: int = 3,
) -> List[BenchRecord]:
    """Benchmark the selected algorithms over pre-generated workloads."""
    factories = default_factories(epsilon, uniform_period)
    if algorithms is not None:
        unknown = set(algorithms) - set(factories)
        if unknown:
            raise ValueError(
                f"unknown algorithms: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(factories))}"
            )
        factories = {name: factories[name] for name in algorithms}
    records: List[BenchRecord] = []
    for workload_name, points in workload_points.items():
        for algorithm, make in factories.items():
            if progress is not None:
                progress(f"{workload_name}/{algorithm} ({len(points)} points)")
            records.append(
                bench_compressor(make, points, workload_name, repeats=repeats)
            )
    return records
