"""Baseline compressors the paper evaluates BQS against (Section VI).

Two online baselines and two batch references, all behind the same
:class:`~repro.compression.base.StreamingCompressor` interface:

``UniformSampler``
    Keeps every *k*-th point (plus the first and last).  O(1) state, no
    error bound — the classic what-GPS-loggers-do reference point.

``DeadReckoningCompressor``
    Predicts each position from the last key point and its departure
    velocity; commits a key point when the prediction error exceeds the
    threshold.  O(1) state.  The prediction test bounds deviation from the
    *velocity ray*, not from the chord between stored key points, so the
    threshold is derated by ``safety_factor`` (default ½, following the
    classic tube argument: interior points and the segment end both lie
    within ε/2 of the ray, hence within ε of the chord).

``DouglasPeucker``
    The batch gold standard: buffers the stream and splits at the point of
    maximum deviation until every segment is within bound.  The traversal
    is an explicit-stack loop, not recursion — a long monotone trajectory
    can drive the textbook recursion past Python's recursion limit (depth
    grows linearly when the worst point hugs a segment end), and the
    regression tests pin streams deeper than ``sys.getrecursionlimit()``.

``TDTRCompressor``
    Time-ratio Douglas-Peucker (TD-TR): identical traversal but measured
    with the *synchronized Euclidean distance* — each point is compared to
    the position linearly interpolated at its own timestamp.  SED never
    undershoots the point-to-line deviation (the synchronized position lies
    on the chord's line), so a TD-TR output is error-bounded under the
    paper's metric as well.

Every compressor here decides its fixes in one columnar kernel
(``_ingest_xyt``) that all three entry points share.  Both batch baselines
buffer **columns, not objects**: pushed fixes land in flat ``array('d')``
columns (~32 bytes per fix instead of a ``PlanePoint`` each), the split
scans read floats straight out of the columns, and ``PlanePoint`` objects
are materialized only for the kept key points at ``finish()`` time.
"""

from __future__ import annotations

import math
from array import array
from itertools import repeat
from typing import Sequence

from ..geometry.metrics import DistanceMetric, deviation as metric_deviation
from ..model.point import PlanePoint, plane_points_from_flat
from ..model.reconstruction import synchronized_deviation_xyt
from .base import CompressorBase, Decision, out_of_order

__all__ = [
    "UniformSampler",
    "DeadReckoningCompressor",
    "DouglasPeucker",
    "TDTRCompressor",
]


class UniformSampler(CompressorBase):
    """Keep every ``period``-th point; no error guarantee."""

    name = "uniform"

    def __init__(self, period: int, epsilon: float = math.inf) -> None:
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period!r}")
        super().__init__(epsilon)
        self.period = int(period)
        self._reset()

    def _reset(self) -> None:
        self._since_key = 0
        self._tail: PlanePoint | None = None

    def _ingest_xyt(self, ts, xs, ys, points=None) -> int:
        """Sampling kernel: builds a point only for the every-``period``-th
        keeper (taken from ``points`` when given)."""
        emit = self._emit
        period = self.period
        since = self._since_key
        tail_obj = self._tail  # non-None means in sync with the floats
        tx = ty = tt = 0.0
        if tail_obj is not None:
            tx, ty, tt = tail_obj.x, tail_obj.y, tail_obj.t
        started = tail_obj is not None
        last_t = self._last_t
        count = start = self._count
        init_n = periodic_n = 0
        try:
            for t, x, y in zip(ts, xs, ys):
                if not (t >= last_t):
                    raise out_of_order(last_t, t)
                last_t = t
                count += 1
                tx = x
                ty = y
                tt = t
                if started:
                    periodic_n += 1
                    since += 1
                    if since < period:
                        tail_obj = None
                        continue
                else:
                    started = True
                    init_n += 1
                since = 0
                tail_obj = (
                    PlanePoint(x, y, t)
                    if points is None
                    else points[count - start - 1]
                )
                emit(tail_obj)
        finally:
            self._last_t = last_t
            self._count = count
            self._since_key = since
            if tail_obj is None and started:
                tail_obj = (
                    PlanePoint(tx, ty, tt)
                    if points is None
                    else points[count - start - 1]
                )
            self._tail = tail_obj
            self._fold_stats(
                (init_n, periodic_n), (Decision.INIT, Decision.PERIODIC)
            )
        return count - start

    def _flush(self) -> list[PlanePoint]:
        return [] if self._tail is None else [self._tail]


class DeadReckoningCompressor(CompressorBase):
    """Velocity-prediction compressor with O(1) state.

    A segment opens at a key point; its velocity is estimated from the key
    point and the first point that follows it.  Every later point is
    compared against the position the velocity predicts for its timestamp;
    the first point whose prediction error exceeds the (derated) threshold
    closes the segment at its predecessor.
    """

    name = "dead-reckoning"

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
        safety_factor: float = 0.5,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("dead reckoning needs a finite error bound")
        if not 0.0 < safety_factor <= 1.0:
            raise ValueError(f"safety_factor must be in (0, 1], got {safety_factor!r}")
        super().__init__(epsilon, metric)
        self.safety_factor = float(safety_factor)
        self._threshold = epsilon * safety_factor
        # The kernel compares squared distances (saves a hypot call per
        # fix).
        self._threshold_sq = self._threshold * self._threshold
        self._reset()

    def _reset(self) -> None:
        self._key: PlanePoint | None = None
        self._velocity: tuple[float, float] | None = None
        self._prev: PlanePoint | None = None

    def _ingest_xyt(self, ts, xs, ys, points=None) -> int:
        """Dead-reckoning kernel: the prediction test runs on bare floats and
        key points are *batch-materialized*.

        Dead reckoning commits a key point for a large fraction of its fixes
        (half the stream at vehicle-like workloads), so a per-breach
        ``PlanePoint`` construction plus an ``_emit`` call would dominate
        the loop.  Without ``points``, breaches therefore only append four
        floats to a flat pending list, and the whole batch of committed
        key points is materialized once, in the ``finally`` block, through
        one :func:`~repro.model.point.plane_points_from_flat` sweep
        (``__new__`` + slot writes behind a batch finiteness screen); with
        ``points``, the committed source points are appended as they are.
        ``_emit``'s consecutive-duplicate drop is replicated on the raw
        floats before a key is appended.
        """
        threshold_sq = self._threshold_sq
        key_obj = self._key  # rematerialized at batch end if a breach moved it
        kx = ky = kt = 0.0
        if key_obj is not None:
            kx, ky, kt = key_obj.x, key_obj.y, key_obj.t
        velocity = self._velocity
        has_vel = velocity is not None
        vx = vy = 0.0
        if has_vel:
            vx, vy = velocity
        prev_obj = self._prev  # non-None means in sync with the floats
        px = py = pt = 0.0
        if prev_obj is not None:
            px, py, pt = prev_obj.x, prev_obj.y, prev_obj.t
        # Pending committed key points of a columnar call, interleaved
        # ``x, y, t, z`` in one flat list; materialized in one sweep at
        # batch end.  Duplicate suppression (what _emit does) runs here on
        # floats, seeded from the last already-emitted key point.
        pending: list = []
        push_pending = pending.extend
        key_points = self._key_points
        if key_points:
            tail = key_points[-1]
            ex, ey, et = tail.x, tail.y, tail.t
            have_tail = True
        else:
            ex = ey = et = 0.0
            have_tail = False
        started = key_obj is not None
        last_t = self._last_t
        count = start = self._count
        init_n = accept_n = 0
        try:
            for t, x, y in zip(ts, xs, ys):
                if not (t >= last_t):
                    raise out_of_order(last_t, t)
                last_t = t
                count += 1
                if has_vel:  # the steady-state path, checked first
                    dt = t - kt
                    dx = x - (kx + vx * dt)
                    dy = y - (ky + vy * dt)
                    if dx * dx + dy * dy <= threshold_sq:
                        px = x
                        py = y
                        pt = t
                        prev_obj = None
                        continue
                    # Breach: the previous fix becomes a key point and the
                    # new prediction origin.
                    key_obj = prev_obj
                    if key_obj is None and points is not None:
                        key_obj = points[count - start - 2]
                    if not (have_tail and ex == px and ey == py and et == pt):
                        if points is None:
                            z = 0.0 if key_obj is None else key_obj.z
                            push_pending((px, py, pt, z))
                        else:
                            key_points.append(key_obj)
                        ex, ey, et = px, py, pt
                        have_tail = True
                    else:
                        self._dropped_key = key_obj
                    kx, ky, kt = px, py, pt
                    dt = t - pt
                elif started:
                    # Second point of a segment: estimate the velocity.
                    has_vel = True
                    accept_n += 1
                    dt = t - kt
                else:
                    started = True
                    key_obj = None
                    kx, ky, kt = x, y, t
                    if points is None:
                        push_pending((x, y, t, 0.0))
                    else:
                        key_points.append(points[count - start - 1])
                    ex, ey, et = x, y, t
                    have_tail = True
                    init_n += 1
                    px = x
                    py = y
                    pt = t
                    prev_obj = None
                    continue
                if dt > 0.0:
                    vx = (x - kx) / dt
                    vy = (y - ky) / dt
                else:
                    # Co-timestamped fix: no usable velocity, predict
                    # stationarity.
                    vx = 0.0
                    vy = 0.0
                px = x
                py = y
                pt = t
                prev_obj = None
        finally:
            self._last_t = last_t
            self._count = count
            if pending:
                key_points.extend(plane_points_from_flat(pending))
            if started:
                self._key = (
                    key_obj if key_obj is not None else PlanePoint(kx, ky, kt)
                )
                if prev_obj is None:
                    prev_obj = (
                        PlanePoint(px, py, pt)
                        if points is None
                        else points[count - start - 1]
                    )
                self._prev = prev_obj
            self._velocity = (vx, vy) if has_vel else None
            self._fold_stats(
                (init_n, accept_n, (count - start) - init_n - accept_n),
                (Decision.INIT, Decision.ACCEPT, Decision.THRESHOLD),
            )
        return count - start

    def _flush(self) -> list[PlanePoint]:
        return [] if self._prev is None else [self._prev]


class _BatchCompressor(CompressorBase):
    """Shared columnar buffering/driver for the batch baselines.

    Fixes are buffered as four flat ``array('d')`` columns (t, x, y, z) and
    the split-at-worst-point selection reads floats straight from them;
    ``PlanePoint`` objects exist only for the key points returned by
    ``finish()``.  ``z`` is carried so pushed points round-trip their third
    coordinate through the buffer unchanged.
    """

    def _reset(self) -> None:
        self._ts = array("d")
        self._xs = array("d")
        self._ys = array("d")
        self._zs = array("d")

    @property
    def buffered_points(self) -> int:
        return len(self._ts)

    def _ingest_xyt(self, ts, xs, ys, points=None) -> int:
        """Buffering kernel: bulk-extend the columns, no objects at all.

        The valid (time-monotone) prefix is consumed before a violation
        raises.  ``z`` is buffered from ``points`` when given, so key
        points from the object entry points keep it.
        """
        last_t = self._last_t
        n_ok = 0
        bad: float | None = None
        for t in ts:
            if not (t >= last_t):
                bad = t
                break
            last_t = t
            n_ok += 1
        if n_ok:
            if bad is not None:
                ts, xs, ys = ts[:n_ok], xs[:n_ok], ys[:n_ok]
            self._ts.extend(ts)
            self._xs.extend(xs)
            self._ys.extend(ys)
            if points is None:
                self._zs.extend(repeat(0.0, n_ok))
            else:
                self._zs.extend([p.z for p in points[:n_ok]])
            self._last_t = last_t
            self._count += n_ok
            self._fold_stats((n_ok,), (Decision.BATCH,))
        if bad is not None:
            raise out_of_order(last_t, bad)
        return n_ok

    def _flush(self) -> list[PlanePoint]:
        ts, xs, ys, zs = self._ts, self._xs, self._ys, self._zs
        self._ts = array("d")
        self._xs = array("d")
        self._ys = array("d")
        self._zs = array("d")
        n = len(ts)
        if n == 0:
            return []
        if n <= 2:
            keep: Sequence[int] = range(n)
        else:
            keep = sorted(self._select(ts, xs, ys))
        return [PlanePoint(xs[i], ys[i], ts[i], zs[i]) for i in keep]

    def _select(self, ts, xs, ys) -> set[int]:
        """Indices to keep; explicit-stack split-at-worst-point traversal.

        Deliberately iterative: the recursive textbook formulation reaches
        depth O(n) whenever the worst point lands next to a segment end,
        which overflows the interpreter stack long before the 100k-point
        streams the benchmarks run (see the depth regression tests).
        """
        epsilon = self._epsilon
        scan = self._scan_worst
        last = len(ts) - 1
        keep = {0, last}
        stack = [(0, last)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo < 2:
                continue
            worst, worst_idx = scan(ts, xs, ys, lo, hi)
            if worst > epsilon:
                keep.add(worst_idx)
                stack.append((lo, worst_idx))
                stack.append((worst_idx, hi))
        return keep

    def _scan_worst(self, ts, xs, ys, lo: int, hi: int) -> tuple[float, int]:
        """Return ``(max deviation, argmax index)`` over ``(lo, hi)``
        interior fixes against the chord ``lo → hi``."""
        raise NotImplementedError


class DouglasPeucker(_BatchCompressor):
    """Classic batch Douglas-Peucker under the configured deviation metric."""

    name = "douglas-peucker"

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("Douglas-Peucker needs a finite error bound")
        super().__init__(epsilon, metric)
        self._reset()

    def _scan_worst(self, ts, xs, ys, lo: int, hi: int) -> tuple[float, int]:
        metric = self._metric
        a = (xs[lo], ys[lo])
        b = (xs[hi], ys[hi])
        worst = -1.0
        worst_idx = -1
        for i in range(lo + 1, hi):
            d = metric_deviation((xs[i], ys[i]), a, b, metric)
            if d > worst:
                worst = d
                worst_idx = i
        return worst, worst_idx


class TDTRCompressor(_BatchCompressor):
    """Top-down time-ratio (TD-TR): Douglas-Peucker under the SED metric."""

    name = "td-tr"

    def __init__(self, epsilon: float) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("TD-TR needs a finite error bound")
        super().__init__(epsilon)
        self._reset()

    def _scan_worst(self, ts, xs, ys, lo: int, hi: int) -> tuple[float, int]:
        sed = synchronized_deviation_xyt
        ax, ay, at = xs[lo], ys[lo], ts[lo]
        bx, by, bt = xs[hi], ys[hi], ts[hi]
        worst = -1.0
        worst_idx = -1
        for i in range(lo + 1, hi):
            d = sed(xs[i], ys[i], ts[i], ax, ay, at, bx, by, bt)
            if d > worst:
                worst = d
                worst_idx = i
        return worst, worst_idx
