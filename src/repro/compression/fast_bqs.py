"""Fast-BQS: the hull-free, constant-time-per-point variant (Section V-F).

Fast-BQS keeps only the O(1) part of each quadrant's state — the bounding
box and the two tracked extreme angles — and drops the convex hulls, the
significant points and the buffer entirely.  Each arrival costs a constant
amount of work (four quadrant upper bounds, each a scan of a ≤6-vertex
polygon) and the compressor state is a fixed number of floats regardless of
stream length.

The price of losing the hulls is that the uncertain case (tolerance between
the lower and upper bound) can no longer be resolved exactly: Fast-BQS
commits a key point whenever the *upper* bound exceeds the tolerance.  That
is conservative — the error bound still holds because a point is only ever
admitted when the upper bound proves the whole open segment within
``epsilon`` — but it may split segments the full BQS would have kept,
costing a little compression rate for a large constant-factor speedup and
strictly bounded memory.

Like BQS, one columnar kernel decides every fix for all three entry
points; it compares cross products against the tolerance pre-scaled by the
path-line norm (no per-vertex ``hypot``), reuses the quadrant structures
across segment splits, and counts decisions in integer slots.
"""

from __future__ import annotations

import math

from ..geometry.metrics import DistanceMetric
from ..geometry.planar import Vec2
from ..model.point import PlanePoint
from .base import CompressorBase, Decision, out_of_order
from .bqs import QuadrantState, polar_angle, quadrant_index

__all__ = ["FastBQSCompressor"]

# Integer decision slots counted by the kernel (Fast-BQS records the
# conservative commit under the same upper-bound label as an accept).
_D_INIT = 0
_D_ACCEPT = 1
_D_UPPER = 2
_DECISION_LABELS = (Decision.INIT, Decision.ACCEPT, Decision.UPPER_BOUND)


class FastBQSCompressor(CompressorBase):
    """Bounding-box-and-angles-only BQS with O(1) state per point."""

    name = "fast-bqs"

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("Fast-BQS needs a finite error bound")
        if metric is not DistanceMetric.POINT_TO_LINE:
            raise ValueError(
                "Fast-BQS bounds are derived for the point-to-line deviation "
                "metric (the paper's default); got " + metric.value
            )
        super().__init__(epsilon, metric)
        self._reset()

    def _reset(self) -> None:
        self._anchor: PlanePoint | None = None
        self._prev: PlanePoint | None = None
        self._interior = 0
        self._quadrants: list[QuadrantState] = [
            QuadrantState(track_hull=False) for _ in range(4)
        ]

    # Fast-BQS never buffers: `buffered_points` stays at the base's 0.

    def state_point_count(self) -> int:
        """Trajectory points retained in state (anchor + previous only).

        The quadrant summaries hold aggregate floats, not points; this is
        the quantity the O(1)-memory test pins down.
        """
        count = 0
        if self._anchor is not None:
            count += 1
        if self._prev is not None and self._prev is not self._anchor:
            count += 1
        return count

    def _ingest_xyt(self, ts, xs, ys, points=None) -> int:
        """The Fast-BQS decision kernel, behind every entry point.

        Same structure as the BQS kernel, minus everything hull: the anchor
        is cached in local floats, and the previous fix is tracked as
        floats and turned into a point only when a split commits it or the
        batch ends.
        """
        emit = self._emit
        quadrants = self._quadrants
        epsilon = self._epsilon
        hyp = math.hypot
        pa = polar_angle
        qi = quadrant_index
        counters = [0] * len(_DECISION_LABELS)
        last_t = self._last_t
        count = start = self._count
        anchor = self._anchor
        ax = ay = 0.0
        if anchor is not None:
            ax = anchor.x
            ay = anchor.y
        prev_obj = self._prev  # non-None means it is in sync with the floats
        px = py = pt = 0.0
        if prev_obj is not None:
            px, py, pt = prev_obj.x, prev_obj.y, prev_obj.t
        interior = self._interior
        try:
            for t, x, y in zip(ts, xs, ys):
                if not (t >= last_t):
                    raise out_of_order(last_t, t)
                last_t = t
                count += 1

                if anchor is None:
                    anchor = prev_obj = (
                        PlanePoint(x, y, t)
                        if points is None
                        else points[count - start - 1]
                    )
                    ax = px = x
                    ay = py = y
                    pt = t
                    emit(anchor)
                    counters[_D_INIT] += 1
                    continue

                dx = x - ax
                dy = y - ay
                split = False
                if interior == 0:
                    slot = _D_ACCEPT
                else:
                    slot = _D_UPPER
                    denom = hyp(dx, dy)
                    if denom == 0.0:
                        split = self._degenerate_exceeds()
                    else:
                        scaled_eps = epsilon * denom
                        for q in quadrants:
                            if q.count and q.upper_cross_exceeds(
                                dx, dy, scaled_eps
                            ):
                                split = True
                                break

                if split:
                    # Uncertain or violated — without the hulls both are
                    # resolved the same conservative way: split at prev.
                    key = prev_obj
                    if key is None:
                        key = (
                            PlanePoint(px, py, pt)
                            if points is None
                            else points[count - start - 2]
                        )
                    anchor = key
                    ax = px
                    ay = py
                    for q in quadrants:
                        q.reset()
                    interior = 0
                    dx = x - ax
                    dy = y - ay
                    emit(key)

                quadrants[qi(dx, dy)].add((dx, dy), pa(dx, dy))
                interior += 1
                px = x
                py = y
                pt = t
                prev_obj = None
                counters[slot] += 1
        finally:
            self._last_t = last_t
            self._count = count
            self._anchor = anchor
            if prev_obj is None and anchor is not None:
                prev_obj = (
                    PlanePoint(px, py, pt)
                    if points is None
                    else points[count - start - 1]
                )
            self._prev = prev_obj
            self._interior = interior
            self._fold_stats(counters, _DECISION_LABELS)
        return count - start

    def _degenerate_exceeds(self) -> bool:
        """Does a fix coinciding with the anchor force a split?

        The path line collapses to a point, so the upper bound becomes the
        bounded areas' largest distance from the anchor.
        """
        direction: Vec2 = (0.0, 0.0)
        live = [q for q in self._quadrants if q.count]
        upper = max(0.0, *(q.upper_bound(direction) for q in live))
        return not (upper <= self._epsilon)

    def _flush(self) -> list[PlanePoint]:
        if self._prev is None:
            return []
        return [self._prev]
