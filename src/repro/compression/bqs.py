"""The Bounded Quadrant System compressor (paper Section V).

BQS is a one-pass, error-bounded compressor.  It opens a segment at an
*anchor* (the last committed key point) and, as points stream in, asks for
each new point ``p`` whether every point seen since the anchor stays within
``epsilon`` of the *path line* through the anchor and ``p``.  Answering that
question exactly requires the whole segment's points; the paper's insight is
that two cheap bounds decide almost every case without touching a buffer:

* The plane around the anchor is split into four **quadrants** aligned with
  the (UTM-projected) x and y axes.  A quadrant never spans more than π/2 of
  polar angle, so its angular extremes are well defined.
* Per quadrant, BQS maintains a **bounding box**, the extreme polar
  **angles** (the two bounding lines), a **convex hull** of the quadrant's
  points, and up to **eight significant points** — the actual trajectory
  points attaining the box sides, the angular extremes and the nearest /
  farthest distance from the anchor.
* The quadrant's points all lie in the convex polygon ``box ∩ wedge``
  (the *bounded area*), so the maximum deviation from any path line is at
  most the maximum over that polygon's vertices — the **upper bound** of
  Theorems 5.3–5.5.  The significant points are real points, so their
  maximum deviation is a **lower bound**.

On each arrival: if the upper bound is within ``epsilon`` the point is
admitted; if the lower bound already exceeds ``epsilon`` the previous point
is committed as a key point; only when the tolerance falls between the two
bounds does BQS fall back to the exact deviation.  Point-to-line distance is
convex in position, so the segment's exact maximum deviation is attained at
a vertex of the per-quadrant convex hulls — the fallback scans the O(h)
hull vertices, never a buffer of all n segment points.

The hot path is deliberately allocation-lean (this is the "on the go" /
per-point-cost claim of the paper):

* hulls are maintained incrementally (:class:`~repro.geometry.planar.
  IncrementalHull`, amortized O(log h) insert) instead of re-running the
  batch hull on every arrival;
* the bounded-area polygon is cached and re-cut only when an arrival
  actually grows the box or widens the wedge;
* the polar angle and radius of each arrival are computed once and shared
  by the box, wedge, and significant-point updates;
* both bounds and the exact fallback compare cross products against the
  tolerance pre-scaled by the path-line norm, so no per-vertex ``hypot`` or
  division runs;
* a segment split reuses the four quadrant structures in place rather than
  reallocating them.

One kernel, :meth:`BQSCompressor._ingest_xyt`, decides every fix for all
three entry points (``push``, ``push_many``, ``push_xyt``).  A full point
buffer survives only behind the ``debug_audit`` flag, where the kernel also
cross-checks every exact-fallback decision against a brute-force scan of
the buffered segment points (and the test suite keeps that mode honest).
"""

from __future__ import annotations

import math

from ..geometry.metrics import DistanceMetric
from ..geometry.planar import (
    IncrementalHull,
    Vec2,
    max_abs_cross,
    max_distance_to_line_origin,
    min_distance_on_segment_to_line_origin,
    rectangle_corners,
    wedge_box_polygon,
)
from ..model.point import PlanePoint
from .base import CompressorBase, Decision, PointBuffer, out_of_order

__all__ = ["QuadrantState", "BQSCompressor", "quadrant_index", "polar_angle"]

_TWO_PI = 2.0 * math.pi

# Integer decision slots counted by the kernel; the tuple maps a slot back
# to the public Decision label when stats are folded in.
_D_INIT = 0
_D_ACCEPT = 1
_D_UPPER = 2
_D_LOWER = 3
_D_EXACT_ACCEPT = 4
_D_EXACT_COMMIT = 5
_DECISION_LABELS = (
    Decision.INIT,
    Decision.ACCEPT,
    Decision.UPPER_BOUND,
    Decision.LOWER_BOUND,
    Decision.EXACT_ACCEPT,
    Decision.EXACT_COMMIT,
)


def polar_angle(x: float, y: float) -> float:
    """Polar angle of ``(x, y)`` in ``[0, 2π)``; 0 for the origin itself.

    Same convention as :func:`repro.geometry.planar.angle_of`, taking bare
    coordinates so hot-path callers skip the tuple build.
    """
    if x == 0.0 and y == 0.0:
        return 0.0
    theta = math.atan2(y, x)
    return theta + _TWO_PI if theta < 0.0 else theta


class QuadrantState:
    """Per-quadrant summary: bounding box, bounding lines, hull, significant points.

    All coordinates are anchor-relative (the anchor is the origin).  The
    ``track_hull`` flag turns the convex-hull and significant-point
    maintenance off for the hull-free Fast-BQS variant, leaving the O(1)
    box/angle state only.
    """

    __slots__ = (
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "theta_lo",
        "theta_hi",
        "min_r",
        "max_r",
        "count",
        "track_hull",
        "_hull",
        "_area",
        "_p_min_x",
        "_p_max_x",
        "_p_min_y",
        "_p_max_y",
        "_p_theta_lo",
        "_p_theta_hi",
        "_p_min_r",
        "_p_max_r",
    )

    def __init__(self, track_hull: bool = True) -> None:
        self.track_hull = track_hull
        self._hull: IncrementalHull | None = (
            IncrementalHull() if track_hull else None
        )
        self.reset()

    def reset(self) -> None:
        """Return to the empty state, reusing the hull's allocations."""
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf
        self.theta_lo = math.inf
        self.theta_hi = -math.inf
        self.min_r = math.inf
        self.max_r = -math.inf
        self.count = 0
        self._area: list[Vec2] | None = None
        self._p_min_x = None
        self._p_max_x = None
        self._p_min_y = None
        self._p_max_y = None
        self._p_theta_lo = None
        self._p_theta_hi = None
        self._p_min_r = None
        self._p_max_r = None
        if self._hull is not None:
            self._hull.clear()

    @property
    def hull(self) -> list[Vec2]:
        """Hull vertices (counter-clockwise); ``[]`` when hulls are off."""
        if self._hull is None:
            return []
        return self._hull.vertices()

    def add(self, v: Vec2, theta: float | None = None, r: float | None = None) -> int:
        """Fold one anchor-relative point into the quadrant summary.

        ``theta`` (polar angle in ``[0, 2π)``) and ``r`` (norm) may be
        passed in when the caller already computed them for the arrival;
        they are derived on demand otherwise.  Returns the net change in
        hull vertex count (0 when hulls are off), which is also the net
        change in trajectory points this quadrant retains.
        """
        x, y = v
        if theta is None:
            theta = polar_angle(x, y)
        self.count += 1
        grew = False
        if x < self.min_x:
            self.min_x = x
            self._p_min_x = v
            grew = True
        if x > self.max_x:
            self.max_x = x
            self._p_max_x = v
            grew = True
        if y < self.min_y:
            self.min_y = y
            self._p_min_y = v
            grew = True
        if y > self.max_y:
            self.max_y = y
            self._p_max_y = v
            grew = True
        if theta < self.theta_lo:
            self.theta_lo = theta
            self._p_theta_lo = v
            grew = True
        if theta > self.theta_hi:
            self.theta_hi = theta
            self._p_theta_hi = v
            grew = True
        if grew:
            # Only an actual box/wedge change invalidates the cached bounded
            # area; points landing strictly inside it keep the cache warm.
            self._area = None
        if not self.track_hull:
            return 0
        if r is None:
            r = math.hypot(x, y)
        if r < self.min_r:
            self.min_r = r
            self._p_min_r = v
        if r > self.max_r:
            self.max_r = r
            self._p_max_r = v
        return self._hull.add(v)

    def significant_points(self) -> list[Vec2]:
        """The ≤8 distinct significant points (actual trajectory points).

        Empty when ``track_hull`` is off — Fast-BQS never consults them and
        keeps no per-point state.
        """
        if not self.track_hull:
            return []
        seen: list[Vec2] = []
        for p in (
            self._p_min_x,
            self._p_max_x,
            self._p_min_y,
            self._p_max_y,
            self._p_theta_lo,
            self._p_theta_hi,
            self._p_min_r,
            self._p_max_r,
        ):
            if p is not None and p not in seen:
                seen.append(p)
        return seen

    def bounded_area(self) -> list[Vec2]:
        """Vertices of the quadrant's box ∩ wedge polygon (the bounded area).

        The polygon depends only on the quadrant state, not on the query's
        path line, so it is cached between arrivals and rebuilt only when
        :meth:`add` grows the box or widens the wedge.
        """
        if self.count == 0:
            return []
        area = self._area
        if area is None:
            area = wedge_box_polygon(
                self.min_x, self.min_y, self.max_x, self.max_y,
                self.theta_lo, self.theta_hi,
            )
            if not area:
                # Numerically degenerate (e.g. a box collapsed to a point on
                # a wedge edge): fall back to the box alone, still a valid
                # bound.
                area = rectangle_corners(
                    self.min_x, self.min_y, self.max_x, self.max_y
                )
            self._area = area
        return area

    # -- scaled bounds (hot path) -------------------------------------------
    #
    # The three methods below return distances multiplied by the path-line
    # norm ``hypot(dx, dy)``: callers compare them against ``epsilon * norm``
    # computed once per arrival, avoiding any per-vertex hypot/division.

    def upper_cross(self, dx: float, dy: float) -> float:
        """Scaled upper bound: max ``|cross|`` over the bounded area."""
        area = self._area
        if area is None:
            area = self.bounded_area()
        return max_abs_cross(area, dx, dy)

    def upper_cross_exceeds(self, dx: float, dy: float, scaled_eps: float) -> bool:
        """Does the scaled upper bound exceed ``scaled_eps``?

        Two stages, same verdict as comparing :meth:`upper_cross` directly:
        the bounding box contains the bounded area, so when the max
        ``|cross|`` over the four box corners is already within tolerance
        the area bound is too — decided from eight multiplications without
        cutting or scanning the cached polygon.  Only a failing screen
        consults the box ∩ wedge polygon.  On workloads that grow the box
        on most arrivals (anything with drift) this skips the polygon
        rebuild entirely for the common within-bound case.
        """
        x0 = self.min_x
        y0 = self.min_y
        x1 = self.max_x
        y1 = self.max_y
        best = c = dx * y0 - dy * x0
        if best < 0.0:
            best = -best
        c = dx * y0 - dy * x1
        if c < 0.0:
            c = -c
        if c > best:
            best = c
        c = dx * y1 - dy * x1
        if c < 0.0:
            c = -c
        if c > best:
            best = c
        c = dx * y1 - dy * x0
        if c < 0.0:
            c = -c
        if c > best:
            best = c
        if best <= scaled_eps:
            return False
        area = self._area
        if area is None:
            area = self.bounded_area()
        return max_abs_cross(area, dx, dy) > scaled_eps

    def lower_cross(self, dx: float, dy: float) -> float:
        """Scaled lower bound, witnessed by real trajectory points.

        Two certificates: the deviation of each significant point, and —
        because every bounding-box edge is touched by at least one point —
        the minimum distance from each box edge to the path line.
        """
        best = 0.0
        for p in (
            self._p_min_x,
            self._p_max_x,
            self._p_min_y,
            self._p_max_y,
            self._p_theta_lo,
            self._p_theta_hi,
            self._p_min_r,
            self._p_max_r,
        ):
            if p is not None:
                c = dx * p[1] - dy * p[0]
                if c < 0.0:
                    c = -c
                if c > best:
                    best = c
        x0 = self.min_x
        y0 = self.min_y
        x1 = self.max_x
        y1 = self.max_y
        c00 = dx * y0 - dy * x0
        c10 = dx * y0 - dy * x1
        c11 = dx * y1 - dy * x1
        c01 = dx * y1 - dy * x0
        ca = c00
        for cb in (c10, c11, c01, c00):
            if not ((ca <= 0.0 <= cb) or (cb <= 0.0 <= ca)):
                m = min(abs(ca), abs(cb))
                if m > best:
                    best = m
            ca = cb
        return best

    def exact_cross(self, dx: float, dy: float) -> float:
        """Scaled exact deviation: max ``|cross|`` over the hull vertices."""
        return self._hull.max_abs_cross(dx, dy)

    # -- unscaled API (tests, inspection, degenerate path-lines) ------------

    def upper_bound(self, direction: Vec2) -> float:
        """Upper bound on the quadrant's max deviation from the path line."""
        if self.count == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            return max_distance_to_line_origin(self.bounded_area(), direction)
        return self.upper_cross(dx, dy) / denom

    def lower_bound(self, direction: Vec2) -> float:
        """Lower bound on the quadrant's max deviation from the path line."""
        if self.count == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            best = max_distance_to_line_origin(
                self.significant_points(), direction
            )
            corners = rectangle_corners(
                self.min_x, self.min_y, self.max_x, self.max_y
            )
            for i in range(4):
                d = min_distance_on_segment_to_line_origin(
                    corners[i], corners[(i + 1) % 4], direction
                )
                if d > best:
                    best = d
            return best
        return self.lower_cross(dx, dy) / denom

    def hull_max_deviation(self, direction: Vec2) -> float:
        """Exact max deviation of the quadrant's points from the path line.

        Point-to-line distance is a convex function of position, so its
        maximum over the quadrant's points is attained at a convex-hull
        vertex; scanning the O(h) hull is exact and replaces any scan of
        the segment's full point set.
        """
        if self._hull is None or len(self._hull) == 0:
            return 0.0
        dx, dy = direction
        denom = math.hypot(dx, dy)
        if denom == 0.0:
            return max_distance_to_line_origin(self._hull.vertices(), direction)
        return self._hull.max_abs_cross(dx, dy) / denom


def quadrant_index(dx: float, dy: float) -> int:
    """Quadrant of an anchor-relative offset: 0=NE, 1=NW, 2=SW, 3=SE."""
    if dx >= 0.0:
        return 0 if dy >= 0.0 else 3
    return 1 if dy >= 0.0 else 2


class BQSCompressor(CompressorBase):
    """Full Bounded Quadrant System (convex hulls + exact hull fallback).

    ``debug_audit=True`` additionally buffers every segment point and
    cross-checks each exact-fallback decision against a brute-force scan of
    the buffer, raising ``RuntimeError`` on divergence.  It exists for tests
    and investigations; the production path never buffers.
    """

    name = "bqs"

    def __init__(
        self,
        epsilon: float,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
        debug_audit: bool = False,
    ) -> None:
        if not math.isfinite(epsilon):
            raise ValueError("BQS needs a finite error bound")
        if metric is not DistanceMetric.POINT_TO_LINE:
            raise ValueError(
                "BQS bounds are derived for the point-to-line deviation "
                "metric (the paper's default); got " + metric.value
            )
        super().__init__(epsilon, metric)
        self._debug_audit = bool(debug_audit)
        self._reset()

    # -- state --------------------------------------------------------------

    def _reset(self) -> None:
        self._anchor: PlanePoint | None = None
        self._prev: PlanePoint | None = None
        self._interior = 0
        self._quadrants: list[QuadrantState] = [
            QuadrantState(track_hull=True) for _ in range(4)
        ]
        self._buffer: PointBuffer | None = (
            PointBuffer() if self._debug_audit else None
        )
        self._retained = 0
        self._retained_peak = 0

    @property
    def buffered_points(self) -> int:
        """Trajectory points retained in state: the four hulls' vertices.

        The hulls hold actual (anchor-relative) trajectory points, so this
        is the honest memory figure for the open segment — typically far
        below the segment length.  The ``debug_audit`` buffer shadows these
        points and is not double-counted.
        """
        return self._retained

    @property
    def buffer_peak(self) -> int:
        """High-water mark of retained points across the stream."""
        return self._retained_peak

    @property
    def audit_buffered(self) -> int:
        """Points in the ``debug_audit`` buffer (0 when auditing is off)."""
        return 0 if self._buffer is None else len(self._buffer)

    # -- algorithm ----------------------------------------------------------

    def _ingest_xyt(self, ts, xs, ys, points=None) -> int:
        """The BQS decision kernel, behind every entry point.

        The stream state is held in local floats for the batch: the anchor
        is read once (it only changes on a split), and the previous fix is
        tracked as ``(x, y, t)`` floats and turned into a point — taken
        from ``points`` when given, built otherwise — only when a split
        commits it or the batch ends.  The bound-decided paths build no
        per-fix object.  In ``debug_audit`` mode every admitted fix also
        lands in the audit buffer, and each exact decision is
        cross-checked against it.
        """
        emit = self._emit
        quadrants = self._quadrants
        epsilon = self._epsilon
        audit = self._buffer
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
        retained = self._retained
        retained_peak = self._retained_peak
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
                denom = hyp(dx, dy)
                split = False
                if interior == 0:
                    # First fix after the anchor: no interior points yet,
                    # the two-point segment is trivially within bound.
                    slot = _D_ACCEPT
                elif denom == 0.0:
                    slot = self._degenerate_slot()
                    split = slot == _D_LOWER or slot == _D_EXACT_COMMIT
                else:
                    scaled_eps = epsilon * denom
                    within = True
                    for q in quadrants:
                        if q.count and q.upper_cross_exceeds(dx, dy, scaled_eps):
                            # Any single quadrant over tolerance settles
                            # the question — same verdict as the max.
                            within = False
                            break
                    if within:
                        slot = _D_UPPER
                    else:
                        lower = 0.0
                        for q in quadrants:
                            if q.count:
                                c = q.lower_cross(dx, dy)
                                if c > lower:
                                    lower = c
                        if lower > scaled_eps:
                            slot = _D_LOWER
                            split = True
                        else:
                            # epsilon falls between the bounds: exact
                            # deviation over the per-quadrant hull vertices
                            # (convexity makes the hull scan exact).
                            exact = 0.0
                            for q in quadrants:
                                if q.count:
                                    c = q.exact_cross(dx, dy)
                                    if c > exact:
                                        exact = c
                            if audit is not None:
                                self._audit_exact(ax, ay, dx, dy, exact)
                            if exact <= scaled_eps:
                                slot = _D_EXACT_ACCEPT
                            else:
                                slot = _D_EXACT_COMMIT
                                split = True

                if split:
                    # Split.  Every admitted fix was verified (by bound or
                    # exactly) against the path line to the fix admitted
                    # after it, so the segment ending at the previous fix
                    # honours the bound: that fix becomes a key point and
                    # the new anchor, and this fix opens the fresh segment.
                    # The quadrant structures are reset in place.
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
                    if audit is not None:
                        audit.restart_from(())
                    retained = interior = 0
                    dx = x - ax
                    dy = y - ay
                    denom = hyp(dx, dy)
                    emit(key)

                # Admit the fix into the open segment.
                retained += quadrants[qi(dx, dy)].add((dx, dy), pa(dx, dy), denom)
                if retained > retained_peak:
                    retained_peak = retained
                if audit is not None:
                    audit.append(
                        PlanePoint(x, y, t)
                        if points is None
                        else points[count - start - 1]
                    )
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
            self._retained = retained
            self._retained_peak = retained_peak
            self._fold_stats(counters, _DECISION_LABELS)
        return count - start

    def _degenerate_slot(self) -> int:
        """Decide a fix that coincides with the anchor.

        The path line collapses to a point, so every deviation becomes a
        plain distance to the anchor; the same upper-bound, lower-bound,
        exact cascade as the kernel, on unscaled distances.
        """
        direction: Vec2 = (0.0, 0.0)
        eps = self._epsilon
        live = [q for q in self._quadrants if q.count]
        if max(0.0, *(q.upper_bound(direction) for q in live)) <= eps:
            return _D_UPPER
        if max(0.0, *(q.lower_bound(direction) for q in live)) > eps:
            return _D_LOWER
        if max(0.0, *(q.hull_max_deviation(direction) for q in live)) <= eps:
            return _D_EXACT_ACCEPT
        return _D_EXACT_COMMIT

    def _audit_exact(
        self, ax: float, ay: float, dx: float, dy: float, hull_cross: float
    ) -> None:
        """Cross-check the hull-based exact deviation against the buffer."""
        buffered = 0.0
        for b in self._buffer:
            c = dx * (b.y - ay) - dy * (b.x - ax)
            if c < 0.0:
                c = -c
            if c > buffered:
                buffered = c
        if abs(buffered - hull_cross) > 1e-6 * max(1.0, buffered):
            raise RuntimeError(
                "bqs debug_audit: hull exact deviation diverged from the "
                f"buffered scan (hull={hull_cross!r}, buffer={buffered!r})"
            )

    def _flush(self) -> list[PlanePoint]:
        if self._prev is None:
            return []
        return [self._prev]

    def _info(self) -> dict:
        info = super()._info()
        stats = self._stats
        info["exact_accepts"] = stats.get(Decision.EXACT_ACCEPT, 0)
        info["exact_commits"] = stats.get(Decision.EXACT_COMMIT, 0)
        info["retained_points_peak"] = self._retained_peak
        if self._buffer is not None:
            info["audit_buffer_peak"] = self._buffer.peak
        return info
