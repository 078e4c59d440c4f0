"""Streaming-compressor architecture shared by every algorithm.

The paper frames trajectory compression as an *online* problem: points
arrive one at a time from a GPS unit, and the compressor must decide on the
fly which of them become key points of the compressed trajectory.  This
module fixes the contract every algorithm in :mod:`repro.compression`
implements, so BQS, Fast-BQS and the baselines are interchangeable from the
caller's point of view:

``StreamingCompressor`` (protocol)
    ``push(point) -> PushResult`` folds one point into the stream and
    reports any key points committed by that arrival; ``push_many(points)``
    and ``push_xyt(ts, xs, ys)`` fold whole batches (objects or flat
    columns) in without per-point results; ``finish()`` seals the stream
    and returns the :class:`~repro.model.trajectory.CompressedTrajectory`.

``CompressorBase`` (ABC)
    One decision kernel, three adapters.  A subclass implements a single
    columnar kernel, ``_ingest_xyt``, that decides every fix, plus
    ``_flush`` for the end of stream.  ``push``, ``push_many`` and
    ``push_xyt`` only check the lifecycle and shape their input into
    columns for that kernel, so every entry point yields the same key
    points by construction.  The base also owns key-point emission, push
    counting, stats, lifecycle (``reset`` / one-shot ``finish``), the
    ``compress()`` convenience driver and the ``buffered_points``
    instrumentation used by the memory-behaviour tests.

``PointBuffer``
    A point buffer with high-water-mark tracking: the segment buffer behind
    BQS's ``debug_audit`` reference mode.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from ..geometry.metrics import DistanceMetric
from ..model.point import PlanePoint
from ..model.trajectory import CompressedTrajectory

__all__ = [
    "Decision",
    "PushResult",
    "StreamingCompressor",
    "CompressorBase",
    "PointBuffer",
]


class Decision:
    """How a compressor arrived at a push outcome (for stats and tests).

    String constants rather than an enum so algorithm-specific decisions can
    be added without touching this module.
    """

    INIT = "init"  #: first point of the stream, always a key point
    ACCEPT = "accept"  #: point folded into the open segment, no analysis
    UPPER_BOUND = "upper_bound"  #: quadrant upper bound proved deviation <= ε
    LOWER_BOUND = "lower_bound"  #: quadrant lower bound proved deviation > ε
    EXACT_ACCEPT = "exact_accept"  #: exact deviation computed, point admitted
    EXACT_COMMIT = "exact_commit"  #: exact deviation computed, segment split
    THRESHOLD = "threshold"  #: scalar threshold test (dead reckoning)
    PERIODIC = "periodic"  #: fixed-rate decision (uniform sampling)
    BATCH = "batch"  #: deferred to finish() (batch baselines)


@dataclass(frozen=True)
class PushResult:
    """Outcome of feeding one point to a streaming compressor.

    Attributes:
        index: 0-based position of the pushed point in the original stream.
        new_key_points: key points committed *by this arrival* (usually
            empty; one on a segment split; the point itself on stream start).
        decided_by: one of the :class:`Decision` constants.
    """

    index: int
    new_key_points: tuple[PlanePoint, ...]
    decided_by: str

    @property
    def committed(self) -> bool:
        return bool(self.new_key_points)


@runtime_checkable
class StreamingCompressor(Protocol):
    """The uniform online interface of every compressor in this package."""

    @property
    def name(self) -> str:
        """Short algorithm identifier (used by the evaluation harness)."""
        ...

    @property
    def epsilon(self) -> float:
        """The error tolerance in metres (``math.inf`` when unbounded)."""
        ...

    @property
    def pushed(self) -> int:
        """Number of points consumed so far (any entry point)."""
        ...

    def push(self, point: PlanePoint) -> PushResult:
        """Fold one point into the stream; report committed key points."""
        ...

    def push_many(self, points: Iterable[PlanePoint]) -> int:
        """Fold a batch of points in (same output as a ``push`` loop);
        return how many were consumed."""
        ...

    def push_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Fold a columnar batch of fixes in (same output as a ``push``
        loop over ``PlanePoint(x, y, t)``); return how many were consumed."""
        ...

    def finish(self) -> CompressedTrajectory:
        """Seal the stream and return the compressed trajectory."""
        ...

    def reset(self) -> None:
        """Return to the pristine pre-stream state."""
        ...


class PointBuffer:
    """A point buffer that remembers its high-water mark.

    BQS's ``debug_audit`` mode keeps the open segment's points here, so the
    brute-force cross-check has them and tests can read the buffer's peak.
    """

    __slots__ = ("_points", "peak")

    def __init__(self) -> None:
        self._points: list[PlanePoint] = []
        self.peak = 0

    def append(self, point: PlanePoint) -> None:
        self._points.append(point)
        if len(self._points) > self.peak:
            self.peak = len(self._points)

    def clear(self) -> None:
        self._points.clear()

    def restart_from(self, points: Iterable[PlanePoint]) -> None:
        """Replace the contents (new segment opened) without resetting peak."""
        self._points = list(points)
        if len(self._points) > self.peak:
            self.peak = len(self._points)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[PlanePoint]:
        return iter(self._points)

    def __getitem__(self, idx: int) -> PlanePoint:
        return self._points[idx]


#: Points per kernel call when :meth:`CompressorBase.push_many` shreds an
#: iterable into columns: large enough that the kernel's per-call set-up
#: vanishes, small enough that an iterator input is never held whole.
_PUSH_MANY_CHUNK = 4096


def out_of_order(last_t: float, t: float) -> ValueError:
    """The error every kernel raises for a timestamp that goes backwards.

    Kernels test ``not (t >= last_t)`` rather than ``t < last_t`` so that a
    NaN timestamp is rejected too.
    """
    return ValueError(
        f"points must be non-decreasing in time ({last_t} then {t})"
    )


class CompressorBase(abc.ABC):
    """Shared machinery for online compressors: one kernel, three adapters.

    Subclasses implement :meth:`_ingest_xyt`, the columnar decision kernel
    that folds a batch of fixes into the stream, and :meth:`_flush`, the key
    points emitted at end of stream.  :meth:`push`, :meth:`push_many` and
    :meth:`push_xyt` are thin adapters over the kernel; the base class owns
    key-point ordering, counting, stats and lifecycle.
    """

    #: Short identifier; subclasses override.
    name: str = "base"

    def __init__(
        self,
        epsilon: float = math.inf,
        metric: DistanceMetric = DistanceMetric.POINT_TO_LINE,
    ) -> None:
        if not (epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {epsilon!r}")
        self._epsilon = float(epsilon)
        self._metric = metric
        self._key_points: list[PlanePoint] = []
        self._count = 0
        self._last_t = -math.inf
        self._finished = False
        self._stats: dict[str, int] = {}
        #: Label of the last decision :meth:`_fold_stats` counted.
        self._decided_by = ""
        #: Last key point :meth:`_emit` dropped as a duplicate.
        self._dropped_key: PlanePoint | None = None

    # -- public interface ---------------------------------------------------

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def metric(self) -> DistanceMetric:
        return self._metric

    @property
    def pushed(self) -> int:
        """Number of points pushed so far."""
        return self._count

    @property
    def key_points(self) -> tuple[PlanePoint, ...]:
        """Key points committed so far (the stream tail is still open)."""
        return tuple(self._key_points)

    @property
    def buffered_points(self) -> int:
        """Points currently held in internal buffers (0 for O(1) algorithms)."""
        return 0

    @property
    def stats(self) -> dict[str, int]:
        """Per-decision counters accumulated during the stream."""
        return dict(self._stats)

    def push(self, point: PlanePoint) -> PushResult:
        """Fold one point into the stream and report what it decided.

        A one-fix batch through the kernel.  ``new_key_points`` holds the
        key point this arrival committed, even one that :meth:`_emit`
        dropped as a duplicate of the previous key point.
        """
        self._check_open()
        if not isinstance(point, PlanePoint):
            raise TypeError(f"push expects PlanePoint, got {type(point).__name__}")
        keys = self._key_points
        before = len(keys)
        index = self._count
        self._dropped_key = None
        self._ingest_xyt((point.t,), (point.x,), (point.y,), (point,))
        committed = tuple(keys[before:])
        if not committed and self._dropped_key is not None:
            committed = (self._dropped_key,)
        return PushResult(index, committed, self._decided_by)

    def push_many(self, points: Iterable[PlanePoint]) -> int:
        """Fold a batch of points into the stream; return how many were consumed.

        Same key points and stats as a loop of :meth:`push` calls, without
        a :class:`PushResult` or an ``isinstance`` check per point: the
        points reach the kernel as columns, in chunks, so an iterator input
        is never held whole.  Elements are trusted to be
        :class:`~repro.model.point.PlanePoint` instances; a wrong type fails
        with an ``AttributeError`` before its chunk is consumed.  Timestamp
        monotonicity is enforced on every point, and a violation consumes
        the valid prefix before raising ``ValueError``.
        """
        self._check_open()
        ingest = self._ingest_xyt
        it = iter(points)
        consumed = 0
        while chunk := list(islice(it, _PUSH_MANY_CHUNK)):
            consumed += ingest(
                [p.t for p in chunk],
                [p.x for p in chunk],
                [p.y for p in chunk],
                chunk,
            )
        return consumed

    def push_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Columnar batched entry point: fold flat ``(ts, xs, ys)`` columns in.

        The natural fit for :class:`~repro.model.columns.TrajectoryColumns`
        (pass ``cols.ts, cols.xs, cols.ys``) or any parallel float
        sequences; the columns go to the kernel as they are.  The kernel
        builds a ``PlanePoint(x, y, t)`` only for a fix it commits as a key
        point or keeps in state, so key points from this entry point carry
        ``z = 0``.

        Values are trusted: a non-finite coordinate surfaces as a
        ``ValueError`` only if its fix is materialized as a point (BQS's
        ``debug_audit`` mode materializes every fix it admits).  Timestamp
        monotonicity is always enforced on every fix, and a mid-batch
        violation consumes the valid prefix before raising.  Returns the
        number of fixes consumed.
        """
        self._check_open()
        n = len(ts)
        if len(xs) != n or len(ys) != n:
            raise ValueError(
                f"column length mismatch: ts={n}, xs={len(xs)}, ys={len(ys)}"
            )
        return self._ingest_xyt(ts, xs, ys)

    def finish(self) -> CompressedTrajectory:
        if self._finished:
            raise RuntimeError(f"{self.name}: finish() already called")
        for key in self._flush():
            self._emit(key)
        self._finished = True
        return CompressedTrajectory(
            key_points=tuple(self._key_points),
            original_count=self._count,
            metric=self._metric,
            tolerance=self._epsilon,
            algorithm=self.name,
            info=self._info(),
        )

    def reset(self) -> None:
        """Reset the shared state, then the subclass state via _reset()."""
        self._key_points = []
        self._count = 0
        self._last_t = -math.inf
        self._finished = False
        self._stats = {}
        self._reset()

    def compress(self, points: Iterable[PlanePoint]) -> CompressedTrajectory:
        """One-pass convenience driver: reset, push everything, finish.

        Routed through :meth:`push_many`, so the output is identical to a
        per-point push loop.  Like ``push_many`` — and unlike ``push`` —
        elements are trusted to be :class:`~repro.model.point.PlanePoint`
        instances; a wrong type fails with an ``AttributeError`` rather
        than ``push``'s ``TypeError``.
        """
        self.reset()
        self.push_many(points)
        return self.finish()

    # -- subclass contract --------------------------------------------------

    @abc.abstractmethod
    def _ingest_xyt(
        self,
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
        points: Sequence[PlanePoint] | None = None,
    ) -> int:
        """The decision kernel: fold a columnar batch in; return fixes consumed.

        Every entry point ends here.  The kernel reads each fix as floats
        from the columns.  ``points``, when given, holds each fix's source
        :class:`PlanePoint` (the object adapters pass it): a fix the kernel
        commits as a key point or keeps in state is taken from it, so its
        ``z`` survives; without it such a fix is built as
        ``PlanePoint(x, y, t)``.  Contract: raise :func:`out_of_order` on
        the first fix whose timestamp goes backwards, after consuming the
        fixes before it; leave key points, ``_count``, ``_last_t`` and
        stats consistent even when a fix raises; count decisions through
        :meth:`_fold_stats`.
        """

    @abc.abstractmethod
    def _flush(self) -> list[PlanePoint]:
        """Key points to emit when the stream ends (e.g. the open tail)."""

    def _reset(self) -> None:
        """Clear subclass state; default no-op for stateless compressors."""

    def _info(self) -> dict:
        """Extra info recorded on the output; defaults to the stats counters."""
        info: dict = {"decisions": dict(self._stats)}
        return info

    # -- helpers ------------------------------------------------------------

    def _check_open(self) -> None:
        if self._finished:
            raise RuntimeError(
                f"{self.name}: finish() already called; reset() to reuse"
            )

    def _fold_stats(self, counts: Sequence[int], labels: Sequence[str]) -> None:
        """Add a kernel call's per-decision counts to the stats counters.

        Also records the last label with a non-zero count in
        ``_decided_by``: for the one-fix batches :meth:`push` runs, that is
        the fix's decision.
        """
        stats = self._stats
        for label, n in zip(labels, counts):
            if n:
                stats[label] = stats.get(label, 0) + n
                self._decided_by = label

    def _emit(self, point: PlanePoint) -> None:
        """Append a key point, dropping exact consecutive duplicates."""
        if self._key_points:
            last = self._key_points[-1]
            if (
                last.x == point.x
                and last.y == point.y
                and last.t == point.t
            ):
                self._dropped_key = point
                return
        self._key_points.append(point)
