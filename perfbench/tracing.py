"""Span recorder and the wrappers that feed it, all outside the program.

The benchmark never edits ``repro``: every span is recorded around a call
the benchmark makes, or around an object or module attribute it hands to
the program.  Four kinds of wrapper exist:

* :class:`TracedFactory` — a compressor-factory proxy; each compressor it
  builds times ``push_xyt`` and ``finish``.
* :class:`TracedJournal` — a :class:`~repro.engine.journal.FixJournal`
  subclass timing every public journal call.
* :class:`TracedStore` — a :class:`~repro.storage.store.TrajectoryStore`
  subclass timing ``append``, ``candidates`` (per pulled candidate) and
  ``read``.
* :func:`patched` — module-attribute wrappers for ``FeedSanitizer``,
  ``UTMProjection.forward_columns``, ``geo_rect_to_plane``,
  ``geo_envelope_of`` and ``decode_trajectory``, installed only for the
  duration of a traced run.

A span's *self time* is its duration minus the time of the spans nested
in it.  Batch- and query-level spans are kept one by one; the many small
calls inside them are kept as one aggregate per ``(parent, name)`` with
a call count, so tracing a run of a million layer calls stays cheap.
Worker processes trace into their own recorder (:func:`worker_tracer`)
and write it next to the parent's at exit; :func:`merge` folds them in.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List

from repro.engine.journal import FixJournal
from repro.storage.store import StoreSink, TrajectoryStore

_now = time.perf_counter_ns


class Tracer:
    """In-memory spans plus named counters for one process.

    ``spans`` rows are ``[id, name, start_ns, end_ns, parent, group,
    child_ns]`` for the spans opened with :meth:`span`; ``aggregates`` maps ``(parent,
    name)`` to ``[calls, total_ns, self_ns]`` for the calls recorded with
    :meth:`call`.  ``parent`` is the enclosing span's id (0 for the
    traced region itself) or, for an aggregate nested in an aggregate, the
    enclosing aggregate's key.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.aggregates: Dict[tuple, list] = {}
        self.counts: Dict[str, float] = {}
        #: Open frames, innermost last: ``[key, child_ns]``.
        self._stack: List[list] = [[0, 0]]
        self._next_id = 1
        self.wall_ns = 0

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextmanager
    def region(self) -> Iterator[None]:
        """The traced wall: everything the self times must add back to."""
        start = _now()
        try:
            yield
        finally:
            self.wall_ns += _now() - start

    @contextmanager
    def span(self, name: str, group=None) -> Iterator[None]:
        """One kept span (a batch, a query); ``group`` ties related spans."""
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        parent = stack[-1]
        frame = [span_id, 0]
        stack.append(frame)
        start = _now()
        try:
            yield
        finally:
            end = _now()
            stack.pop()
            parent[1] += end - start
            self.spans.append([span_id, name, start, end, parent[0], group, frame[1]])

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside an aggregate span ``name``."""
        stack = self._stack
        parent = stack[-1]
        key = (parent[0], name)
        frame = [key, 0]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _now() - start
            stack.pop()
            parent[1] += elapsed
            row = self.aggregates.get(key)
            if row is None:
                self.aggregates[key] = [1, elapsed, elapsed - frame[1]]
            else:
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - frame[1]

    # -- summaries -------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        out: Dict[str, float] = {}
        for _, name, start, end, _, _, child in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child) / 1e9
        for (_, name), (_, _, self_ns) in self.aggregates.items():
            out[name] = out.get(name, 0.0) + self_ns / 1e9
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for _, name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        for (_, name), (n, _, _) in self.aggregates.items():
            out[name] = out.get(name, 0) + n
        return out

    def unattributed_seconds(self) -> float:
        """Traced wall not covered by any span."""
        return (self.wall_ns - self._stack[0][1]) / 1e9

    def to_json(self) -> dict:
        return {
            "pid": os.getpid(),
            "wall_ns": self.wall_ns,
            "spans": [
                {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": p,
                 "group": g}
                for i, n, s, e, p, g, _ in self.spans
            ],
            "aggregates": [
                {"parent": repr(parent), "name": name, "calls": c,
                 "total_ns": t, "self_ns": s}
                for (parent, name), (c, t, s) in self.aggregates.items()
            ],
            "counts": self.counts,
        }

    def write(self, path: str | os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)


def merge(paths) -> Dict[str, dict]:
    """Fold per-worker trace files into per-name self times and counts."""
    self_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        for row in doc["aggregates"]:
            self_s[row["name"]] = self_s.get(row["name"], 0.0) + row["self_ns"] / 1e9
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return {"self_s": self_s, "counts": counts}


#: One recorder per worker process, created on first use in that process
#: (a forked worker must not inherit the parent's half-filled recorder).
_worker_tracers: Dict[int, Tracer] = {}


def worker_tracer() -> Tracer:
    pid = os.getpid()
    tracer = _worker_tracers.get(pid)
    if tracer is None:
        tracer = _worker_tracers[pid] = Tracer()
    return tracer


# -- compressor-factory proxy ----------------------------------------------


class TracedCompressor:
    """Times one compressor's ``push_xyt``/``finish``; forwards the rest."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    @property
    def pushed(self) -> int:
        return self._inner.pushed

    def push_xyt(self, ts, xs, ys):
        tracer = self._tracer
        tracer.count("compress.push_calls")
        tracer.count("compress.fixes", len(ts))
        return tracer.call("compress", self._inner.push_xyt, ts, xs, ys)

    def finish(self):
        tracer = self._tracer
        trajectory = tracer.call("compress", self._inner.finish)
        tracer.count("compress.key_points", len(trajectory.key_points))
        stats = self._inner.stats
        tracer.count("compress.decisions", sum(stats.values()))
        tracer.count(
            "compress.exact",
            stats.get("exact_accept", 0) + stats.get("exact_commit", 0),
        )
        return trajectory

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedFactory:
    """Compressor-factory proxy; picklable when ``inner`` is.

    ``tracer=None`` records into the current process's
    :func:`worker_tracer` — the form shipped to sharded workers.
    """

    def __init__(self, inner: Callable, tracer: Tracer | None = None) -> None:
        self.inner = inner
        self.tracer = tracer

    def __call__(self, device_id):
        tracer = self.tracer if self.tracer is not None else worker_tracer()
        return TracedCompressor(self.inner(device_id), tracer)


# -- journal and store subclasses ------------------------------------------


class TracedJournal(FixJournal):
    """A write-ahead journal whose public calls are spans ``journal``."""

    def __init__(self, directory, tracer: Tracer, **kwargs) -> None:
        self._tracer = tracer
        super().__init__(directory, **kwargs)

    def log_push(self, groups):
        return self._tracer.call("journal", super().log_push, groups)

    def log_seal(self, device_id):
        return self._tracer.call("journal", super().log_seal, device_id)

    def log_finish(self, device_id):
        return self._tracer.call("journal", super().log_finish, device_id)

    def log_finish_all(self):
        return self._tracer.call("journal", super().log_finish_all)

    def rotate(self):
        # Rotation unlinks the segments; count their bytes first.
        self._tracer.count("journal.bytes", self.total_bytes())
        return self._tracer.call("journal", super().rotate)


class TracedStore(TrajectoryStore):
    """A store whose ``append``/``candidates``/``read`` are spans.

    ``candidates`` is a generator the query loop interleaves with reads,
    so each pulled candidate is its own ``index.candidates`` call.
    """

    def __init__(self, directory, tracer: Tracer, **kwargs) -> None:
        self._tracer = tracer
        super().__init__(directory, **kwargs)

    def append(self, device_id, trajectory, **kwargs):
        tracer = self._tracer
        ref = tracer.call("store.append", super().append, device_id, trajectory, **kwargs)
        tracer.count("store.records")
        tracer.count("store.bytes_written", ref.length)
        return ref

    def candidates(self, **kwargs):
        tracer = self._tracer
        pull = super().candidates(**kwargs).__next__
        while True:
            try:
                ref = tracer.call("index.candidates", pull)
            except StopIteration:
                return
            tracer.count("index.candidates")
            yield ref

    def read(self, ref):
        return self._tracer.call("store.read", super().read, ref)


class TracedStoreSink(StoreSink):
    """Per-worker store sink that writes the worker's trace when closed."""

    def __init__(self, directory, trace_path: str) -> None:
        super().__init__(TracedStore(directory, worker_tracer()))
        self._trace_path = trace_path

    def close(self) -> None:
        self.store.close()
        worker_tracer().write(self._trace_path)


def traced_shard_sink(base_directory: str, trace_directory: str, shard: int):
    """Sharded ``sink_factory`` for the traced run (mirrors
    :func:`~repro.storage.store.shard_store_sink`)."""
    return TracedStoreSink(
        Path(base_directory) / f"shard-{shard:04d}",
        str(Path(trace_directory) / f"worker-{shard:04d}.json"),
    )


# -- module-attribute wrappers ---------------------------------------------


def _timed(tracer: Tracer, name: str, fn: Callable, count=None) -> Callable:
    def wrapper(*args, **kwargs):
        if count is not None:
            count(tracer, args)
        return tracer.call(name, fn, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _sanitizer_class(base, tracer: Tracer):
    class TracedSanitizer(base):
        __slots__ = ()

        def process(self, ts, xs, ys):
            return tracer.call("sanitize", super().process, ts, xs, ys)

        def flush(self):
            return tracer.call("sanitize", super().flush)

    return TracedSanitizer


def _count_coords(tracer: Tracer, args) -> None:
    tracer.count("project.coords", len(args[1]))


@contextmanager
def patched(tracer: Tracer, names) -> Iterator[None]:
    """Install the named module-attribute wrappers; restore them on exit.

    ``names`` picks from ``sanitize``, ``project``, ``rect_project``,
    ``envelope`` and ``decode``.
    """
    import repro.engine.core as core
    import repro.model.projection as projection
    import repro.storage.query as query
    import repro.storage.store as store

    table = {
        "sanitize": (core, "FeedSanitizer",
                     lambda f: _sanitizer_class(f, tracer)),
        "project": (projection.UTMProjection, "forward_columns",
                    lambda f: _timed(tracer, "project", f, _count_coords)),
        "rect_project": (query, "geo_rect_to_plane",
                         lambda f: _timed(tracer, "query.rect_project", f)),
        "envelope": (query, "geo_envelope_of",
                     lambda f: _timed(tracer, "query.envelope", f)),
        "decode": (store, "decode_trajectory",
                   lambda f: _timed(tracer, "codec.decode", f)),
    }
    saved = []
    try:
        for name in names:
            owner, attr, make = table[name]
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
