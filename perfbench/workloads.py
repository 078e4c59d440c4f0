"""The three workloads: set up, run the timed loop, collect outputs.

Each ``run_*`` function takes the workload's input directory (written
by :func:`perfbench.inputs.generate`), a scratch directory, the seed and
an optional :class:`~perfbench.tracing.Tracer`; ``audit`` runs the
workload's correctness audit after the timed part, and ``factory_wrap``
and ``query_fn`` let the self-tests plant faults.  Untraced, a run times
its set-up and its closed loop of operations, and times the host's
reference loop (:func:`reference`) next to them; traced, it installs the
wrappers and records spans instead.  Both return a :class:`Result`.
Only public ``repro`` API is called, with as few keyword options as the
workload needs.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

from repro.engine import GeoStreamEngine, SanitizePolicy, ShardedStreamEngine
from repro.storage import (
    StoreSink,
    TrajectoryStore,
    geo_range_query,
)

from . import audits, tracing
from .inputs import EPSILON, factory, load_columns, tree_bytes

#: Set-up is a few milliseconds; repeat it and report the median (an
#: untraced run only: ``setup_s`` never comes from a traced one).
SETUP_REPS = 15
#: The live gateway's sanitation policy.
POLICY = SanitizePolicy(max_speed_mps=50, gap_seconds=60)
#: Iterations of the reference loop (about 1 ms here).
REFERENCE_ITERATIONS = 15_000
#: Reference loops timed before and after a round's operations.
EDGE_REFERENCES = 9

_clock = time.perf_counter


def reference() -> float:
    """Time a fixed pure-Python loop: the host's speed right now.

    The loop runs no ``repro`` code and its working set fits in the L1
    cache, so no change to the program — not even to how much memory the
    program touches — can move it; only the host can.  About 1 ms.
    """
    start = _clock()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return _clock() - start


def setup_reference(directory: Path) -> float:
    """Time the file-system calls a set-up makes, with the stdlib alone:
    create a directory, write and close a small file, list the directory.

    live_gps's set-up (journal and store directories, files) is
    syscall-bound, and the kernel's speed here drifts apart from the CPU
    loop's: over twelve bursts of identical set-ups, scaling by this
    reference cut their spread from 70% to 19%.
    """
    start = _clock()
    directory.mkdir(parents=True)
    with open(directory / "probe", "wb") as handle:
        handle.write(bytes(64))
        handle.flush()
    os.listdir(directory)
    elapsed = _clock() - start
    shutil.rmtree(directory)
    return elapsed


@dataclass
class Result:
    """What one round of a workload measured and produced."""

    ops: int = 0  #: fixes offered (ingest) or queries (geo_query)
    calls: int = 0  #: push_columns calls or queries
    failed_calls: int = 0
    latencies_s: List[float] = field(default_factory=list)
    #: Reference-loop time right after each operation (untraced).
    reference_s: List[float] = field(default_factory=list)
    #: Reference-loop times before and after the round's operations.
    edge_reference_s: List[float] = field(default_factory=list)
    #: Time after the last operation: finish, close (0 for queries).
    tail_s: float = 0.0
    #: Traced: the part of the traced region the runner timed itself
    #: (operations, tail, the cold open), to check the trace's wall by.
    clocked_s: float = 0.0
    setup_s: List[float] = field(default_factory=list)
    #: Reference time right after each set-up: :func:`setup_reference`
    #: on live_gps, :func:`reference` on the others.
    setup_reference_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    fixes: int = 0  #: raw fixes behind the store
    key_points: int = 0
    store_bytes: int = 0
    digests: Dict[str, str] = field(default_factory=dict)
    audits: Dict[str, List[str]] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        """Operations plus tail, without the reference loops."""
        return sum(self.latencies_s) + self.tail_s


def _status_kb(pid: int | str, key: str) -> int:
    """A ``/proc/<pid>/status`` memory field (``VmRSS``, ``VmHWM``) in kB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _reset_peak(pid: int | str = "self") -> int:
    """Reset a process's peak-resident mark (``VmHWM``) to its resident
    size now, and return that size in kB.

    Writing 5 to ``clear_refs`` does the reset, so a later ``VmHWM``
    holds only what was resident from here on, not the benchmark's own
    earlier peaks (loading the inputs, an earlier workload's run).
    """
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return _status_kb(pid, "VmRSS")


def _baseline_kb() -> int:
    gc.collect()
    return _reset_peak()


def sharded_workers() -> int:
    """Workers of the sharded engine: one per usable core but one, which
    the parent keeps for encoding and shipping the batches.

    A worker per core would put three busy processes on two cores, and
    the wall would measure the scheduler: round walls spread 16-19%
    that way against 4-7% with one worker fewer.
    """
    return max(1, len(os.sched_getaffinity(0)) - 1)


def _span(tracer, name: str, group=None):
    return nullcontext() if tracer is None else tracer.span(name, group)


def _timed_loop(result: Result, tracer, name: str, operations, call: Callable,
                tail: Callable, after: Callable | None = None) -> None:
    """The closed loop: each operation starts when the previous returned.

    ``after(operation, returned)`` runs outside the operation's time.
    The reference loop runs before and after the loop and, untraced,
    after every operation, outside the operation's time.  Traced, every operation is a span ``name``, and the operations
    and the tail are the traced region: the bookkeeping between
    operations is not.
    """
    untraced = tracer is None
    region = nullcontext if untraced else tracer.region
    result.edge_reference_s += [reference() for _ in range(EDGE_REFERENCES)]
    for i, operation in enumerate(operations):
        returned = None
        with region():
            start = _clock()
            try:
                with _span(tracer, name, i):
                    returned = call(operation)
            except ValueError:
                result.failed_calls += 1
            result.latencies_s.append(_clock() - start)
        if after is not None:
            after(operation, returned)
        if untraced:
            result.reference_s.append(reference())
    with region():
        start = _clock()
        tail()
        result.tail_s = _clock() - start
    result.clocked_s += result.wall_s
    result.edge_reference_s += [reference() for _ in range(EDGE_REFERENCES)]


def _batches(columns, size: int) -> list:
    ids, ts, c1, c2 = columns
    return [
        (ids[s:s + size], ts[s:s + size], c1[s:s + size], c2[s:s + size])
        for s in range(0, len(ids), size)
    ]


def _store_outputs(result: Result, directories) -> None:
    digests = []
    for directory in directories:
        with TrajectoryStore(directory) as store:
            result.key_points += store.key_point_count
            digests.append(store.content_digest())
        result.store_bytes += tree_bytes(directory)
    result.digests["store"] = hashlib.sha256(
        "".join(digests).encode()
    ).hexdigest()


def _compress_layer(self_s: Dict[str, float], counts: Dict[str, float]) -> dict:
    push_calls = counts.get("compress.push_calls", 0)
    decisions = counts.get("compress.decisions", 0)
    return {
        "compress.self_s": self_s.get("compress", 0.0),
        "compress.calls": push_calls,
        "compress.fixes_per_call": (
            counts.get("compress.fixes", 0) / push_calls if push_calls else 0.0
        ),
        "compress.key_points": counts.get("compress.key_points", 0),
        "compress.exact_share": (
            counts.get("compress.exact", 0) / decisions if decisions else 0.0
        ),
    }


def _append_layer(self_s: Dict[str, float], counts: Dict[str, float]) -> dict:
    return {
        "store.append_s": self_s.get("store.append", 0.0),
        "store.records": counts.get("store.records", 0),
        "store.bytes_written": counts.get("store.bytes_written", 0),
    }


# -- live_gps --------------------------------------------------------------


def run_live_gps(inputs: Path, scratch: Path, meta: dict, seed: int,
                 tracer: tracing.Tracer | None = None, audit: bool = True,
                 factory_wrap: Callable | None = None) -> Result:
    """Raw GPS, one batch per fleet tick, sanitized, journaled, stored."""
    columns = load_columns(inputs)
    offered = len(columns[0])
    batches = _batches(columns, meta["batch"])
    devices_per_batch = statistics.fmean(len(set(b[0])) for b in batches)
    del columns
    result = Result(ops=offered, calls=len(batches), fixes=offered)
    make = factory() if factory_wrap is None else factory_wrap(factory())
    if tracer is not None:
        make = tracing.TracedFactory(make, tracer)
    base_kb = _baseline_kb()
    reps = SETUP_REPS if tracer is None else 1
    for rep in range(reps):
        run_dir = scratch / f"live-{rep}"
        start = _clock()
        if tracer is None:
            store = None
            sink = StoreSink(run_dir / "store")
            journal = run_dir / "wal"
        else:
            # The sink flushes a store it was handed; the run closes it.
            store = tracing.TracedStore(run_dir / "store", tracer)
            sink = StoreSink(store)
            journal = tracing.TracedJournal(run_dir / "wal", tracer, geodetic=True)
        engine = GeoStreamEngine(
            make, policy=POLICY, journal=journal, sink=sink, collect=False
        )
        result.setup_s.append(_clock() - start)
        result.setup_reference_s.append(setup_reference(scratch / f"probe-{rep}"))
        if rep < reps - 1:
            engine.journal.close()
            sink.close()
            if store is not None:
                store.close()

    def push(batch) -> None:
        engine.push_columns(*batch)

    def tail() -> None:
        with _span(tracer, "engine.finish"):
            engine.finish_all()
        with _span(tracer, "store.close"):
            sink.close()
            if store is not None:
                store.close()

    patches = () if tracer is None else ("sanitize", "project")
    with nullcontext() if tracer is None else tracing.patched(tracer, patches):
        _timed_loop(result, tracer, "engine.push", batches, push, tail)
    result.peak_rss_mb = (_status_kb("self", "VmHWM") - base_kb) / 1024.0
    engine.journal.close()
    report = engine.feed_report()
    if audit:
        result.audits["feed_ledger"] = audits.feed_ledger(
            report, meta["summary"], offered
        )
    _store_outputs(result, [run_dir / "store"])
    if tracer is not None:
        self_s, calls, counts = tracer.self_seconds(), tracer.calls(), tracer.counts
        result.layer.update({
            "dispatch.self_s": self_s.get("engine.push", 0.0)
            + self_s.get("engine.finish", 0.0),
            "dispatch.devices_per_batch": devices_per_batch,
            "sanitize.self_s": self_s.get("sanitize", 0.0),
            "sanitize.fixes_in": report.fixes_in,
            "sanitize.fixes_out": report.fixes_out,
            "sanitize.dropped": report.dropped_total,
            "project.self_s": self_s.get("project", 0.0),
            "project.calls": calls.get("project", 0),
            "project.coords": counts.get("project.coords", 0),
            "journal.self_s": self_s.get("journal", 0.0),
            "journal.bytes_per_fix": counts.get("journal.bytes", 0) / offered,
            "store.close_s": self_s.get("store.close", 0.0),
        })
        result.layer.update(_compress_layer(self_s, counts))
        result.layer.update(_append_layer(self_s, counts))
    return result


# -- bulk_sharded ----------------------------------------------------------


class PeakStoreSink(StoreSink):
    """A shard's store sink that also records its worker's peak resident
    growth: from when the worker built the sink, first thing after it was
    spawned, to when it closes the sink, last thing before it exits.

    What a worker shares with the parent at fork is already in the
    parent's baseline, so only the growth counts.
    """

    def __init__(self, directory: Path, peak_path: Path) -> None:
        self._base_kb = _reset_peak()
        self._peak_path = peak_path
        super().__init__(directory)

    def close(self) -> None:
        super().close()
        grown = _status_kb("self", "VmHWM") - self._base_kb
        self._peak_path.write_text(str(grown))


def peak_shard_sink(base_directory: str, shard: int) -> PeakStoreSink:
    """Sharded ``sink_factory`` of the untraced run: the store of
    :func:`~repro.storage.shard_store_sink`, plus the worker's peak in
    ``peak-<shard>.kb`` beside it."""
    base = Path(base_directory)
    return PeakStoreSink(base / f"shard-{shard:04d}", base / f"peak-{shard:04d}.kb")


def run_bulk_sharded(inputs: Path, scratch: Path, meta: dict, seed: int,
                     tracer: tracing.Tracer | None = None, audit: bool = True,
                     factory_wrap: Callable | None = None) -> Result:
    """Clean planar fleet, ~60 ticks per call, sharded over the cores."""
    columns = load_columns(inputs)
    offered = len(columns[0])
    batches = _batches(columns, meta["batch"])
    del columns
    result = Result(ops=offered, calls=len(batches), fixes=offered)
    workers = sharded_workers()
    make = factory() if factory_wrap is None else factory_wrap(factory())
    if tracer is not None:
        make = tracing.TracedFactory(make)
    trace_dir = scratch / "worker-traces"
    base_kb = _baseline_kb()
    reps = SETUP_REPS if tracer is None else 1
    for rep in range(reps):
        stores = scratch / f"bulk-{rep}"
        if tracer is None:
            sinks = functools.partial(peak_shard_sink, str(stores))
        else:
            trace_dir.mkdir(parents=True)
            sinks = functools.partial(
                tracing.traced_shard_sink, str(stores), str(trace_dir)
            )
        start = _clock()
        engine = ShardedStreamEngine(
            make, workers=workers, collect=False, sink_factory=sinks
        )
        result.setup_s.append(_clock() - start)
        # Spawning tracks the CPU loop, not the file-system probe.
        result.setup_reference_s.append(reference())
        if rep < reps - 1:
            engine.close()

    def push(batch) -> None:
        engine.push_columns(*batch)

    def tail() -> None:
        with _span(tracer, "shard.finish"):
            engine.finish_all()

    try:
        # The reference loop runs in the parent after every call, on the
        # core it keeps; the worker compresses on meanwhile, so the next
        # call waits up to one loop (~0.5% of a call) less.
        _timed_loop(result, tracer, "shard.push", batches, push, tail)
    finally:
        engine.close()
    parent_kb = _status_kb("self", "VmHWM") - base_kb
    if tracer is None:
        workers_kb = sum(
            int((stores / f"peak-{s:04d}.kb").read_text()) for s in range(workers)
        )
        result.peak_rss_mb = (parent_kb + workers_kb) / 1024.0
    if audit:
        result.audits["epsilon_bound"] = audits.epsilon_bound(
            stores, workers, *load_columns(inputs), EPSILON, seed
        )
    _store_outputs(result, [stores / f"shard-{s:04d}" for s in range(workers)])
    if tracer is not None:
        stats = engine.transport_stats()
        merged = tracing.merge(sorted(trace_dir.glob("worker-*.json")))
        self_s = tracer.self_seconds()
        fixes = [s["fixes"] for s in stats]
        result.layer.update({
            "shard.push_s": self_s.get("shard.push", 0.0),
            "shard.finish_s": self_s.get("shard.finish", 0.0),
            "shard.skew": max(fixes) / statistics.fmean(fixes),
            "shard.worker_compress_s": merged["self_s"].get("compress", 0.0),
            "transport.frames": sum(s["frames"] for s in stats),
            "transport.bytes_per_fix": sum(s["bytes"] for s in stats) / offered,
            "transport.ring_waits": sum(s["ring_waits"] for s in stats),
            "transport.window_waits": sum(s["window_waits"] for s in stats),
            "transport.ack_wait_s": sum(s["ack_wait_seconds"] for s in stats),
            "transport.ack_us_p99": max(s["ack_us_p99"] for s in stats),
        })
        result.layer.update(_compress_layer(merged["self_s"], merged["counts"]))
        result.layer.update(_append_layer(merged["self_s"], merged["counts"]))
    return result


# -- geo_query -------------------------------------------------------------


def _answer_bytes(matches) -> bytes:
    return "".join(
        f"{m.ref.segment}:{m.ref.offset}:{int(m.definite)}:{m.geo_envelope!r};"
        for m in matches
    ).encode() + b"|"


def run_geo_query(inputs: Path, scratch: Path, meta: dict, seed: int,
                  tracer: tracing.Tracer | None = None, audit: bool = True,
                  query_fn: Callable = geo_range_query) -> Result:
    """Seeded lat/lon range queries over the fixture store."""
    queries = json.loads((inputs / "queries.json").read_text())
    calls = [
        (tuple(q["rect"]), {"mode": q["mode"]} if q["window"] is None else
         {"mode": q["mode"], "t0": q["window"][0], "t1": q["window"][1]})
        for q in queries
    ]
    fixture = inputs / "store"
    result = Result(ops=len(calls), calls=len(calls), fixes=meta["fixes"])
    base_kb = _baseline_kb()
    if tracer is None:
        for rep in range(SETUP_REPS):
            start = _clock()
            store = TrajectoryStore(fixture)
            result.setup_s.append(_clock() - start)
            # The open parses the index sidecars: CPU-bound, so it is
            # referenced by the CPU loop, not the file-system probe.
            result.setup_reference_s.append(reference())
            if rep < SETUP_REPS - 1:
                store.close()
    else:
        with tracer.region():
            start = _clock()
            with tracer.span("store.open"):
                store = tracing.TracedStore(fixture, tracer)
            result.clocked_s += _clock() - start
    answers = hashlib.sha256()
    exact = {"matches": 0, "candidates": 0}

    candidates_before = 0

    def query(call):
        nonlocal candidates_before
        if tracer is not None:
            candidates_before = tracer.counts.get("index.candidates", 0)
        return query_fn(store, call[0], **call[1])

    def after(call, matches) -> None:
        matches = matches or []
        answers.update(_answer_bytes(matches))
        if tracer is not None and call[1]["mode"] == "exact":
            exact["matches"] += len(matches)
            exact["candidates"] += (
                tracer.counts.get("index.candidates", 0) - candidates_before
            )

    patches = () if tracer is None else ("rect_project", "envelope", "decode")
    with nullcontext() if tracer is None else tracing.patched(tracer, patches):
        _timed_loop(result, tracer, "query", calls, query, lambda: None,
                    after=after)
    result.peak_rss_mb = (_status_kb("self", "VmHWM") - base_kb) / 1024.0
    store.close()
    if tracer is not None:
        self_s, calls_by, counts = tracer.self_seconds(), tracer.calls(), tracer.counts
        n = len(calls)
        result.layer.update({
            "store.open_s": self_s.get("store.open", 0.0),
            "store.read_s": self_s.get("store.read", 0.0),
            "codec.decode_s": self_s.get("codec.decode", 0.0),
            "codec.records_decoded": calls_by.get("codec.decode", 0),
            "index.candidates_s": self_s.get("index.candidates", 0.0),
            "index.candidates_per_query": counts.get("index.candidates", 0) / n,
            "index.hit_ratio": (
                exact["matches"] / exact["candidates"] if exact["candidates"] else 0.0
            ),
            "query.rect_project_s": self_s.get("query.rect_project", 0.0),
            "query.frames_per_query": calls_by.get("query.rect_project", 0) / n,
            "query.envelope_s": self_s.get("query.envelope", 0.0),
            "query.self_s": self_s.get("query", 0.0),
        })
    result.digests["answers"] = answers.hexdigest()
    result.digests["store"] = meta["store_digest"]
    result.key_points = meta["key_points"]
    result.store_bytes = meta["store_bytes"]
    if audit:
        # Audit through a plain store, so no audit call lands in the trace.
        ids, ts, lats, lons = load_columns(inputs)
        with TrajectoryStore(fixture) as plain:
            result.audits["query_containment"] = audits.query_containment(
                plain, query_fn, queries, ids, ts, lats, lons, seed
            )
    return result


RUNNERS = {
    "live_gps": run_live_gps,
    "bulk_sharded": run_bulk_sharded,
    "geo_query": run_geo_query,
}
