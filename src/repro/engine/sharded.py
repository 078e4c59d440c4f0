"""Sharded multi-core fleet engine: hash(device) → worker process.

:class:`ShardedStreamEngine` runs one :class:`~repro.engine.core.
StreamEngine` per worker process and routes every device to exactly one
worker by a stable hash of its id, so per-device fix order — and therefore
per-device output — is preserved no matter how batches interleave.

Fix batches cross the process boundary as pickled columnar ``array('d')``
payloads over ``multiprocessing`` pipes, one message per shard per batch,
and are regrouped per device worker-side.  Output is bit-identical to the
single-process engine (the equivalence tests pin this); what sharding buys
is CPU scale-out — each worker burns its own core.  On a single-core host
the process hop is overhead, so expect speedups only when ``workers`` ≤
available cores; the fleet benchmark records both regimes honestly.

``compressor_factory`` must be picklable (a module-level function or a
``functools.partial`` over one), since it is shipped to the workers once at
start-up.

Crash supervision
-----------------

A worker process can die mid-stream (OOM kill, a segfault in a native
extension, an operator's ``kill -9``).  The engine always *detects* that
— a broken pipe or an EOF on the reply channel surfaces as a typed
:class:`ShardCrashError` naming the shard, its exit code, and the device
ids routed to it — and can optionally *survive* it: with ``journal_dir``
every worker journals its accepted batches to a per-shard
:class:`~repro.engine.journal.FixJournal`, and ``restart_workers=N``
allows up to N restarts per shard, where the parent respawns the worker,
the worker rebuilds its pre-crash state by replaying its shard journal
(``StreamEngine.recover``), and the parent re-drives the batches the
dead worker never journaled from its pending-acknowledgement buffer.
Supervised pushes are sequence-numbered and acknowledged after they are
journaled, so the buffer stays small and the re-drive is exact: no
acknowledged fix lost, none applied twice.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import zlib
from array import array
from typing import Callable, Dict, Iterable, List, Sequence

from ..model.trajectory import CompressedTrajectory
from .core import DeviceId, Fix, StreamEngine
from .sanitize import FeedReport, SanitizePolicy

__all__ = [
    "ShardCrashError",
    "ShardedStreamEngine",
    "shard_of",
]

#: Cap on retained per-batch ack-latency samples (enough for any bench
#: run; pathological batch counts stop sampling, not ingesting).
_MAX_LATENCY_SAMPLES = 65536


class ShardCrashError(RuntimeError):
    """A shard worker died mid-ingest (and could not be restarted).

    Subclasses ``RuntimeError`` so existing ``except RuntimeError``
    handling keeps working; the message always starts with ``"sharded
    ingestion failed: "``.

    Attributes:
        shard: index of the dead worker.
        exitcode: the worker process's exit code (negative = killed by
            that signal), or ``None`` if it could not be reaped.
        device_ids: the device ids routed to that shard this run — the
            devices whose unsealed streams the crash affected.
    """

    def __init__(
        self,
        message: str,
        *,
        shard: int,
        exitcode: int | None = None,
        device_ids: tuple = (),
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode
        self.device_ids = device_ids


def shard_of(device_id: DeviceId, workers: int) -> int:
    """Stable shard index of a device (crc32, not ``hash``: the builtin is
    salted per process and would re-shard devices on every restart)."""
    if isinstance(device_id, bytes):
        payload = device_id
    else:
        payload = str(device_id).encode("utf-8", "surrogatepass")
    return zlib.crc32(payload) % workers


def _shard_journal_path(journal_dir, shard: int) -> str:
    return os.path.join(os.fspath(journal_dir), f"shard-{shard:04d}")


class _ShardStats:
    """Per-shard transport counters (parent-side, cheap to update)."""

    __slots__ = ("frames", "fixes", "acks", "ack_lat")

    def __init__(self) -> None:
        self.frames = 0
        self.fixes = 0
        self.acks = 0
        self.ack_lat: List[float] = []


def _percentile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[int(q * (len(sorted_values) - 1))]


def _worker_main(
    conn,
    compressor_factory,
    engine_kwargs,
    sink_factory,
    shard,
    geodetic,
    journal_dir=None,
    journal_fsync=False,
    supervised=False,
    recover=False,
) -> None:
    """Worker loop: apply columnar pushes, answer ``finish`` with results.

    On an ingestion error the worker reports once, then keeps draining
    messages (discarding further pushes) so the parent never blocks on a
    full pipe; the error is re-raised parent-side at ``finish_all``.

    When a ``sink_factory`` is configured, the worker owns its shard's
    sink: built here (sinks — a store handle, a socket — generally cannot
    cross a process boundary, but a factory can), fed every sealed stream
    through the engine, and closed after ``finish`` so buffered output is
    durable before the parent sees the results.

    With ``geodetic``, the worker hosts a :class:`~repro.engine.geodetic.
    GeoStreamEngine`: the pushed coordinate columns are degrees, each
    device's UTM zone is selected worker-side from its first fix, and the
    projection work parallelizes with the compression.  Both engines share
    the ``push_columns`` shape, so the message protocol is engine-agnostic.

    Message tags: ``push`` carries one pickled columnar batch, ``finish``
    seals the shard and returns its results.

    With ``journal_dir`` the worker's engine journals into its own
    per-shard directory.  ``supervised`` switches the protocol to
    sequence-numbered pushes: the worker opens with ``("ready",
    journal_seq)`` (after replaying the shard journal when ``recover``),
    and acknowledges every push once it is journaled — the parent's
    restart logic prunes its pending buffer on those acks and re-drives
    the unacknowledged tail after a respawn.
    """
    failure: str | None = None
    sink = None
    engine = None
    try:
        if sink_factory is not None:
            sink = sink_factory(shard)
        if geodetic:
            from .geodetic import GeoStreamEngine as engine_cls
        else:
            engine_cls = StreamEngine
        if journal_dir is not None:
            journal_path = _shard_journal_path(journal_dir, shard)
            if recover:
                # The shard's own durable store (when its sink is one)
                # closes the emit-before-checkpoint window during replay.
                dedupe = (
                    getattr(sink, "store", None)
                    if getattr(sink, "durable", False)
                    else None
                )
                engine = engine_cls.recover(
                    journal_path,
                    compressor_factory,
                    sink=sink,
                    dedupe_store=dedupe,
                    journal_fsync=journal_fsync,
                    **engine_kwargs,
                )
            else:
                engine = engine_cls(
                    compressor_factory,
                    sink=sink,
                    journal=journal_path,
                    journal_fsync=journal_fsync,
                    **engine_kwargs,
                )
        else:
            engine = engine_cls(compressor_factory, sink=sink, **engine_kwargs)
    except Exception as exc:
        failure = f"{type(exc).__name__}: {exc}"
        engine = None
    try:
        if supervised:
            base = 0
            if engine is not None and engine.journal is not None:
                base = engine.journal.last_seq
            conn.send(("ready", base))
        while True:
            message = conn.recv()
            tag = message[0]
            if tag == "push":
                if supervised:
                    seq, ids, ts, xs, ys = message[1:]
                else:
                    seq, (ids, ts, xs, ys) = None, message[1:]
                if failure is None:
                    try:
                        engine.push_columns(ids, ts, xs, ys)
                    except Exception as exc:  # reported, not fatal to the pipe
                        failure = f"{type(exc).__name__}: {exc}"
                if supervised:
                    # Ack after the journal frame landed (the engine
                    # journals write-ahead, so even a batch that raised
                    # mid-ingest is journaled before the error).
                    conn.send(("ack", seq))
            elif tag == "finish":
                if failure is None:
                    try:
                        results = engine.finish_all()
                        reports = engine.device_feed_reports()
                        if sink is not None:
                            sink.close()
                            sink = None
                    except Exception as exc:
                        failure = f"{type(exc).__name__}: {exc}"
                if failure is not None:
                    conn.send(("error", failure))
                else:
                    # Devices are disjoint across shards, so the parent
                    # can merge both mappings with plain dict updates.
                    conn.send(("ok", results, reports))
                return
            else:
                conn.send(("error", f"unknown message tag {tag!r}"))
                return
    except EOFError:
        pass
    finally:
        if sink is not None:
            try:
                sink.close()
            except Exception:
                pass
        conn.close()


class ShardedStreamEngine:
    """Fan a fleet of device streams out over worker processes.

    Accepts the same batch shapes as :class:`StreamEngine` and produces the
    same results; ``max_devices`` / ``idle_timeout`` policies apply *per
    shard*.  Sealed streams can flow to per-shard sinks: ``sink_factory``
    (picklable, called as ``sink_factory(shard_index)`` inside each worker)
    builds one :class:`~repro.engine.sinks.Sink` per worker — e.g. one
    :class:`~repro.storage.store.StoreSink` over a per-shard store
    directory, since the store is single-writer.  With ``geodetic=True``
    each worker hosts a :class:`~repro.engine.geodetic.GeoStreamEngine`
    instead: the pushed coordinate columns are interpreted as latitude /
    longitude degrees, each device's UTM zone is selected worker-side from
    its first fix, and sealed trajectories come back zone-stamped.  With
    ``collect=False``
    the workers retain no sealed state and :meth:`finish_all` merges empty
    ledgers — the sinks are then the only output path.  One behavioural
    difference from the in-process engine: this engine is one-shot — its
    workers exit at :meth:`finish_all`, so pushing afterwards raises
    ``RuntimeError`` (the in-process engine treats ``finish_all`` as a
    checkpoint and keeps accepting batches).  :meth:`close` finishes the
    engine the same way, minus the results.  Use as a context manager, or
    call :meth:`finish_all` / :meth:`close` explicitly.

    ``journal_dir`` makes every worker journal its accepted batches into
    ``journal_dir/shard-%04d`` (see :class:`~repro.engine.journal.
    FixJournal`); ``journal_fsync`` extends the durability to power loss.
    ``restart_workers=N`` additionally *supervises* the shards: a worker
    that dies mid-ingest is respawned (up to N times per shard), replays
    its shard journal to rebuild its pre-crash state, and the parent
    re-drives the batches the dead worker never acknowledged.  A crash
    past the restart budget — or any crash when supervision is off —
    raises :class:`ShardCrashError` naming the shard, its exit code, and
    the devices routed to it.
    """

    def __init__(
        self,
        compressor_factory: Callable[[DeviceId], object],
        workers: int = 2,
        *,
        max_devices: int | None = None,
        idle_timeout: float | None = None,
        collect: bool = True,
        sink_factory: Callable[[int], object] | None = None,
        geodetic: bool = False,
        policy: SanitizePolicy | None = None,
        mp_context: multiprocessing.context.BaseContext | None = None,
        journal_dir: str | os.PathLike | None = None,
        journal_fsync: bool = False,
        restart_workers: int = 0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers!r}")
        if restart_workers < 0:
            raise ValueError(
                f"restart_workers must be >= 0, got {restart_workers!r}"
            )
        if restart_workers and journal_dir is None:
            raise ValueError(
                "restart_workers requires journal_dir: a respawned worker "
                "rebuilds its state from its shard journal"
            )
        ctx = mp_context if mp_context is not None else multiprocessing.get_context()
        # SanitizePolicy is a frozen scalar dataclass, so it ships to the
        # workers in the start-up pickle like the compressor factory.
        engine_kwargs = {
            "max_devices": max_devices,
            "idle_timeout": idle_timeout,
            "collect": collect,
            "policy": policy,
        }
        self.workers = workers
        self._conns = []
        self._procs = []
        self._finished = False
        #: Per-device sanitation ledgers, merged from the workers at
        #: :meth:`finish_all` (empty before it, and without a policy).
        self._device_reports: Dict[DeviceId, FeedReport] = {}
        self._supervised = restart_workers > 0
        self._restart_budget = restart_workers
        self._restarts = [0] * workers
        #: Everything a respawn needs to rebuild a worker.
        self._spawn_args = (
            compressor_factory,
            engine_kwargs,
            sink_factory,
            geodetic,
            journal_dir,
            journal_fsync,
        )
        self._ctx = ctx
        #: device id → shard index, filled on first sight: crc32 hashing
        #: happens once per device, not once per batch.  Bounded by the
        #: number of distinct devices pushed; also the blast radius a
        #: :class:`ShardCrashError` reports.
        self._route: Dict[DeviceId, int] = {}
        #: Supervised mode: per-shard batch sequence, unacknowledged
        #: batches (seq → columns, insertion-ordered), and the journal seq
        #: each worker started from (maps parent seq ↔ journal seq).
        self._seq = [0] * workers
        self._pending: List[Dict[int, tuple]] | None = (
            [{} for _ in range(workers)] if self._supervised else None
        )
        self._shard_base = [0] * workers
        self._stats = [_ShardStats() for _ in range(workers)]
        self._send_times: List[Dict[int, float]] = [
            {} for _ in range(workers)
        ]
        try:
            for shard in range(workers):
                self._conns.append(None)
                self._procs.append(None)
                self._spawn_worker(shard, recover=False)
            if self._supervised:
                for shard in range(workers):
                    self._shard_base[shard] = self._handshake(shard)
        except Exception:
            self.close()
            raise

    def _spawn_worker(self, shard: int, *, recover: bool) -> None:
        (
            compressor_factory,
            engine_kwargs,
            sink_factory,
            geodetic,
            journal_dir,
            journal_fsync,
        ) = self._spawn_args
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                compressor_factory,
                engine_kwargs,
                sink_factory,
                shard,
                geodetic,
                journal_dir,
                journal_fsync,
                self._supervised,
                recover,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc

    def _handshake(self, shard: int) -> int:
        """Receive a supervised worker's ``("ready", journal_seq)``."""
        try:
            tag, base = self._conns[shard].recv()
        except (EOFError, OSError) as exc:
            raise self._crash_error(shard, cause=exc) from exc
        if tag != "ready":
            # A garbled handshake means the worker (or its pipe) cannot be
            # trusted — same blast radius as a crash.
            raise ShardCrashError(
                f"sharded ingestion failed: worker {shard} sent "
                f"{tag!r} instead of the ready handshake",
                shard=shard,
                device_ids=self._devices_of(shard),
            )
        return base

    def _devices_of(self, shard: int) -> tuple:
        """Device ids routed to ``shard`` this run, sorted by ``str``."""
        return tuple(
            sorted(
                (d for d, s in self._route.items() if s == shard), key=str
            )
        )

    def _crash_error(self, shard: int, cause=None) -> ShardCrashError:
        proc = self._procs[shard]
        exitcode = None
        if proc is not None:
            proc.join(timeout=5.0)
            exitcode = proc.exitcode
        devices = self._devices_of(shard)
        sample = ", ".join(repr(d) for d in devices[:8])
        if len(devices) > 8:
            sample += f", ... ({len(devices) - 8} more)"
        detail = f" after {cause!r}" if cause is not None else ""
        return ShardCrashError(
            f"sharded ingestion failed: worker {shard} died "
            f"(exitcode {exitcode}){detail}; "
            f"{len(devices)} device(s) routed to it: [{sample}]",
            shard=shard,
            exitcode=exitcode,
            device_ids=devices,
        )

    # -- ingestion -----------------------------------------------------------

    def push_batch(self, fixes: Iterable[Fix]) -> int:
        """Route an interleaved ``(device_id, t, x, y)`` batch to the shards.

        Groups by shard directly from the tuple stream (one pass), the same
        way :meth:`StreamEngine.push_batch` groups by device.
        """
        self._ensure_not_finished()
        workers = self.workers
        route = self._route
        shards_cols: Dict[int, tuple[list, array, array, array]] = {}
        get = shards_cols.get
        n = 0
        for device_id, t, x, y in fixes:
            shard = route.get(device_id)
            if shard is None:
                shard = route[device_id] = shard_of(device_id, workers)
            payload = get(shard)
            if payload is None:
                payload = ([], array("d"), array("d"), array("d"))
                shards_cols[shard] = payload
            payload[0].append(device_id)
            payload[1].append(t)
            payload[2].append(x)
            payload[3].append(y)
            n += 1
        self._send_shards(shards_cols)
        return n

    def push_columns(
        self,
        device_ids: Sequence[DeviceId],
        ts: Sequence[float],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> int:
        """Route a columnar interleaved batch to the shards."""
        self._ensure_not_finished()
        n = len(device_ids)
        if not (len(ts) == len(xs) == len(ys) == n):
            raise ValueError(
                "column length mismatch: "
                f"ids={n}, ts={len(ts)}, xs={len(xs)}, ys={len(ys)}"
            )
        workers = self.workers
        route = self._route
        shards_cols: Dict[int, tuple[list, array, array, array]] = {}
        get = shards_cols.get
        for i in range(n):
            device_id = device_ids[i]
            shard = route.get(device_id)
            if shard is None:
                shard = route[device_id] = shard_of(device_id, workers)
            payload = get(shard)
            if payload is None:
                payload = ([], array("d"), array("d"), array("d"))
                shards_cols[shard] = payload
            payload[0].append(device_id)
            payload[1].append(ts[i])
            payload[2].append(xs[i])
            payload[3].append(ys[i])
        self._send_shards(shards_cols)
        return n

    def _ensure_not_finished(self) -> None:
        if self._finished:
            # Use-after-finish is caller lifecycle misuse (a bug in the
            # calling code), not a data-plane failure a caller should
            # route on — a deliberately untyped error.
            # repro: ignore[RA04] lifecycle misuse by the caller, not a routable data-plane failure
            raise RuntimeError("finish_all() or close() already called")

    def _send_shards(self, shards) -> None:
        if self._supervised:
            # Drain every shard's acks first so the reply pipes never
            # back up no matter how batches distribute across shards.
            for shard in range(self.workers):
                self._drain_queued_acks(shard)
        for shard, (ids, ts, xs, ys) in shards.items():
            stats = self._stats[shard]
            stats.frames += 1
            stats.fixes += len(ids)
            if self._supervised:
                seq = self._seq[shard] + 1
                self._seq[shard] = seq
                self._pending[shard][seq] = (ids, ts, xs, ys)
                self._send_times[shard][seq] = time.perf_counter()
                try:
                    self._conns[shard].send(("push", seq, ids, ts, xs, ys))
                except (BrokenPipeError, OSError):
                    # The batch is already in the pending buffer; the
                    # restart re-drives it with everything else unacked.
                    self._restart_shard(shard)
            else:
                try:
                    self._conns[shard].send(("push", ids, ts, xs, ys))
                except (BrokenPipeError, OSError) as exc:
                    raise self._crash_error(shard, cause=exc) from exc

    # -- acks and restarts ---------------------------------------------------

    def _on_ack(self, shard: int, seq: int) -> None:
        """One ack: prune pending, record latency."""
        stats = self._stats[shard]
        stats.acks += 1
        self._pending[shard].pop(seq, None)
        sent = self._send_times[shard].pop(seq, None)
        if sent is not None and len(stats.ack_lat) < _MAX_LATENCY_SAMPLES:
            stats.ack_lat.append(time.perf_counter() - sent)

    def _drain_queued_acks(self, shard: int) -> None:
        """Apply a supervised shard's queued acks without blocking."""
        conn = self._conns[shard]
        try:
            while conn.poll(0):
                message = conn.recv()
                if message[0] == "ack":
                    self._on_ack(shard, message[1])
        except (EOFError, OSError):
            self._restart_shard(shard)

    def _restart_shard(self, shard: int) -> None:
        """Respawn a dead worker and re-drive its unacknowledged batches.

        Raises the :class:`ShardCrashError` instead when supervision is
        off or the shard's restart budget is spent.
        """
        proc = self._procs[shard]
        if proc is not None and proc.is_alive():
            # The pipe broke but the process lives (wedged worker): a
            # restart would fork a competitor for its journal and sink.
            proc.terminate()
        if not self._supervised or self._restarts[shard] >= self._restart_budget:
            raise self._crash_error(shard)
        if proc is not None:
            proc.join(timeout=5.0)  # reap the corpse before respawning
        self._restarts[shard] += 1
        try:
            self._conns[shard].close()
        except OSError:
            pass
        self._spawn_worker(shard, recover=True)
        journal_seq = self._handshake(shard)
        delivered = journal_seq - self._shard_base[shard]
        pending = self._pending[shard]
        for seq in [s for s in pending if s <= delivered]:
            del pending[seq]
        for seq, (ids, ts, xs, ys) in sorted(pending.items()):
            try:
                self._conns[shard].send(("push", seq, ids, ts, xs, ys))
            except (BrokenPipeError, OSError):
                return self._restart_shard(shard)

    # -- lifecycle -----------------------------------------------------------

    def finish_all(self) -> Dict[DeviceId, List[CompressedTrajectory]]:
        """Seal every stream on every worker and merge their results.

        Raises :class:`ShardCrashError` if a worker died (and, under
        supervision, could not be restarted within budget), or a plain
        ``RuntimeError`` carrying the first worker-side ingestion error.
        Healthy shards' results are still merged before the raise is
        decided, and the workers are torn down either way.
        """
        self._ensure_not_finished()
        self._finished = True
        merged: Dict[DeviceId, List[CompressedTrajectory]] = {}
        errors: List[str] = []
        crash: ShardCrashError | None = None
        try:
            for shard in range(self.workers):
                try:
                    reply = self._finish_shard(shard)
                except ShardCrashError as exc:
                    # Keep the healthy shards' results and report the
                    # casualty after every shard had its chance.
                    if crash is None:
                        crash = exc
                    continue
                if reply[0] == "ok":
                    # device ↛ two shards: both mappings' keys disjoint
                    merged.update(reply[1])
                    self._device_reports.update(reply[2])
                else:
                    errors.append(reply[1])
        finally:
            self.close()
        if crash is not None:
            raise crash
        if errors:
            # The worker is alive and drained — this is not a crash, and
            # the docstring promises a *plain* RuntimeError for worker-side
            # ingestion errors (the message carries the worker's own typed
            # error text).  ShardCrashError would claim a dead shard.
            # repro: ignore[RA04] documented plain-RuntimeError contract for live-worker ingest errors
            raise RuntimeError(f"sharded ingestion failed: {errors[0]}")
        return merged

    def _finish_shard(self, shard: int):
        """Send ``finish`` to one shard and return its final reply,
        restarting the worker (within budget) if it dies on the way."""
        while True:
            conn = self._conns[shard]
            try:
                conn.send(("finish",))
                while True:
                    reply = conn.recv()
                    if reply[0] == "ack":
                        self._on_ack(shard, reply[1])
                        continue
                    return reply
            except (BrokenPipeError, EOFError, OSError):
                # Raises ShardCrashError when restarting is not allowed;
                # otherwise the worker is rebuilt from its journal and
                # the loop re-sends the finish.
                self._restart_shard(shard)

    def transport_stats(self) -> List[dict]:
        """Per-shard data-plane counters (valid after :meth:`finish_all`,
        and live during ingest).

        Each shard reports ``frames`` (push messages sent), ``fixes``
        routed, ``utilization`` (this shard's share of all routed fixes —
        the load-balance view), ``restarts``, and — under supervision,
        where every push is acknowledged — ``acks`` plus send-to-ack
        latency percentiles in microseconds.  ``bytes``, ``ring_waits``,
        ``window_waits`` and ``ack_wait_seconds`` are always zero: the
        pipe pickles columns without byte accounting and never blocks on
        ring space, and the keys stay so existing readers keep working.
        """
        total_fixes = sum(s.fixes for s in self._stats)
        out = []
        for shard, s in enumerate(self._stats):
            lat = sorted(s.ack_lat)
            out.append(
                {
                    "shard": shard,
                    "frames": s.frames,
                    "fixes": s.fixes,
                    "bytes": 0,
                    "acks": s.acks,
                    "ring_waits": 0,
                    "window_waits": 0,
                    "ack_wait_seconds": 0.0,
                    "restarts": self._restarts[shard],
                    "utilization": (
                        round(s.fixes / total_fixes, 4) if total_fixes else 0.0
                    ),
                    "ack_us_p50": round(_percentile(lat, 0.5) * 1e6, 1),
                    "ack_us_p99": round(_percentile(lat, 0.99) * 1e6, 1),
                }
            )
        return out

    def feed_report(self) -> FeedReport:
        """The fleet-wide sanitation ledger, merged across every shard.

        Populated by :meth:`finish_all` (the workers own the counters
        until they seal); empty before it, and without a policy.
        """
        report = FeedReport()
        for device_report in self._device_reports.values():
            report = report.merged(device_report)
        return report

    def device_feed_reports(self) -> Dict[DeviceId, FeedReport]:
        """Per-device ledgers merged at :meth:`finish_all` (see above)."""
        return dict(self._device_reports)

    def close(self) -> None:
        """Tear the workers down and finish the engine (idempotent; called
        by ``finish_all``).  Later pushes or ``finish_all`` raise
        ``RuntimeError``."""
        self._finished = True
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            if proc is None:
                continue
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=5.0)
        self._conns = []
        self._procs = []

    def __enter__(self) -> "ShardedStreamEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
