"""Self-tests of the benchmark: smoke runs print every metric, planted
faults trip their audits.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import audits, inputs, run, tracing  # noqa: E402
from repro.storage import geo_range_query  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


@pytest.fixture
def scratch():
    """A scratch directory inside the checkout, where the benchmark keeps
    all its files."""
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _cli(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        RUN + list(args), cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload):
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        code, lines = _cli("--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace))
        assert code == 0, "\n".join(lines[-30:])
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
    table = "\n".join(lines)
    for name in ("ingest_fixes_per_s", "query_p99_ms", "failed_ratio",
                 "setup_s", "peak_rss_mb"):
        assert name in table


def test_without_sources_exits_nonzero_and_prints_no_result(scratch):
    bench = scratch / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bench / "digests.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "live_gps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- planted faults ----------------------------------------------------------


class _Proxy:
    """Compressor proxy that forwards what the engine calls."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def pushed(self):
        return self._inner.pushed

    def push_xyt(self, ts, xs, ys):
        return self._inner.push_xyt(ts, xs, ys)

    def finish(self):
        return self._inner.finish()


class _DropKeyPoint(_Proxy):
    """Compressor proxy whose sealed trajectories lose a committed key
    point (the second of each)."""

    def finish(self):
        trajectory = self._inner.finish()
        points = trajectory.key_points
        if len(points) > 2:
            trajectory = dataclasses.replace(
                trajectory, key_points=points[:1] + points[2:]
            )
        return trajectory


#: Resident bytes each ballast compressor holds.
BALLAST_BYTES = 256 << 10


class _Ballast(_Proxy):
    """Compressor proxy that keeps ``BALLAST_BYTES`` resident: engine
    state that grows by a known amount per device."""

    def __init__(self, inner):
        super().__init__(inner)
        self._ballast = b"\x01" * BALLAST_BYTES


class _ProxyFactory:
    proxy = _Proxy

    def __init__(self, inner):
        self.inner = inner

    def __call__(self, device_id):
        return self.proxy(self.inner(device_id))


class _DropKeyPointFactory(_ProxyFactory):
    proxy = _DropKeyPoint


class _BallastFactory(_ProxyFactory):
    proxy = _Ballast


def _drop_first_match(store, rect, **kwargs):
    return geo_range_query(store, rect, **kwargs)[1:]


@pytest.fixture
def small(monkeypatch):
    """Shrink the generated inputs (generation runs in-process here)."""
    monkeypatch.setattr(inputs, "DEVICES", 40)
    monkeypatch.setattr(inputs, "FIXTURE_TICKS", 144)


def _report(scratch, workload, **hooks):
    return run.run_workload(workload, 5, 2, False, scratch / workload,
                            spawn=False, **hooks)


def test_clean_small_runs_pass_their_audits(small, scratch):
    for workload in run.WORKLOADS:
        report = _report(scratch, workload)
        assert report["failed"] == 0, report["audits"]


def test_dropped_key_point_trips_the_epsilon_audit(small, scratch):
    report = _report(scratch, "bulk_sharded", factory_wrap=_DropKeyPointFactory)
    assert report["audits"]["epsilon_bound"]
    assert report["failed"] >= 1
    assert run._result_line(report)["correct"] is False


def test_dropped_match_trips_the_containment_audit(small, scratch):
    report = _report(scratch, "geo_query", query_fn=_drop_first_match)
    assert any("truth ⊆ exact" in f for f in report["audits"]["query_containment"])
    assert report["failed"] >= 1
    assert run._result_line(report)["correct"] is False


# -- peak memory ---------------------------------------------------------------


def test_peak_rss_leaves_out_earlier_peaks(small, scratch):
    # A peak the benchmark reached before the set-up (loading inputs, an
    # earlier workload in the same process) must not show.
    blob = b"\x01" * (96 << 20)
    del blob
    report = _report(scratch, "live_gps")
    assert report["end_to_end"]["peak_rss_mb"] < 48


@pytest.mark.parametrize("workload", ("live_gps", "bulk_sharded"))
def test_peak_rss_moves_with_engine_state(small, scratch, workload):
    clean = _report(scratch, workload)["end_to_end"]["peak_rss_mb"]
    heavy = _report(scratch, workload, factory_wrap=_BallastFactory)
    grown = heavy["end_to_end"]["peak_rss_mb"] - clean
    ballast_mb = inputs.DEVICES * BALLAST_BYTES / 2**20
    assert heavy["failed"] == 0, heavy["audits"]
    assert 0.8 * ballast_mb <= grown <= 1.5 * ballast_mb + 4


# -- trace audit -----------------------------------------------------------------


def _traced_region(tracer, seconds=0.01):
    """One span in a traced region; returns the time clocked inside it."""
    with tracer.region():
        start = time.perf_counter()
        with tracer.span("op"):
            time.sleep(seconds)
        return time.perf_counter() - start


def test_trace_wall_holds_for_spans_inside_the_region():
    tracer = tracing.Tracer()
    clocked = _traced_region(tracer)
    assert audits.trace_wall(tracer, clocked) == []


def test_span_outside_the_region_trips_the_trace_audit():
    tracer = tracing.Tracer()
    clocked = _traced_region(tracer)
    with tracer.span("stray"):
        time.sleep(0.01)
    assert tracer.unattributed_seconds() < 0
    assert any("outside the traced region" in f
               for f in audits.trace_wall(tracer, clocked))


def test_untimed_work_in_the_region_trips_the_trace_audit():
    tracer = tracing.Tracer()
    clocked = _traced_region(tracer)
    with tracer.region():
        time.sleep(0.01)
    assert any("exceeds the runner's own" in f
               for f in audits.trace_wall(tracer, clocked))
