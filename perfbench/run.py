"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live_gps --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 2

``--trace 0`` prints the end-to-end metrics of an untraced run; ``--trace
1`` runs the workload untraced and then traced, and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable table.  A full report (digests, host, every
metric) is written to ``.perfbench-out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("live_gps", "bulk_sharded", "geo_query")
INGEST = ("live_gps", "bulk_sharded")
#: The reference loop's nominal time; timings are reported as if every
#: reference loop next to them had taken exactly this long.
NOMINAL_REFERENCE_S = 1e-3
#: The same for set-ups and the reference timed after each: the
#: file-system reference on live_gps, whose set-up is syscall-bound; the
#: reference loop for the worker spawn and the cold open, which track it.
NOMINAL_SETUP_REFERENCE_S = {
    "live_gps": 1e-4,
    "bulk_sharded": NOMINAL_REFERENCE_S,
    "geo_query": NOMINAL_REFERENCE_S,
}

#: End-to-end metrics (BENCHMARK.json ``end_to_end``).  An "op" is one
#: fix offered on the ingest workloads and one query on geo_query; an
#: op's latency is one ``push_columns`` call or one query.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "key_points_per_fix": "kp/fix",
    "store_bytes_per_fix": "B/fix",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (BENCHMARK.json ``per_layer``); a layer a workload
#: does not run reports 0.
PER_LAYER = {
    "dispatch.self_s": "s",
    "dispatch.devices_per_batch": "count",
    "sanitize.self_s": "s",
    "sanitize.fixes_in": "count",
    "sanitize.fixes_out": "count",
    "sanitize.dropped": "count",
    "project.self_s": "s",
    "project.calls": "count",
    "project.coords": "count",
    "compress.self_s": "s",
    "compress.calls": "count",
    "compress.fixes_per_call": "count",
    "compress.key_points": "count",
    "compress.exact_share": "ratio",
    "journal.self_s": "s",
    "journal.bytes_per_fix": "B/fix",
    "store.append_s": "s",
    "store.records": "count",
    "store.bytes_written": "B",
    "store.close_s": "s",
    "store.open_s": "s",
    "store.read_s": "s",
    "codec.decode_s": "s",
    "codec.records_decoded": "count",
    "index.candidates_s": "s",
    "index.candidates_per_query": "count",
    "index.hit_ratio": "ratio",
    "query.rect_project_s": "s",
    "query.frames_per_query": "count",
    "query.envelope_s": "s",
    "query.self_s": "s",
    "shard.push_s": "s",
    "shard.finish_s": "s",
    "shard.skew": "ratio",
    "shard.worker_compress_s": "s",
    "transport.frames": "count",
    "transport.bytes_per_fix": "B/fix",
    "transport.ring_waits": "count",
    "transport.window_waits": "count",
    "transport.ack_wait_s": "s",
    "transport.ack_us_p99": "us",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _percentile_ms(samples, q: float) -> float:
    """Nearest-rank percentile of seconds, in milliseconds."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1] * 1e3


def _normalized(r):
    """A round's operation times and tail, in reference-normalized seconds.

    Each time is scaled by ``NOMINAL_REFERENCE_S`` over the reference
    loop's time measured next to it: the median of the five loops around
    an operation; the tail by the loops after the round.
    """
    from perfbench.workloads import EDGE_REFERENCES

    refs = r.reference_s
    scale = [
        NOMINAL_REFERENCE_S / statistics.median(refs[max(0, i - 2):i + 3])
        for i in range(len(refs))
    ]
    after = statistics.median(r.edge_reference_s[EDGE_REFERENCES:])
    return (
        [t * k for t, k in zip(r.latencies_s, scale)],
        r.tail_s * NOMINAL_REFERENCE_S / after,
    )


def _pooled(rounds):
    """Normalized round walls and every round's normalized op times."""
    walls, pooled = [], []
    for r in rounds:
        latencies, tail = _normalized(r)
        walls.append(sum(latencies) + tail)
        pooled += latencies
    return walls, pooled


def _end_to_end(workload: str, rounds, walls, pooled) -> dict:
    """End-to-end metrics from a run's rounds, in normalized seconds."""
    first = rounds[0]
    nominal = NOMINAL_SETUP_REFERENCE_S[workload]
    return {
        "ops_per_s": first.ops / statistics.median(walls),
        "op_p50_ms": _percentile_ms(pooled, 0.50),
        "op_p90_ms": _percentile_ms(pooled, 0.90),
        "key_points_per_fix": first.key_points / first.fixes,
        "store_bytes_per_fix": first.store_bytes / first.fixes,
        "setup_s": statistics.median(
            t * nominal / ref for r in rounds
            for t, ref in zip(r.setup_s, r.setup_reference_s)
        ),
        "peak_rss_mb": first.peak_rss_mb,
    }


def _raw(rounds) -> dict:
    """The same timings as measured, before normalization."""
    pooled = [t for r in rounds for t in r.latencies_s]
    return {
        "ops_per_s": rounds[0].ops / statistics.median(r.wall_s for r in rounds),
        "op_p50_ms": _percentile_ms(pooled, 0.50),
        "op_p99_ms": _percentile_ms(pooled, 0.99),
        "reference_ms": 1e3 * statistics.median(
            t for r in rounds for t in r.reference_s
        ),
    }


def _named_table(report: dict) -> list:
    """The eleven named end-to-end metrics, ``n/a`` where a workload does
    not have them; p99 is over the pooled normalized op times."""
    e2e, named = report["end_to_end"], report["named"]
    ingest = report["workload"] in INGEST
    rows = [
        ("ingest_fixes_per_s", e2e["ops_per_s"] if ingest else None, "fixes/s"),
        ("ingest_batch_p50_ms", e2e["op_p50_ms"] if ingest else None, "ms"),
        ("ingest_batch_p99_ms", named["op_p99_ms"] if ingest else None, "ms"),
        ("key_points_per_fix", e2e["key_points_per_fix"], "kp/fix"),
        ("store_bytes_per_fix", e2e["store_bytes_per_fix"], "B/fix"),
        ("queries_per_s", None if ingest else e2e["ops_per_s"], "queries/s"),
        ("query_p50_ms", None if ingest else e2e["op_p50_ms"], "ms"),
        ("query_p99_ms", None if ingest else named["op_p99_ms"], "ms"),
        ("setup_s", e2e["setup_s"], "s"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("failed_ratio", report["failed_ratio"], "ratio"),
    ]
    return [
        f"  {name:<22} {'n/a' if value is None else f'{value:.6g}':>14} {unit}"
        for name, value, unit in rows
    ] + [f"  ({named['op_samples']} op samples)"]


def _pinned_digest(workload: str, seed: int, seconds: int):
    table = json.loads((Path(__file__).parent / "digests.json").read_text())
    return table.get(f"{workload}/{seconds}", {}).get(str(seed))


def _generate(workload: str, seed: int, seconds: int, inputs: Path,
              spawn: bool) -> dict:
    from perfbench.inputs import generate

    if not spawn:
        generate(workload, seed, seconds, str(inputs))
    else:
        # A fresh interpreter, so generation never shows in the measured
        # RSS; subprocess.run waits for it (and kills it on timeout).
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.inputs",
             workload, str(seed), str(seconds), str(inputs)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            timeout=600,
        )
        if proc.returncode != 0:
            raise SystemExit(f"input generation failed (exit code {proc.returncode})")
    return json.loads((inputs / "meta.json").read_text())


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 work: Path, spawn: bool = True, **hooks) -> dict:
    """Generate, measure and audit one workload; returns its report.

    ``spawn=False`` generates the inputs in this process (the self-tests
    shrink them that way); ``hooks`` reach the runner (the self-tests
    plant faults through ``query_fn`` and ``factory_wrap``).
    """
    from perfbench import audits, tracing
    from perfbench.inputs import ROUNDS
    from perfbench.workloads import RUNNERS

    inputs = work / "inputs"
    meta = _generate(workload, seed, seconds, inputs, spawn)
    checks = {}
    pinned = _pinned_digest(workload, seed, seconds)
    checks["input_digest"] = (
        [] if pinned in (None, meta["input_digest"]) else
        [f"input digest {meta['input_digest']} != pinned {pinned}"]
    )
    runner = RUNNERS[workload]
    rounds = []
    for r in range(ROUNDS[workload]):
        scratch = work / f"round-{r}"
        # Peak RSS is read in the first round, before any other round ran.
        rounds.append(runner(inputs, scratch, meta, seed, audit=(r == 0), **hooks))
        shutil.rmtree(scratch, ignore_errors=True)
    result = rounds[0]
    checks.update(result.audits)
    checks["rounds_identical"] = [
        f"round {i} {k}: {r.digests.get(k)} != round 0 {v}"
        for i, r in enumerate(rounds) for k, v in result.digests.items()
        if r.digests.get(k) != v
    ]
    walls, pooled = _pooled(rounds)
    e2e = _end_to_end(workload, rounds, walls, pooled)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": _host(),
        "input_digest": meta["input_digest"],
        "input_digest_pinned": pinned,
        "output_digests": result.digests,
        "end_to_end": e2e,
        "named": {
            "op_p99_ms": _percentile_ms(pooled, 0.99),
            "op_samples": len(pooled),
        },
        "raw": _raw(rounds),
        "calls": result.calls,
        "rounds": [
            {"wall_s": r.wall_s, "tail_s": r.tail_s, "setup_s": r.setup_s,
             "latencies_ms": [round(x * 1e3, 4) for x in r.latencies_s],
             "reference_ms": [round(x * 1e3, 4) for x in r.reference_s],
             "edge_reference_ms": [round(x * 1e3, 4) for x in r.edge_reference_s]}
            for r in rounds
        ],
    }
    failed_calls = sum(r.failed_calls for r in rounds)
    attempted_calls = sum(r.calls for r in rounds)
    if trace:
        tracer = tracing.Tracer()
        traced = runner(inputs, work / "traced", meta, seed, tracer=tracer, **hooks)
        failed_calls += traced.failed_calls
        attempted_calls += traced.calls
        checks.update({f"traced.{k}": v for k, v in traced.audits.items()})
        checks["traced_outputs_identical"] = [
            f"{k}: traced {traced.digests.get(k)} != untraced {v}"
            for k, v in result.digests.items() if traced.digests.get(k) != v
        ]
        checks["trace_wall"] = audits.trace_wall(tracer, traced.clocked_s)
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(traced.layer)
        layer["trace.wall_s"] = tracer.wall_ns / 1e9
        layer["trace.unattributed_s"] = tracer.unattributed_seconds()
        # Both walls in normalized seconds; the traced run's reference
        # loops ran only before and after it.
        traced_wall = traced.wall_s * NOMINAL_REFERENCE_S / statistics.median(
            traced.edge_reference_s
        )
        layer["trace.overhead_ratio"] = traced_wall / statistics.median(walls) - 1.0
        report["per_layer"] = layer
        report["traced_output_digests"] = traced.digests
        spans = OUT / f"spans-{workload}-s{seed}.json"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    checks["metrics_positive"] = audits.finite_positive(e2e)
    failed_audits = sum(1 for v in checks.values() if v)
    report["audits"] = checks
    report["attempted"] = attempted_calls + len(checks)
    report["failed"] = failed_calls + failed_audits
    report["failed_ratio"] = report["failed"] / report["attempted"]
    return report


def _host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def _print_report(report: dict) -> None:
    host = report["host"]
    print(f"# {report['workload']}  seed={report['seed']}  "
          f"seconds={report['seconds']}  cpus={host['cpus']}  "
          f"python={host['python']}")
    print(f"  input_digest   {report['input_digest']}"
          + ("" if report["input_digest_pinned"] else "  (seed not pinned)"))
    for name, digest in report["output_digests"].items():
        print(f"  output.{name:<8} {digest}")
    print(f"  calls {report['calls']}  attempted {report['attempted']}  "
          f"failed {report['failed']}")
    for line in _named_table(report):
        print(line)
    for name, value in report["end_to_end"].items():
        print(f"  e2e {name:<22} {value:.6g} {END_TO_END[name]}")
    for name, value in report.get("per_layer", {}).items():
        print(f"  layer {name:<28} {value:.6g} {PER_LAYER[name]}")
    for name, failures in report["audits"].items():
        print(f"  audit {name:<26} {'ok' if not failures else 'FAILED'}")
        for failure in failures[:10]:
            print(f"      {failure}")


def _result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {k: {"value": report["per_layer"][k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": report["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = OUT / f"work-{os.getpid()}"
    reports = []
    try:
        for name in names:
            report = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), work / name)
            (OUT / f"report-{name}-s{args.seed}-t{args.trace}.json").write_text(
                json.dumps(report, indent=1)
            )
            _print_report(report)
            reports.append(report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(reports) == 1:
        line = _result_line(reports[0])
    else:
        line = {r["workload"]: _result_line(r) for r in reports}
    print(json.dumps(line))
    return 0 if all(r["failed"] == 0 for r in reports) else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing is randomized per process, and the layout it
        # gives sets and dicts moves query times by ~10% from run to run;
        # measure with one fixed layout.
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, __file__, *sys.argv[1:]])
    sys.exit(main())
