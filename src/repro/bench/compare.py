"""Diff two benchmark result files and flag regressions.

``python -m repro.bench compare OLD.json NEW.json`` joins the two runs on
``(workload, algorithm)`` and reports the throughput ratio for every pair
present in both files.  A pair whose new throughput falls below
``threshold × old`` is flagged as a regression; a pair whose key-point
output changed (count, or exact points via the digest) is flagged as a
**behaviour change**, which is never timing noise.  Exit-code policy is
caller-selected: ``--strict`` exits non-zero on any flag,
``--fail-on-behaviour`` only on behaviour changes — the mode CI runs
against the committed baseline, so a digest drift fails the build while
cross-machine throughput deltas merely warn.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

__all__ = ["load_bench_file", "diff_benches", "format_diff"]

_Key = Tuple[str, str]


def load_bench_file(path: str) -> dict:
    """Load one ``BENCH_*.json`` document."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or "results" not in doc:
        raise ValueError(f"{path}: not a bench result file (no 'results' key)")
    return doc


def _by_key(doc: dict) -> Dict[_Key, dict]:
    return {(r["workload"], r["algorithm"]): r for r in doc["results"]}


def diff_benches(
    old: dict, new: dict, threshold: float = 0.8
) -> Tuple[List[dict], List[dict]]:
    """Compare two bench documents.

    Returns ``(rows, flagged)``: one row per joined (workload, algorithm)
    with old/new throughput and the ratio, and the subset flagged as a
    regression (ratio below ``threshold``) or a behaviour change
    (key-point count or digest differs).  Each row carries a
    ``"behaviour"`` bool so callers can separate behaviour changes (always
    a bug) from timing deltas (possibly noise).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold!r}")
    old_rows = _by_key(old)
    new_rows = _by_key(new)
    rows: List[dict] = []
    flagged: List[dict] = []

    def add_row(row: dict) -> None:
        rows.append(row)
        if row["reasons"]:
            flagged.append(row)

    for key in sorted(old_rows.keys() & new_rows.keys()):
        o = old_rows[key]
        n = new_rows[key]
        old_pps = float(o["points_per_sec"])
        new_pps = float(n["points_per_sec"])
        ratio = new_pps / old_pps if old_pps > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(f"throughput fell to {ratio:.2f}x")
        if o["points"] == n["points"]:
            if o["key_points"] != n["key_points"]:
                behaviour_reasons.append(
                    f"key points changed {o['key_points']} -> {n['key_points']}"
                )
            elif (
                o.get("key_digest")
                and n.get("key_digest")
                and o["key_digest"] != n["key_digest"]
            ):
                # Same count, different points — still a behaviour change.
                behaviour_reasons.append(
                    "key points moved (same count, digest differs)"
                )
        row = {
            "workload": key[0],
            "algorithm": key[1],
            "old_points_per_sec": old_pps,
            "new_points_per_sec": new_pps,
            "ratio": ratio,
            "reasons": timing_reasons + behaviour_reasons,
            "behaviour": bool(behaviour_reasons),
        }
        add_row(row)

    # Fleet section (schema 2+): joined on mode.  The digests cover every
    # device's exact output, so drift here is an engine behaviour change —
    # the in-run audit only checks modes against each other, not against
    # the recorded baseline.  The join is an intersection, so modes only
    # one side recorded (e.g. the retired "sharded-N-shm" rows of older
    # schema-8 files) are skipped without special casing.
    old_fleet = {r["mode"]: r for r in old.get("fleet", [])}
    new_fleet = {r["mode"]: r for r in new.get("fleet", [])}
    for mode in sorted(old_fleet.keys() & new_fleet.keys()):
        o = old_fleet[mode]
        n = new_fleet[mode]
        old_fps = float(o["fixes_per_sec"])
        new_fps = float(n["fixes_per_sec"])
        ratio = new_fps / old_fps if old_fps > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(f"throughput fell to {ratio:.2f}x")
        if (
            o["devices"] == n["devices"]
            and o["fixes_per_device"] == n["fixes_per_device"]
            and o["key_digest"] != n["key_digest"]
        ):
            behaviour_reasons.append("fleet output moved (digest differs)")
        add_row(
            {
                "workload": "fleet",
                "algorithm": mode,
                "old_points_per_sec": old_fps,
                "new_points_per_sec": new_fps,
                "ratio": ratio,
                "reasons": timing_reasons + behaviour_reasons,
                "behaviour": bool(behaviour_reasons),
            }
        )

    # Dirty-fleet section (schema 6+): one record, joined on the workload
    # shape.  Both digests are behaviour: the dirty digest pins the
    # sanitizer's exact decisions over the injected disorder, the clean
    # digest pins sanitizer-off output on clean input (it must also stay
    # bit-identical to the clean fleet engine record).  The feed ledger is
    # integer ground truth — any drift in drops/splits is a sanitizer
    # behaviour change, never noise.
    old_dirty = old.get("dirty_fleet")
    new_dirty = new.get("dirty_fleet")
    if old_dirty and new_dirty:
        old_fps = float(old_dirty["fixes_per_sec"])
        new_fps = float(new_dirty["fixes_per_sec"])
        ratio = new_fps / old_fps if old_fps > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(f"throughput fell to {ratio:.2f}x")
        if (
            old_dirty["devices"] == new_dirty["devices"]
            and old_dirty["fixes_per_device"] == new_dirty["fixes_per_device"]
        ):
            if old_dirty["key_digest"] != new_dirty["key_digest"]:
                behaviour_reasons.append(
                    "dirty-feed output moved (digest differs)"
                )
            if old_dirty["clean_digest"] != new_dirty["clean_digest"]:
                behaviour_reasons.append(
                    "clean-feed output moved (digest differs)"
                )
            if old_dirty["feed"] != new_dirty["feed"]:
                behaviour_reasons.append(
                    "feed ledger changed (drops/splits moved)"
                )
        add_row(
            {
                "workload": "dirty-fleet",
                "algorithm": "sanitized",
                "old_points_per_sec": old_fps,
                "new_points_per_sec": new_fps,
                "ratio": ratio,
                "reasons": timing_reasons + behaviour_reasons,
                "behaviour": bool(behaviour_reasons),
            }
        )

    # Durability section (schema 7+): one record, joined on the workload
    # shape.  Both digests are behaviour: the store digest pins the exact
    # bytes the reference (journal-off) ingest persisted, the recovered
    # digest pins what the crash-recovery replay rebuilt — the in-run
    # audit already forces the two equal *within* a run, so a drift
    # against the baseline means the engine's persisted output (or the
    # replay that reproduces it) moved.  Journal overhead and recovery
    # wall are timing-only.
    old_dur = old.get("durability")
    new_dur = new.get("durability")
    if old_dur and new_dur:
        old_fps = float(old_dur["journal_fixes_per_sec"])
        new_fps = float(new_dur["journal_fixes_per_sec"])
        ratio = new_fps / old_fps if old_fps > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(
                f"journaled ingest fell to {ratio:.2f}x"
            )
        if (
            old_dur["devices"] == new_dur["devices"]
            and old_dur["fixes_per_device"] == new_dur["fixes_per_device"]
        ):
            if old_dur["store_digest"] != new_dur["store_digest"]:
                behaviour_reasons.append(
                    "persisted store moved (digest differs)"
                )
            if old_dur["recovered_digest"] != new_dur["recovered_digest"]:
                behaviour_reasons.append(
                    "recovered store moved (digest differs)"
                )
        add_row(
            {
                "workload": "durability",
                "algorithm": "journal+recover",
                "old_points_per_sec": old_fps,
                "new_points_per_sec": new_fps,
                "ratio": ratio,
                "reasons": timing_reasons + behaviour_reasons,
                "behaviour": bool(behaviour_reasons),
            }
        )

    # Storage section (schema 3+): one record; the blob digest pins the
    # codec's exact bytes, the query digest pins both query answers.
    old_storage = old.get("storage")
    new_storage = new.get("storage")
    if old_storage and new_storage:
        old_ips = float(old_storage["ingest_fixes_per_sec"])
        new_ips = float(new_storage["ingest_fixes_per_sec"])
        ratio = new_ips / old_ips if old_ips > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(f"ingest throughput fell to {ratio:.2f}x")
        comparable = (
            old_storage["points"] == new_storage["points"]
            and old_storage["fleet_devices"] == new_storage["fleet_devices"]
            and old_storage["fleet_fixes"] == new_storage["fleet_fixes"]
        )
        if comparable:
            if old_storage["blob_digest"] != new_storage["blob_digest"]:
                behaviour_reasons.append(
                    "codec output moved (blob digest differs)"
                )
            if old_storage["query_digest"] != new_storage["query_digest"]:
                behaviour_reasons.append(
                    "query results moved (digest differs)"
                )
        add_row(
            {
                "workload": "storage",
                "algorithm": "codec+query",
                "old_points_per_sec": old_ips,
                "new_points_per_sec": new_ips,
                "ratio": ratio,
                "reasons": timing_reasons + behaviour_reasons,
                "behaviour": bool(behaviour_reasons),
            }
        )

    # Scale section (schema 5+): synthetic stores joined on size.  The
    # workload is deterministic, so the match digest pins the candidate
    # selection of the mmap fast path — drift is a pruning or ordering
    # bug, never noise.  The throughput-like metric is records opened per
    # second down the sidecar path (open time is the stage's headline).
    old_scale = {
        (r["records"], r["devices"]): r for r in old.get("scale", [])
    }
    new_scale = {
        (r["records"], r["devices"]): r for r in new.get("scale", [])
    }
    for key in sorted(old_scale.keys() & new_scale.keys()):
        o = old_scale[key]
        n = new_scale[key]
        old_rps = (
            key[0] / float(o["open_indexed_seconds"])
            if float(o["open_indexed_seconds"]) > 0.0
            else 0.0
        )
        new_rps = (
            key[0] / float(n["open_indexed_seconds"])
            if float(n["open_indexed_seconds"]) > 0.0
            else 0.0
        )
        ratio = new_rps / old_rps if old_rps > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(f"indexed open slowed to {ratio:.2f}x")
        if o["match_digest"] != n["match_digest"]:
            behaviour_reasons.append(
                "scale query results moved (digest differs)"
            )
        elif o["matches"] != n["matches"]:
            behaviour_reasons.append(
                f"scale matches changed {o['matches']} -> {n['matches']}"
            )
        add_row(
            {
                "workload": "scale",
                "algorithm": f"{key[0]}rec",
                "old_points_per_sec": old_rps,
                "new_points_per_sec": new_rps,
                "ratio": ratio,
                "reasons": timing_reasons + behaviour_reasons,
                "behaviour": bool(behaviour_reasons),
            }
        )

    # Geodetic section (schema 4+): fleet variants joined on name.  The
    # query digest covers the definite/exact/approximate device sets of
    # the geographic range query — membership decisions with metre-scale
    # margins, so drift is behaviour, not libm noise.  The projection
    # throughput records are timing-only and are not diffed (per-machine).
    old_geo = {
        r["variant"]: r
        for r in (old.get("geodetic") or {}).get("fleets", [])
    }
    new_geo = {
        r["variant"]: r
        for r in (new.get("geodetic") or {}).get("fleets", [])
    }
    for variant in sorted(old_geo.keys() & new_geo.keys()):
        o = old_geo[variant]
        n = new_geo[variant]
        old_ips = float(o["ingest_fixes_per_sec"])
        new_ips = float(n["ingest_fixes_per_sec"])
        ratio = new_ips / old_ips if old_ips > 0.0 else float("inf")
        timing_reasons = []
        behaviour_reasons = []
        if ratio < threshold:
            timing_reasons.append(f"ingest throughput fell to {ratio:.2f}x")
        if (
            o["devices"] == n["devices"]
            and o["fixes_per_device"] == n["fixes_per_device"]
        ):
            if o["query_digest"] != n["query_digest"]:
                behaviour_reasons.append(
                    "geodetic query results moved (digest differs)"
                )
            if o["zones"] != n["zones"]:
                behaviour_reasons.append(
                    f"stamped zones changed {o['zones']} -> {n['zones']}"
                )
        add_row(
            {
                "workload": "geodetic",
                "algorithm": variant,
                "old_points_per_sec": old_ips,
                "new_points_per_sec": new_ips,
                "ratio": ratio,
                "reasons": timing_reasons + behaviour_reasons,
                "behaviour": bool(behaviour_reasons),
            }
        )
    return rows, flagged


def format_diff(rows: List[dict]) -> str:
    """Plain-text comparison table with flags in the last column."""
    header = (
        f"{'workload':<16}{'algorithm':<18}{'old pts/s':>12}"
        f"{'new pts/s':>12}{'ratio':>8}  flags"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r['workload']:<16}{r['algorithm']:<18}"
            f"{r['old_points_per_sec']:>12,.0f}"
            f"{r['new_points_per_sec']:>12,.0f}"
            f"{r['ratio']:>8.2f}  {'; '.join(r['reasons']) or 'ok'}"
        )
    return "\n".join(lines)
