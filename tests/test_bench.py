"""Benchmark subsystem tests: workloads, harness, JSON output, compare mode."""

import json

import pytest

from repro.bench import (
    WORKLOADS,
    BenchError,
    bench_compressor,
    diff_benches,
    make_workload,
    percentile,
    run_bench,
)
from repro.bench.__main__ import main
from repro.compression import BQSCompressor


class TestWorkloads:
    def test_registry_covers_the_four_regimes(self):
        assert set(WORKLOADS) == {
            "random_walk",
            "vehicle_route",
            "flight_arc",
            "bursty_pause",
        }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic_seeded_and_monotone(self, name):
        a = make_workload(name, 400, seed=3)
        b = make_workload(name, 400, seed=3)
        c = make_workload(name, 400, seed=4)
        assert a == b
        assert a != c
        assert len(a) == 400
        times = [p.t for p in a]
        assert times == sorted(times)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            make_workload("warp_drive", 10)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_is_compressible_within_bound(self, name):
        points = make_workload(name, 1500, seed=7)
        compressed = BQSCompressor(10.0).compress(points)
        assert 1 < len(compressed) < len(points)
        assert compressed.max_deviation_from(points) <= 10.0 * (1.0 + 1e-9)


class TestHarness:
    def test_percentile_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 50.0) == 2.0
        assert percentile(vals, 99.0) == 4.0
        assert percentile([], 50.0) == 0.0

    def test_bench_compressor_record_fields(self):
        points = make_workload("random_walk", 900, seed=7)
        record = bench_compressor(
            lambda: BQSCompressor(10.0), points, "random_walk"
        )
        assert record.algorithm == "bqs"
        assert record.points == 900
        assert record.points_per_sec > 0.0
        # The columnar pass ran and audited against the object path.
        assert record.columnar_points_per_sec > 0.0
        assert record.columnar_wall_seconds > 0.0
        assert record.columnar_speedup == pytest.approx(
            record.wall_seconds / record.columnar_wall_seconds
        )
        assert 0.0 < record.push_us_p50 <= record.push_us_p99 <= record.push_us_max
        assert record.within_bound is True
        assert record.peak_retained_points > 0
        assert sum(record.decisions.values()) == 900
        # Digest pins the exact output: same stream, same algorithm -> same.
        again = bench_compressor(
            lambda: BQSCompressor(10.0), points, "random_walk"
        )
        assert record.key_digest == again.key_digest
        assert len(record.key_digest) == 16
        payload = record.to_json()
        assert payload["workload"] == "random_walk"
        json.dumps(payload)  # JSON-serializable

    def test_run_bench_covers_selection(self):
        workloads = {
            "random_walk": make_workload("random_walk", 300, seed=1),
            "bursty_pause": make_workload("bursty_pause", 300, seed=1),
        }
        records = run_bench(workloads, epsilon=10.0, algorithms=["bqs", "uniform"])
        assert {(r.workload, r.algorithm) for r in records} == {
            ("random_walk", "bqs"),
            ("random_walk", "uniform"),
            ("bursty_pause", "bqs"),
            ("bursty_pause", "uniform"),
        }
        for r in records:
            if r.error_bounded:
                assert r.within_bound is True
            else:
                assert r.within_bound is None

    def test_run_bench_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithms"):
            run_bench({"random_walk": []}, epsilon=10.0, algorithms=["nope"])

    def test_bench_error_is_a_runtime_error(self):
        assert issubclass(BenchError, RuntimeError)


class TestCLI:
    def test_run_writes_json_document(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "--points", "400",
                "--workloads", "random_walk,flight_arc",
                "--algorithms", "bqs,fast-bqs,uniform",
                "--baseline", "pre_pr_bqs_pps=1234.5",
                "--no-fleet",
                "--no-storage",
                "--no-geodetic",
                "--scale-sizes", "1500",
                "--scale-devices", "30",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 8
        assert doc["geodetic"] is None
        assert doc["dirty_fleet"] is None  # rides with --no-fleet
        assert doc["durability"] is None  # rides with --no-fleet too
        assert len(doc["scale"]) == 1
        scale = doc["scale"][0]
        assert scale["records"] == 1500
        assert scale["segments"] >= 1
        assert scale["matches"] > 0
        assert scale["open_indexed_seconds"] > 0
        assert scale["open_scan_seconds"] > 0
        assert doc["baselines"] == {"pre_pr_bqs_pps": 1234.5}
        assert doc["workloads"]["random_walk"]["points"] == 400
        keys = {(r["workload"], r["algorithm"]) for r in doc["results"]}
        assert keys == {
            (w, a)
            for w in ("random_walk", "flight_arc")
            for a in ("bqs", "fast-bqs", "uniform")
        }
        for r in doc["results"]:
            assert r["points_per_sec"] > 0
            assert "push_us_p50" in r and "push_us_p99" in r
        assert "wrote" in capsys.readouterr().out

    def test_smoke_flag_overrides_point_count(self, tmp_path):
        out = tmp_path / "smoke.json"
        code = main(
            [
                "--smoke",
                "--workloads", "random_walk",
                "--algorithms", "uniform",
                "--no-fleet",
                "--no-storage",
                "--no-geodetic",
                "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["smoke"] is True
        assert doc["workloads"]["random_walk"]["points"] == 2000

    def test_compare_flags_regression_and_strict_exit(self, tmp_path, capsys):
        def bench_doc(pps, keys=50):
            return {
                "schema": 1,
                "results": [
                    {
                        "workload": "random_walk",
                        "algorithm": "bqs",
                        "points": 1000,
                        "points_per_sec": pps,
                        "key_points": keys,
                    }
                ],
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(bench_doc(100_000.0)))
        new.write_text(json.dumps(bench_doc(30_000.0)))

        assert main(["compare", str(old), str(new)]) == 0  # advisory
        assert "throughput fell" in capsys.readouterr().out
        assert main(["compare", str(old), str(new), "--strict"]) == 1
        # No regression above the threshold: strict passes.
        new.write_text(json.dumps(bench_doc(95_000.0)))
        assert main(["compare", str(old), str(new), "--strict"]) == 0

    def test_compare_flags_behaviour_change(self, tmp_path, capsys):
        def bench_doc(keys, digest="aaaa"):
            return {
                "schema": 1,
                "results": [
                    {
                        "workload": "random_walk",
                        "algorithm": "bqs",
                        "points": 1000,
                        "points_per_sec": 100_000.0,
                        "key_points": keys,
                        "key_digest": digest,
                    }
                ],
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(bench_doc(50)))
        new.write_text(json.dumps(bench_doc(61)))
        assert main(["compare", str(old), str(new), "--strict"]) == 1
        assert "key points changed" in capsys.readouterr().out
        # Same count but moved points: caught via the digest.
        old.write_text(json.dumps(bench_doc(50, digest="aaaa")))
        new.write_text(json.dumps(bench_doc(50, digest="bbbb")))
        assert main(["compare", str(old), str(new), "--strict"]) == 1
        assert "digest differs" in capsys.readouterr().out
        # Old files without digests stay comparable (no spurious flag).
        doc = bench_doc(50)
        del doc["results"][0]["key_digest"]
        old.write_text(json.dumps(doc))
        new.write_text(json.dumps(bench_doc(50, digest="bbbb")))
        assert main(["compare", str(old), str(new), "--strict"]) == 0

    def test_diff_benches_threshold_validation(self):
        with pytest.raises(ValueError):
            diff_benches({"results": []}, {"results": []}, threshold=0.0)

    def test_fail_on_behaviour_separates_digest_from_timing(self, tmp_path):
        """The CI policy: digest drift fails, throughput deltas only warn."""

        def bench_doc(pps, digest):
            return {
                "schema": 2,
                "results": [
                    {
                        "workload": "random_walk",
                        "algorithm": "bqs",
                        "points": 1000,
                        "points_per_sec": pps,
                        "key_points": 50,
                        "key_digest": digest,
                    }
                ],
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(bench_doc(100_000.0, "aaaa")))
        # 10x slower but same output: warns, exits 0.
        new.write_text(json.dumps(bench_doc(10_000.0, "aaaa")))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        # Same speed but moved key points: exits 1.
        new.write_text(json.dumps(bench_doc(100_000.0, "bbbb")))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1

    def test_fleet_digest_drift_is_behaviour(self, tmp_path):
        """The fleet section participates in the baseline gate too."""

        def fleet_doc(digest, fps=50_000.0):
            return {
                "schema": 2,
                "results": [],
                "fleet": [
                    {
                        "mode": "engine",
                        "devices": 25,
                        "fixes_per_device": 80,
                        "fixes_per_sec": fps,
                        "key_digest": digest,
                    }
                ],
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(fleet_doc("aaaa")))
        new.write_text(json.dumps(fleet_doc("aaaa", fps=5_000.0)))  # slow only
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        new.write_text(json.dumps(fleet_doc("bbbb")))  # output moved
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1


class TestFleetBench:
    def test_fleet_modes_agree_and_record(self):
        from repro.bench import run_fleet_bench

        records = run_fleet_bench(
            6, 60, epsilon=10.0, seed=3, batch_size=64, worker_counts=(2,)
        )
        assert [r.mode for r in records] == [
            "per-device", "engine", "sharded-2"
        ]
        digests = {r.key_digest for r in records}
        assert len(digests) == 1  # determinism across every mode
        for r in records:
            assert r.fixes == 360
            assert r.fixes_per_sec > 0.0
            assert r.trajectories == 6
            json.dumps(r.to_json())
        sharded = records[-1]
        assert sharded.shards and len(sharded.shards) == 2
        assert sum(s["fixes"] for s in sharded.shards) == 360

    def test_fleet_digest_sensitive_to_output(self):
        from repro.bench import fleet_digest
        from repro.compression import BQSCompressor, synthetic_track

        track = synthetic_track(200, seed=1)
        a = {"dev": [BQSCompressor(10.0).compress(track)]}
        b = {"dev": [BQSCompressor(5.0).compress(track)]}
        assert fleet_digest(a) == fleet_digest(a)
        assert fleet_digest(a) != fleet_digest(b)


class TestDirtyFleetBench:
    def test_record_fields_and_invariants(self):
        from repro.bench import run_dirty_fleet_bench

        r = run_dirty_fleet_bench(6, 60, epsilon=10.0, seed=3, batch_size=256)
        # The function itself asserts the four robustness invariants
        # (ledger exact, lossless sub-trajectories, deviation <= epsilon,
        # clean-input transparency); here we pin the record shape.
        assert r.devices == 6 and r.fixes_per_device == 60
        assert r.clean_fixes == 360
        assert r.dirty_fixes > r.clean_fixes  # dups add fixes
        assert r.fixes_per_sec > 0.0
        assert r.max_deviation <= r.epsilon
        assert len(r.key_digest) == 16 and len(r.clean_digest) == 16
        assert r.key_digest != r.clean_digest  # disorder moved the output
        assert r.feed["fixes_in"] == r.dirty_fixes
        assert r.feed["buffered"] == 0
        doc = r.to_json()
        json.dumps(doc)
        assert doc["policy"]["max_speed_mps"] == 50.0
        assert doc["feed"]["dropped"] != {}

    def test_clean_digest_matches_fleet_bench(self):
        """The dirty bench's clean leg and the fleet bench run the same
        stream: their digests must agree, tying the two sections."""
        from repro.bench import run_dirty_fleet_bench, run_fleet_bench

        fleet = run_fleet_bench(
            6, 60, epsilon=10.0, seed=3, batch_size=256, worker_counts=()
        )
        dirty = run_dirty_fleet_bench(6, 60, epsilon=10.0, seed=3, batch_size=256)
        assert dirty.clean_digest == fleet[0].key_digest

    def test_size_validation(self):
        from repro.bench import BenchError, run_dirty_fleet_bench

        with pytest.raises(BenchError):
            run_dirty_fleet_bench(2, 60)
        with pytest.raises(BenchError):
            run_dirty_fleet_bench(6, 10)

    def test_compare_flags_dirty_fleet_behaviour(self, tmp_path, capsys):
        def doc(key_digest, clean_digest, dropped, fps=1000.0):
            return {
                "schema": 6,
                "results": [],
                "dirty_fleet": {
                    "devices": 6,
                    "fixes_per_device": 60,
                    "fixes_per_sec": fps,
                    "key_digest": key_digest,
                    "clean_digest": clean_digest,
                    "feed": {
                        "fixes_in": 370,
                        "fixes_out": 350,
                        "buffered": 0,
                        "reordered": 0,
                        "dropped": dropped,
                        "splits": {"gap": 1},
                    },
                },
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        base = doc("a" * 16, "c" * 16, {"duplicate": 20})
        old.write_text(json.dumps(base))
        new.write_text(json.dumps(base))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        capsys.readouterr()
        # Dirty digest drift is behaviour.
        new.write_text(json.dumps(doc("b" * 16, "c" * 16, {"duplicate": 20})))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "dirty-feed output moved" in capsys.readouterr().out
        # Ledger drift is behaviour even with identical digests.
        new.write_text(json.dumps(doc("a" * 16, "c" * 16, {"duplicate": 19})))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "feed ledger changed" in capsys.readouterr().out
        # Timing-only drift warns but passes the behaviour gate.
        new.write_text(
            json.dumps(doc("a" * 16, "c" * 16, {"duplicate": 20}, fps=100.0))
        )
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        assert "throughput fell" in capsys.readouterr().out


class TestProfileFlag:
    def test_profile_prints_cumulative_stats_without_json(self, tmp_path, capsys):
        out = tmp_path / "ignored.json"
        code = main(
            [
                "--points", "300",
                "--workloads", "random_walk",
                "--algorithms", "bqs",
                "--profile",
                "--profile-top", "5",
                "--no-fleet",
                "--no-storage",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "cumulative" in captured  # pstats table header
        assert not out.exists()  # profiling replaces the benchmark run


class TestStorageBench:
    def test_record_fields_and_audits(self):
        from repro.bench.storage import run_storage_bench

        r = run_storage_bench(
            points=800,
            fleet_devices=6,
            fleet_fixes_per_device=40,
            repeats=1,
        )
        assert r.key_points > 0
        assert r.encoded_bytes > 0
        assert r.bytes_per_raw_point < 12  # beats raw GPS storage
        assert r.end_to_end_ratio > 1.0
        assert len(r.blob_digest) == 16 and len(r.query_digest) == 16
        assert r.ingest_fixes_per_sec > 0
        doc = r.to_json()
        assert doc["workload"] == "random_walk"
        assert doc["store_bytes"] > 0

    def test_compare_flags_storage_behaviour(self, tmp_path, capsys):
        def doc(digest, ips=1000.0):
            return {
                "schema": 3,
                "results": [],
                "storage": {
                    "points": 800,
                    "fleet_devices": 6,
                    "fleet_fixes": 40,
                    "ingest_fixes_per_sec": ips,
                    "blob_digest": digest,
                    "query_digest": "q" * 16,
                },
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc("a" * 16)))
        new.write_text(json.dumps(doc("a" * 16)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        capsys.readouterr()
        new.write_text(json.dumps(doc("b" * 16)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "codec output moved" in capsys.readouterr().out

    def test_compare_flags_durability_behaviour(self, tmp_path, capsys):
        def doc(store_digest, recovered_digest, fps=1000.0):
            return {
                "schema": 7,
                "results": [],
                "durability": {
                    "devices": 25,
                    "fixes_per_device": 80,
                    "journal_fixes_per_sec": fps,
                    "store_digest": store_digest,
                    "recovered_digest": recovered_digest,
                },
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc("a" * 64, "a" * 64)))
        new.write_text(json.dumps(doc("a" * 64, "a" * 64)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        capsys.readouterr()
        new.write_text(json.dumps(doc("b" * 64, "a" * 64)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "persisted store moved" in capsys.readouterr().out
        new.write_text(json.dumps(doc("a" * 64, "c" * 64)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "recovered store moved" in capsys.readouterr().out
        # Timing-only slowdowns warn but do not fail the behaviour gate.
        new.write_text(json.dumps(doc("a" * 64, "a" * 64, fps=100.0)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        assert "journaled ingest fell" in capsys.readouterr().out

    def test_geodetic_record_fields_and_bracket_audit(self):
        from repro.bench.geodetic import run_geodetic_bench

        projection_records, fleet_records = run_geodetic_bench(
            points=500,
            fleet_devices=8,
            fleet_fixes_per_device=40,
            repeats=1,
        )
        assert {p.projection for p in projection_records} == {
            "utm",
            "local_tangent",
        }
        for p in projection_records:
            assert p.points_per_sec > 0
        assert [r.variant for r in fleet_records] == [
            "single_zone",
            "multi_zone",
            "noisy_multi_zone",
        ]
        for r in fleet_records:
            assert r.ingest_fixes_per_sec > 0
            assert r.records == 8
            assert len(r.query_digest) == 16
            # The bracket audit ran inside (BenchError otherwise).
            assert (
                r.definite_devices
                <= r.truth_devices
                <= r.exact_devices
                <= r.approx_devices
            )
        assert fleet_records[0].zones == ["32N"]
        assert len(fleet_records[1].zones) == 4  # both boundaries, both hemis

    def test_compare_flags_geodetic_behaviour(self, tmp_path, capsys):
        def doc(digest, zones=("32N", "33N"), ips=1000.0):
            return {
                "schema": 4,
                "results": [],
                "geodetic": {
                    "projection": [],
                    "fleets": [
                        {
                            "variant": "multi_zone",
                            "devices": 8,
                            "fixes_per_device": 40,
                            "ingest_fixes_per_sec": ips,
                            "zones": list(zones),
                            "query_digest": digest,
                        }
                    ],
                },
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc("a" * 16)))
        new.write_text(json.dumps(doc("a" * 16)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        capsys.readouterr()
        new.write_text(json.dumps(doc("b" * 16)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "geodetic query results moved" in capsys.readouterr().out
        new.write_text(json.dumps(doc("a" * 16, zones=("31N",))))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 1
        assert "stamped zones changed" in capsys.readouterr().out
        # Timing-only deltas warn but do not fail.
        new.write_text(json.dumps(doc("a" * 16, ips=100.0)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        assert "ingest throughput fell" in capsys.readouterr().out

    def test_compare_storage_timing_only_warns(self, tmp_path, capsys):
        def doc(ips):
            return {
                "schema": 3,
                "results": [],
                "storage": {
                    "points": 800,
                    "fleet_devices": 6,
                    "fleet_fixes": 40,
                    "ingest_fixes_per_sec": ips,
                    "blob_digest": "a" * 16,
                    "query_digest": "q" * 16,
                },
            }

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(doc(1000.0)))
        new.write_text(json.dumps(doc(100.0)))
        assert main(["compare", str(old), str(new), "--fail-on-behaviour"]) == 0
        assert "ingest throughput fell" in capsys.readouterr().out
        assert main(["compare", str(old), str(new), "--strict"]) == 1
