"""One decision kernel per compressor, three entry points over it.

Every compressor decides its fixes in one columnar kernel; ``push``,
``push_many`` and ``push_xyt`` only shape their input for it.  Comparing
the entry points with one another would therefore test the kernel against
itself, so these tests check each entry point against data recorded
independently of it:

* the key-point digests and decision counts of the committed bench smoke
  baseline (``BENCH_SMOKE_BASELINE.json``: seed 7, 2000 points per
  workload, ε = 10 m, ``default_factories(10.0)``), copied here as
  literals;
* the input points themselves: a key point from an object entry point is
  one of the pushed points, ``z`` included.
"""

import pytest

from repro.bench import make_workload
from repro.bench.harness import default_factories, key_point_digest
from repro.compression import (
    BQSCompressor,
    DeadReckoningCompressor,
    DouglasPeucker,
    FastBQSCompressor,
    TDTRCompressor,
    UniformSampler,
    synthetic_track,
)
from repro.compression.base import Decision
from repro.model import PlanePoint, TrajectoryColumns

SMOKE_POINTS = 2000
SMOKE_SEED = 7
SMOKE_EPSILON = 10.0

#: (workload, algorithm) -> (key digest, decision counts), as recorded in
#: BENCH_SMOKE_BASELINE.json.
PINNED = {
    ("random_walk", "bqs"): ("740894ea587208a9", {"accept": 1, "exact_accept": 723, "exact_commit": 42, "init": 1, "lower_bound": 37, "upper_bound": 1196}),
    ("random_walk", "fast-bqs"): ("9261f7bfb233d0ca", {"accept": 1, "init": 1, "upper_bound": 1998}),
    ("random_walk", "dead-reckoning"): ("3d80fad180cbc252", {"accept": 1, "init": 1, "threshold": 1998}),
    ("random_walk", "uniform"): ("3afd5d6052cf5b23", {"init": 1, "periodic": 1999}),
    ("random_walk", "douglas-peucker"): ("3783b94987e4c5e6", {"batch": 2000}),
    ("random_walk", "td-tr"): ("c3d07d93fa072ee5", {"batch": 2000}),
    ("vehicle_route", "bqs"): ("9423f54d1ec11845", {"accept": 1, "exact_accept": 2, "exact_commit": 1, "init": 1, "lower_bound": 26, "upper_bound": 1969}),
    ("vehicle_route", "fast-bqs"): ("50889809c6a46b1a", {"accept": 1, "init": 1, "upper_bound": 1998}),
    ("vehicle_route", "dead-reckoning"): ("d4db2bddb26295eb", {"accept": 1, "init": 1, "threshold": 1998}),
    ("vehicle_route", "uniform"): ("104fcbaa57be77d2", {"init": 1, "periodic": 1999}),
    ("vehicle_route", "douglas-peucker"): ("9f3a62b026542233", {"batch": 2000}),
    ("vehicle_route", "td-tr"): ("2ad3de8ce67131cf", {"batch": 2000}),
    ("flight_arc", "bqs"): ("7deddaececa497a3", {"accept": 1, "exact_accept": 1922, "exact_commit": 15, "init": 1, "upper_bound": 61}),
    ("flight_arc", "fast-bqs"): ("e6263c266cbbb6d7", {"accept": 1, "init": 1, "upper_bound": 1998}),
    ("flight_arc", "dead-reckoning"): ("8fcb1a735bcf3943", {"accept": 1, "init": 1, "threshold": 1998}),
    ("flight_arc", "uniform"): ("b4800ada46799b4f", {"init": 1, "periodic": 1999}),
    ("flight_arc", "douglas-peucker"): ("a193a8bf91820d87", {"batch": 2000}),
    ("flight_arc", "td-tr"): ("5d9475b68799dc86", {"batch": 2000}),
    ("bursty_pause", "bqs"): ("acd945110c447d83", {"accept": 1, "exact_accept": 582, "exact_commit": 27, "init": 1, "lower_bound": 37, "upper_bound": 1352}),
    ("bursty_pause", "fast-bqs"): ("4872dc9b43a9781d", {"accept": 1, "init": 1, "upper_bound": 1998}),
    ("bursty_pause", "dead-reckoning"): ("c6151479da742155", {"accept": 1, "init": 1, "threshold": 1998}),
    ("bursty_pause", "uniform"): ("514442634cfa8038", {"init": 1, "periodic": 1999}),
    ("bursty_pause", "douglas-peucker"): ("052ccb3e85b834f2", {"batch": 2000}),
    ("bursty_pause", "td-tr"): ("a038a4a91af6b8f6", {"batch": 2000}),
}


def _feed_push(compressor, points):
    for p in points:
        compressor.push(p)


def _feed_push_many(compressor, points):
    assert compressor.push_many(points) == len(points)


def _feed_push_xyt(compressor, points):
    cols = TrajectoryColumns.from_points(points)
    assert compressor.push_xyt(cols.ts, cols.xs, cols.ys) == len(points)


ENTRY_POINTS = {
    "push": _feed_push,
    "push_many": _feed_push_many,
    "push_xyt": _feed_push_xyt,
}


@pytest.fixture(scope="module")
def smoke_workloads():
    names = sorted({workload for workload, _ in PINNED})
    return {
        name: make_workload(name, SMOKE_POINTS, seed=SMOKE_SEED)
        for name in names
    }


class TestPinnedSmokeOutputs:
    def test_pins_cover_every_smoke_row(self, smoke_workloads):
        algorithms = default_factories(SMOKE_EPSILON)
        assert set(PINNED) == {
            (w, a) for w in smoke_workloads for a in algorithms
        }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_reproduces_every_pinned_row(self, entry, smoke_workloads):
        feed = ENTRY_POINTS[entry]
        factories = default_factories(SMOKE_EPSILON)
        for (workload, algorithm), (digest, decisions) in PINNED.items():
            points = smoke_workloads[workload]
            compressor = factories[algorithm]()
            feed(compressor, points)
            result = compressor.finish()
            row = (entry, workload, algorithm)
            assert key_point_digest(result.key_points) == digest, row
            assert compressor.stats == decisions, row
            assert result.original_count == SMOKE_POINTS, row


def _all_compressors():
    return [
        BQSCompressor(5.0),
        FastBQSCompressor(5.0),
        DeadReckoningCompressor(5.0),
        UniformSampler(7),
        DouglasPeucker(5.0),
        TDTRCompressor(5.0),
    ]


def _points_with_z():
    """A noisy track with altitude-like ``z`` and a stationary stretch of
    repeated fixes (the degenerate, zero-length path line)."""
    track = synthetic_track(1500, seed=13, noise_sigma=2.0)
    points = [
        PlanePoint(p.x, p.y, p.t, 120.0 + 0.25 * i)
        for i, p in enumerate(track)
    ]
    hold = points[700]
    stationary = [
        PlanePoint(hold.x, hold.y, hold.t, hold.z + 1.0 + i) for i in range(40)
    ]
    return points[:701] + stationary + points[701:]


class TestKeyPointsCarryZ:
    """Object entry points commit the pushed points themselves."""

    @pytest.mark.parametrize("entry", ["push", "push_many", "compress"])
    def test_every_key_point_is_an_input_point(self, entry):
        points = _points_with_z()
        inputs = set(points)
        for compressor in _all_compressors():
            if entry == "compress":
                result = compressor.compress(points)
            else:
                ENTRY_POINTS[entry](compressor, points)
                result = compressor.finish()
            assert len(result.key_points) >= 2, compressor.name
            for key in result.key_points:
                assert key in inputs, (compressor.name, key)

    def test_push_results_report_input_points(self):
        points = _points_with_z()
        inputs = set(points)
        for compressor in _all_compressors():
            committed = 0
            for i, p in enumerate(points):
                result = compressor.push(p)
                assert result.index == i
                for key in result.new_key_points:
                    assert key in inputs, (compressor.name, key)
                    committed += 1
            # The batch baselines commit only at finish().
            if not isinstance(compressor, (DouglasPeucker, TDTRCompressor)):
                assert committed >= 2, compressor.name

    def test_push_xyt_key_points_have_zero_z(self):
        points = _points_with_z()
        for compressor in _all_compressors():
            _feed_push_xyt(compressor, points)
            result = compressor.finish()
            assert all(k.z == 0.0 for k in result.key_points), compressor.name


class TestPushResultAdapter:
    def test_duplicate_commit_is_still_reported(self):
        """A committed key point equal to the previous one is dropped from
        the output, but ``push`` still reports the commit."""
        c = DeadReckoningCompressor(10.0)
        first = PlanePoint(0.0, 0.0, 0.0)
        again = PlanePoint(0.0, 0.0, 0.0, 5.0)
        assert c.push(first).new_key_points == (first,)
        assert c.push(again).decided_by == Decision.ACCEPT
        result = c.push(PlanePoint(100.0, 0.0, 1.0))
        assert result.decided_by == Decision.THRESHOLD
        assert result.new_key_points == (again,)
        assert c.key_points == (first,)

    def test_decision_labels_match_stats(self):
        track = synthetic_track(1200, seed=3, noise_sigma=2.0)
        for compressor in _all_compressors():
            seen = {}
            for p in track:
                label = compressor.push(p).decided_by
                seen[label] = seen.get(label, 0) + 1
            assert seen == compressor.stats, compressor.name
