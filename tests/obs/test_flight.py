"""Flight recorder: bounded rotation, replay, torn-tail tolerance."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.flight import (
    ROTATED_SUFFIX,
    FlightRecorder,
    iter_flight,
    read_ops,
)
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


@pytest.fixture
def path(tmp_path):
    return tmp_path / "flight.jsonl"


class TestFlightRecorder:
    def test_rejects_tiny_budget(self, path):
        with pytest.raises(ValueError):
            FlightRecorder(path, max_bytes=100)

    def test_events_round_trip(self, path):
        with FlightRecorder(path, clock=FakeClock()) as recorder:
            recorder.emit_meta(profile="smoke", seed=7)
            recorder.emit_op("upload", "t0", 0.05, True, nbytes=4096)
            recorder.emit_op(
                "restore", "t1", 0.01, False, error="NotFound"
            )
        events = list(iter_flight(path))
        assert [e["kind"] for e in events] == ["meta", "op", "op"]
        assert events[0]["profile"] == "smoke"
        assert events[1]["bytes"] == 4096
        assert events[2]["error"] == "NotFound"
        ops = read_ops(path)
        assert len(ops) == 2
        # Timestamps are monotonic within the file.
        assert ops[0]["ts"] < ops[1]["ts"]

    def test_timestamp_is_taken_under_the_write_lock(self, path):
        """Stamping outside the lock lets two writers append events out
        of time order; the clock must only run while the lock is held."""
        recorder = None

        def clock():
            assert recorder._lock.locked(), "clock read outside the lock"
            return 1.0

        recorder = FlightRecorder(path, clock=clock)
        recorder.emit("op", op="upload")
        recorder.close()
        assert [e["ts"] for e in iter_flight(path)] == [1.0]

    def test_rotation_bounds_disk_and_keeps_recent_history(self, path):
        recorder = FlightRecorder(path, max_bytes=4096, clock=FakeClock())
        for i in range(200):
            recorder.emit("op", op="upload", tenant="t0", seq=i, ok=True)
        recorder.close()
        rotated = path.with_name(path.name + ROTATED_SUFFIX)
        assert rotated.exists()
        total = path.stat().st_size + rotated.stat().st_size
        assert total <= 4096 + 128  # budget plus at most one event
        events = list(iter_flight(path))
        # The most recent events always survive, in order.
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 199

    def test_closed_recorder_drops_events_silently(self, path):
        recorder = FlightRecorder(path, clock=FakeClock())
        recorder.close()
        recorder.emit("op", op="upload")  # must not raise
        assert list(iter_flight(path)) == []

    def test_metrics_delta_only_reports_changes(self, path):
        registry = MetricsRegistry()
        counter = registry.counter("ted_x_total")
        with FlightRecorder(path, clock=FakeClock()) as recorder:
            counter.inc(3)
            recorder.emit_metrics_delta(registry)
            recorder.emit_metrics_delta(registry)  # nothing moved
            counter.inc()
            recorder.emit_metrics_delta(registry)
        deltas = [
            e["delta"] for e in iter_flight(path) if e["kind"] == "metrics"
        ]
        assert deltas == [{"ted_x_total": 3}, {"ted_x_total": 4}]

    def test_concurrent_metrics_deltas_replay_to_the_registry(self, path):
        """Caller A reads the counter at 1 and pauses; the counter moves
        to 2 and caller B emits. A's older snapshot must not land after
        B's, or replaying the file disagrees with the registry."""
        registry = MetricsRegistry()
        counter = registry.counter("ted_x_total")
        counter.inc()
        a_has_read = threading.Event()
        resume_a = threading.Event()

        class PausingRegistry:
            def instruments(self):
                yield from registry.instruments()
                a_has_read.set()  # every value is read by now
                resume_a.wait(timeout=10.0)

        recorder = FlightRecorder(path, clock=FakeClock())
        caller_a = threading.Thread(
            target=recorder.emit_metrics_delta, args=(PausingRegistry(),)
        )
        caller_a.start()
        assert a_has_read.wait(timeout=10.0)
        counter.inc()
        caller_b = threading.Thread(
            target=recorder.emit_metrics_delta, args=(registry,)
        )
        caller_b.start()
        caller_b.join(timeout=1.0)  # finishes early only without a lock
        resume_a.set()
        caller_a.join(timeout=10.0)
        caller_b.join(timeout=10.0)
        recorder.close()
        replayed = {}
        for event in iter_flight(path):
            if event["kind"] == "metrics":
                replayed.update(event["delta"])
        assert replayed == {"ted_x_total": counter.value}


class TestIterFlight:
    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_flight(tmp_path / "nope.jsonl"))

    def test_torn_final_line_skipped(self, path):
        path.write_text(
            json.dumps({"ts": 1, "kind": "op", "ok": True})
            + "\n"
            + '{"ts": 2, "kind": "op", "o'  # crashed mid-append
        )
        events = list(iter_flight(path))
        assert len(events) == 1

    def test_torn_interior_line_raises(self, path):
        path.write_text(
            '{"broken\n' + json.dumps({"ts": 2, "kind": "op"}) + "\n"
        )
        with pytest.raises(ValueError, match="damaged flight record"):
            list(iter_flight(path))

    def test_rotated_file_read_first(self, path):
        rotated = path.with_name(path.name + ROTATED_SUFFIX)
        rotated.write_text(json.dumps({"ts": 1, "kind": "op", "n": 1}) + "\n")
        path.write_text(json.dumps({"ts": 2, "kind": "op", "n": 2}) + "\n")
        assert [e["n"] for e in iter_flight(path)] == [1, 2]
