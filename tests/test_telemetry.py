"""Tests for the telemetry layer: registry, no-op mode, flushing, determinism.

The contract under test is the one the observability PR promises: metrics
are cheap and alloc-free to record, ``REPRO_TELEMETRY=0`` is a strict no-op, and — most importantly — campaign
results are byte-identical with telemetry on and off.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.runs import ExperimentSpec
from repro.store import Catalog, catalog_path
from repro.telemetry.dashboard import LocalSource, render
from repro.telemetry.registry import MetricRegistry


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test gets a fresh enabled registry; state never leaks across."""
    telemetry.configure(enabled=True, reset=True)
    yield
    telemetry.configure(enabled=None, reset=True)


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


# --------------------------------------------------------------------------
class TestRegistry:
    def test_counter_delta_snapshot(self):
        registry = MetricRegistry()
        counter = registry.counter("a.b.c")
        counter.inc()
        counter.inc(2.5)
        points = registry.snapshot(reset=True)
        assert points == [{"name": "a.b.c", "kind": "counter", "value": 3.5}]
        # Counters are per-flush deltas: nothing new -> nothing reported.
        assert registry.snapshot(reset=True) == []
        counter.inc()
        assert registry.snapshot(reset=True)[0]["value"] == 1.0

    def test_gauge_reports_only_when_dirty(self):
        registry = MetricRegistry()
        gauge = registry.gauge("queue.depth")
        assert registry.snapshot() == []
        gauge.set(7)
        assert registry.snapshot(reset=True)[0]["value"] == 7.0
        # Unchanged gauge stays quiet but keeps its value.
        assert registry.snapshot(reset=True) == []
        assert gauge.value == 7.0

    def test_histogram_buckets_and_overflow(self):
        registry = MetricRegistry()
        hist = registry.histogram("lat")
        for value in (0.0001, 0.3, 0.5, 0.5, 99.0):
            hist.record(value)
        point = registry.snapshot(reset=True)[0]
        assert point["count"] == 5
        assert point["value"] == pytest.approx(100.3001)
        edges = list(telemetry.DEFAULT_BUCKET_EDGES)
        assert point["buckets"]["edges"] == edges
        counts = point["buckets"]["counts"]
        assert len(counts) == len(edges) + 1
        assert counts[0] == 1  # <= the first edge
        assert counts[edges.index(0.5)] == 3  # (0.25, 0.5]: edges are inclusive
        assert counts[-1] == 1  # past the last edge: the overflow bucket
        assert sum(counts) == 5
        assert hist.count == 0  # reset with the snapshot

    def test_histogram_record_path_is_alloc_free(self):
        hist = MetricRegistry().histogram("lat")
        counts_buffer = hist.counts
        for _ in range(100):
            hist.record(0.01)
        assert hist.counts is counts_buffer  # in-place, never reallocated
        assert isinstance(hist.counts, np.ndarray)

    def test_kind_mismatch_rejected(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_thread_concurrent_records_survive(self):
        registry = MetricRegistry()
        counter = registry.counter("c")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Lock-free increments may lose a race, but must never crash or
        # exceed the true total.
        assert 0 < counter.value <= 4000


# --------------------------------------------------------------------------
class TestNoOpMode:
    def test_configure_disabled_returns_null_handles(self):
        telemetry.configure(enabled=False)
        assert telemetry.counter("x") is telemetry.NULL_METRIC
        assert telemetry.gauge("x") is telemetry.NULL_METRIC
        assert telemetry.histogram("x") is telemetry.NULL_METRIC
        telemetry.counter("x").inc()
        telemetry.histogram("x").record(1.0)
        assert telemetry.get_registry().snapshot() == []

    def test_env_flag_disables(self, monkeypatch):
        telemetry.configure(enabled=None)  # defer to the environment
        monkeypatch.setenv(telemetry.ENV_FLAG, "0")
        assert not telemetry.enabled()
        assert telemetry.counter("x") is telemetry.NULL_METRIC
        monkeypatch.setenv(telemetry.ENV_FLAG, "1")
        assert telemetry.enabled()

    def test_flusher_noop_when_disabled(self, tmp_path):
        telemetry.configure(enabled=False)
        calls = []
        flusher = telemetry.TelemetryFlusher(
            lambda points: calls.append(points))
        flusher.start()
        assert flusher._thread is None  # no thread in no-op mode
        flusher.stop()
        assert calls == []


# --------------------------------------------------------------------------
class TestFlusher:
    def test_flush_delivers_points_once(self):
        telemetry.counter("f.c").inc(2)
        batches = []
        flusher = telemetry.TelemetryFlusher(batches.append)
        flusher.flush()
        assert batches == [[{"name": "f.c", "kind": "counter", "value": 2.0}]]
        flusher.flush()  # nothing new -> sink not called again
        assert len(batches) == 1
        telemetry.counter("f.c").inc()
        flusher.flush()  # a new delta is delivered once, not the old total
        assert batches[1] == [{"name": "f.c", "kind": "counter", "value": 1.0}]

    def test_stop_performs_final_flush(self):
        batches = []
        flusher = telemetry.TelemetryFlusher(
            batches.append, interval=60.0)
        flusher.start()
        telemetry.counter("f.tail").inc()
        flusher.stop()
        assert any(p["name"] == "f.tail" for batch in batches for p in batch)

    def test_sink_failure_is_swallowed(self):
        telemetry.counter("f.c").inc()

        def bad_sink(points):
            raise OSError("disk gone")

        flusher = telemetry.TelemetryFlusher(bad_sink)
        flusher.stop()  # must not raise

    def test_flush_to_catalog_roundtrip(self, tmp_path):
        catalog_file = tmp_path / "catalog.sqlite"
        telemetry.counter("worker.cells.completed").inc(4)
        telemetry.histogram("runner.cell.seconds").record(0.2)
        telemetry.flush_to_catalog(catalog_file, worker="w-test")
        with Catalog(catalog_file) as catalog:
            points = catalog.telemetry_points(worker="w-test")
            names = {p["name"] for p in points}
            assert {"worker.cells.completed", "runner.cell.seconds"} <= names
            hist = next(p for p in points
                        if p["name"] == "runner.cell.seconds")
            assert hist["buckets"]["counts"] and hist["count"] == 1
            totals = {t["name"]: t["total"]
                      for t in catalog.telemetry_totals()}
            assert totals["worker.cells.completed"] == 4.0

    def test_flush_to_catalog_none_is_noop(self):
        telemetry.counter("x").inc()
        telemetry.flush_to_catalog(None)  # must not raise
        assert telemetry.get_registry().snapshot(reset=False)


# --------------------------------------------------------------------------
class TestInstrumentation:
    def test_trainer_records_time_split_and_rates(self):
        from repro.rl.ppo import PPOConfig
        from repro.rl.trainer import PPOTrainer
        from test_rl import tiny_env_factory

        trainer = PPOTrainer(tiny_env_factory,
                             PPOConfig(horizon=8, num_envs=2,
                                       minibatch_size=16, update_epochs=1),
                             hidden_sizes=(16,), seed=0)
        trainer.train(max_updates=2, eval_every=2, eval_episodes=2)
        points = {p["name"]: p
                  for p in telemetry.get_registry().snapshot(reset=False)}
        assert points["trainer.updates.total"]["value"] == 2.0
        assert points["trainer.env_steps.total"]["value"] == 2 * 8 * 2
        assert points["trainer.time.rollout_seconds"]["value"] > 0.0
        assert points["trainer.time.update_seconds"]["value"] > 0.0
        assert points["trainer.time.eval_seconds"]["value"] > 0.0
        assert points["trainer.updates.per_second"]["value"] > 0.0
        assert points["trainer.update.seconds"]["count"] == 2

    def test_local_campaign_persists_telemetry(self, tmp_path):
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "ok", "name": "b"})
        root = tmp_path / "runs"
        repro.run(spec, root=root)
        with Catalog(catalog_path(root)) as catalog:
            totals = {t["name"]: t["total"]
                      for t in catalog.telemetry_totals()}
            assert totals.get("runner.cell.attempts", 0) >= 2
            # A cell's own timing lives in its catalogue row.
            cells = catalog.conn.fetchall(
                "SELECT elapsed_seconds FROM cells WHERE run_id = 'chaos-smoke'")
            assert len(cells) == 2
            assert all(c["elapsed_seconds"] is not None for c in cells)

    def test_results_identical_with_telemetry_on_and_off(self, tmp_path):
        spec = chaos_spec({"mode": "ok", "name": "a", "offset": 2},
                          {"mode": "ok", "name": "b", "offset": 5})
        telemetry.configure(enabled=False, reset=True)
        repro.run(spec, root=tmp_path / "off")
        with Catalog(catalog_path(tmp_path / "off")) as catalog:
            # Strict no-op mode: the disabled run persisted zero telemetry.
            assert catalog.telemetry_points(limit=1) == []
        telemetry.configure(enabled=True, reset=True)
        repro.run(spec, root=tmp_path / "on")
        with Catalog(catalog_path(tmp_path / "on")) as catalog:
            assert catalog.telemetry_points(limit=1)
        on = (tmp_path / "on" / "chaos-smoke" / "results.json").read_bytes()
        off = (tmp_path / "off" / "chaos-smoke" / "results.json").read_bytes()
        assert on == off


# --------------------------------------------------------------------------
class TestDashboard:
    def test_render_local_snapshot(self, tmp_path):
        spec = chaos_spec({"mode": "ok", "name": "a"})
        root = tmp_path / "runs"
        repro.run(spec, root=root)
        source = LocalSource(catalog_path(root))
        frame = render(source.snapshot())
        assert "chaos-smoke" in frame
        assert "1/1" in frame and "#" in frame  # full progress bar
        assert "telemetry" in frame

    def test_render_missing_catalog(self, tmp_path):
        frame = render(LocalSource(tmp_path / "none.sqlite").snapshot())
        assert "no catalogue" in frame
        assert "campaigns" in frame  # frame still renders every pane
