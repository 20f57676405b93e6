"""Tests for the one-request-per-cell lease protocol.

A completion may carry the claim of the worker's next job
(:meth:`~repro.store.queue.JobQueue.complete_and_claim`, ``"claim"`` in a
``POST /api/jobs/complete`` body), and one heartbeat thread serves a whole
drain.  These tests pin the contracts that must survive the shortcut: the
piggybacked claim is exactly-once under lost and duplicated deliveries, an
interrupted worker gives a claimed-but-unstarted job back, ``max_cells``
claims nothing it will not run, a draining server still completes, and the
heartbeat renews the current lease on time without miscounting a beat that
raced its cell's completion as a lost lease.
"""

from __future__ import annotations

import collections
import os
import signal
import sys
import threading
import time
from urllib.parse import urlsplit

import pytest

import repro
from repro import telemetry
from repro.runs import ExperimentSpec
from repro.runs.faults import NetworkChaosPlan, NetworkFault
from repro.store import Catalog, JobQueue, catalog_path
from repro.store import worker as worker_module
from repro.store.chaos import ChaosProxy
from repro.store.client import RetryableTransportError, StoreClient
from repro.store.queue import Job
from repro.store.server import make_server
from repro.store.worker import submit_campaign, work

RUN = "chaos-smoke"


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


def ok_cells(n: int):
    return tuple({"mode": "ok", "name": f"c{i}", "offset": i}
                 for i in range(n))


def events_of(root, cell_index=None):
    with Catalog(catalog_path(root)) as catalog:
        events = JobQueue(catalog).lease_events(RUN)
    return [e["event"] for e in events
            if cell_index is None or e["cell_index"] == cell_index]


def job_states(root):
    with Catalog(catalog_path(root)) as catalog:
        rows = catalog.conn.fetchall(
            "SELECT cell_index, state FROM jobs WHERE run_id = ?"
            " ORDER BY cell_index", (RUN,))
    return [row["state"] for row in rows]


@pytest.fixture
def served():
    """Start servers over a root; every one is stopped at teardown."""
    servers = []

    def start(root):
        server = make_server(root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def counts(monkeypatch):
    """Every ``telemetry.counter`` increment and ``histogram`` record of
    this test, by metric name."""
    counted = collections.Counter()
    recorded = collections.defaultdict(list)
    lock = threading.Lock()

    class Recorder:
        def __init__(self, name, edges=None):
            self.name = name

        def inc(self, amount=1.0):
            with lock:
                counted[self.name] += amount

        def record(self, value):
            with lock:
                recorded[self.name].append(value)

    monkeypatch.setattr(telemetry, "counter", Recorder)
    monkeypatch.setattr(telemetry, "histogram", Recorder)
    counted.recorded = recorded
    return counted


def drain(root, transport, served, tmp_path, **kwargs):
    """One ``work()`` over ``RUN`` through the local or the HTTP backend."""
    if transport == "local":
        return work(root=root, run_id=RUN, worker_id="w1", **kwargs)
    _server, url = served(root)
    return work(root=tmp_path / "w1", run_id=RUN, worker_id="w1",
                server=url, client_backoff=0.05, **kwargs)


# --------------------------------------------------------------------------
class TestCompleteAndClaim:
    def test_one_transaction_completes_and_leases_the_next(self, tmp_path):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(2)), root=root)
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            first = queue.claim("w1", run_id=RUN)
            done, following = queue.complete_and_claim(
                first, "w1", run_id=RUN, row={"name": "c0", "value": 0})
            assert done is True
            assert following.cell_index == 1
            assert queue.complete_and_claim(
                following, "w1", run_id=RUN,
                row={"name": "c1", "value": 1}) == (True, None)
        assert events_of(root) == ["claimed", "completed", "claimed",
                                   "completed"]

    def test_a_stale_completion_still_claims(self, tmp_path):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(2)), root=root)
        with Catalog(catalog_path(root)) as catalog:
            queue = JobQueue(catalog)
            stale = queue.claim("loser", run_id=RUN, lease_ttl=-1)
            assert queue.claim("winner", run_id=RUN).reclaimed_from == "loser"
            done, following = queue.complete_and_claim(
                stale, "loser", run_id=RUN, row={"name": "c0", "value": 0})
        assert done is False
        assert following.cell_index == 1
        assert job_states(root) == ["leased", "leased"]


# --------------------------------------------------------------------------
class TestInterruptAfterPiggybackedClaim:
    """A stop that lands once a completion has claimed the next job gives
    that job straight back: ``released``, pending, no TTL wait."""

    @pytest.mark.parametrize("stop", ["sigterm", "keyboard"])
    @pytest.mark.parametrize("transport", ["local", "http"])
    def test_claimed_next_job_is_released(self, tmp_path, monkeypatch,
                                          served, transport, stop):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(3)), root=root)
        backend = (worker_module._LocalBackend if transport == "local"
                   else worker_module._RemoteBackend)
        original = backend.finalize

        def stop_after_first_cell(self, job):
            original(self, job)
            if stop == "sigterm":
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(5)  # the signal handler raises before this ends
            raise KeyboardInterrupt

        monkeypatch.setattr(backend, "finalize", stop_after_first_cell)
        summary = drain(root, transport, served, tmp_path)
        assert summary.interrupted is True
        assert summary.completed == 1
        assert summary.released == 1
        assert summary.cells[-1]["index"] == 1
        assert summary.cells[-1]["status"] == "interrupted"
        assert summary.cells[-1]["error"] == (
            "worker received SIGTERM" if stop == "sigterm"
            else "KeyboardInterrupt")
        assert events_of(root, 1) == ["claimed", "released"]
        assert job_states(root) == ["done", "pending", "pending"]

        monkeypatch.setattr(backend, "finalize", original)
        started = time.perf_counter()
        rest = drain(root, "local", served, tmp_path)
        assert rest.completed == 2
        assert time.perf_counter() - started < 30  # no 60 s lease wait
        serial = repro.run(chaos_spec(*ok_cells(3)), root=tmp_path / "serial")
        assert (root / RUN / "results.json").read_bytes() == \
            (serial.out_dir / "results.json").read_bytes()


# --------------------------------------------------------------------------
class TestMaxCells:
    @pytest.mark.parametrize("transport", ["local", "http"])
    def test_last_cell_claims_nothing(self, tmp_path, served, transport):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(5)), root=root)
        summary = drain(root, transport, served, tmp_path, max_cells=2)
        assert summary.completed == 2
        assert events_of(root).count("claimed") == 2
        assert job_states(root) == ["done", "done", "pending", "pending",
                                    "pending"]


# --------------------------------------------------------------------------
class TestDrainingServer:
    def test_complete_applies_and_leases_nothing(self, tmp_path, served):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(2)), root=root)
        server, url = served(root)
        client = StoreClient(url, worker_id="w1", max_retries=1,
                             backoff=0.01)
        job = client.claim(run_id=RUN)
        server.draining = True
        response = client.complete(
            RUN, job["cell_index"], status="completed",
            row={"name": "c0", "value": 0},
            claim={"run_id": RUN, "lease_ttl": 60})
        assert response["applied"] is True
        assert response["job"] is None
        assert response["draining"] is True
        with pytest.raises(RetryableTransportError) as err:
            client.claim(run_id=RUN)
        assert err.value.status == 503
        client.close()
        assert events_of(root) == ["claimed", "completed"]
        assert job_states(root) == ["done", "pending"]


# --------------------------------------------------------------------------
class TestExactlyOncePiggyback:
    """``drop-response`` then ``duplicate`` on a complete that carries a
    claim: the retries replay the same next job, leased once."""

    CLAIM = {"run_id": RUN, "lease_ttl": 60}

    def test_lost_and_duplicated_complete_replays_the_same_next_job(
            self, tmp_path, served):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(3)), root=root)
        _server, url = served(root)
        upstream = urlsplit(url)
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="drop-response", at_request=0, op="complete"),
            NetworkFault(kind="duplicate", at_request=1, op="complete"),
        ))
        with ChaosProxy((upstream.hostname, upstream.port), plan) as proxy:
            host, port = proxy.address
            client = StoreClient(f"http://{host}:{port}", worker_id="w1",
                                 backoff=0.01, max_retries=4)
            first = client.claim(run_id=RUN)
            response = client.complete(
                RUN, first["cell_index"], status="completed",
                row={"name": "c0", "value": 0}, claim=self.CLAIM)
            client.close()
        assert sorted(fault["kind"] for fault in proxy.fired) == \
            ["drop-response", "duplicate"]
        assert response["replayed"] is True
        assert response["applied"] is True
        assert response["job"]["cell_index"] == 1
        assert events_of(root, 0) == ["claimed", "completed"]
        assert events_of(root, 1) == ["claimed"]
        assert job_states(root) == ["done", "leased", "pending"]

    def test_chaotic_http_drain_bit_identical(self, tmp_path, served):
        spec = chaos_spec(*ok_cells(5))
        serial = repro.run(spec, root=tmp_path / "serial")
        root = tmp_path / "server"
        submit_campaign(spec, root=root)
        _server, url = served(root)
        upstream = urlsplit(url)
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="drop-response", at_request=1, op="complete"),
            NetworkFault(kind="duplicate", at_request=2, op="complete"),
        ))
        with ChaosProxy((upstream.hostname, upstream.port), plan) as proxy:
            host, port = proxy.address
            summary = work(root=tmp_path / "w1", run_id=RUN, worker_id="w1",
                           server=f"http://{host}:{port}",
                           client_backoff=0.01)
        assert len(proxy.fired) == 2
        assert summary.completed == 5
        events = events_of(root)
        assert events.count("claimed") == 5
        assert events.count("completed") == 5
        assert "reclaimed" not in events
        assert (root / RUN / "results.json").read_bytes() == \
            (serial.out_dir / "results.json").read_bytes()


class TestConcurrentPiggyback:
    @pytest.mark.parametrize("transport", ["local", "http"])
    def test_many_workers_lease_each_cell_once(self, tmp_path, served,
                                               transport):
        spec = chaos_spec(*ok_cells(24))
        serial = repro.run(spec, root=tmp_path / "serial")
        root = tmp_path / "runs"
        submit_campaign(spec, root=root)
        remote = {}
        if transport == "http":
            remote = {"server": served(root)[1]}
        summaries = []

        def drain_one(name):
            summaries.append(work(
                root=tmp_path / name if remote else root, run_id=RUN,
                worker_id=name, poll_seconds=0.05, **remote))

        threads = [threading.Thread(target=drain_one, args=(f"w{i}",))
                   for i in range(6)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(summary.completed for summary in summaries) == 24
        with Catalog(catalog_path(root)) as catalog:
            events = JobQueue(catalog).lease_events(RUN)
        for kind in ("claimed", "completed"):
            assert sorted(e["cell_index"] for e in events
                          if e["event"] == kind) == list(range(24))
        assert "reclaimed" not in {e["event"] for e in events}
        assert (root / RUN / "results.json").read_bytes() == \
            (serial.out_dir / "results.json").read_bytes()


# --------------------------------------------------------------------------
class TestOneHeartbeatThread:
    def _job(self, index):
        return Job(run_id=RUN, cell_index=index, payload={}, attempts=1)

    def test_renews_the_current_lease_on_time(self, counts):
        beats = []
        heartbeat = worker_module._Heartbeat(
            lambda job: beats.append((job.cell_index,
                                      time.perf_counter())) or True,
            lease_ttl=3)  # one beat a second
        with heartbeat:
            started = time.perf_counter()
            heartbeat.track(self._job(0))
            time.sleep(2.6)
            heartbeat.track(None)
        assert [index for index, _ in beats] == [0, 0]
        first, second = (at - started for _, at in beats)
        assert 1.0 <= first < 1.0 + 0.5
        assert 1.0 <= second - first < 1.0 + 0.5

    def test_gap_clock_restarts_at_each_new_job(self, counts):
        heartbeat = worker_module._Heartbeat(lambda job: True, lease_ttl=3)
        with heartbeat:
            heartbeat.track(self._job(0))
            time.sleep(1.5)  # one beat of job 0
            heartbeat.track(None)
            time.sleep(1.5)  # idle between cells: no beat, no gap
            heartbeat.track(self._job(1))
            time.sleep(1.5)  # one beat of job 1
            heartbeat.track(None)
        gaps = counts.recorded["worker.heartbeat.gap_seconds"]
        assert len(gaps) == 2
        # Measured from each job's start, not from job 0's beat (~3 s).
        assert all(1.0 <= gap < 1.5 for gap in gaps), gaps
        assert counts["worker.heartbeat.lost"] == 0

    def test_a_beat_racing_its_cells_completion_is_not_a_lost_lease(
            self, counts):
        in_flight, finish = threading.Event(), threading.Event()

        def renew(job):
            in_flight.set()
            finish.wait(10)
            return False  # the completion landed first

        heartbeat = worker_module._Heartbeat(renew, lease_ttl=3)
        with heartbeat:
            heartbeat.track(self._job(0))
            assert in_flight.wait(5)
            heartbeat.track(None)  # the cell finished while the beat flew
            finish.set()
        assert counts["worker.heartbeat.lost"] == 0
        assert counts.recorded["worker.heartbeat.gap_seconds"] == []

    def test_a_lost_lease_counts_once_and_stops_that_job(self, counts):
        beats = []
        heartbeat = worker_module._Heartbeat(
            lambda job: beats.append(job) or False, lease_ttl=3)
        with heartbeat:
            heartbeat.track(self._job(0))
            time.sleep(2.3)
        assert len(beats) == 1
        assert counts["worker.heartbeat.lost"] == 1

    def test_one_thread_per_drain(self, tmp_path, monkeypatch):
        built = []
        original = worker_module._Heartbeat.__init__

        def counting_init(self, *args, **kwargs):
            built.append(threading.current_thread().name)
            original(self, *args, **kwargs)

        monkeypatch.setattr(worker_module._Heartbeat, "__init__",
                            counting_init)
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(*ok_cells(4)), root=root)
        before = {t.name for t in threading.enumerate()}
        summary = work(root=root, run_id=RUN, worker_id="w1")
        assert summary.completed == 4
        assert len(built) == 1
        assert "lease-heartbeat" not in (
            {t.name for t in threading.enumerate()} - before)

    def test_a_long_cell_keeps_its_lease(self, tmp_path):
        root = tmp_path / "runs"
        submit_campaign(chaos_spec(
            {"mode": "ok", "name": "quick"},
            {"mode": "sleep", "name": "long", "seconds": 4.5}), root=root)
        # Without a beat the 3 s lease would lapse mid-cell and the idle
        # rescuer would reclaim it.
        rescued = []
        drainer = threading.Thread(target=lambda: rescued.append(work(
            root=root, run_id=RUN, worker_id="rescuer",
            poll_seconds=0.2)))
        summary_box = []
        main = threading.Thread(target=lambda: summary_box.append(work(
            root=root, run_id=RUN, worker_id="w1", lease_ttl=3)))
        main.start()
        deadline = time.perf_counter() + 30
        while "claimed" not in events_of(root, 1):
            assert time.perf_counter() < deadline
            time.sleep(0.05)
        drainer.start()
        main.join(timeout=60)
        drainer.join(timeout=60)
        assert summary_box[0].completed == 2
        assert rescued[0].reclaimed == 0
        assert events_of(root, 1).count("heartbeat") >= 3
        assert "reclaimed" not in events_of(root)
