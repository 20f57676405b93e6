"""Tests for the remote-worker transport: StoreClient, chaos, lease HTTP.

Unit tests drive :class:`~repro.store.client.StoreClient` against a fake
in-memory transport (taxonomy, deterministic backoff, idempotency keys) and
the :class:`~repro.store.chaos.ChaosProxy` against a counting stub upstream
(fault semantics); the live tests run a real
:class:`~repro.store.server.CampaignServer` and prove the acceptance
criterion — a chaos-perturbed multi-worker HTTP drain, including a
mid-drain server kill + restart, yields rows bit-identical to serial
``repro.run()`` with exactly one applied completion per cell.
"""

from __future__ import annotations

import collections
import dataclasses
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import quote, urlsplit

import pytest

import repro
from repro import telemetry
from repro.jsonio import dump_json
from repro.runs import ExperimentSpec
from repro.runs.cli import main as cli_main
from repro.runs.faults import ChaosSchedule, NetworkChaosPlan, NetworkFault
from repro.store import Catalog, JobQueue, catalog_path
from repro.store.chaos import ChaosProxy
from repro.store.queue import Job
from repro.store.client import (
    BACKOFF_CAP_SECONDS,
    FatalRequestError,
    HTTPTransport,
    RetryableTransportError,
    StoreClient,
    backoff_schedule,
)
from repro.store.server import make_server
from repro.store.worker import submit_campaign, work

REPO_ROOT = Path(__file__).resolve().parents[1]


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


def ok_cells(n: int):
    return tuple({"mode": "ok", "name": f"c{i}", "offset": i}
                 for i in range(n))


class FakeTransport:
    """Scripted transport: pops ``(status, body)`` or raises an exception."""

    def __init__(self, *script):
        self.script = list(script)
        self.requests = []

    def __call__(self, method, url, body, headers, timeout):
        self.requests.append({"method": method, "url": url, "body": body,
                              "timeout": timeout})
        step = self.script.pop(0)
        if isinstance(step, BaseException):
            raise step
        return step


def client_with(transport, **kwargs):
    kwargs.setdefault("backoff", 0.0)
    return StoreClient("http://fake", worker_id="w1", transport=transport,
                       sleep=lambda _s: None, **kwargs)


# --------------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_4xx_is_fatal_and_never_retried(self):
        transport = FakeTransport((404, b'{"error": "nope"}'))
        client = client_with(transport, max_retries=5)
        with pytest.raises(FatalRequestError) as err:
            client.get("/api/campaigns/nope")
        assert err.value.status == 404
        assert len(transport.requests) == 1

    def test_5xx_retried_until_budget_exhausted(self):
        transport = FakeTransport(*[(503, b"busy")] * 3)
        client = client_with(transport, max_retries=2)
        with pytest.raises(RetryableTransportError) as err:
            client.health()
        assert err.value.status == 503
        assert err.value.attempts == 3
        assert len(transport.requests) == 3

    def test_connection_errors_retried_then_succeed(self):
        transport = FakeTransport(ConnectionResetError("rst"),
                                  TimeoutError("deadline"),
                                  (200, b'{"ok": true}'))
        client = client_with(transport, max_retries=4)
        assert client.health() == {"ok": True}
        assert len(transport.requests) == 3

    def test_torn_2xx_body_is_retryable(self):
        transport = FakeTransport((200, b'{"ok": tr'),  # torn mid-flight
                                  (200, b'{"ok": true}'))
        client = client_with(transport, max_retries=1)
        assert client.health() == {"ok": True}

    def test_unbuildable_request_is_fatal_and_never_retried(self):
        transport = FakeTransport(http.client.InvalidURL("space in URL"))
        client = client_with(transport, max_retries=5)
        with pytest.raises(FatalRequestError):
            client.get("/api/jobs?run_id=my run")
        assert len(transport.requests) == 1

    def test_real_transport_rejects_an_unencoded_url_before_any_io(self):
        slept = []
        # Nothing listens on port 1: a request that reached the network
        # would be refused and retried.
        client = StoreClient("http://127.0.0.1:1", worker_id="w1",
                             sleep=slept.append)
        with pytest.raises(FatalRequestError):
            client.get("/api/jobs?run_id=my run")
        assert slept == []

    def test_every_request_carries_the_deadline(self):
        transport = FakeTransport((200, b"{}"), (200, b"{}"))
        client = client_with(transport, timeout=7.5)
        client.get("/api/health")
        client.request("GET", "/api/health", timeout=1.25)
        assert [r["timeout"] for r in transport.requests] == [7.5, 1.25]


class TestDeterministicBackoff:
    def test_schedule_is_deterministic_and_capped(self):
        first = backoff_schedule(0.25, 8, seed=42)
        again = backoff_schedule(0.25, 8, seed=42)
        other = backoff_schedule(0.25, 8, seed=43)
        assert first == again
        assert first != other
        assert all(d <= BACKOFF_CAP_SECONDS * 1.25 for d in first)
        # Exponential growth up to the cap, jitter never negative.
        assert first[0] >= 0.25 and first[1] >= 0.5 and first[2] >= 1.0

    def test_client_sleeps_the_schedule(self):
        slept = []
        transport = FakeTransport(*[(500, b"x")] * 4)
        client = StoreClient("http://fake", worker_id="w1",
                             transport=transport, max_retries=3,
                             backoff=0.25, retry_seed=7,
                             sleep=slept.append)
        with pytest.raises(RetryableTransportError):
            client.health()
        assert slept == backoff_schedule(0.25, 3, seed=7)


class TestIdempotencyKeys:
    def _keys_of(self, transport):
        return [json.loads(r["body"])["idempotency_key"]
                for r in transport.requests]

    def test_each_mutation_gets_a_fresh_key(self):
        transport = FakeTransport((200, b'{"job": null}'),
                                  (200, b'{"job": null}'))
        client = client_with(transport)
        client.claim()
        client.claim()
        keys = self._keys_of(transport)
        assert len(set(keys)) == 2
        assert all(key.startswith("w1.") for key in keys)

    def test_retries_reuse_the_same_key(self):
        transport = FakeTransport(ConnectionResetError("rst"), (500, b"x"),
                                  (200, b'{"applied": true}'))
        client = client_with(transport, max_retries=4)
        client.complete("run", 0, status="completed", row={"v": 1})
        keys = self._keys_of(transport)
        assert len(keys) == 3
        assert len(set(keys)) == 1  # one logical mutation, one key

    def test_restarted_client_cannot_replay_old_keys(self):
        # Same worker_id, new process: the per-instance session token keeps
        # the key spaces disjoint, so a stale recorded response can never be
        # replayed to a new incarnation.
        t1, t2 = FakeTransport((200, b"{}")), FakeTransport((200, b"{}"))
        client_with(t1).claim()
        client_with(t2).claim()
        assert self._keys_of(t1) != self._keys_of(t2)

    def test_concurrent_mutations_get_unique_keys(self):
        # A remote worker's one client is shared by the drain loop, the
        # heartbeat thread and the telemetry flusher.
        keys = []

        def transport(method, url, body, headers, timeout):
            keys.append(json.loads(body)["idempotency_key"])
            return 200, b'{"job": null}'

        client = client_with(transport)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda: [client.claim() for _ in range(200)])
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(keys) == len(set(keys)) == 8 * 200

    def test_heartbeats_carry_no_key(self):
        transport = FakeTransport((200, b'{"alive": true}'))
        client = client_with(transport)
        assert client.heartbeat("run", 0) is True
        assert "idempotency_key" not in json.loads(
            transport.requests[0]["body"])


class _CountingHandler(BaseHTTPRequestHandler):
    def do_POST(self):  # noqa: N802 (http.server naming)
        self.rfile.read(int(self.headers.get("Content-Length", "0")))
        self.server.paths.append(self.path)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"{}")

    def log_message(self, format, *args):  # noqa: A002
        pass


@pytest.fixture
def counting_upstream():
    """A stub upstream that answers every POST with ``{}`` and records its
    path, so a test can count what the proxy delivered."""
    upstream = ThreadingHTTPServer(("127.0.0.1", 0), _CountingHandler)
    upstream.paths = []
    threading.Thread(target=upstream.serve_forever, daemon=True).start()
    try:
        yield upstream
    finally:
        upstream.shutdown()
        upstream.server_close()


class TestChaosProxy:
    def _send(self, upstream, kind):
        """One POST through a proxy planned with a single ``kind`` fault."""
        plan = NetworkChaosPlan(faults=(NetworkFault(kind=kind),))
        with ChaosProxy(upstream.server_address[:2], plan) as proxy:
            host, port = proxy.address
            try:
                return HTTPTransport()(
                    "POST", f"http://{host}:{port}/api/jobs/complete", b"{}",
                    {"Content-Type": "application/json"}, 5.0)
            finally:
                assert proxy.fired == [{"kind": kind,
                                        "path": "/api/jobs/complete"}]

    def test_reset_never_reaches_upstream(self, counting_upstream):
        with pytest.raises(ConnectionError):
            self._send(counting_upstream, "reset")
        assert counting_upstream.paths == []

    def test_http_500_never_reaches_upstream(self, counting_upstream):
        status, body = self._send(counting_upstream, "http-500")
        assert status == 500 and b"chaos" in body
        assert counting_upstream.paths == []

    def test_drop_response_delivers_then_resets(self, counting_upstream):
        with pytest.raises(ConnectionError):
            self._send(counting_upstream, "drop-response")
        # The mutation WAS delivered; only its response was lost.
        assert counting_upstream.paths == ["/api/jobs/complete"]

    def test_duplicate_delivers_twice(self, counting_upstream):
        assert self._send(counting_upstream, "duplicate") == (200, b"{}")
        assert counting_upstream.paths == ["/api/jobs/complete"] * 2

    def test_op_filter_and_request_index(self):
        schedule = ChaosSchedule(NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=1, op="claim"),)))
        assert schedule.faults_for("/api/jobs/complete") == []  # no match
        assert schedule.faults_for("/api/jobs/claim") == []     # index 0
        assert [f.kind for f in schedule.faults_for("/api/jobs/claim")] \
            == ["reset"]                                         # index 1
        assert schedule.faults_for("/api/jobs/claim") == []     # index 2
        assert schedule.fired == [{"kind": "reset",
                                   "path": "/api/jobs/claim"}]


# --------------------------------------------------------------------------
@pytest.fixture
def lease_server(tmp_path):
    """A live server over a submitted 2-cell chaos campaign."""
    root = tmp_path / "server"
    submit_campaign(chaos_spec(*ok_cells(2)), root=root)
    server = make_server(root, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield root, server, url
    finally:
        server.shutdown()
        server.server_close()


class TestLeaseProtocolHTTP:
    def test_claim_heartbeat_complete_roundtrip(self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        assert client.outstanding("chaos-smoke") == 2
        job = client.claim(run_id="chaos-smoke")
        assert job["cell_index"] == 0
        assert job["payload"]["params"]["name"] == "c0"
        assert client.heartbeat("chaos-smoke", 0) is True
        response = client.complete("chaos-smoke", 0, status="completed",
                                   row={"name": "c0", "value": 1.0})
        assert response["applied"] is True
        assert client.outstanding("chaos-smoke") == 1
        health = client.health()
        assert health["queue_depth"] == 1
        assert health["active_leases"] == 0
        assert health["draining"] is False

    def test_duplicate_complete_replays_and_single_lease_event(
            self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        job = client.claim(run_id="chaos-smoke")
        body = {"worker": "w1", "run_id": "chaos-smoke",
                "cell_index": job["cell_index"], "status": "completed",
                "row": {"name": "c0", "value": 1.0}, "attempts": 1,
                "idempotency_key": "w1.feed.000001.complete"}
        first = client.post("/api/jobs/complete", body)
        second = client.post("/api/jobs/complete", body)  # duplicated delivery
        assert first["applied"] is True
        assert "replayed" not in first
        assert second["applied"] is True
        assert second["replayed"] is True
        with Catalog(catalog_path(root)) as catalog:
            events = JobQueue(catalog).lease_events("chaos-smoke")
        completed = [e for e in events if e["event"] == "completed"]
        assert len(completed) == 1

    def test_lost_ownership_complete_not_applied(self, lease_server):
        root, server, url = lease_server
        loser = StoreClient(url, worker_id="loser", backoff=0.01)
        job = loser.claim(run_id="chaos-smoke", lease_ttl=-1)  # born expired
        winner = StoreClient(url, worker_id="winner", backoff=0.01)
        reclaimed = winner.claim(run_id="chaos-smoke")
        assert reclaimed["reclaimed_from"] == "loser"
        assert loser.heartbeat("chaos-smoke", job["cell_index"]) is False
        late = loser.complete("chaos-smoke", job["cell_index"],
                              status="completed", row={"v": 1})
        assert late["applied"] is False
        good = winner.complete("chaos-smoke", reclaimed["cell_index"],
                               status="completed", row={"v": 1})
        assert good["applied"] is True

    def test_draining_server_refuses_claims_with_503(self, lease_server):
        root, server, url = lease_server
        server.draining = True  # drain announced, accept loop still up
        client = StoreClient(url, worker_id="w1", max_retries=1, backoff=0.01)
        with pytest.raises(RetryableTransportError) as err:
            client.claim(run_id="chaos-smoke")
        assert err.value.status == 503
        assert client.health()["draining"] is True

    def test_body_cap_enforced_with_413(self, lease_server):
        root, server, url = lease_server
        server.max_body_bytes = 64
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        with pytest.raises(FatalRequestError) as err:
            client.post("/api/jobs/heartbeat",
                        {"worker": "w1", "run_id": "chaos-smoke",
                         "cell_index": 0, "padding": "x" * 256})
        assert err.value.status == 413


# --------------------------------------------------------------------------
def _drain_remote(url, root, name, plan=None, **kwargs):
    """One HTTP worker draining ``chaos-smoke``; returns its summary and the
    faults that fired.  With a chaos ``plan`` the worker talks to the server
    through its own :class:`ChaosProxy`, so the chaos is this worker's
    alone."""
    kwargs.setdefault("client_backoff", 0.05)
    kwargs.setdefault("client_retries", 8)
    kwargs.setdefault("poll_seconds", 0.1)
    if plan is None:
        return work(root=root, run_id="chaos-smoke", worker_id=name,
                    server=url, **kwargs), []
    upstream = urlsplit(url)
    with ChaosProxy((upstream.hostname, upstream.port), plan) as proxy:
        host, port = proxy.address
        summary = work(root=root, run_id="chaos-smoke", worker_id=name,
                       server=f"http://{host}:{port}", **kwargs)
    return summary, proxy.fired


def _assert_drained_bit_identical(serial_root, server_root, cells):
    serial = (serial_root / "chaos-smoke" / "results.json").read_bytes()
    drained = (server_root / "chaos-smoke" / "results.json").read_bytes()
    assert drained == serial
    with Catalog(catalog_path(server_root)) as catalog:
        queue = JobQueue(catalog)
        events = queue.lease_events("chaos-smoke")
        assert queue.outstanding("chaos-smoke") == 0
    completed = sorted(e["cell_index"] for e in events
                       if e["event"] == "completed")
    assert completed == list(range(cells)), \
        f"expected exactly one applied completion per cell, got {completed}"


class TestRemoteDrain:
    CELLS = 6

    def _prepared(self, tmp_path):
        spec = chaos_spec(*ok_cells(self.CELLS))
        serial_root = tmp_path / "serial"
        server_root = tmp_path / "server"
        repro.run(spec, root=serial_root)
        submit_campaign(spec, root=server_root)
        return serial_root, server_root

    def _run_workers(self, url, tmp_path, plans):
        """Drain with one worker per ``plans`` entry; returns each worker's
        ``(summary, fired faults)``."""
        summaries = {}

        def drain(name, plan):
            summaries[name] = _drain_remote(url, tmp_path / name, name,
                                            plan=plan)

        threads = [threading.Thread(target=drain, args=(name, plan))
                   for name, plan in plans.items()]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(not t.is_alive() for t in threads)
        return summaries

    def test_two_http_workers_bit_identical_under_chaos(self, tmp_path):
        serial_root, server_root = self._prepared(tmp_path)
        server = make_server(server_root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        # w1's first claim always gets a cell, so its first complete, which
        # carries the claim of its next job, and that call's retries are
        # complete indices 0-3: a reset and a 500 are never delivered, the
        # lost response is replayed, and the replay is then stalled and
        # delivered twice.
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=0, op="complete"),
            NetworkFault(kind="http-500", at_request=1, op="complete"),
            NetworkFault(kind="stall", at_request=3, op="complete",
                         delay_seconds=0.2),
            NetworkFault(kind="drop-response", at_request=2, op="complete"),
            NetworkFault(kind="duplicate", at_request=3, op="complete"),
        ))
        try:
            drained = self._run_workers(url, tmp_path,
                                        {"w1": plan, "w2": None})
        finally:
            server.shutdown()
            server.server_close()
        assert sorted(fault["kind"] for fault in drained["w1"][1]) == \
            sorted(fault.kind for fault in plan.faults)
        assert sum(summary.completed
                   for summary, _ in drained.values()) >= self.CELLS
        _assert_drained_bit_identical(serial_root, server_root, self.CELLS)

    def test_mid_drain_server_kill_and_restart(self, tmp_path):
        serial_root, server_root = self._prepared(tmp_path)
        server = make_server(server_root, port=0)
        port = server.server_address[1]
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{port}"
        chaos = NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=0, op="complete"),))
        workers = threading.Thread(
            target=lambda: self._run_workers(url, tmp_path,
                                             {"w1": chaos, "w2": None}))
        workers.start()
        # Kill the server after the first completed cell, then restart it on
        # the same port; the workers' retry budgets ride out the outage.
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            with Catalog(catalog_path(server_root)) as catalog:
                done = catalog.conn.scalar(
                    "SELECT COUNT(*) FROM jobs WHERE state = 'done'")
            if done:
                break
            time.sleep(0.05)
        else:
            pytest.fail("no cell completed before the kill window")
        server.shutdown()
        server.server_close()
        time.sleep(0.25)
        restarted = make_server(server_root, port=port)
        threading.Thread(target=restarted.serve_forever, daemon=True).start()
        try:
            workers.join(timeout=120)
            assert not workers.is_alive()
        finally:
            restarted.shutdown()
            restarted.server_close()
        _assert_drained_bit_identical(serial_root, server_root, self.CELLS)

    def test_drain_through_tcp_chaos_proxy(self, tmp_path):
        serial_root, server_root = self._prepared(tmp_path)
        server = make_server(server_root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=0, op="claim"),
            NetworkFault(kind="duplicate", at_request=1, op="complete"),
            NetworkFault(kind="drop-response", at_request=2, op="complete"),
            NetworkFault(kind="http-500", at_request=3, op="claim"),
        ))
        proxy = ChaosProxy(("127.0.0.1", server.server_address[1]),
                           plan).start()
        url = f"http://{proxy.address[0]}:{proxy.address[1]}"
        try:
            self._run_workers(url, tmp_path, {"w1": None, "w2": None})
        finally:
            proxy.stop()
            server.shutdown()
            server.server_close()
        assert sorted(fault["kind"] for fault in proxy.fired) == \
            sorted(fault.kind for fault in plan.faults)
        _assert_drained_bit_identical(serial_root, server_root, self.CELLS)


# --------------------------------------------------------------------------
def _post_raw(url, path, body):
    """One POST with no client retries (a 5xx raises ``HTTPError``)."""
    request = urllib.request.Request(f"{url}{path}",
                                     data=json.dumps(body).encode(),
                                     method="POST")
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


class TestOneCatalogConnection:
    """The server opens its catalogue once and shares it behind one lock."""

    def test_requests_open_no_connection(self, tmp_path, monkeypatch):
        from repro.store import connection

        opened = []
        original = connection.StoreConnection.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(threading.current_thread().name)
            original(self, *args, **kwargs)

        monkeypatch.setattr(connection.StoreConnection, "__init__",
                            counting_init)
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(12)), root=root)
        opened.clear()
        server = make_server(root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        client = StoreClient(url, worker_id="w1", backoff=0.01)
        requests = 0
        try:
            while (job := client.claim(run_id="chaos-smoke")) is not None:
                client.complete("chaos-smoke", job["cell_index"],
                                status="completed", row={"v": 1})
                requests += 2
            # The telemetry flusher's sink opens its own short-lived
            # connections on its own thread; count everything else.
            served = [name for name in opened if name != "telemetry-flush"]
        finally:
            server.shutdown()
            server.server_close()
        assert requests >= 20
        assert served == [threading.current_thread().name]  # the constructor

    def test_concurrent_claims_each_cell_once(self, tmp_path):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(20)), root=root)
        server = make_server(root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        claimed, errors = [], []

        def drain(worker):
            try:
                while True:
                    job = _post_raw(url, "/api/jobs/claim", {
                        "worker": worker, "run_id": "chaos-smoke",
                        "idempotency_key": f"{worker}.{len(claimed)}"})["job"]
                    if job is None:
                        return
                    claimed.append(job["cell_index"])
                    _post_raw(url, "/api/jobs/complete", {
                        "worker": worker, "run_id": "chaos-smoke",
                        "cell_index": job["cell_index"],
                        "status": "completed", "row": {"v": 1},
                        "attempts": 1})
            except Exception as error:  # a 500 or a dropped connection
                errors.append(f"{worker}: {error!r}")

        threads = [threading.Thread(target=drain, args=(f"w{i}",))
                   for i in range(8)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the handler threads densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch_interval)
            server.shutdown()
            server.server_close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(claimed) == list(range(20))
        with Catalog(catalog_path(root)) as catalog:
            events = JobQueue(catalog).lease_events("chaos-smoke")
        claims = sorted(e["cell_index"] for e in events
                        if e["event"] in ("claimed", "reclaimed"))
        assert claims == list(range(20))

    def test_local_drainer_rows_visible_over_http(self, tmp_path):
        root = tmp_path / "server"
        submission = submit_campaign(chaos_spec(*ok_cells(3)), root=root)
        server = make_server(root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        client = StoreClient(url, worker_id="reader", backoff=0.01)
        try:
            assert client.outstanding("chaos-smoke") == 3
            summary = work(root=root, run_id="chaos-smoke", worker_id="local")
            assert summary.completed == 3
            rows = client.get("/api/campaigns/chaos-smoke/rows")["rows"]
            assert client.outstanding("chaos-smoke") == 0
        finally:
            server.shutdown()
            server.server_close()
        results = json.loads(
            (submission.out_dir / "results.json").read_text())
        assert rows == results["rows"]
        assert len(rows) == 3

    def test_negative_content_length_is_400_at_once(self, lease_server):
        root, server, url = lease_server
        started = time.perf_counter()
        with socket.create_connection(
                ("127.0.0.1", server.server_address[1]), timeout=2) as sock:
            sock.sendall(b"POST /api/jobs/claim HTTP/1.1\r\n"
                         b"Host: 127.0.0.1\r\nContent-Length: -1\r\n\r\n")
            reply = b""
            while chunk := sock.recv(4096):  # the server closes the socket
                reply += chunk
        assert time.perf_counter() - started < 2.0
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"negative Content-Length" in reply

    def test_claim_response_matches_asdict(self, lease_server):
        root, server, url = lease_server
        job = StoreClient(url, worker_id="w1").claim(run_id="chaos-smoke")
        with Catalog(catalog_path(root)) as catalog:
            payload = json.loads(catalog.conn.scalar(
                "SELECT payload_json FROM jobs WHERE run_id = ?"
                " AND cell_index = ?", ("chaos-smoke", job["cell_index"])))
        expected = Job(run_id="chaos-smoke", cell_index=job["cell_index"],
                       payload=payload, attempts=job["attempts"])
        assert dump_json(job) == dump_json(dataclasses.asdict(expected))


# --------------------------------------------------------------------------
class TestServerCrash:
    """SIGKILL a ``repro serve`` process: nothing it acknowledged is lost."""

    def _serve(self, root):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--root",
             str(root), "--port", "0"],
            env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        match = re.search(r"(http://[\d.]+:\d+)/api/",
                          process.stdout.readline())
        if match is None:
            process.kill()
            process.wait()
            pytest.fail("repro serve did not report its address")
        return process, match.group(1)

    def test_sigkill_loses_no_acknowledged_complete(self, tmp_path):
        spec = chaos_spec(*ok_cells(5))
        serial_root = tmp_path / "serial"
        server_root = tmp_path / "server"
        repro.run(spec, root=serial_root)
        submit_campaign(spec, root=server_root)
        server, url = self._serve(server_root)
        try:
            acknowledged = work(root=tmp_path / "w1", run_id="chaos-smoke",
                                worker_id="w1", server=url, max_cells=2,
                                client_backoff=0.05)
            server.send_signal(signal.SIGKILL)
            server.wait(timeout=10)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
        assert acknowledged.completed == 2
        with Catalog(catalog_path(server_root)) as catalog:
            done = catalog.conn.fetchall(
                "SELECT j.cell_index, c.row_json FROM jobs j JOIN cells c"
                " ON c.run_id = j.run_id AND c.cell_index = j.cell_index"
                " WHERE j.run_id = ? AND j.state = 'done'", ("chaos-smoke",))
        assert len(done) == 2
        assert all(row["row_json"] for row in done)

        server, url = self._serve(server_root)
        try:
            rest = work(root=tmp_path / "w2", run_id="chaos-smoke",
                        worker_id="w2", server=url, client_backoff=0.05)
        finally:
            server.send_signal(signal.SIGTERM)
            server.wait(timeout=30)
            server.stdout.close()
        assert rest.completed == 3
        _assert_drained_bit_identical(serial_root, server_root, 5)


# --------------------------------------------------------------------------
class TestRemoteWorkCLI:
    def test_unreachable_server_exits_5(self, tmp_path, capsys):
        code = cli_main(["work", "--root", str(tmp_path / "runs"),
                         "--server", "http://127.0.0.1:1",
                         "--client-retries", "1",
                         "--client-backoff", "0.01"])
        assert code == 5
        assert "worker gave up" in capsys.readouterr().err


# --------------------------------------------------------------------------
@pytest.fixture
def client_counts(monkeypatch):
    """Every ``telemetry.counter`` increment of this test, by metric name
    (the flushers' snapshot-and-reset cannot race the assertions)."""
    counts = collections.Counter()
    lock = threading.Lock()

    class RecordingCounter:
        def __init__(self, name):
            self.name = name

        def inc(self, amount=1.0):
            with lock:
                counts[self.name] += amount

    monkeypatch.setattr(telemetry, "counter", RecordingCounter)
    return counts


def _start(root, port=0):
    server = make_server(root, port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, f"http://127.0.0.1:{server.server_address[1]}"


def _stop(server):
    server.shutdown()
    server.server_close()


class TestKeepAlive:
    """One kept-alive connection carries many lease-protocol requests."""

    def test_drain_reuses_a_few_connections(self, tmp_path, client_counts):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(14)), root=root)
        server, _, url = _start(root)
        try:
            summary = work(root=tmp_path / "w1", run_id="chaos-smoke",
                           worker_id="w1", server=url, poll_seconds=0.1)
        finally:
            _stop(server)
        assert summary.completed == 14
        # One request per cell: each complete carries the next claim.  The
        # rest are the first claim, the empty claim and outstanding check
        # that end the drain, and the last telemetry flush.
        assert 14 <= client_counts["client.requests.total"] <= 14 + 4
        assert client_counts["worker.claims.piggybacked"] == 14 - 1
        assert 1 <= client_counts["client.connections.opened"] <= 3

    def test_pooled_sockets_disable_nagle(self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1")
        client.health()
        connection = client.transport._take("127.0.0.1",
                                            server.server_address[1], 5.0)
        try:
            assert connection.sock.getsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY)
        finally:
            connection.close()

    def test_server_restart_reconnects_without_a_retry(self, tmp_path,
                                                       client_counts):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(2)), root=root)
        server, _, url = _start(root)
        slept = []
        client = StoreClient(url, worker_id="w1", sleep=slept.append)
        assert client.outstanding("chaos-smoke") == 2
        _stop(server)
        restarted, _, _ = _start(root, port=server.server_address[1])
        try:
            assert client.outstanding("chaos-smoke") == 2
        finally:
            client.close()
            _stop(restarted)
        assert slept == []
        assert client_counts["client.request.retries"] == 0
        assert client_counts["client.connections.opened"] == 2

    def test_forked_child_never_writes_on_the_parents_socket(
            self, lease_server):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1")
        assert client.get("/api/jobs?run_id=first")["run_id"] == "first"
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child: report "<all responses matched>,<opened>"
            status = b"0,0"
            try:
                telemetry.configure(enabled=True, reset=True)
                matched = all(
                    client.get(f"/api/jobs?run_id=child{i}")["run_id"]
                    == f"child{i}" for i in range(20))
                opened = telemetry.get_registry().counter(
                    "client.connections.opened").value
                status = b"%d,%d" % (matched, opened)
            finally:
                os.write(write_end, status)
                os._exit(0)
        os.close(write_end)
        try:
            for i in range(20):  # concurrently with the child
                assert client.get(f"/api/jobs?run_id=parent{i}")["run_id"] \
                    == f"parent{i}"
        finally:
            os.waitpid(pid, 0)
            reported = os.read(read_end, 64)
            os.close(read_end)
        assert reported == b"1,1"

    def test_threads_never_share_a_socket(self, lease_server, client_counts):
        root, server, url = lease_server
        client = StoreClient(url, worker_id="w1")
        mismatches = []

        def hammer(thread):
            for i in range(25):
                run_id = f"t{thread}-{i}"
                response = client.get(f"/api/jobs?run_id={run_id}")
                if response["run_id"] != run_id:
                    mismatches.append((run_id, response["run_id"]))

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert client_counts["client.requests.total"] == 8 * 25
        assert client_counts["client.connections.opened"] <= 8

    def test_drain_closes_an_idle_kept_alive_connection(self, tmp_path):
        root = tmp_path / "server"
        server, thread, url = _start(root)
        client = StoreClient(url, worker_id="idle")
        assert client.health()["ok"] is True  # leaves its connection idle
        started = time.perf_counter()
        server.initiate_drain()
        thread.join(timeout=30)
        server.server_close()
        assert time.perf_counter() - started < 2.0

    def test_proxy_counts_requests_on_one_connection(self, lease_server,
                                                     client_counts):
        root, server, url = lease_server
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="stall", at_request=1, delay_seconds=0.05),
            NetworkFault(kind="reset", at_request=2)))
        slept = []
        with ChaosProxy(("127.0.0.1", server.server_address[1]),
                        plan) as proxy:
            host, port = proxy.address
            client = StoreClient(f"http://{host}:{port}", worker_id="w1",
                                 backoff=0.01, sleep=slept.append)
            client.health()
            client.health()  # request 1: stalled, and the connection kept
            assert proxy.fired == [{"kind": "stall", "path": "/api/health"}]
            assert client_counts["client.connections.opened"] == 1
            client.health()  # request 2 is reset; its retry reconnects
            client.close()
        assert [fault["kind"] for fault in proxy.fired] == ["stall", "reset"]
        assert client_counts["client.connections.opened"] == 2
        assert client_counts["client.request.retries"] == 1
        assert len(slept) == 1


class TestRunIdEncoding:
    RUN_ID = "a run #1 & 100%"

    def test_run_id_with_reserved_characters_over_http(self, tmp_path):
        root = tmp_path / "server"
        submit_campaign(chaos_spec(*ok_cells(3)), root=root,
                        out_dir=root / self.RUN_ID)
        server, _, url = _start(root)
        client = StoreClient(url, worker_id="reader", max_retries=0)
        try:
            summary = work(root=tmp_path / "w1", run_id=self.RUN_ID,
                           worker_id="w1", server=url, client_retries=0,
                           poll_seconds=0.1)
            path = f"/api/campaigns/{quote(self.RUN_ID, safe='')}"
            detail = client.get(path)
            rows = client.get(f"{path}/rows")
        finally:
            client.close()
            _stop(server)
        assert summary.completed == 3
        assert detail["run_id"] == self.RUN_ID
        assert detail["queue"]["done"] == 3
        assert rows["run_id"] == self.RUN_ID
        assert len(rows["rows"]) == 3
        assert all(row is not None for row in rows["rows"])
