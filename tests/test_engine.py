"""Tests for the one cell-execution engine: ``repro.run()`` is a submission
plus a local drain of the lease queue, so every path shares one executor,
one timeout, and one way of recording cells in the catalogue.

The scenarios use the training-free ``tests/chaos_driver`` experiment, so
each drain finishes in milliseconds unless a cell is told to stall.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.runs import CampaignInterrupted, ExperimentSpec, Fault, FaultPlan
from repro.runs.artifacts import load_json, quarantined_files
from repro.runs.cli import main as cli_main
from repro.store import Catalog, JobQueue, catalog_path
from repro.store.server import make_server
from repro.store.worker import submit_campaign, work

REPO_ROOT = Path(__file__).resolve().parents[1]


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


def ok_cells(count: int):
    return [{"mode": "ok", "name": f"c{i}", "offset": i} for i in range(count)]


def job_states(root: Path, run_id: str = "chaos-smoke"):
    with Catalog(catalog_path(root)) as catalog:
        return [row["state"] for row in catalog.conn.fetchall(
            "SELECT state FROM jobs WHERE run_id = ? ORDER BY cell_index",
            (run_id,))]


# --------------------------------------------------------------------------
class TestCatalogueRecording:
    @pytest.mark.parametrize("path", ["serial", "workers=2", "submit+work"])
    def test_cells_carry_attempts_and_elapsed(self, tmp_path, path):
        spec = chaos_spec(*ok_cells(3))
        root = tmp_path / "runs"
        if path == "submit+work":
            submit_campaign(spec, root=root)
            work(root=root, worker_id="w1")
        else:
            repro.run(spec, root=root, workers=2 if path == "workers=2" else 1)
        with Catalog(catalog_path(root)) as catalog:
            cells = catalog.cell_statuses("chaos-smoke")
        assert len(cells) == 3
        for cell in cells:
            result = load_json(root / "chaos-smoke" / "cells" / cell["slug"]
                               / "result.json")
            assert cell["status"] == "completed"
            assert cell["attempts"] >= 1
            assert cell["elapsed_seconds"] == result["elapsed_seconds"]

    def test_more_drainers_than_cores_complete_each_cell_once(self, tmp_path):
        spec = chaos_spec(*ok_cells(12))
        serial = repro.run(spec, root=tmp_path / "serial")
        root = tmp_path / "parallel"
        parallel = repro.run(spec, root=root, workers=4)
        assert parallel.rows == serial.rows
        with Catalog(catalog_path(root)) as catalog:
            events = JobQueue(catalog).lease_events("chaos-smoke")
        completions = sorted(e["cell_index"] for e in events
                             if e["event"] == "completed")
        assert completions == list(range(12))
        assert ((root / "chaos-smoke" / "results.json").read_bytes()
                == (tmp_path / "serial" / "chaos-smoke" / "results.json").read_bytes())

    def test_temporary_catalogue_leaves_nothing_behind(self, tmp_path):
        root = tmp_path / "runs"
        campaign = repro.run(chaos_spec(*ok_cells(2)), root=root,
                             catalog=False)
        assert campaign.completed == 2
        assert (campaign.out_dir / "results.json").exists()
        assert sorted(p.name for p in root.iterdir()) == ["chaos-smoke"]


# --------------------------------------------------------------------------
class TestSubmission:
    def test_torn_manifest_is_quarantined_and_rewritten(self, tmp_path):
        spec = chaos_spec(*ok_cells(2))
        root = tmp_path / "runs"
        first = submit_campaign(spec, root=root)
        manifest = first.out_dir / "manifest.json"
        with open(manifest, "r+b") as stream:
            stream.truncate(manifest.stat().st_size // 2)
        again = submit_campaign(spec, root=root)
        assert again.run_id == first.run_id
        assert load_json(manifest)["experiment"]["experiment_id"] == "chaos"
        assert [p.name for p in quarantined_files(first.out_dir)] == [
            "manifest.json.corrupt-0"]

    def test_resubmit_requeues_failed_and_lost_cells_only(self, tmp_path):
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "ok", "name": "b"},
                          {"mode": "fail", "name": "c"})
        root = tmp_path / "runs"
        out_dir = root / "chaos-smoke"
        campaign = repro.run(spec, root=root, strict=False)
        assert [c["status"] for c in campaign.cells] == [
            "completed", "completed", "failed"]
        assert job_states(root) == ["done", "done", "failed"]
        (out_dir / "cells" / "c01-ok-b" / "result.json").unlink()
        submit_campaign(spec, root=root)
        assert job_states(root) == ["done", "pending", "pending"]

    def test_resume_reports_cached_and_reruns_lost_cell(self, tmp_path):
        spec = chaos_spec(*ok_cells(3))
        root = tmp_path / "runs"
        first = repro.run(spec, root=root)
        (first.out_dir / "cells" / "c01-ok-c1-1" / "result.json").unlink()
        resumed = repro.run(spec, root=root)
        assert [c["status"] for c in resumed.cells] == [
            "cached", "completed", "cached"]
        assert resumed.rows == first.rows


# --------------------------------------------------------------------------
class TestJobTimeout:
    """The timeout is a job property: every drainer's executor enforces it."""

    @pytest.mark.parametrize("mode", ["local", "remote"])
    def test_stalled_cell_times_out_and_the_drain_finishes(self, tmp_path,
                                                           mode):
        plan = FaultPlan(faults=(
            Fault(kind="stall", cell=0, delay_seconds=30.0),))
        spec = chaos_spec(*ok_cells(3))
        root = tmp_path / "runs"
        submission = submit_campaign(spec, root=root, timeout=1.5,
                                     fault_plan=plan)
        server = None
        options = {}
        artifacts = submission.out_dir
        if mode == "remote":
            server = make_server(root, port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            options = {"server": f"http://127.0.0.1:{server.server_address[1]}",
                       "local_root": tmp_path / "worker-host"}
            artifacts = tmp_path / "worker-host" / submission.run_id
        started = time.perf_counter()
        try:
            summary = work(root=root, worker_id="w1", poll_seconds=0.05,
                           **options)
        finally:
            if server is not None:
                server.shutdown()
                server.server_close()
        assert time.perf_counter() - started < 20.0
        assert (summary.completed, summary.failed) == (2, 1)
        record = load_json(artifacts / "cells" / "c00-ok-c0-0" / "error.json")
        assert record["error_type"] == "CellTimeout"
        assert record["status"] == "timeout"
        with Catalog(catalog_path(root)) as catalog:
            statuses = [c["status"] for c in catalog.cell_statuses(
                submission.run_id)]
        assert statuses == ["timeout", "completed", "completed"]

    def test_submit_timeout_flag_sets_the_job_payload(self, tmp_path, capsys):
        root = tmp_path / "runs"
        assert cli_main(["submit", "table1", "--scale", "smoke", "--root",
                         str(root), "--timeout", "150"]) == 0
        with Catalog(catalog_path(root)) as catalog:
            job = JobQueue(catalog).claim("w1")
        assert job.payload["timeout"] == 150.0


# --------------------------------------------------------------------------
class TestOneBudget:
    """A retry is a re-claim: the ``max_attempts`` a campaign was submitted
    with bounds its cells on every drain path."""

    @pytest.mark.parametrize("fails, status", [(2, "failed"),
                                               (1, "completed")])
    @pytest.mark.parametrize("path", ["run", "submit+work", "http"])
    def test_flaky_cell_gets_exactly_its_budget(self, tmp_path, path, fails,
                                                status):
        spec = chaos_spec({"mode": "flaky", "name": "a", "fails": fails})
        root = tmp_path / "runs"
        artifacts = root / "chaos-smoke"
        if path == "run":
            repro.run(spec, root=root, strict=False, max_attempts=2)
        else:
            submit_campaign(spec, root=root, max_attempts=2)
            server, options = None, {}
            if path == "http":
                server = make_server(root, port=0)
                threading.Thread(target=server.serve_forever,
                                 daemon=True).start()
                options = {
                    "server": f"http://127.0.0.1:{server.server_address[1]}",
                    "local_root": tmp_path / "worker-host"}
                artifacts = tmp_path / "worker-host" / "chaos-smoke"
            try:
                work(root=root, worker_id="w1", poll_seconds=0.05, **options)
            finally:
                if server is not None:
                    server.shutdown()
                    server.server_close()
        calls = (artifacts / "cells" / f"c00-flaky-a-{fails}"
                 / "chaos-attempts.txt").read_text()
        assert int(calls) == 2
        with Catalog(catalog_path(root)) as catalog:
            [cell] = catalog.cell_statuses("chaos-smoke")
        assert (cell["status"], cell["attempts"]) == (status, 2)


# --------------------------------------------------------------------------
class TestStops:
    def test_injected_kill_stops_the_drainer(self, tmp_path):
        plan = FaultPlan(faults=(Fault(kind="kill", cell=0,
                                       artifact="result"),))
        spec = chaos_spec(*ok_cells(3))
        root = tmp_path / "runs"
        partial = repro.run(spec, root=root, strict=False, fault_plan=plan)
        assert [c["status"] for c in partial.cells] == [
            "interrupted", "pending", "pending"]
        assert job_states(root) == ["pending", "pending", "pending"]
        with pytest.raises(CampaignInterrupted):
            repro.run(chaos_spec(*ok_cells(3)), root=tmp_path / "strict",
                      fault_plan=plan)
        resumed = repro.run(spec, root=root, fault_plan=plan)
        assert [c["status"] for c in resumed.cells] == [
            "cached", "completed", "completed"]

    def test_a_sibling_drainer_resumes_a_killed_cell(self, tmp_path):
        plan = FaultPlan(faults=(Fault(kind="kill", cell=0,
                                       artifact="result"),))
        spec = chaos_spec(*ok_cells(3))
        serial = repro.run(spec, root=tmp_path / "serial")
        root = tmp_path / "runs"
        campaign = repro.run(spec, root=root, workers=2, fault_plan=plan)
        assert [c["status"] for c in campaign.cells] == ["completed"] * 3
        assert campaign.rows == serial.rows
        with Catalog(catalog_path(root)) as catalog:
            events = JobQueue(catalog).lease_events("chaos-smoke")
        assert [e["event"] for e in events if e["cell_index"] == 0] == [
            "claimed", "released", "claimed", "completed"]
        results = Path("chaos-smoke") / "results.json"
        assert (root / results).read_bytes() == \
            (tmp_path / "serial" / results).read_bytes()

    def test_keyboard_interrupt_in_a_cell_releases_the_lease(self, tmp_path):
        spec = chaos_spec({"mode": "interrupt", "name": "a"},
                          {"mode": "ok", "name": "b"})
        root = tmp_path / "runs"
        with pytest.raises(KeyboardInterrupt):
            repro.run(spec, root=root)
        assert "leased" not in job_states(root)
        with Catalog(catalog_path(root)) as catalog:
            assert catalog.cell_statuses("chaos-smoke")[0]["status"] == \
                "interrupted"

    def test_interrupted_completion_lands_nothing(self, tmp_path,
                                                  monkeypatch):
        # The job's ``done`` and its cell row commit together: an interrupt
        # while the row is recorded rolls both back, the lease is released,
        # and a resume writes the serial results.json.
        spec = chaos_spec(*ok_cells(2))
        repro.run(spec, root=tmp_path / "serial")
        record_cell = Catalog.record_cell
        calls = []

        def interrupted_once(catalog, *args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise KeyboardInterrupt
            return record_cell(catalog, *args, **kwargs)

        root = tmp_path / "runs"
        monkeypatch.setattr(Catalog, "record_cell", interrupted_once)
        with pytest.raises(KeyboardInterrupt):
            repro.run(spec, root=root)
        monkeypatch.undo()
        assert job_states(root)[0] != "done"
        repro.run(spec, root=root)
        results = Path("chaos-smoke") / "results.json"
        assert (root / results).read_bytes() == \
            (tmp_path / "serial" / results).read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigint_releases_leases_and_exits_3(self, tmp_path, workers):
        root = tmp_path / "runs"
        script = (
            "import sys\n"
            "from repro.runs import ExperimentSpec, register_experiment\n"
            "from repro.runs.cli import main\n"
            "register_experiment(ExperimentSpec(experiment_id='chaos',"
            " driver='chaos_driver', columns=('name', 'value'),"
            " grid=({'mode': 'sleep', 'name': 'a', 'seconds': 60},"
            " {'mode': 'sleep', 'name': 'b', 'seconds': 60}),"
            " default_scale='smoke'))\n"
            f"sys.exit(main(['run', 'chaos', '--root', {str(root)!r},"
            f" '--workers', '{workers}', '--format', 'none']))\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        runner = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.perf_counter() + 30
            while time.perf_counter() < deadline:
                if (catalog_path(root).exists()
                        and job_states(root).count("leased") == workers):
                    break
                time.sleep(0.1)
            else:
                pytest.fail("the drainers never claimed their cells")
            time.sleep(0.3)  # let the cells start sleeping
            runner.send_signal(signal.SIGINT)
            _, stderr = runner.communicate(timeout=30)
        finally:
            if runner.poll() is None:
                runner.kill()
                runner.wait()
        assert runner.returncode == 3, stderr
        assert "leased" not in job_states(root)
        with Catalog(catalog_path(root)) as catalog:
            statuses = [c["status"] for c in catalog.cell_statuses(
                "chaos-smoke")]
        assert statuses.count("interrupted") == workers
