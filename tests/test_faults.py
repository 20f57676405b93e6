"""Chaos tests: crash-safe artifacts, fault injection, retries, and timeouts.

The training scenarios run ``table5`` at SMOKE scale (3 PPO cells,
checkpoints every 2 of 6 updates) under seeded :class:`FaultPlan`\\ s and
assert the recovered campaign's rows are bit-identical to an unfaulted run.
The failure-isolation scenarios use the training-free ``tests/chaos_driver``
experiment, whose cells fail/stall/heal on demand.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.jsonio import dump_json
from repro.runs import (
    CampaignInterrupted,
    ExperimentSpec,
    Fault,
    FaultPlan,
    quarantined_files,
    stray_tmp_files,
)
from repro.runs.artifacts import (
    CorruptArtifactError,
    atomic_write_json,
    atomic_write_pickle,
    clear_quarantine,
    load_json,
    load_pickle,
    quarantine_log_entries,
    verify_artifact,
)
from repro.runs.cli import main as cli_main
from repro.runs.faults import NetworkChaosPlan, NetworkFault
from repro.store import Catalog, catalog_path
from repro.store.worker import work


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


def assert_clean_tree(out_dir) -> None:
    """No stray temp files and no live quarantined corpses."""
    assert stray_tmp_files(out_dir) == []
    assert quarantined_files(out_dir) == []


def catalogued(out_dir: Path) -> dict:
    """``Catalog.list_runs()``'s record of the campaign in ``out_dir``."""
    with Catalog(catalog_path(out_dir.parent)) as catalog:
        return {run["run_id"]: run for run in catalog.list_runs()}[out_dir.name]


# --------------------------------------------------------------------------
class TestAtomicArtifacts:
    def test_json_roundtrip_with_checksum(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"x": 1}, indent=2)
        assert (tmp_path / "a.json.sha256").exists()
        assert verify_artifact(path) is True
        assert load_json(path) == {"x": 1}
        assert stray_tmp_files(tmp_path) == []

    def test_tampered_file_quarantined(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"x": 1})
        path.write_text('{"x": 2}')  # silent corruption under the sidecar
        assert verify_artifact(path) is False
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            load_json(path)
        assert not path.exists()
        assert (tmp_path / "a.json.corrupt-0").exists()
        entries = quarantine_log_entries(tmp_path)
        assert entries and entries[0]["artifact"] == "a.json"

    def test_load_checks_the_bytes_it_returns(self, tmp_path, monkeypatch):
        # The file changes between two reads: the load must check the copy it
        # hands back, not a second read of the file.
        path = tmp_path / "a.json"
        atomic_write_json(path, {"x": 1})
        read_bytes = Path.read_bytes
        reads = []

        def first_read_corrupted(self):
            data = read_bytes(self)
            if self == path and not reads:
                reads.append(self)
                return b'{"x": 2}'
            return data

        monkeypatch.setattr(Path, "read_bytes", first_read_corrupted)
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            load_json(path)
        assert reads == [path]

    def test_verify_artifact_checks_the_bytes_it_is_given(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"x": 1})
        good = path.read_bytes()
        assert verify_artifact(path, b'{"x": 2}') is False
        path.write_text('{"x": 2}')
        assert verify_artifact(path, good) is True
        assert verify_artifact(path) is False

    def test_verify_artifact_without_sidecar_ignores_the_bytes(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('{"x": 3}')
        assert verify_artifact(path, b"anything") is None

    def test_truncated_file_quarantined(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"payload": list(range(100))})
        with open(path, "r+b") as stream:
            stream.truncate(17)
        with pytest.raises(CorruptArtifactError):
            load_json(path)
        assert quarantined_files(tmp_path) == [tmp_path / "a.json.corrupt-0"]

    def test_legacy_file_without_sidecar_accepted(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('{"x": 3}')
        assert verify_artifact(path) is None
        assert load_json(path) == {"x": 3}

    def test_legacy_unparseable_file_quarantined(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text('{"x": ')
        with pytest.raises(CorruptArtifactError, match="unparseable"):
            load_json(path)
        assert not path.exists()

    def test_pickle_bit_flip_detected(self, tmp_path):
        path = tmp_path / "a.pkl"
        atomic_write_pickle(path, {"weights": [1.0, 2.0]})
        assert load_pickle(path) == {"weights": [1.0, 2.0]}
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError):
            load_pickle(path)

    def test_clear_quarantine_keeps_log(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_json(path, {"x": 1})
        path.write_text("junk")
        with pytest.raises(CorruptArtifactError):
            load_json(path)
        assert clear_quarantine(tmp_path) == 1
        assert quarantined_files(tmp_path) == []
        assert quarantine_log_entries(tmp_path)  # history survives recovery


# --------------------------------------------------------------------------
class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(faults=(
            Fault(kind="kill", cell=1, at_update=2),
            Fault(kind="torn-write", artifact="result", then_kill=False),
            Fault(kind="stall", cell=0, delay_seconds=3.5),
        ), seed=7)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault(kind="meteor")
        with pytest.raises(ValueError, match="unknown artifact kind"):
            Fault(kind="kill", artifact="universe")
        with pytest.raises(ValueError, match="unknown Fault fields"):
            Fault.from_dict({"kind": "kill", "bogus": 1})
        with pytest.raises(ValueError, match="unknown FaultPlan fields"):
            FaultPlan.from_dict({"faults": [], "rng": 3})

    def test_resolution_precedence(self, tmp_path):
        plan = FaultPlan(faults=(Fault(kind="kill", at_update=4),), seed=1)
        assert FaultPlan.resolve(plan) is plan
        assert FaultPlan.resolve(plan.to_dict()) == plan
        assert FaultPlan.resolve(plan.to_json()) == plan
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(plan.to_json())
        assert FaultPlan.resolve(str(plan_file)) == plan
        assert FaultPlan.resolve(None) is None


# --------------------------------------------------------------------------
class TestNetworkChaosPlan:
    def test_json_roundtrip(self):
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="reset", at_request=1, op="claim"),
            NetworkFault(kind="drop-response", op="complete"),
            NetworkFault(kind="stall", at_request=4, delay_seconds=2.5),
        ), seed=3)
        assert NetworkChaosPlan.from_json(plan.to_json()) == plan

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown network fault kind"):
            NetworkFault(kind="carrier-pigeon")
        with pytest.raises(ValueError, match="at_request"):
            NetworkFault(kind="reset", at_request=-1)
        with pytest.raises(ValueError, match="unknown NetworkChaosPlan"):
            NetworkChaosPlan.from_dict({"faults": [], "rng": 1})

    def test_resolution_precedence(self, tmp_path):
        plan = NetworkChaosPlan(faults=(
            NetworkFault(kind="duplicate", at_request=2, op="complete"),))
        # what ``repro proxy --plan`` accepts: a plan, a mapping, inline
        # JSON, or a file path; no plan stays None
        assert NetworkChaosPlan.resolve(plan) is plan
        assert NetworkChaosPlan.resolve(plan.to_dict()) == plan
        assert NetworkChaosPlan.resolve(plan.to_json()) == plan
        plan_file = tmp_path / "net.json"
        plan_file.write_text(plan.to_json())
        assert NetworkChaosPlan.resolve(str(plan_file)) == plan
        assert NetworkChaosPlan.resolve(None) is None


# --------------------------------------------------------------------------
@pytest.fixture(scope="module")
def table5_baseline(tmp_path_factory):
    """Unfaulted serial table5 SMOKE rows — the bit-identity reference."""
    out = tmp_path_factory.mktemp("baseline") / "table5"
    return dump_json(repro.run("table5", scale="smoke", out_dir=out).rows)


class TestChaosTrainingCampaigns:
    """Seeded fault matrix over table5 SMOKE: recover, then match baseline."""

    @pytest.mark.parametrize("boundary, resume", [
        (2, "run"), (4, "run"), (6, "run"), (2, "work")],
        ids=["2", "4", "6", "2-work"])
    def test_kill_at_each_checkpoint_boundary(self, tmp_path, table5_baseline,
                                              boundary, resume, capsys):
        plan = FaultPlan(faults=(
            Fault(kind="kill", cell=1, artifact="checkpoint", at_update=boundary),))
        out = tmp_path / "table5-smoke"
        with pytest.raises(CampaignInterrupted, match="injected kill"):
            repro.run("table5", scale="smoke", out_dir=out, fault_plan=plan)
        # Cell 0 completed and cell 1 resumes from its checkpoint: every
        # view reads the campaign as in-flight, with no failed cell.
        status = catalogued(out)
        assert (status["status"], status["completed"], status["failed"]) == (
            "in-flight", 1, 0)
        assert cli_main(["status", "--root", str(tmp_path)]) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("table5-smoke")]
        assert line.split()[3:5] == ["1/3", "0"]
        assert line.split()[-1] == "in-flight"
        assert cli_main(["top", "--root", str(tmp_path), "--once"]) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if "table5-smoke" in line]
        assert line.endswith("in-flight") and "failed=" not in line
        with Catalog(catalog_path(tmp_path)) as catalog:
            assert catalog.run_info("table5-smoke")["status"] == "in-flight"
        if resume == "run":
            # Resume under the SAME plan: the fired marker prevents
            # re-injection.
            rows = repro.run("table5", scale="smoke", out_dir=out,
                             fault_plan=plan).rows
        else:
            # The killed cell's job went back to the queue at no cost, so a
            # plain drainer resumes it from its checkpoint, unsubmitted.
            summary = work(root=tmp_path, worker_id="resumer")
            assert not summary.interrupted
            assert (summary.completed, summary.failed) == (2, 0)
            rows = load_json(out / "results.json")["rows"]
        assert dump_json(rows) == table5_baseline
        assert catalogued(out)["status"] == "complete"
        assert_clean_tree(out)

    def test_checkpoint_bit_flip_quarantined_on_resume(self, tmp_path,
                                                       table5_baseline):
        plan = FaultPlan(faults=(
            Fault(kind="bit-flip", cell=0, artifact="checkpoint", at_update=2),),
            seed=11)
        with pytest.raises(CampaignInterrupted):
            repro.run("table5", scale="smoke", out_dir=tmp_path, fault_plan=plan)
        resumed = repro.run("table5", scale="smoke", out_dir=tmp_path,
                            fault_plan=plan)
        assert dump_json(resumed.rows) == table5_baseline
        # The flipped checkpoint was detected and quarantined (the corpse is
        # cleared after the cell recovers; the log keeps the event).
        reasons = [e["reason"] for e in quarantine_log_entries(tmp_path)]
        assert any("checksum mismatch" in reason for reason in reasons)
        assert_clean_tree(tmp_path)

    def test_torn_training_result_rebuilt_from_checkpoint(self, tmp_path,
                                                          table5_baseline):
        plan = FaultPlan(faults=(
            Fault(kind="torn-write", cell=0, artifact="training-result"),), seed=3)
        with pytest.raises(CampaignInterrupted):
            repro.run("table5", scale="smoke", out_dir=tmp_path, fault_plan=plan)
        resumed = repro.run("table5", scale="smoke", out_dir=tmp_path,
                            fault_plan=plan)
        assert dump_json(resumed.rows) == table5_baseline
        assert quarantine_log_entries(tmp_path)
        assert_clean_tree(tmp_path)


class TestChaosFastCampaigns:
    def test_torn_result_json_rerun_on_resume(self, tmp_path):
        reference = repro.run("fig4", scale="smoke", out_dir=tmp_path / "ref")
        plan = FaultPlan(faults=(
            Fault(kind="torn-write", cell=1, artifact="result"),), seed=5)
        out = tmp_path / "faulted"
        with pytest.raises(CampaignInterrupted):
            repro.run("fig4", scale="smoke", out_dir=out, fault_plan=plan)
        resumed = repro.run("fig4", scale="smoke", out_dir=out, fault_plan=plan)
        assert dump_json(resumed.rows) == dump_json(reference.rows)
        reasons = [e["reason"] for e in quarantine_log_entries(out)]
        assert reasons, "torn result.json must be quarantined, not accepted"
        assert_clean_tree(out)

    def test_kill_after_result_commit_resumes_cached(self, tmp_path):
        # A crash right after the row landed: resume serves it from cache.
        plan = FaultPlan(faults=(Fault(kind="kill", cell=0, artifact="result"),))
        with pytest.raises(CampaignInterrupted):
            repro.run("fig4", scale="smoke", out_dir=tmp_path, fault_plan=plan)
        resumed = repro.run("fig4", scale="smoke", out_dir=tmp_path,
                            fault_plan=plan)
        assert resumed.cells[0]["status"] == "cached"
        assert_clean_tree(tmp_path)


# --------------------------------------------------------------------------
class TestFailureIsolation:
    def test_strict_aggregates_every_failed_cell(self, tmp_path):
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "fail", "name": "b"},
                          {"mode": "fail", "name": "c"})
        with pytest.raises(RuntimeError, match="2 campaign cell") as excinfo:
            repro.run(spec, scale="smoke", out_dir=tmp_path)
        assert "cell 1" in str(excinfo.value) and "cell 2" in str(excinfo.value)
        for index in (1, 2):
            record = json.loads(
                (tmp_path / "cells" / f"c{index:02d}-fail-{'bc'[index-1]}"
                 / "error.json").read_text())
            assert record["status"] == "failed"
            assert record["error_type"] == "RuntimeError"
            assert "told to fail" in record["traceback"]

    def test_lenient_partial_rows_and_resume_reattempts_only_failed(
            self, tmp_path, monkeypatch):
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "fail", "name": "b"})
        partial = repro.run(spec, scale="smoke", out_dir=tmp_path, strict=False)
        assert partial.partial and not partial.strict
        assert partial.rows[0] is not None and partial.rows[1] is None
        assert [c["status"] for c in partial.cells] == ["completed", "failed"]
        assert partial.errors[0]["index"] == 1
        assert "1 cell(s) failed" in partial.format_results()
        assert not (tmp_path / "results.json").exists()
        status = catalogued(tmp_path)
        assert status["failed"] == 1 and status["status"] == "failed"

        monkeypatch.setenv("CHAOS_HEAL", "1")
        healed = repro.run(spec, scale="smoke", out_dir=tmp_path, strict=False)
        # only the failed cell re-ran; the good one came from its artifact
        assert [c["status"] for c in healed.cells] == ["cached", "completed"]
        assert all(row is not None for row in healed.rows)
        assert (tmp_path / "results.json").exists()
        assert catalogued(tmp_path)["status"] == "complete"
        assert_clean_tree(tmp_path)

    def test_retry_budget_and_resubmission(self, tmp_path):
        spec = chaos_spec({"mode": "flaky", "name": "a", "fails": 2})
        partial = repro.run(spec, scale="smoke", out_dir=tmp_path,
                            strict=False, max_attempts=2)
        record = json.loads((tmp_path / "cells" / "c00-flaky-a-2"
                             / "error.json").read_text())
        # The catalogue's claim count is the one attempt count.
        assert "attempt" not in record
        assert partial.cells[0]["status"] == "failed"
        assert partial.cells[0]["attempt"] == 2
        # Resubmitting starts a fresh budget: the third call succeeds and
        # the failure record is retired.
        healed = repro.run(spec, scale="smoke", out_dir=tmp_path)
        assert healed.cells[0]["status"] == "completed"
        assert not (tmp_path / "cells" / "c00-flaky-a-2" / "error.json").exists()

    def test_retry_budget_recovers_within_one_run(self, tmp_path):
        spec = chaos_spec({"mode": "flaky", "name": "a", "fails": 2})
        campaign = repro.run(spec, scale="smoke", out_dir=tmp_path,
                             max_attempts=3)
        assert campaign.cells[0]["status"] == "completed"
        assert campaign.rows[0]["name"] == "a"

    def test_keyboard_interrupt_propagates(self, tmp_path):
        spec = chaos_spec({"mode": "interrupt", "name": "a"})
        with pytest.raises(KeyboardInterrupt):
            repro.run(spec, scale="smoke", out_dir=tmp_path, strict=False)


class TestWatchdogTimeout:
    def test_stalled_worker_killed_and_recovered(self, tmp_path):
        plan = FaultPlan(faults=(
            Fault(kind="stall", cell=0, delay_seconds=30.0),))
        spec = chaos_spec({"mode": "ok", "name": "a"},
                          {"mode": "ok", "name": "b"})
        partial = repro.run(spec, scale="smoke", out_dir=tmp_path, strict=False,
                            workers=2, timeout=1.5, fault_plan=plan)
        assert [c["status"] for c in partial.cells] == ["timeout", "completed"]
        record = json.loads((tmp_path / "cells" / "c00-ok-a"
                             / "error.json").read_text())
        assert record["error_type"] == "CellTimeout"
        # Resume under the same plan: the stall already fired, so the cell
        # completes normally and rows match an unfaulted run.
        reference = repro.run(spec, scale="smoke", out_dir=tmp_path / "ref")
        resumed = repro.run(spec, scale="smoke", out_dir=tmp_path,
                            fault_plan=plan)
        assert dump_json(resumed.rows) == dump_json(reference.rows)
        assert_clean_tree(tmp_path)


# --------------------------------------------------------------------------
class TestFaultCLI:
    def test_fault_plan_flag_and_exit_codes(self, tmp_path, capsys):
        out = str(tmp_path / "c")
        plan = FaultPlan(faults=(
            Fault(kind="torn-write", cell=0, artifact="result"),)).to_json()
        assert cli_main(["run", "fig4", "--scale", "smoke", "--out-dir", out,
                         "--fault-plan", plan, "--format", "none"]) == 3
        assert "resume" in capsys.readouterr().err
        assert cli_main(["run", "fig4", "--scale", "smoke", "--out-dir", out,
                         "--fault-plan", plan, "--format", "none"]) == 0

    def test_lenient_flag_returns_partial_exit_code(self, tmp_path, capsys):
        spec = chaos_spec({"mode": "fail", "name": "a"})
        # the CLI resolves by registry id, so register the chaos spec briefly
        from repro.runs import register_experiment, unregister_experiment
        register_experiment(spec)
        try:
            out = str(tmp_path / "c")
            assert cli_main(["run", "chaos", "--scale", "smoke", "--out-dir",
                             out, "--format", "none"]) == 1
            assert cli_main(["run", "chaos", "--scale", "smoke", "--out-dir",
                             out, "--lenient", "--format", "none"]) == 4
            captured = capsys.readouterr()
            assert "told to fail" in captured.err
        finally:
            unregister_experiment("chaos")

    def test_status_shows_failed_and_quarantined_columns(self, tmp_path, capsys):
        repro.run("table1", scale="smoke", root=tmp_path)
        assert cli_main(["status", "--root", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "failed" in output and "quarantined" in output
