"""Seed replicas: ``scale.runs`` expands every grid entry into replica cells.

The runner owns replication (:mod:`repro.runs.spec`): each seed replica is
its own queue job and cell directory, replica 0 keeps the campaign seed, and
the rendered table collapses a grid entry's replicas into one line.  The
drivers train once per cell and never read ``scale.runs``.
"""

from __future__ import annotations

import ast
import json
import threading
from pathlib import Path

import pytest

import repro
from repro.experiments.common import PAPER, SMOKE
from repro.jsonio import dump_json
from repro.runs import (
    CampaignInterrupted,
    ExperimentSpec,
    Fault,
    FaultPlan,
    get_experiment,
)
from repro.runs.artifacts import load_json
from repro.runs.spec import (
    REPLICA_SEED_STRIDE,
    collapse_replicas,
    replica_seed,
)
from repro.store import Catalog, catalog_path
from repro.store.server import make_server
from repro.store.worker import submit_campaign, work

EXPERIMENTS_DIR = Path(repro.__file__).resolve().parent / "experiments"

#: A toy scale with two seed replicas per grid entry.
TWO_RUNS = SMOKE.with_overrides(name="rep2", runs=2)


def chaos_spec(*cells: dict) -> ExperimentSpec:
    return ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                          columns=("name", "value"), grid=cells,
                          default_scale="smoke")


TOY = chaos_spec({"mode": "ok", "name": "a", "offset": 0},
                 {"mode": "ok", "name": "b", "offset": 5})


def job_states(root: Path, run_id: str) -> dict:
    with Catalog(catalog_path(root)) as catalog:
        return {row["cell_index"]: row["state"] for row in catalog.conn.fetchall(
            "SELECT cell_index, state FROM jobs WHERE run_id = ?", (run_id,))}


# --------------------------------------------------------------------------
class TestReplicaCells:
    def test_no_replica_key_at_one_run(self):
        for experiment_id in ("table5", "table7", "defense_matrix", "table1"):
            spec = get_experiment(experiment_id)
            assert spec.cells("smoke") == [dict(cell) for cell in spec.grid]
            assert all("replica" not in cell for cell in spec.cells("bench"))

    def test_table5_paper_has_three_replicas_per_policy(self):
        cells = get_experiment("table5").cells("paper")
        assert len(cells) == 9
        assert cells[:3] == [{"policy": "lru", "replica": r} for r in range(3)]
        assert [cell["policy"] for cell in cells] == \
            ["lru"] * 3 + ["plru"] * 3 + ["rrip"] * 3

    def test_table3_paper_grid_is_tripled(self):
        from repro.experiments import table3

        grid = table3.cells(PAPER)
        cells = get_experiment("table3").cells("paper")
        assert PAPER.runs == 3 and len(cells) == 3 * len(grid)
        assert [{k: v for k, v in cell.items() if k != "replica"}
                for cell in cells[::3]] == grid

    def test_replica_key_is_reserved(self):
        spec = chaos_spec({"name": "a", "replica": 7})
        assert spec.cells("smoke") == [{"name": "a", "replica": 7}]
        with pytest.raises(ValueError, match="reserved"):
            spec.cells(TWO_RUNS)

    def test_scale_needs_a_run(self):
        with pytest.raises(ValueError, match="runs >= 1"):
            SMOKE.with_overrides(runs=0)


class TestReplicaSeeds:
    def test_replica_zero_keeps_the_campaign_seed(self):
        for seed in (0, 1, 42):
            assert replica_seed(seed, 0) == seed

    def test_replica_seeds_are_distinct(self):
        seeds = [replica_seed(seed, replica) for seed in range(5)
                 for replica in range(8)]
        assert len(set(seeds)) == len(seeds)
        assert replica_seed(3, 2) == 3 + 2 * REPLICA_SEED_STRIDE

    def test_driver_sees_the_replica_seed_not_the_index(self):
        spec = chaos_spec({"mode": "ok", "name": "a"})
        rows = [spec.run_cell(cell, TWO_RUNS, seed=4) for cell in spec.cells(TWO_RUNS)]
        assert rows == [{"name": "a", "value": replica_seed(4, r)} for r in range(2)]


class TestReplicaCampaigns:
    def test_serial_workers_and_http_drain_agree(self, tmp_path):
        serial = repro.run(TOY, scale=TWO_RUNS, root=tmp_path / "serial")
        parallel = repro.run(TOY, scale=TWO_RUNS, workers=2,
                             root=tmp_path / "parallel")
        assert [row["value"] for row in serial.rows] == \
            [replica_seed(0, 0), replica_seed(0, 1),
             5 + replica_seed(0, 0), 5 + replica_seed(0, 1)]
        assert dump_json(parallel.rows) == dump_json(serial.rows)

        server_root = tmp_path / "server"
        submission = submit_campaign(TOY, scale=TWO_RUNS, root=server_root)
        server = make_server(server_root, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            summary = work(root=tmp_path / "remote", run_id=submission.run_id,
                           worker_id="remote", server=url, poll_seconds=0.05)
        finally:
            server.shutdown()
            server.server_close()
        assert summary.completed == 4
        results = [(root / "chaos-rep2" / "results.json").read_bytes()
                   for root in (tmp_path / "serial", tmp_path / "parallel",
                                server_root)]
        assert results[0] == results[1] == results[2]
        manifest = load_json(server_root / "chaos-rep2" / "manifest.json")
        assert [cell["slug"] for cell in manifest["cells"]] == \
            ["c00-ok-a-0-0", "c01-ok-a-0-1", "c02-ok-b-5-0", "c03-ok-b-5-1"]

    def test_killed_replica_resumes_alone(self, tmp_path):
        spec = get_experiment("table5").derive("table5-lru",
                                               grid=({"policy": "lru"},))
        scale = SMOKE.with_overrides(runs=2)
        reference = repro.run(spec, scale=scale, out_dir=tmp_path / "ref" / "c")
        root = tmp_path / "killed"
        out = root / "table5-lru-smoke"
        plan = FaultPlan(faults=(
            Fault(kind="kill", cell=1, artifact="checkpoint", at_update=2),))
        with pytest.raises(CampaignInterrupted, match="injected kill"):
            repro.run(spec, scale=scale, out_dir=out, fault_plan=plan)
        assert job_states(root, out.name) == {0: "done", 1: "pending"}
        sibling = out / "cells" / "c00-lru-0" / "result.json"
        sibling_bytes = sibling.read_bytes()
        assert (out / "cells" / "c01-lru-1" / "run0.checkpoint.pkl").exists()

        summary = work(root=root, worker_id="resumer")
        assert (summary.completed, summary.failed) == (1, 0)
        assert [cell["index"] for cell in summary.cells] == [1]
        assert sibling.read_bytes() == sibling_bytes
        assert job_states(root, out.name) == {0: "done", 1: "done"}
        rows = load_json(out / "results.json")["rows"]
        assert dump_json(rows) == dump_json(reference.rows)
        assert rows[0] != rows[1], "the two replicas train with different seeds"


class TestCollapse:
    ROWS = [{"policy": "lru", "epochs": 1.0, "steps": 10, "converged": True,
             "example": ""},
            {"policy": "lru", "epochs": 2.0, "steps": None, "converged": False,
             "example": "a -> b"},
            {"policy": "lru", "epochs": 4.5, "steps": 30, "converged": True,
             "example": "c"}]

    def test_mean_skips_none_and_counts_replicas(self):
        [line] = collapse_replicas(self.ROWS, 3)
        assert line == {"policy": "lru", "epochs": 2.5, "steps": 20.0,
                        "converged": 2 / 3, "example": "a -> b", "replicas": 3}

    def test_failed_replica_is_left_out(self):
        lines = collapse_replicas([self.ROWS[0], None, None, None], 2)
        assert lines == [dict(self.ROWS[0], replicas=1)]

    def test_table_shows_one_line_per_grid_entry(self):
        spec = get_experiment("table5")
        rows = [{"replacement_policy": policy, "epochs_to_converge": float(r),
                 "episode_length": 4.0, "accuracy": 0.5, "converged_runs": 0,
                 "runs": 1, "example_sequence": ""}
                for policy in ("lru", "plru") for r in range(3)]
        text = spec.format_rows(rows, runs=3)
        lines = text.splitlines()
        assert lines[1].split() == list(spec.columns) + ["replicas"]
        assert [line.split()[:2] for line in lines[3:]] == \
            [["lru", "1.000"], ["plru", "1.000"]]
        assert all(line.split()[-1] == "3" for line in lines[3:])

    def test_driver_formatter_sees_collapsed_rows(self):
        spec = get_experiment("defense_matrix")
        rows = [{"scenario": "guessing/lru-4way", "defense": "none",
                 "probe_accuracy": 1.0, "accuracy": accuracy}
                for accuracy in (0.5, 1.0)]
        text = spec.format_rows(rows, runs=2)
        assert "0.750" in text and "0.500" not in text


# --------------------------------------------------------------------------
class TestRunnerOwnsReplicas:
    def test_no_driver_reads_scale_runs(self):
        """Replication lives in one place: no experiment driver loops over
        ``.runs``; the runner expands seeds into cells instead.  Only
        ``scales.py``, which defines the field, may touch it."""
        readers = []
        for path in sorted(EXPERIMENTS_DIR.glob("*.py")):
            if path.name == "scales.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            readers += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Attribute) and node.attr == "runs"]
        assert readers == []


def test_results_command_collapses_replicas(tmp_path, capsys):
    from repro.runs import register_experiment, unregister_experiment
    from repro.runs.cli import main as cli_main

    register_experiment(TOY.derive("chaos-replicas"))
    try:
        campaign = repro.run("chaos-replicas", scale="paper", root=tmp_path)
        assert len(campaign.rows) == 2 * PAPER.runs
        (campaign.out_dir / "cells" / "c05-ok-b-5-2" / "result.json").unlink()
        capsys.readouterr()
        assert cli_main(["results", "chaos-replicas", "--scale", "paper",
                         "--root", str(tmp_path)]) == 0
        text = capsys.readouterr().out
        assert cli_main(["results", "chaos-replicas", "--scale", "paper",
                         "--root", str(tmp_path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
    finally:
        unregister_experiment("chaos-replicas")
    mean_b = 5 + (replica_seed(0, 0) + replica_seed(0, 1)) / 2
    assert text.splitlines() == [f"a={float(replica_seed(0, 1))}",
                                 f"b={mean_b}",
                                 "(1 cell(s) failed; rows missing — see error.json)"]
    assert rows == campaign.rows[:5]
