"""Tests for the experiment registry, campaign runner, artifacts, and CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.experiments.common import SMOKE, resolve_scale
from repro.jsonio import dump_json
from repro.runs import (
    CampaignInterrupted,
    CellContext,
    ExperimentSpec,
    Fault,
    FaultPlan,
    get_experiment,
    list_experiments,
    load_rows,
    register_experiment,
    unregister_experiment,
)
from repro.runs.cli import main as cli_main
from repro.runs.runner import cell_slug
from repro.store import Catalog, catalog_path

EXPECTED_EXPERIMENTS = {"table1", "table3", "table4", "table5", "table6", "table7",
                        "table8", "table9", "table10", "fig4", "search"}


def in_process_rows(experiment_id, scale="smoke"):
    """Every cell of an experiment run in-process, without the campaign runner."""
    spec = get_experiment(experiment_id)
    return [spec.run_cell(params, scale, seed=spec.base_seed)
            for params in spec.cells(scale)]


class TestExperimentSpec:
    def test_builtin_catalogue_registered(self):
        assert EXPECTED_EXPERIMENTS <= set(list_experiments())

    def test_json_roundtrip_for_every_builtin(self):
        for experiment_id in list_experiments():
            spec = get_experiment(experiment_id)
            restored = ExperimentSpec.from_json(spec.to_json())
            assert restored == spec

    def test_requires_driver(self):
        with pytest.raises(ValueError):
            ExperimentSpec(experiment_id="x")

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec.from_dict({"experiment_id": "x", "driver": "y", "bogus": 1})

    def test_cells_static_grid(self):
        spec = get_experiment("table5")
        cells = spec.cells("smoke")
        assert cells == [{"policy": "lru"}, {"policy": "plru"}, {"policy": "rrip"}]
        cells[0]["policy"] = "mutated"
        assert spec.cells("smoke")[0] == {"policy": "lru"}, "cells must be copies"

    def test_cells_scale_dependent(self):
        table3 = get_experiment("table3")
        assert len(table3.cells("bench")) == 1
        assert len(table3.cells("paper")) > 1

    def test_registry_guards(self):
        spec = ExperimentSpec(experiment_id="tmp/exp", driver="repro.experiments.fig4")
        register_experiment(spec)
        try:
            with pytest.raises(ValueError):
                register_experiment(spec)
            register_experiment(spec, overwrite=True)
            assert get_experiment("tmp/exp") == spec
        finally:
            unregister_experiment("tmp/exp")
        with pytest.raises(KeyError):
            get_experiment("tmp/exp")

    def test_format_rows_uses_driver_formatter(self):
        spec = get_experiment("defense_matrix")
        rows = [{"scenario": "guessing/lru-4way", "defense": "none",
                 "probe_accuracy": 1.0, "accuracy": 0.5}]
        assert spec.format_rows(rows).startswith("Defense matrix")


class TestCampaignFastExperiments:
    """Fast, training-free experiments exercise the whole runner cheaply."""

    def test_rows_identical_to_in_process_cells(self, tmp_path):
        campaign = repro.run("table1", scale="smoke", out_dir=tmp_path / "c")
        assert dump_json(campaign.rows) == dump_json(in_process_rows("table1"))

    def test_artifact_layout(self, tmp_path):
        out = tmp_path / "c"
        campaign = repro.run("fig4", scale="smoke", out_dir=out)
        assert (out / "manifest.json").exists()
        assert (out / "results.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"]["experiment_id"] == "fig4"
        assert [c["params"] for c in manifest["cells"]] == campaign.spec.cells("smoke")
        for cell in manifest["cells"]:
            result = json.loads((out / "cells" / cell["slug"] / "result.json").read_text())
            assert result["row"] == campaign.rows[cell["index"]]

    def test_parallel_matches_serial(self, tmp_path):
        serial = repro.run("search", scale="smoke", out_dir=tmp_path / "serial")
        parallel = repro.run("search", scale="smoke", workers=4,
                             out_dir=tmp_path / "parallel")
        assert dump_json(serial.rows) == dump_json(parallel.rows)

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "c"
        first = repro.run("table10", scale="smoke", out_dir=out)
        second = repro.run("table10", scale="smoke", out_dir=out)
        assert second.resumed == len(second.cells)
        assert dump_json(second.rows) == dump_json(first.rows)

    def test_resume_reads_each_result_once(self, tmp_path, monkeypatch):
        from repro.runs import runner

        out = tmp_path / "c"
        first = repro.run("table1", scale="smoke", out_dir=out)
        reads = []
        load_json = runner.load_json

        def counting_load_json(path, *args, **kwargs):
            if path.name == "result.json":
                reads.append(path.parent.name)
            return load_json(path, *args, **kwargs)

        monkeypatch.setattr(runner, "load_json", counting_load_json)
        second = repro.run("table1", scale="smoke", out_dir=out)
        assert second.resumed == len(second.cells) == 4
        assert dump_json(second.rows) == dump_json(first.rows)
        assert sorted(reads) == sorted(c["slug"] for c in second.cells)

    def test_refuses_mismatched_out_dir(self, tmp_path):
        out = tmp_path / "c"
        repro.run("table1", scale="smoke", out_dir=out)
        with pytest.raises(ValueError):
            repro.run("fig4", scale="smoke", out_dir=out)
        with pytest.raises(ValueError):
            repro.run("table1", scale="smoke", seed=9, out_dir=out)

    def test_status_and_load_rows(self, tmp_path):
        campaign = repro.run("table1", scale="smoke", root=tmp_path)
        with Catalog(catalog_path(tmp_path)) as catalog:
            [status] = catalog.list_runs()
        assert status["run_id"] == "table1-smoke"
        assert status["status"] == "complete"
        assert status["completed"] == status["cells"] == 4
        assert status["failed"] == 0
        rows = load_rows("table1", scale="smoke", root=tmp_path)
        assert dump_json(rows) == dump_json(campaign.rows)

    def test_load_rows_missing_campaign(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_rows("table1", scale="smoke", root=tmp_path)

    def test_cell_slug_stability(self):
        assert cell_slug(0, {"policy": "lru"}) == "c00-lru"
        assert cell_slug(12, {}) == "c12"
        slug = cell_slug(1, {"attack": "lru state (addr-based)"})
        assert " " not in slug and "(" not in slug


class TestCampaignTraining:
    """SMOKE-scale RL campaigns: determinism and checkpointed resume."""

    def test_table5_serial_parallel_resume_all_identical(self, tmp_path):
        serial = repro.run("table5", scale="smoke", out_dir=tmp_path / "serial")
        assert dump_json(serial.rows) == dump_json(in_process_rows("table5"))

        parallel = repro.run("table5", scale="smoke", workers=3,
                             out_dir=tmp_path / "parallel")
        assert dump_json(parallel.rows) == dump_json(serial.rows)

        kill = FaultPlan(faults=(
            Fault(kind="kill", artifact="checkpoint", at_update=3),))
        with pytest.raises(CampaignInterrupted):
            repro.run("table5", scale="smoke", out_dir=tmp_path / "resume",
                      fault_plan=kill)
        # The killed cell is resumable, not failed, in the catalogue too.
        with Catalog(catalog_path(tmp_path)) as catalog:
            status = {run["run_id"]: run for run in catalog.list_runs()}["resume"]
        assert status["status"] == "in-flight"
        assert status["failed"] == 0
        resumed = repro.run("table5", scale="smoke", out_dir=tmp_path / "resume")
        assert dump_json(resumed.rows) == dump_json(serial.rows)

    def test_cell_artifacts_include_training_history(self, tmp_path):
        out = tmp_path / "c"
        repro.run("table5", scale="smoke", out_dir=out)
        results = sorted(out.glob("cells/*/run0.result.json"))
        assert len(results) == 3
        history = json.loads(results[0].read_text())["history"]["updates"]
        assert "update" in history[0]
        # A finished training keeps its memo and policy, and nothing else:
        # no write-only copies and no lingering checkpoint.
        names = {"result.json", "run0.result.json", "run0.policy.pkl",
                 "run0.meta.json"}
        for cell_dir in out.glob("cells/*"):
            assert sorted(p.name for p in cell_dir.iterdir()) == sorted(
                names | {name + ".sha256" for name in names})


class TestCellContext:
    def test_training_memoization(self, tmp_path):
        from repro.experiments.common import train_agent

        ctx = CellContext(tmp_path)
        first = train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        assert ctx.result_path("train").exists()
        second = train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        ref = first.to_dict()
        assert second.to_dict() == ref  # loaded from the memo, not retrained
        result, policy = ctx.load_training("train")
        assert result.to_dict() == ref
        assert policy is not None

    def test_memo_hit_reads_the_policy_once(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.experiments.common import train_agent

        ctx = CellContext(tmp_path)
        train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        policy_path = ctx.policy_path("train")
        reads = []
        read_bytes = Path.read_bytes

        def counting_read_bytes(path):
            if path == policy_path:
                reads.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
        train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        assert reads == [policy_path]

    @pytest.mark.parametrize("damage", ["missing", "torn", "unpicklable"])
    def test_unusable_policy_memo_retrains_bit_identically(self, tmp_path,
                                                           damage):
        from repro.experiments.common import train_agent
        from repro.runs.artifacts import (atomic_write_bytes,
                                          quarantine_log_entries)

        ctx = CellContext(tmp_path)
        first = train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        policy_path = ctx.policy_path("train")
        if damage == "missing":
            policy_path.unlink()
        elif damage == "torn":
            policy_path.write_bytes(policy_path.read_bytes()[:-7])
        else:  # checksum-valid bytes that are not a pickle
            atomic_write_bytes(policy_path, b"not a pickle")
        assert ctx.load_training("train") is None
        reasons = [entry["reason"] for entry in quarantine_log_entries(tmp_path)
                   if entry["artifact"] == policy_path.name]
        expected = {"missing": [], "torn": ["checksum mismatch"],
                    "unpicklable": ["unpicklable"]}[damage]
        assert [reason.split(":")[0] for reason in reasons] == expected
        second = train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        assert second.to_dict() == first.to_dict()
        result, policy = ctx.load_training("train")
        assert result.to_dict() == second.to_dict()
        assert policy is not None

    def test_policy_memo_from_before_mlp_only_policy_loads(self, tmp_path):
        # train.policy.pkl memos written while the policy still had a
        # backbone switch and an inference counter carry these attributes in
        # the pickled __dict__.
        from repro.runs.artifacts import atomic_write_pickle, atomic_write_text
        from repro.rl.policy import ActorCriticPolicy
        from repro.rl.trainer import TrainingResult

        policy = ActorCriticPolicy(12, 4, hidden_sizes=(16, 8),
                                   rng=np.random.default_rng(3))
        legacy = ActorCriticPolicy(12, 4, hidden_sizes=(16, 8),
                                   rng=np.random.default_rng(3))
        legacy.__dict__.update(backbone_kind="mlp", window_shape=(3, 4),
                               _compiled_unsupported=False, _compiled_calls=7)
        ctx = CellContext(tmp_path)
        atomic_write_pickle(ctx.policy_path("train"), legacy)
        atomic_write_text(ctx.result_path("train"), TrainingResult(
            converged=True, env_steps=1, updates=1, epochs_to_converge=None,
            final_accuracy=1.0, final_guess_rate=1.0,
            final_episode_length=1.0, final_episode_reward=1.0).to_json())
        _, loaded = ctx.load_training("train")
        observations = np.random.default_rng(4).standard_normal((5, 12))
        for deterministic in (False, True):
            got = loaded.act(observations, rng=np.random.default_rng(5),
                             deterministic=deterministic)
            want = policy.act(observations, rng=np.random.default_rng(5),
                              deterministic=deterministic)
            assert np.array_equal(got.actions, want.actions)
            assert np.array_equal(got.log_probs, want.log_probs)
            assert np.array_equal(got.values, want.values)

    def test_two_trainings_of_a_cell_write_identical_memos(self, tmp_path):
        spec = get_experiment("table5")
        memos = []
        for attempt in ("first", "second"):
            ctx = CellContext(tmp_path / attempt)
            spec.run_cell({"policy": "lru"}, "smoke", ctx=ctx)
            memos.append(ctx.result_path("run0").read_bytes())
        assert memos[0] == memos[1]

    def test_memo_with_wall_time_still_loads(self, tmp_path):
        from repro.experiments.common import train_agent
        from repro.runs.artifacts import atomic_write_json, load_json

        ctx = CellContext(tmp_path)
        first = train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        older = dict(load_json(ctx.result_path("train")), wall_time_seconds=1.5)
        atomic_write_json(ctx.result_path("train"), older)
        result, _policy = ctx.load_training("train")
        assert result.to_dict() == first.to_dict()

    def test_refuses_artifact_reuse_under_different_parameters(self, tmp_path):
        from repro.experiments.common import BENCH, train_agent

        ctx = CellContext(tmp_path)
        train_agent("guessing/quickstart", SMOKE, seed=1, ctx=ctx)
        with pytest.raises(ValueError, match="different parameters"):
            train_agent("guessing/quickstart", SMOKE, seed=2, ctx=ctx)
        with pytest.raises(ValueError, match="different parameters"):
            train_agent("guessing/quickstart", BENCH, seed=1, ctx=ctx)


class TestCLI:
    @pytest.mark.parametrize("command", ["run", "submit"])
    def test_no_checkpoint_cadence_option(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--checkpoint-every" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "table1", "--checkpoint-every", "2"])
        assert exit_info.value.code == 2

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in EXPECTED_EXPERIMENTS:
            assert experiment_id in output

    def test_list_scenarios(self, capsys):
        assert cli_main(["list", "--scenarios"]) == 0
        assert "guessing/lru-4way" in capsys.readouterr().out

    def test_run_results_status(self, tmp_path, capsys):
        root = str(tmp_path)
        assert cli_main(["run", "table1", "--scale", "smoke", "--root", root]) == 0
        output = capsys.readouterr().out
        assert "Table I" in output and "4/4 cells complete" in output

        assert cli_main(["results", "table1", "--scale", "smoke", "--root", root,
                         "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert dump_json(rows) == dump_json(in_process_rows("table1"))

        assert cli_main(["status", "--root", root]) == 0
        assert "table1-smoke" in capsys.readouterr().out

    def test_results_missing_campaign(self, tmp_path, capsys):
        assert cli_main(["results", "table1", "--scale", "smoke",
                         "--root", str(tmp_path)]) == 1

    def test_run_json_format(self, tmp_path, capsys):
        assert cli_main(["run", "fig4", "--scale", "smoke",
                         "--root", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "fig4"
        assert len(payload["rows"]) == 3


class TestScaleResolution:
    def test_resolve_scale_accepts_scale_and_name(self):
        assert resolve_scale("smoke") is SMOKE
        assert resolve_scale(SMOKE) is SMOKE
        assert resolve_scale(None).name == "bench"

    def test_resolve_scale_rejects_unknown(self):
        with pytest.raises(KeyError):
            resolve_scale("galactic")
