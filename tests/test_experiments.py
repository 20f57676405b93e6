"""Tests for the experiment drivers (smoke scale) and shared infrastructure."""

import math

import numpy as np
import pytest

import repro
from repro.experiments import BENCH, PAPER, SMOKE, ExperimentScale
from repro.experiments.common import average_over_runs, format_table, resolve_scale
from repro.experiments import fig4, table4, table5, table6, table10_fig5
from repro.experiments.table4 import table4_configs
from repro.experiments.table5 import make_env_factory as table5_factory
from repro.experiments.table6 import make_env_factory as table6_factory
from repro.experiments.table7 import make_env_factory as table7_factory
from repro.experiments.table8_fig3 import covert_env_config, make_covert_env_factory
from repro.experiments.table3 import make_env_factory as table3_factory
from repro.hardware.machines import get_machine
from repro.jsonio import dump_json
from repro.runs import get_experiment, list_experiments

FAST_EXPERIMENTS = [experiment_id for experiment_id in list_experiments()
                    if "fast" in get_experiment(experiment_id).tags]


def smoke_campaign(experiment_id, tmp_path):
    """A whole experiment at smoke scale through the campaign API."""
    return repro.run(experiment_id, scale="smoke", out_dir=tmp_path / experiment_id,
                     catalog=False)


class TestScales:
    def test_presets_are_registered(self):
        assert resolve_scale("smoke") is SMOKE
        assert resolve_scale("bench") is BENCH
        assert resolve_scale("paper") is PAPER
        assert resolve_scale(SMOKE) is SMOKE

    def test_unknown_scale_rejected(self):
        with pytest.raises(KeyError):
            resolve_scale("galactic")

    def test_ppo_config_from_scale(self):
        config = BENCH.ppo_config(horizon=32)
        assert config.horizon == 32
        assert config.num_envs == BENCH.num_envs

    def test_with_overrides(self):
        scale = SMOKE.with_overrides(max_updates=3)
        assert scale.max_updates == 3
        assert scale.name == "smoke"

    def test_average_over_runs(self):
        assert average_over_runs([1.0, 3.0]) == 2.0
        assert average_over_runs([None, 4.0]) == 4.0
        assert math.isnan(average_over_runs([]))

    def test_format_table(self):
        text = format_table([{"a": 1, "b": 0.5}], ["a", "b"], title="T")
        assert "T" in text and "0.500" in text


class TestFastExperimentContract:
    """Every training-free experiment: one definition, two execution paths."""

    def test_fast_tag_covers_the_training_free_experiments(self):
        assert sorted(FAST_EXPERIMENTS) == ["fig4", "search", "table1", "table10"]

    @pytest.mark.parametrize("experiment_id", FAST_EXPERIMENTS)
    def test_campaign_matches_in_process_cells(self, experiment_id, tmp_path):
        spec = get_experiment(experiment_id)
        campaign = smoke_campaign(experiment_id, tmp_path)
        in_process = [spec.run_cell(params, "smoke", seed=spec.base_seed)
                      for params in spec.cells("smoke")]
        assert dump_json(campaign.rows) == dump_json(in_process)
        # Rows may carry detail keys beyond the table (e.g. the attack
        # sequence); every registered column must be among them.
        for row in campaign.rows:
            assert set(spec.columns) <= set(row)
        title, header = campaign.format_results().splitlines()[:2]
        assert title == spec.description
        assert header.split() == list(spec.columns)


class TestFastDrivers:
    def test_table1_all_attacks_reach_full_accuracy(self, tmp_path):
        rows = smoke_campaign("table1", tmp_path).rows
        assert len(rows) == 4
        assert all(row["accuracy"] == 1.0 for row in rows)

    def test_fig4_shape(self, tmp_path):
        rows = smoke_campaign("fig4", tmp_path).rows
        by_name = {row["channel"]: row for row in rows}
        assert by_name["stealthy_streamline"]["bypasses_miss_detection"]
        assert not by_name["streamline"]["bypasses_miss_detection"]
        assert (by_name["stealthy_streamline"]["bits_per_access"]
                > by_name["lru_address_based"]["bits_per_access"])

    def test_fig4_walkthrough_decodes_all_symbols(self):
        rows = fig4.cache_state_walkthrough(num_ways=8)
        assert len(rows) == 4
        assert all(row["correct"] for row in rows)

    def test_table10_matches_paper_shape(self, tmp_path):
        rows = smoke_campaign("table10", tmp_path).rows
        assert len(rows) == 4
        for row in rows:
            assert row["ss_bit_rate_mbps"] > row["lru_bit_rate_mbps"]
        eight_way = [row for row in rows if "8way" in row["l1d_config"]]
        twelve_way = [row for row in rows if "12way" in row["l1d_config"]]
        assert max(r["improvement"] for r in twelve_way) > max(r["improvement"] for r in eight_way)

    def test_figure5_curves_structure(self):
        curves = table10_fig5.figure5_curves(message_bits=512, trials=2)
        assert len(curves) == 4
        for machine_curves in curves.values():
            assert set(machine_curves) == {"lru_address_based", "stealthy_streamline"}
            for points in machine_curves.values():
                assert all("bit_rate_mbps" in point and "error_rate_mean" in point
                           for point in points)

    def test_search_comparison(self, tmp_path):
        rows = smoke_campaign("search", tmp_path).rows
        analytical = [row for row in rows if row["kind"] == "analytical"]
        assert analytical[0]["brute_force_steps"] < analytical[-1]["brute_force_steps"]

    def test_table4_textbook_feasibility_for_all_configs(self, tmp_path):
        campaign = smoke_campaign("table4", tmp_path)
        rows = campaign.rows
        assert len(rows) == 17
        # Every configuration leaks information to the textbook attack (well
        # above chance); prefetchers and the two-level hierarchy degrade the
        # for-loop attack, which is exactly why the paper's RL agent finds
        # adapted sequences for those configurations.
        assert all(row["textbook_accuracy"] >= 0.5 for row in rows)
        plain = [row for row in rows
                 if "prefetcher" not in row["description"] and "2-level" not in row["description"]]
        assert all(row["textbook_accuracy"] > 0.9 for row in plain)
        assert not any(row["rl_trained"] for row in rows)
        assert campaign.format_results().startswith(get_experiment("table4").description)

    def test_table4_config_catalogue(self):
        configs = table4_configs()
        assert [config.number for config in configs] == list(range(1, 18))
        hierarchy_configs = [config for config in configs if config.build().hierarchy]
        assert len(hierarchy_configs) == 2

    def test_table4_unknown_config_names_the_valid_range(self):
        with pytest.raises(KeyError, match=r"unknown Table IV config 99; choose from 1-17"):
            table4.run_cell({"config": 99}, "smoke")


class TestEnvFactories:
    def test_table5_factory_builds_policy_specific_envs(self):
        env = table5_factory("rrip")(0)
        assert env.config.cache.rep_policy == "rrip"
        assert env.config.victim_no_access_enable

    def test_table6_factory_sets_step_reward(self):
        env = table6_factory(-0.005)(0)
        assert env.config.rewards.step_reward == -0.005
        assert env.config.cache.rep_policy == "random"

    def test_table7_factory_locks_victim_line(self):
        env = table7_factory(pl_cache=True)(0)
        env.reset(secret=0)
        backend_cache = env.backend.cache
        assert backend_cache.contains(0)
        way = backend_cache.lookup(0)
        assert backend_cache.sets[0][way].locked

    def test_table7_baseline_has_no_lock(self):
        env = table7_factory(pl_cache=False)(0)
        env.reset(secret=0)
        assert not env.backend.cache.config.lockable

    def test_table3_factory_uses_blackbox_backend(self):
        env = table3_factory(get_machine("Core i7-6700:L2"), attacker_addresses=5)(0)
        assert env.action_space.n == 5 + 1 + 2
        assert env.machine.name == "Core i7-6700"

    def test_covert_env_factory(self):
        env = make_covert_env_factory(2, 32)(0)
        assert env.episode_length == 32
        config = covert_env_config(2, 32)
        assert config.victim_addresses == [0, 1]
        assert config.attacker_addresses == [2, 3]


class TestSmokeScaleRLDrivers:
    """At smoke scale these just exercise the full code path, not convergence."""

    def test_table5_smoke(self):
        row = table5.run_cell({"policy": "lru"}, SMOKE)
        assert row["replacement_policy"] == "lru"
        assert row["epochs_to_converge"] > 0
        assert get_experiment("table5").format_rows([row])

    def test_table6_smoke(self):
        row = table6.run_cell({"step_reward": -0.01}, SMOKE)
        assert 0.0 <= row["end_accuracy"] <= 1.0
        assert get_experiment("table6").format_rows([row])

    def test_table7_smoke(self, tmp_path):
        campaign = smoke_campaign("table7", tmp_path)
        assert {row["cache"] for row in campaign.rows} == {"PL Cache", "Baseline"}
        assert campaign.format_results()
