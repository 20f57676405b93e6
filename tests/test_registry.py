"""Tests for the scenario registry and the unified ``repro.make()`` API."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.env.config import EnvConfig
from repro.env.covert_env import MultiGuessCovertEnv
from repro.env.guessing_game import CacheGuessingGameEnv
from repro.env.hardware_env import BlackboxHardwareEnv
from repro.env.wrappers import AutocorrelationPenaltyWrapper, EnvWrapper
from repro.rl.vec_env import VecEnv
from repro.scenarios import (
    ScenarioSpec,
    as_env_factory,
    get_spec,
    is_registered,
    list_scenarios,
    machine_scenario_id,
    make,
    make_factory,
    register,
    unregister,
)


class TestSpecSerialization:
    def test_every_registered_spec_round_trips_via_dict(self):
        for scenario_id in list_scenarios():
            spec = get_spec(scenario_id)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_every_registered_spec_round_trips_via_json(self):
        for scenario_id in list_scenarios():
            spec = get_spec(scenario_id)
            restored = ScenarioSpec.from_json(spec.to_json())
            assert restored == spec
            # The JSON itself must be plain data (no custom encoders needed).
            json.loads(spec.to_json())

    def test_to_dict_is_plain_data_and_detached(self):
        spec = get_spec("guessing/lru-4way")
        data = spec.to_dict()
        data["cache"]["rep_policy"] = "mutated"
        assert spec.cache["rep_policy"] == "lru"

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            ScenarioSpec.from_dict({"scenario_id": "x", "not_a_field": 1})

    def test_unknown_env_type_rejected(self):
        with pytest.raises(ValueError, match="env type"):
            ScenarioSpec(scenario_id="x", env="weird")

    def test_unknown_wrapper_type_rejected(self):
        with pytest.raises(ValueError, match="wrapper type"):
            ScenarioSpec(scenario_id="x", wrappers=({"type": "nope"},))


class TestMake:
    def test_every_registered_scenario_is_constructible(self):
        # The SVM wrapper needs its trained detector at make() time; everything
        # else must build and step out of the box.
        for scenario_id in list_scenarios():
            if any(w["type"] == "svm_detection" for w in get_spec(scenario_id).wrappers):
                continue
            env = make(scenario_id, seed=0)
            observation = env.reset()
            assert observation.shape == (env.observation_size,)
            next_observation, reward, done, info = env.step(0)
            assert next_observation.shape == (env.observation_size,)
            assert isinstance(info, dict)

    def test_scenarios_cover_all_env_families(self):
        ids = list_scenarios()
        assert any(i.startswith("guessing/") for i in ids)
        assert any(i.startswith("covert/") for i in ids)
        assert any(i.startswith("blackbox/") for i in ids)
        assert sum(1 for i in ids if i.startswith("table4/")) == 17
        assert sum(1 for i in ids if i.startswith("known/")) == 4

    def test_make_env_types(self):
        assert isinstance(make("guessing/lru-4way"), CacheGuessingGameEnv)
        assert isinstance(make("covert/prime-probe"), MultiGuessCovertEnv)
        assert isinstance(make("covert/prime-probe-cchunter"),
                          AutocorrelationPenaltyWrapper)
        assert isinstance(make(machine_scenario_id("Core i7-6700:L2")),
                          BlackboxHardwareEnv)

    def test_make_seeds_the_env(self):
        env_a = make("guessing/lru-4way", seed=3)
        env_b = make("guessing/lru-4way", seed=3)
        assert env_a.config.seed == 3
        secrets_a = [env_a.reset() is not None and env_a.secret for _ in range(8)]
        secrets_b = [env_b.reset() is not None and env_b.secret for _ in range(8)]
        assert secrets_a == secrets_b

    def test_make_accepts_spec_instances(self):
        spec = get_spec("guessing/lru-4way")
        env = make(spec, seed=1)
        assert isinstance(env, CacheGuessingGameEnv)

    def test_unknown_scenario_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            make("guessing/does-not-exist")

    def test_pl_cache_scenario_installs_locks(self):
        env = make("guessing/plcache-plru-4way")
        env.reset()
        assert env.backend.pl_locked_addresses == [0]
        assert env.backend.cache.contains(0)

    def test_table4_hierarchy_scenario(self):
        env = make("table4/cfg16")
        assert env.config.hierarchy
        env.reset()
        _observation, _reward, _done, info = env.step(0)
        assert "hit" in info


class TestOverrides:
    def test_flat_field_routing(self):
        spec = get_spec("guessing/lru-4way").with_overrides(
            window_size=20, step_reward=-0.05, rep_policy="plru")
        assert spec.env_kwargs["window_size"] == 20
        assert spec.rewards["step_reward"] == -0.05
        assert spec.cache["rep_policy"] == "plru"

    def test_dotted_path_overrides(self):
        spec = get_spec("guessing/lru-4way").with_overrides(**{"cache.num_ways": 8})
        assert spec.cache["num_ways"] == 8
        # The original registered spec is untouched (specs are frozen values).
        assert get_spec("guessing/lru-4way").cache["num_ways"] == 4

    def test_mapping_override_merges(self):
        spec = get_spec("guessing/lru-4way").with_overrides(cache={"num_ways": 8})
        assert spec.cache["num_ways"] == 8
        assert spec.cache["rep_policy"] == "lru"  # untouched keys survive

    def test_unknown_override_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario override"):
            get_spec("guessing/lru-4way").with_overrides(not_a_knob=1)

    def test_make_applies_overrides(self):
        env = make("guessing/lru-4way", **{"cache.num_ways": 8},
                   attacker_addr_e=8, window_size=24, max_steps=24)
        assert env.config.cache.num_ways == 8
        assert env.config.attacker_addresses == list(range(9))

    def test_wrapper_override_replaces_pipeline(self):
        env = make("covert/prime-probe-cchunter",
                   wrappers=({"type": "autocorrelation_penalty",
                              "penalty_scale": -7.0},))
        assert isinstance(env, AutocorrelationPenaltyWrapper)
        assert env.penalty_scale == -7.0


class TestInheritance:
    def test_register_with_base_derives_and_overrides(self):
        try:
            spec = register(base="guessing/lru-4way",
                            scenario_id="guessing/_test-derived",
                            **{"cache.rep_policy": "rrip", "window_size": 30})
            assert spec.scenario_id == "guessing/_test-derived"
            assert spec.cache["rep_policy"] == "rrip"
            assert spec.env_kwargs["window_size"] == 30
            # Untouched fields inherited from the base.
            assert spec.env_kwargs["attacker_addr_e"] == 4
            assert is_registered("guessing/_test-derived")
            env = make("guessing/_test-derived")
            assert env.config.cache.rep_policy == "rrip"
        finally:
            unregister("guessing/_test-derived")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register(base="guessing/lru-4way", scenario_id="guessing/lru-4way")

    def test_derive_does_not_mutate_base(self):
        base = get_spec("guessing/lru-4way")
        derived = base.derive("guessing/_tmp", **{"cache.num_ways": 16})
        assert derived.cache["num_ways"] == 16
        assert base.cache["num_ways"] == 4


class TestFactoriesAndVecEnv:
    def test_make_factory_passes_seed(self):
        factory = make_factory("guessing/lru-4way")
        assert factory(5).config.seed == 5
        assert factory.spec.scenario_id == "guessing/lru-4way"

    def test_as_env_factory_passthrough_and_resolution(self):
        def factory(seed):
            return make("guessing/lru-4way", seed=seed)

        assert as_env_factory(factory) is factory
        env = as_env_factory("guessing/lru-4way")(2)
        assert isinstance(env, CacheGuessingGameEnv)

    def test_vec_env_from_scenario_id(self):
        vec = VecEnv("guessing/lru-4way", num_envs=3)
        observations = vec.reset()
        assert observations.shape == (3, vec.observation_size)
        rng = np.random.default_rng(0)
        for _ in range(5):
            actions = rng.integers(vec.num_actions, size=3)
            observations, rewards, dones, infos = vec.step(actions)
            assert observations.shape == (3, vec.observation_size)
            assert len(infos) == 3

    def test_vec_env_reuses_preallocated_buffers(self):
        vec = VecEnv("guessing/lru-4way", num_envs=2)
        vec.reset()
        seen = set()
        for _ in range(4):
            observations, rewards, dones, _infos = vec.step(np.zeros(2, dtype=int))
            seen.add(id(observations))
            seen.add(id(rewards))
            seen.add(id(dones))
        # Double buffering: exactly two arrays of each kind, cycled forever.
        assert len(seen) == 6

    def test_vec_env_batches_match_single_env(self):
        # The allocation-free step_into path must produce exactly the
        # observations/rewards the classic step() path produces.
        vec = VecEnv("guessing/lru-4way", num_envs=2)
        reference = make("guessing/lru-4way", seed=0)
        batch = vec.reset()
        single = reference.reset()
        np.testing.assert_array_equal(batch[0], single)
        for action in (0, 1, 2, 0, 3):
            batch, rewards, dones, _ = vec.step(np.array([action, action]))
            result = reference.step(action)
            if result.done:
                single = reference.reset()
            else:
                single = result.observation
            np.testing.assert_array_equal(batch[0], single)
            assert rewards[0] == pytest.approx(result.reward)

    def test_vec_env_wrapped_envs_match_single_wrapped_envs(self):
        overrides = {"cache.num_sets": 2, "attacker_addr_s": 2,
                     "attacker_addr_e": 3, "victim_addr_e": 1,
                     "window_size": 8, "episode_length": 12}
        vec = VecEnv("covert/prime-probe-cchunter", num_envs=2, **overrides)
        assert all(isinstance(env, EnvWrapper) for env in vec.envs)
        singles = [make("covert/prime-probe-cchunter", seed=seed, **overrides)
                   for seed in range(2)]
        batch = vec.reset()
        for row, env in zip(batch, singles):
            np.testing.assert_array_equal(row, env.reset())
        rng = np.random.default_rng(3)
        penalties = 0
        for _ in range(30):
            actions = rng.integers(vec.num_actions, size=2)
            batch, rewards, dones, infos = vec.step(actions)
            for index, env in enumerate(singles):
                observation, reward, done, info = env.step(int(actions[index]))
                assert rewards[index] == reward
                assert dones[index] == float(done)
                if done:
                    # The wrapper's end-of-episode penalty ran on both paths.
                    assert (infos[index]["autocorrelation_penalty"]
                            == info["autocorrelation_penalty"])
                    penalties += 1
                    observation = env.reset()
                np.testing.assert_array_equal(batch[index], observation)
        assert penalties == 4

    def test_trainer_accepts_scenario_id(self):
        from repro.rl.ppo import PPOConfig
        from repro.rl.trainer import PPOTrainer

        trainer = PPOTrainer("guessing/quickstart",
                             PPOConfig(horizon=8, num_envs=2, minibatch_size=8,
                                       update_epochs=1),
                             hidden_sizes=(8,), seed=0)
        result = trainer.train(max_updates=1, eval_every=1, eval_episodes=2)
        assert result.env_steps == 16


class TestCompatibilityShims:
    def test_old_constructor_signatures_still_work(self, simple_env_config):
        env = CacheGuessingGameEnv(simple_env_config)
        assert env.reset().shape == (env.observation_size,)
        locked = CacheGuessingGameEnv(simple_env_config, pl_locked_addresses=None)
        assert locked.reset() is not None
        covert = MultiGuessCovertEnv(
            make("covert/prime-probe").config.__class__(
                cache=simple_env_config.cache), episode_length=12)
        assert covert.reset() is not None

    def test_experiment_factories_remain_importable(self):
        from repro.experiments.table3 import make_env_factory as t3
        from repro.experiments.table5 import make_env_factory as t5
        from repro.experiments.table6 import make_env_factory as t6
        from repro.experiments.table7 import make_env_factory as t7
        from repro.experiments.table8_fig3 import make_covert_env_factory as t8

        assert callable(t3) and callable(t5) and callable(t6) and callable(t7)
        env = t8(2, 12)(0)
        assert isinstance(env, MultiGuessCovertEnv)

    def test_baselines_accept_scenarios_and_configs(self):
        from repro.rl.baselines import RandomSearchBaseline

        by_id = RandomSearchBaseline("guessing/lru-4way", seed=0)
        result = by_id.search(max_sequences=3, trials_per_sequence=1)
        assert result.sequences_tried <= 3
        config = get_spec("guessing/lru-4way").build_config()
        assert isinstance(config, EnvConfig)
        by_config = RandomSearchBaseline(config, seed=0)
        assert by_config.search(max_sequences=1, trials_per_sequence=1) is not None

    def test_evaluate_action_sequence_accepts_scenario(self):
        from repro.attacks.evaluate import evaluate_action_sequence

        accuracy, steps = evaluate_action_sequence("known/prime-probe",
                                                   [0, 1, 2], trials=1)
        assert 0.0 <= accuracy <= 1.0
        assert steps > 0
