"""Tests for the guessing-game environment: actions, observations, rewards, wrappers."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.detection.autocorrelation import AutocorrelationDetector
from repro.env import (
    Action,
    ActionKind,
    ActionSpace,
    Box,
    CacheGuessingGameEnv,
    Discrete,
    EnvConfig,
    HierarchyBackend,
    LatencyObservation,
    MissCountDetectionWrapper,
    MultiGuessCovertEnv,
    ObservationEncoder,
    RewardConfig,
    SimulatedCacheBackend,
    AutocorrelationPenaltyWrapper,
    make_backend,
)


class TestSpaces:
    def test_discrete(self):
        space = Discrete(5)
        assert space.contains(0) and space.contains(4)
        assert not space.contains(5)
        assert 0 <= space.sample(np.random.default_rng(0)) < 5

    def test_discrete_requires_positive(self):
        with pytest.raises(ValueError):
            Discrete(0)

    def test_box(self):
        space = Box(0.0, 1.0, (3,))
        assert space.contains(np.array([0.0, 0.5, 1.0]))
        assert not space.contains(np.array([0.0, 0.5]))
        assert space.sample(np.random.default_rng(0)).shape == (3,)


class TestRewardConfig:
    def test_defaults_match_paper(self):
        rewards = RewardConfig()
        assert rewards.correct_guess_reward == 1.0
        assert rewards.wrong_guess_reward == -1.0
        assert rewards.step_reward == -0.01

    def test_invalid_rewards_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(correct_guess_reward=0.0)
        with pytest.raises(ValueError):
            RewardConfig(step_reward=0.5)


class TestEnvConfig:
    def test_address_ranges(self, simple_env_config):
        assert simple_env_config.attacker_addresses == [0, 1, 2, 3, 4]
        assert simple_env_config.victim_addresses == [0]
        assert simple_env_config.num_secrets == 2
        assert simple_env_config.shared_addresses == [0]

    def test_empty_ranges_rejected(self, fa4_lru_config):
        with pytest.raises(ValueError):
            EnvConfig(cache=fa4_lru_config, attacker_addr_s=3, attacker_addr_e=1)

    def test_hierarchy_requires_l2(self, fa4_lru_config):
        with pytest.raises(ValueError):
            EnvConfig(cache=fa4_lru_config, hierarchy=True)

    def test_window_defaults(self, fa4_lru_config):
        config = EnvConfig(cache=fa4_lru_config)
        assert config.effective_window_size() == 16
        assert config.effective_max_steps() == 16
        assert config.effective_warmup() == 4


class TestActionSpace:
    def test_enumeration_without_flush(self, simple_env_config):
        space = ActionSpace(simple_env_config)
        # 5 accesses + trigger + guess(0) + guess-empty
        assert len(space) == 8

    def test_enumeration_with_flush(self, simple_env_config):
        simple_env_config.flush_enable = True
        space = ActionSpace(simple_env_config)
        assert len(space) == 13

    def test_encode_decode_roundtrip(self, simple_env_config):
        space = ActionSpace(simple_env_config)
        for index, action in enumerate(space):
            assert space.encode(space.decode(index)) == index
            assert space.decode(index) == action

    def test_trigger_and_guess_indices(self, simple_env_config):
        space = ActionSpace(simple_env_config)
        assert space.decode(space.trigger_index).kind is ActionKind.TRIGGER
        assert all(space.decode(i).is_guess for i in space.guess_indices)
        assert space.decode(space.guess_index_for_secret(None)).kind is ActionKind.GUESS_EMPTY
        assert space.decode(space.guess_index_for_secret(0)).address == 0

    def test_str_rendering(self):
        assert str(Action(ActionKind.ACCESS, 3)) == "3"
        assert str(Action(ActionKind.FLUSH, 2)) == "f2"
        assert str(Action(ActionKind.TRIGGER)) == "v"
        assert str(Action(ActionKind.GUESS, 1)) == "g1"
        assert str(Action(ActionKind.GUESS_EMPTY)) == "gE"

    def test_out_of_range_decode(self, simple_env_config):
        space = ActionSpace(simple_env_config)
        with pytest.raises(IndexError):
            space.decode(len(space))

    def test_unknown_action_encode(self, simple_env_config):
        space = ActionSpace(simple_env_config)
        with pytest.raises(KeyError):
            space.encode(Action(ActionKind.ACCESS, 99))


class TestObservationEncoder:
    def test_flat_size(self):
        encoder = ObservationEncoder(window_size=4, num_actions=6, max_steps=8)
        assert encoder.flat_size == 4 * (3 + 7 + 1 + 1)
        assert encoder.encode_flat().shape == (encoder.flat_size,)

    def test_padding_marks_empty_slots(self):
        encoder = ObservationEncoder(window_size=3, num_actions=2, max_steps=4)
        matrix = encoder.encode_flat().reshape(3, encoder.step_features)
        assert matrix.shape == (3, encoder.step_features)
        assert np.all(matrix[:, LatencyObservation.NA.value] == 1.0)

    def test_window_slides(self):
        encoder = ObservationEncoder(window_size=2, num_actions=2, max_steps=10)
        for step in range(5):
            encoder.record(LatencyObservation.HIT, step % 2, step + 1, False)
        assert len(encoder.history) == 2
        assert encoder.history[-1].step == 5

    def test_values_bounded(self):
        encoder = ObservationEncoder(window_size=4, num_actions=3, max_steps=4)
        for step in range(8):
            encoder.record(LatencyObservation.MISS, step % 3, step + 1, True)
        flat = encoder.encode_flat()
        assert np.all(flat >= 0.0) and np.all(flat <= 1.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ObservationEncoder(window_size=0, num_actions=2, max_steps=4)


class TestGuessingGame:
    def test_reset_returns_observation(self, simple_env):
        observation = simple_env.reset()
        assert observation.shape == (simple_env.observation_size,)
        assert simple_env.observation_space.contains(observation)

    def test_secret_pinning(self, simple_env):
        simple_env.reset(secret=0)
        assert simple_env.secret == 0
        simple_env.reset(secret=None)
        assert simple_env.secret is None

    def test_access_reports_hit_after_install(self, simple_env):
        simple_env.reset(secret=None)
        access_index = simple_env.actions.encode(Action(ActionKind.ACCESS, 2))
        first = simple_env.step(access_index)
        second = simple_env.step(access_index)
        assert first.info["hit"] is False
        assert second.info["hit"] is True
        assert first.reward == simple_env.config.rewards.step_reward

    def test_correct_guess_ends_episode_with_positive_reward(self, simple_env):
        simple_env.reset(secret=0)
        simple_env.step(simple_env.actions.trigger_index)
        result = simple_env.step(simple_env.actions.guess_index_for_secret(0))
        assert result.done
        assert result.reward == simple_env.config.rewards.correct_guess_reward
        assert result.info["correct"] is True

    def test_wrong_guess_gives_negative_reward(self, simple_env):
        simple_env.reset(secret=0)
        simple_env.step(simple_env.actions.trigger_index)
        result = simple_env.step(simple_env.actions.guess_index_for_secret(None))
        assert result.done
        assert result.reward == simple_env.config.rewards.wrong_guess_reward

    def test_guess_before_trigger_is_wrong_when_forced(self, simple_env):
        simple_env.reset(secret=0)
        result = simple_env.step(simple_env.actions.guess_index_for_secret(0))
        assert result.done
        assert result.info["correct"] is False

    def test_guess_before_trigger_allowed_when_disabled(self, simple_env_config):
        simple_env_config.force_trigger_before_guess = False
        env = CacheGuessingGameEnv(simple_env_config)
        env.reset(secret=0)
        result = env.step(env.actions.guess_index_for_secret(0))
        assert result.info["correct"] is True

    def test_length_violation_terminates(self, simple_env):
        simple_env.reset(secret=0)
        access_index = simple_env.actions.encode(Action(ActionKind.ACCESS, 1))
        result = None
        for _ in range(simple_env.max_steps):
            result = simple_env.step(access_index)
        assert result.done
        assert result.info.get("length_violation")
        assert result.reward < simple_env.config.rewards.length_violation_reward / 2

    def test_trigger_updates_state(self, simple_env):
        simple_env.reset(secret=0)
        result = simple_env.step(simple_env.actions.trigger_index)
        assert simple_env.victim_triggered
        assert "victim_hit" in result.info

    def test_trigger_with_no_access_secret(self, simple_env):
        simple_env.reset(secret=None)
        result = simple_env.step(simple_env.actions.trigger_index)
        assert result.info["victim_hit"] is None

    def test_flush_reload_attack_works_end_to_end(self):
        config = EnvConfig(cache=CacheConfig.fully_associative(4), attacker_addr_s=0,
                           attacker_addr_e=3, victim_addr_s=0, victim_addr_e=0,
                           victim_no_access_enable=True, flush_enable=True,
                           window_size=8, warmup_accesses=0, seed=0)
        env = CacheGuessingGameEnv(config)
        for secret, expected_hit in ((0, True), (None, False)):
            env.reset(secret=secret)
            env.step(env.actions.encode(Action(ActionKind.FLUSH, 0)))
            env.step(env.actions.trigger_index)
            reload = env.step(env.actions.encode(Action(ActionKind.ACCESS, 0)))
            assert reload.info["hit"] is expected_hit

    def test_trace_rendering(self, simple_env):
        simple_env.reset(secret=0)
        simple_env.step(simple_env.actions.encode(Action(ActionKind.ACCESS, 1)))
        simple_env.step(simple_env.actions.trigger_index)
        simple_env.step(simple_env.actions.guess_index_for_secret(0))
        rendered = simple_env.render_trace()
        assert rendered.startswith("1 -> v -> g")

    def test_action_labels(self, simple_env):
        labels = simple_env.action_labels()
        assert len(labels) == len(simple_env.actions)
        assert "v" in labels and "gE" in labels

    def test_step_result_unpacks_like_gym(self, simple_env):
        simple_env.reset()
        observation, reward, done, info = simple_env.step(0)
        assert observation.shape == (simple_env.observation_size,)
        assert isinstance(reward, float)
        assert isinstance(done, bool)
        assert isinstance(info, dict)


class TestBackends:
    def test_simulated_backend(self, fa4_lru_config):
        backend = SimulatedCacheBackend(fa4_lru_config)
        hit, latency = backend.access(0, "attacker")
        assert hit is False
        hit, _ = backend.access(0, "attacker")
        assert hit is True
        backend.flush(0, "attacker")
        hit, _ = backend.access(0, "attacker")
        assert hit is False

    def test_simulated_backend_with_locks(self):
        config = CacheConfig.fully_associative(4, lockable=True)
        backend = SimulatedCacheBackend(config, pl_locked_addresses=[0])
        for address in range(1, 10):
            backend.access(address, "attacker")
        hit, _ = backend.access(0, "victim")
        assert hit is True
        backend.reset()
        hit, _ = backend.access(0, "victim")
        assert hit is True

    def test_hierarchy_backend(self):
        backend = HierarchyBackend(CacheConfig.direct_mapped(4), CacheConfig.set_associative(4, 2))
        hit, _ = backend.access(0, "victim")
        assert hit is False
        hit, _ = backend.access(0, "attacker")
        assert hit is False  # attacker's private L1 does not have it

    def test_make_backend_dispatch(self, simple_env_config):
        assert isinstance(make_backend(simple_env_config), SimulatedCacheBackend)
        hierarchy_config = EnvConfig(cache=CacheConfig.direct_mapped(4),
                                     l2_cache=CacheConfig.set_associative(4, 2),
                                     hierarchy=True, attacker_addr_s=4, attacker_addr_e=11,
                                     victim_addr_s=0, victim_addr_e=3,
                                     victim_no_access_enable=False)
        assert isinstance(make_backend(hierarchy_config), HierarchyBackend)


class TestCovertEnv:
    def _env(self, episode_length=24):
        config = EnvConfig(cache=CacheConfig.direct_mapped(2), attacker_addr_s=2,
                           attacker_addr_e=3, victim_addr_s=0, victim_addr_e=1,
                           victim_no_access_enable=False, window_size=8,
                           warmup_accesses=0, seed=0)
        return MultiGuessCovertEnv(config, episode_length=episode_length)

    def test_guess_does_not_end_episode(self):
        env = self._env()
        env.reset(secret=0)
        env.step(env.actions.trigger_index)
        result = env.step(env.actions.guess_index_for_secret(0))
        assert not result.done
        assert env.guesses_made == 1
        assert env.correct_guesses == 1

    def test_new_secret_drawn_after_guess(self):
        env = self._env()
        env.reset(secret=0)
        env.step(env.actions.trigger_index)
        env.step(env.actions.guess_index_for_secret(0))
        assert env.victim_triggered is False

    def test_episode_ends_at_length_with_statistics(self):
        env = self._env(episode_length=6)
        env.reset(secret=0)
        result = None
        for _ in range(6):
            result = env.step(env.actions.trigger_index)
        assert result.done
        assert "bit_rate" in result.info
        stats = env.episode_statistics()
        assert stats["guesses_made"] == 0
        assert stats["guess_accuracy"] == 0.0

    def test_no_guess_penalty_applied(self):
        env = self._env(episode_length=4)
        env.reset(secret=0)
        rewards = []
        for _ in range(4):
            rewards.append(env.step(env.actions.trigger_index).reward)
        assert rewards[-1] <= env.config.rewards.no_guess_reward

    def test_caller_config_is_not_mutated(self):
        config = EnvConfig(cache=CacheConfig.direct_mapped(2), attacker_addr_s=2,
                           attacker_addr_e=3, victim_addr_s=0, victim_addr_e=1,
                           window_size=8, seed=0)
        default_max_steps = CacheGuessingGameEnv(config).max_steps
        covert = MultiGuessCovertEnv(config, episode_length=40)
        assert covert.max_steps == 40
        assert config.max_steps is None
        assert CacheGuessingGameEnv(config).max_steps == default_max_steps != 40


class TestWrappers:
    def _miss_env(self):
        # Attacker can evict the victim's line, so triggering after eviction
        # causes a victim miss.
        config = EnvConfig(cache=CacheConfig.direct_mapped(2), attacker_addr_s=0,
                           attacker_addr_e=3, victim_addr_s=0, victim_addr_e=0,
                           victim_no_access_enable=False, window_size=8,
                           warmup_accesses=0, seed=0)
        return CacheGuessingGameEnv(config)

    def test_miss_detection_terminates_episode(self):
        env = MissCountDetectionWrapper(self._miss_env())
        env.reset(secret=0)
        env.step(env.actions.encode(Action(ActionKind.ACCESS, 2)))  # evict line 0
        result = env.step(env.actions.trigger_index)  # victim misses -> detected
        assert result.done
        assert result.info.get("detected") is True
        assert result.reward < 0

    def test_miss_detection_ignores_victim_hits(self):
        env = MissCountDetectionWrapper(self._miss_env())
        env.reset(secret=0)
        env.step(env.actions.encode(Action(ActionKind.ACCESS, 0)))  # victim line present
        result = env.step(env.actions.trigger_index)
        assert not result.done

    def test_autocorrelation_wrapper_adds_info_at_end(self):
        base = self._miss_env()
        env = AutocorrelationPenaltyWrapper(base, AutocorrelationDetector(), penalty_scale=-1.0)
        env.reset(secret=0)
        env.step(env.actions.trigger_index)
        result = env.step(env.actions.guess_index_for_secret(0))
        assert result.done
        assert "max_autocorrelation" in result.info
        assert "conflict_train" in result.info

    def test_wrapper_delegates_attributes(self):
        env = MissCountDetectionWrapper(self._miss_env())
        assert env.action_space.n == len(env.actions)
        assert env.observation_size > 0
