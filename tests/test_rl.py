"""Tests for the RL engine: GAE, buffer, policy, PPO updates, vec env, replay."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from repro.env.config import EnvConfig
from repro.env.guessing_game import CacheGuessingGameEnv
from repro.rl import (
    ActorCriticPolicy,
    GreedyOneStepBaseline,
    PPOConfig,
    PPOTrainer,
    PPOUpdater,
    RandomSearchBaseline,
    RolloutBuffer,
    RunningStats,
    VecEnv,
    compute_gae,
    evaluate_policy,
    extract_attack_sequence,
)
from repro.rl.stats import TrainingHistory
from repro.rl.trainer import STEPS_PER_EPOCH


def tiny_env_factory(seed: int) -> CacheGuessingGameEnv:
    config = EnvConfig(cache=CacheConfig.direct_mapped(2), attacker_addr_s=2, attacker_addr_e=3,
                       victim_addr_s=0, victim_addr_e=1, victim_no_access_enable=False,
                       window_size=8, max_steps=8, warmup_accesses=0, seed=seed)
    return CacheGuessingGameEnv(config)


class TestGAE:
    def test_single_step_terminal(self):
        advantages, returns = compute_gae(
            rewards=np.array([[1.0]]), values=np.array([[0.5]]),
            dones=np.array([[1.0]]), last_values=np.array([9.0]),
            gamma=0.9, lam=0.95)
        # Terminal step: no bootstrapping from last_values.
        assert np.isclose(advantages[0, 0], 0.5)
        assert np.isclose(returns[0, 0], 1.0)

    def test_bootstraps_when_not_done(self):
        advantages, _ = compute_gae(
            rewards=np.array([[0.0]]), values=np.array([[0.0]]),
            dones=np.array([[0.0]]), last_values=np.array([1.0]),
            gamma=0.5, lam=1.0)
        assert np.isclose(advantages[0, 0], 0.5)

    def test_matches_manual_two_step_computation(self):
        gamma, lam = 0.9, 0.8
        rewards = np.array([[1.0], [2.0]])
        values = np.array([[0.3], [0.6]])
        dones = np.array([[0.0], [0.0]])
        last_values = np.array([0.9])
        delta1 = 2.0 + gamma * 0.9 - 0.6
        delta0 = 1.0 + gamma * 0.6 - 0.3
        expected_adv1 = delta1
        expected_adv0 = delta0 + gamma * lam * delta1
        advantages, returns = compute_gae(rewards, values, dones, last_values, gamma, lam)
        assert np.isclose(advantages[1, 0], expected_adv1)
        assert np.isclose(advantages[0, 0], expected_adv0)
        assert np.allclose(returns, advantages + values)

    def test_done_blocks_credit_flow(self):
        rewards = np.array([[0.0], [10.0]])
        values = np.zeros((2, 1))
        dones = np.array([[1.0], [0.0]])
        advantages, _ = compute_gae(rewards, values, dones, np.array([0.0]), 0.99, 0.95)
        assert np.isclose(advantages[0, 0], 0.0)

    def test_multi_env_shapes(self):
        advantages, returns = compute_gae(
            rewards=np.zeros((5, 3)), values=np.zeros((5, 3)),
            dones=np.zeros((5, 3)), last_values=np.zeros(3))
        assert advantages.shape == (5, 3)
        assert returns.shape == (5, 3)


class TestRolloutBuffer:
    def _filled_buffer(self, horizon=4, num_envs=2, obs=3):
        buffer = RolloutBuffer(horizon, num_envs, obs)
        rng = np.random.default_rng(0)
        for _ in range(horizon):
            buffer.add(rng.standard_normal((num_envs, obs)),
                       rng.integers(0, 2, num_envs), rng.standard_normal(num_envs),
                       np.zeros(num_envs), rng.standard_normal(num_envs),
                       rng.standard_normal(num_envs))
        return buffer

    def test_fills_and_finalizes(self):
        buffer = self._filled_buffer()
        assert buffer.full
        buffer.finalize(np.zeros(2), gamma=0.99, lam=0.95)
        assert buffer.advantages.shape == (4, 2)

    def test_overfill_rejected(self):
        buffer = self._filled_buffer()
        with pytest.raises(RuntimeError):
            buffer.add(np.zeros((2, 3)), np.zeros(2), np.zeros(2), np.zeros(2),
                       np.zeros(2), np.zeros(2))

    def test_finalize_requires_full(self):
        buffer = RolloutBuffer(4, 2, 3)
        with pytest.raises(RuntimeError):
            buffer.finalize(np.zeros(2), 0.99, 0.95)

    def test_minibatches_cover_all_transitions(self):
        buffer = self._filled_buffer(horizon=6, num_envs=2)
        buffer.finalize(np.zeros(2), 0.99, 0.95)
        batches = list(buffer.iter_minibatches(batch_size=4, rng=np.random.default_rng(0)))
        assert sum(len(batch.actions) for batch in batches) == 12

    def test_minibatches_require_finalize(self):
        buffer = self._filled_buffer()
        with pytest.raises(RuntimeError):
            next(buffer.iter_minibatches(4))

    def test_advantage_normalization(self):
        buffer = self._filled_buffer(horizon=8, num_envs=2)
        buffer.finalize(np.zeros(2), 0.99, 0.95)
        batch = next(buffer.iter_minibatches(batch_size=16, rng=np.random.default_rng(0)))
        assert abs(batch.advantages.mean()) < 0.2


class TestPolicy:
    def test_act_shapes(self, rng):
        policy = ActorCriticPolicy(10, 5, hidden_sizes=(16, 16), rng=rng)
        output = policy.act(rng.standard_normal((4, 10)), rng=rng)
        assert output.actions.shape == (4,)
        assert output.log_probs.shape == (4,)
        assert output.values.shape == (4,)
        assert np.all(output.actions >= 0) and np.all(output.actions < 5)

    def test_deterministic_act_is_repeatable(self, rng):
        policy = ActorCriticPolicy(6, 3, hidden_sizes=(8,), rng=rng)
        observation = rng.standard_normal((1, 6))
        a = policy.act(observation, deterministic=True).actions
        b = policy.act(observation, deterministic=True).actions
        assert np.array_equal(a, b)

    def test_action_probabilities_sum_to_one(self, rng):
        policy = ActorCriticPolicy(6, 4, hidden_sizes=(8,), rng=rng)
        probabilities = policy.action_probabilities(rng.standard_normal(6))
        assert np.isclose(probabilities.sum(), 1.0)

    def test_value_output(self, rng):
        policy = ActorCriticPolicy(5, 2, hidden_sizes=(8,), rng=rng)
        values = policy.value(rng.standard_normal((3, 5)))
        assert values.shape == (3,)


class TestPPOUpdater:
    def test_update_runs_and_reports_metrics(self, rng):
        policy = ActorCriticPolicy(6, 3, hidden_sizes=(16,), rng=rng)
        config = PPOConfig(horizon=8, num_envs=2, minibatch_size=8, update_epochs=2)
        updater = PPOUpdater(policy, config, rng=rng)
        buffer = RolloutBuffer(8, 2, 6)
        for _ in range(8):
            observations = rng.standard_normal((2, 6))
            output = policy.act(observations, rng=rng)
            buffer.add(observations, output.actions, rng.standard_normal(2),
                       np.zeros(2), output.values, output.log_probs)
        buffer.finalize(np.zeros(2), 0.99, 0.95)
        metrics = updater.update(buffer)
        for key in ("policy_loss", "value_loss", "entropy", "clip_fraction", "approx_kl"):
            assert key in metrics

    def test_update_changes_parameters(self, rng):
        policy = ActorCriticPolicy(6, 3, hidden_sizes=(16,), rng=rng)
        before = {name: array.copy() for name, array in policy.state_dict().items()}
        config = PPOConfig(horizon=8, num_envs=2, minibatch_size=16, update_epochs=2,
                           learning_rate=1e-2)
        updater = PPOUpdater(policy, config, rng=rng)
        buffer = RolloutBuffer(8, 2, 6)
        for _ in range(8):
            observations = rng.standard_normal((2, 6))
            output = policy.act(observations, rng=rng)
            buffer.add(observations, output.actions, np.ones(2), np.zeros(2),
                       output.values, output.log_probs)
        buffer.finalize(np.zeros(2), 0.99, 0.95)
        updater.update(buffer)
        after = policy.state_dict()
        assert any(not np.allclose(before[name], after[name]) for name in before)

    def test_entropy_annealing(self, rng):
        policy = ActorCriticPolicy(4, 2, hidden_sizes=(8,), rng=rng)
        config = PPOConfig(entropy_coefficient=0.1, entropy_coefficient_final=0.0)
        updater = PPOUpdater(policy, config, rng=rng)
        updater.set_progress(0.5)
        assert np.isclose(updater.entropy_coefficient, 0.05)
        updater.set_progress(2.0)
        assert np.isclose(updater.entropy_coefficient, 0.0)

    def test_no_annealing_without_final_value(self, rng):
        policy = ActorCriticPolicy(4, 2, hidden_sizes=(8,), rng=rng)
        updater = PPOUpdater(policy, PPOConfig(entropy_coefficient=0.07), rng=rng)
        updater.set_progress(0.9)
        assert updater.entropy_coefficient == 0.07


class TestVecEnv:
    def test_reset_and_step_shapes(self):
        vec = VecEnv(tiny_env_factory, num_envs=3)
        observations = vec.reset()
        assert observations.shape == (3, vec.observation_size)
        next_observations, rewards, dones, infos = vec.step(np.zeros(3, dtype=int))
        assert next_observations.shape == (3, vec.observation_size)
        assert rewards.shape == (3,)
        assert dones.shape == (3,)
        assert len(infos) == 3

    def test_auto_reset_reports_episode(self):
        vec = VecEnv(tiny_env_factory, num_envs=1)
        vec.reset()
        guess_index = vec.single_env.actions.guess_index_for_secret(0)
        _, _, dones, infos = vec.step(np.array([guess_index]))
        assert dones[0] == 1.0
        assert "episode" in infos[0]
        assert infos[0]["episode"]["length"] == 1

    def test_requires_positive_env_count(self):
        with pytest.raises(ValueError):
            VecEnv(tiny_env_factory, num_envs=0)


class TestStats:
    def test_running_stats(self):
        stats = RunningStats(window=3)
        stats.extend([1.0, 2.0, 3.0, 4.0])
        assert stats.count == 3
        assert np.isclose(stats.mean, 3.0)
        assert stats.last == 4.0

    def test_empty_stats(self):
        stats = RunningStats()
        assert stats.mean == 0.0 and stats.std == 0.0 and stats.last is None

    def test_training_history(self):
        history = TrainingHistory()
        history.record({"update": 1, "loss": 0.5})
        history.record({"update": 2, "loss": 0.25})
        assert history.series("loss") == [0.5, 0.25]
        assert history.last("loss") == 0.25
        assert history.last("missing", default=-1.0) == -1.0


class TestReplayAndEvaluation:
    def test_evaluate_policy_returns_metrics(self, rng):
        env = tiny_env_factory(0)
        policy = ActorCriticPolicy(env.observation_size, env.action_space.n,
                                   hidden_sizes=(16,), rng=rng)
        metrics = evaluate_policy(env, policy, episodes=5, seed=0)
        assert set(metrics) == {"accuracy", "guess_rate", "mean_episode_length",
                                "mean_episode_reward"}
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_extract_attack_sequence_covers_all_secrets(self, rng):
        env = tiny_env_factory(0)
        policy = ActorCriticPolicy(env.observation_size, env.action_space.n,
                                   hidden_sizes=(16,), rng=rng)
        extraction = extract_attack_sequence(env, policy, seed=0)
        assert set(extraction.sequences) == {0, 1}
        assert extraction.render(0)

    def test_trainer_epoch_accounting(self):
        trainer = PPOTrainer(tiny_env_factory,
                             PPOConfig(horizon=16, num_envs=2, minibatch_size=16,
                                       update_epochs=1),
                             hidden_sizes=(16,), seed=0)
        result = trainer.train(max_updates=2, eval_every=2, eval_episodes=4)
        assert result.env_steps == 2 * 16 * 2
        assert np.isclose(result.epochs_trained, result.env_steps / STEPS_PER_EPOCH)
        assert result.updates == 2


class TestSearchBaselines:
    def _config(self):
        return EnvConfig(cache=CacheConfig.direct_mapped(2), attacker_addr_s=2,
                         attacker_addr_e=3, victim_addr_s=0, victim_addr_e=1,
                         victim_no_access_enable=False, window_size=8,
                         warmup_accesses=0, seed=0)

    def test_random_search_finds_attack_on_tiny_config(self):
        result = RandomSearchBaseline(self._config(), seed=0).search(max_sequences=300)
        assert result.found
        assert result.accuracy >= 0.95
        assert result.env_steps > 0

    def test_random_search_reports_failure(self):
        result = RandomSearchBaseline(self._config(), seed=0).search(max_sequences=1,
                                                                     max_length=2)
        assert result.sequences_tried == 1

    def test_greedy_baseline_reports_its_limits(self):
        # Greedy one-step search has no learning: a single added action never
        # improves the distinguishing accuracy until the whole prime/trigger/
        # probe pattern is in place, so it typically plateaus at chance level.
        # This is exactly the paper's argument for RL over fixed heuristics.
        result = GreedyOneStepBaseline(self._config(), seed=0).search(max_length=6)
        assert result.sequence is not None
        assert 0.5 <= result.accuracy <= 1.0
        assert result.env_steps > 0
