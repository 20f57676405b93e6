"""Bit-parity suite for the compiled inference plan and fused PPO kernels.

Everything in the fast path claims *bit-identical* behavior to the reference
graph path:

* compiled ``act``/``value``/``action_probabilities`` vs graph inference,
  across backbones, dtypes, seeds, and deterministic/sampled modes;
* fused functional kernels (linear, softmax, log-softmax, entropy) vs the
  composed primitive chains, forward and backward;
* the fused graph-free PPO minibatch kernel vs graph-based updates — up to
  whole-training-history equality;
* the in-place Adam/clip rewrite vs the textbook out-of-place formulas.

A guard test asserts the fast paths are actually taken during a default
``PPOTrainer`` run, so a silent fallback cannot rot the speedup.
"""

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor, check_gradients
from repro.autodiff import functional as F
from repro.nn import Categorical
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.trainer import PPOTrainer


WINDOW_SHAPE = (8, 21)
OBS_SIZE = WINDOW_SHAPE[0] * WINDOW_SHAPE[1]
NUM_ACTIONS = 6


def make_policy(backbone="mlp", dtype="float64", seed=0):
    return ActorCriticPolicy(OBS_SIZE, NUM_ACTIONS, hidden_sizes=(32, 24),
                             backbone=backbone, window_shape=WINDOW_SHAPE,
                             rng=np.random.default_rng(seed), dtype=dtype)


class TestCompiledActParity:
    @pytest.mark.parametrize("backbone", ["mlp", "attention"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_act_bit_identical(self, backbone, dtype, deterministic):
        for seed in (0, 3):
            policy = make_policy(backbone, dtype, seed)
            assert policy.compiled is not None
            observations = np.random.default_rng(seed + 50).standard_normal(
                (5, OBS_SIZE))
            fast = policy.act(observations, rng=np.random.default_rng(9),
                              deterministic=deterministic)
            reference = policy._act_graph(observations,
                                          rng=np.random.default_rng(9),
                                          deterministic=deterministic)
            assert np.array_equal(fast.actions, reference.actions)
            assert np.array_equal(fast.log_probs, reference.log_probs)
            assert np.array_equal(fast.values, reference.values)

    def test_single_observation_row(self):
        policy = make_policy()
        observation = np.random.default_rng(1).standard_normal(OBS_SIZE)
        fast = policy.act(observation, deterministic=True)
        reference = policy._act_graph(observation, deterministic=True)
        assert np.array_equal(fast.actions, reference.actions)
        assert np.array_equal(fast.values, reference.values)

    @pytest.mark.parametrize("backbone", ["mlp", "attention"])
    def test_value_and_probabilities(self, backbone):
        from repro.autodiff import no_grad

        policy = make_policy(backbone)
        observations = np.random.default_rng(2).standard_normal((4, OBS_SIZE))
        values_fast = policy.value(observations)
        with no_grad():
            _, values_graph = policy.forward(Tensor(policy._prepare(observations)))
        assert np.array_equal(values_fast, values_graph.numpy())
        probabilities = policy.action_probabilities(observations[0])
        with no_grad():
            distribution, _ = policy.distribution(
                Tensor(policy._prepare(observations[0])))
        assert np.array_equal(probabilities, distribution.probs[0])

    def test_rng_stream_consumption_matches(self):
        # Sampling consumes the shared generator identically on both paths,
        # so downstream draws stay aligned.
        policy = make_policy()
        observations = np.random.default_rng(0).standard_normal((3, OBS_SIZE))
        rng_fast, rng_graph = np.random.default_rng(7), np.random.default_rng(7)
        policy.act(observations, rng=rng_fast)
        policy._act_graph(observations, rng=rng_graph)
        assert rng_fast.bit_generator.state == rng_graph.bit_generator.state

    def test_workspace_reuse_does_not_leak_between_calls(self):
        policy = make_policy()
        rng = np.random.default_rng(0)
        first = rng.standard_normal((2, OBS_SIZE))
        second = rng.standard_normal((2, OBS_SIZE))
        out_first = policy.act(first, deterministic=True)
        out_second = policy.act(second, deterministic=True)
        again = policy.act(first, deterministic=True)
        assert np.array_equal(out_first.values, again.values)
        assert not np.array_equal(out_first.values, out_second.values)

    def test_composed_ops_disables_plan(self):
        policy = make_policy()
        assert policy.compiled is not None
        with F.composed_ops():
            assert policy.compiled is None
            before = policy.compiled_call_count
            policy.act(np.zeros(OBS_SIZE))
            assert policy.compiled_call_count == before
        assert policy.compiled is not None


class TestFusedFunctionalParity:
    def _grad_pair(self, build):
        results = []
        for fused in (True, False):
            context = F.composed_ops() if not fused else None
            if context:
                context.__enter__()
            try:
                tensor, loss = build()
                loss.backward()
                results.append((loss.data.copy(), tensor.grad.copy()))
            finally:
                if context:
                    context.__exit__(None, None, None)
        return results

    @pytest.mark.parametrize("shape", [(7, 5), (2, 6, 6)])
    def test_softmax_gradients_bitwise(self, shape):
        data = np.random.default_rng(0).standard_normal(shape) * 3
        weights = np.random.default_rng(1).standard_normal(shape)

        def build():
            tensor = Tensor(data.copy(), requires_grad=True)
            return tensor, (F.softmax(tensor, axis=-1) * Tensor(weights)).sum()

        (loss_fused, grad_fused), (loss_ref, grad_ref) = self._grad_pair(build)
        assert np.array_equal(loss_fused, loss_ref)
        assert np.array_equal(grad_fused, grad_ref)

    def test_log_softmax_and_entropy_gradients_bitwise(self):
        data = np.random.default_rng(2).standard_normal((9, 4)) * 2
        actions = np.random.default_rng(3).integers(0, 4, size=9)
        advantages = np.random.default_rng(4).standard_normal(9)

        def build():
            tensor = Tensor(data.copy(), requires_grad=True)
            distribution = Categorical(tensor)
            log_probs = distribution.log_prob(actions)
            entropy = distribution.entropy().mean()
            loss = -(log_probs * Tensor(advantages)).mean() - 0.01 * entropy
            return tensor, loss

        (loss_fused, grad_fused), (loss_ref, grad_ref) = self._grad_pair(build)
        assert np.array_equal(loss_fused, loss_ref)
        assert np.array_equal(grad_fused, grad_ref)

    def test_fused_linear_gradients_bitwise(self):
        from repro.nn import Linear

        data = np.random.default_rng(5).standard_normal((6, 4))

        def build_with(fused):
            context = F.composed_ops() if not fused else None
            if context:
                context.__enter__()
            try:
                layer = Linear(4, 3, rng=np.random.default_rng(0))
                tensor = Tensor(data.copy(), requires_grad=True)
                loss = (layer(tensor) * layer(tensor)).sum()
                loss.backward()
                return (loss.data.copy(), tensor.grad.copy(),
                        layer.weight.grad.copy(), layer.bias.grad.copy())
            finally:
                if context:
                    context.__exit__(None, None, None)

        for fast, reference in zip(build_with(True), build_with(False)):
            assert np.array_equal(fast, reference)

    def test_gradcheck_fused_log_softmax(self):
        logits = Tensor(np.random.default_rng(6).standard_normal((4, 5)),
                        requires_grad=True)
        targets = np.array([0, 2, 4, 1])
        assert check_gradients(lambda: F.cross_entropy(logits, targets), [logits])

    def test_gradcheck_fused_entropy(self):
        logits = Tensor(np.random.default_rng(7).standard_normal((3, 6)),
                        requires_grad=True)
        assert check_gradients(
            lambda: F.categorical_entropy(logits).mean(), [logits])

    def test_gradcheck_fused_softmax(self):
        logits = Tensor(np.random.default_rng(8).standard_normal((3, 4)),
                        requires_grad=True)
        weights = np.random.default_rng(9).standard_normal((3, 4))
        assert check_gradients(
            lambda: (F.softmax(logits) * Tensor(weights)).sum(), [logits])


class TestFusedUpdateParity:
    def _filled_buffer(self, policy, seed=0):
        rng = np.random.default_rng(seed)
        buffer = RolloutBuffer(horizon=12, num_envs=4, observation_size=OBS_SIZE)
        for _ in range(buffer.horizon):
            buffer.add(rng.standard_normal((4, OBS_SIZE)),
                       rng.integers(0, NUM_ACTIONS, size=4),
                       rng.standard_normal(4),
                       (rng.random(4) < 0.2).astype(float),
                       rng.standard_normal(4),
                       -np.abs(rng.standard_normal(4)))
        buffer.finalize(rng.standard_normal(4), gamma=0.99, lam=0.95)
        return buffer

    @pytest.mark.parametrize("value_clip", [0.2, None])
    def test_update_bit_identical_to_graph(self, value_clip):
        def run(use_fast):
            config = PPOConfig(minibatch_size=16, update_epochs=2,
                               value_clip=value_clip)
            policy = make_policy()
            updater = PPOUpdater(policy, config, rng=np.random.default_rng(1))
            buffer = self._filled_buffer(policy)
            context = None if use_fast else F.composed_ops()
            if context:
                context.__enter__()
            try:
                metrics = updater.update(buffer)
            finally:
                if context:
                    context.__exit__(None, None, None)
            return metrics, policy.state_dict(), updater.fused_minibatches

        fast_metrics, fast_state, fused_count = run(True)
        ref_metrics, ref_state, ref_count = run(False)
        assert fused_count > 0 and ref_count == 0
        assert fast_metrics == ref_metrics
        for name in fast_state:
            assert np.array_equal(fast_state[name], ref_state[name]), name

    def test_attention_backbone_falls_back_to_graph(self):
        config = PPOConfig(minibatch_size=16, update_epochs=1)
        policy = make_policy("attention")
        updater = PPOUpdater(policy, config, rng=np.random.default_rng(1))
        buffer = self._filled_buffer(policy)
        updater.update(buffer)
        assert updater.fused_minibatches == 0  # graph path, still correct

    def test_training_history_matches_graph_reference(self):
        """Compiled+fused training reproduces the seed-state history exactly."""
        def train(reference):
            context = F.composed_ops() if reference else None
            if context:
                context.__enter__()
            try:
                trainer = PPOTrainer("guessing/lru-4way", seed=1,
                                     ppo_config=PPOConfig(horizon=32, num_envs=4,
                                                          minibatch_size=32,
                                                          update_epochs=2))
                result = trainer.train(max_updates=3, eval_every=2,
                                       eval_episodes=4)
                return result.history.to_dict(), trainer.policy.state_dict()
            finally:
                if context:
                    context.__exit__(None, None, None)

        fast_history, fast_state = train(False)
        ref_history, ref_state = train(True)
        assert fast_history == ref_history
        for name in fast_state:
            assert np.array_equal(fast_state[name], ref_state[name]), name


class TestGuardFastPathTaken:
    def test_default_trainer_uses_compiled_and_fused_paths(self):
        trainer = PPOTrainer("guessing/lru-4way", seed=0,
                             ppo_config=PPOConfig(horizon=16, num_envs=4,
                                                  minibatch_size=32,
                                                  update_epochs=1))
        trainer.train(max_updates=1, eval_every=5)
        assert trainer.policy.compiled is not None
        assert trainer.policy.compiled_call_count > 0, \
            "compiled inference plan was silently bypassed"
        assert trainer.updater.fused_minibatches > 0, \
            "fused PPO update kernel was silently bypassed"


class TestInPlaceOptimizerParity:
    def _reference_adam_step(self, params, grads, state, lr=1e-3,
                             betas=(0.9, 0.999), eps=1e-8):
        """The pre-rewrite out-of-place Adam update."""
        beta1, beta2 = betas
        state["step"] += 1
        bias1 = 1.0 - beta1 ** state["step"]
        bias2 = 1.0 - beta2 ** state["step"]
        for index, (param, grad) in enumerate(zip(params, grads)):
            state["m"][index] = beta1 * state["m"][index] + (1.0 - beta1) * grad
            state["v"][index] = beta2 * state["v"][index] + (1.0 - beta2) * grad ** 2
            m_hat = state["m"][index] / bias1
            v_hat = state["v"][index] / bias2
            param -= lr * m_hat / (np.sqrt(v_hat) + eps)

    def test_adam_step_bitwise_matches_reference(self):
        rng = np.random.default_rng(0)
        shapes = [(7, 5), (5,), (5, 3), (3,)]
        tensors = [Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in shapes]
        reference = [tensor.data.copy() for tensor in tensors]
        optimizer = Adam(tensors, lr=3e-4)
        state = {"step": 0, "m": [np.zeros(s) for s in shapes],
                 "v": [np.zeros(s) for s in shapes]}
        for _ in range(5):
            grads = [rng.standard_normal(shape) for shape in shapes]
            optimizer.zero_grad()
            for tensor, grad in zip(tensors, grads):
                tensor._accumulate(grad)
            optimizer.step()
            self._reference_adam_step(reference, grads, state, lr=3e-4)
        for tensor, expected in zip(tensors, reference):
            assert np.array_equal(tensor.data, expected)

    def test_clip_grad_norm_bitwise_matches_reference(self):
        rng = np.random.default_rng(1)
        tensors = [Tensor(rng.standard_normal((4, 3)), requires_grad=True),
                   Tensor(rng.standard_normal(6), requires_grad=True)]
        grads = [rng.standard_normal((4, 3)) * 5, rng.standard_normal(6) * 5]
        optimizer = Adam(tensors)
        for tensor, grad in zip(tensors, grads):
            tensor._accumulate(grad)
        norm = optimizer.clip_grad_norm(0.5)
        expected_norm = float(np.sqrt(sum(np.sum(g ** 2) for g in grads)))
        assert norm == expected_norm
        scale = 0.5 / expected_norm
        for tensor, grad in zip(tensors, grads):
            assert np.array_equal(tensor.grad, grad * scale)

    def test_clip_norm_sums_per_parameter_in_order(self):
        # Policy-sized parameters: one reduction over the whole flat buffer
        # would round differently from these per-parameter partial sums.
        rng = np.random.default_rng(5)
        shapes = [(168, 128), (128,), (128, 128), (128,), (128, 8), (8,)]
        tensors = [Tensor(np.zeros(shape), requires_grad=True) for shape in shapes]
        optimizer = Adam(tensors)
        for _ in range(5):
            grads = [rng.standard_normal(shape) for shape in shapes]
            optimizer.zero_grad()
            for tensor, grad in zip(tensors, grads):
                tensor._accumulate(grad)
            total = 0.0
            for grad in grads:
                total += float(np.sum(grad * grad))
            assert optimizer.clip_grad_norm(0.5) == float(np.sqrt(total))

    def test_grads_are_views_into_one_flat_buffer(self):
        trainer = PPOTrainer("guessing/lru-4way", seed=0,
                             ppo_config=PPOConfig(horizon=16, num_envs=4,
                                                  minibatch_size=32,
                                                  update_epochs=2))
        trainer.train(max_updates=1, eval_every=5)
        optimizer = trainer.updater.optimizer
        (group,) = optimizer._groups
        grads = [parameter.grad for parameter in optimizer.parameters]
        for parameter, grad in zip(optimizer.parameters, grads):
            assert grad.base is group.grad
            assert parameter.data.base is group.data
        # Later minibatches write into the same arrays: none is allocated.
        trainer.train(max_updates=2, eval_every=5)
        assert trainer.updater.fused_minibatches == 8
        for parameter, grad in zip(optimizer.parameters, grads):
            assert parameter.grad is grad
        optimizer.zero_grad()
        assert all(parameter.grad is None for parameter in optimizer.parameters)

    def test_optimizer_step_allocates_nothing(self):
        import tracemalloc

        rng = np.random.default_rng(2)
        tensors = [Tensor(rng.standard_normal(shape), requires_grad=True)
                   for shape in [(64, 32), (32,), (32, 8), (8,)]]
        optimizer = Adam(tensors)
        grads = [rng.standard_normal(t.shape) for t in tensors]
        tracemalloc.start()
        try:
            for _ in range(3):
                optimizer.zero_grad()
                for tensor, grad in zip(tensors, grads):
                    tensor._accumulate(grad)
                optimizer.clip_grad_norm(0.5)
                optimizer.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 32 * 8  # smaller than the largest parameter

    def test_missing_gradient_skips_that_parameter(self):
        rng = np.random.default_rng(3)
        tensors = [Tensor(rng.standard_normal((3, 2)), requires_grad=True),
                   Tensor(rng.standard_normal(2), requires_grad=True)]
        optimizer = Adam(tensors, lr=0.1)
        for tensor in tensors:
            tensor._accumulate(rng.standard_normal(tensor.shape))
        optimizer.step()
        # From here on tensors[1] gets no gradient: its value and moments
        # must stay put (a zero gradient would still decay and apply them).
        untouched = [tensors[1].data.copy(), optimizer._m[1].copy(),
                     optimizer._v[1].copy()]
        before = tensors[0].data.copy()
        for _ in range(2):
            optimizer.zero_grad()
            tensors[0]._accumulate(rng.standard_normal((3, 2)))
            optimizer.clip_grad_norm(0.5)
            optimizer.step()
        assert tensors[1].grad is None
        for now, then in zip([tensors[1].data, optimizer._m[1], optimizer._v[1]],
                             untouched):
            assert np.array_equal(now, then)
        assert not np.array_equal(tensors[0].data, before)

    def test_fortran_ordered_parameter_keeps_its_layout(self):
        rng = np.random.default_rng(4)
        weight = np.asfortranarray(rng.standard_normal((5, 7)))
        tensor = Tensor(weight, requires_grad=True)
        reference = weight.copy(order="F")
        optimizer = Adam([tensor, Tensor(np.zeros(7), requires_grad=True)], lr=3e-4)
        state = {"step": 0, "m": [np.zeros((5, 7))], "v": [np.zeros((5, 7))]}
        grad = rng.standard_normal((5, 7))
        tensor._accumulate(grad)
        optimizer.step()
        self._reference_adam_step([reference], [grad], state, lr=3e-4)
        assert tensor.data.flags.f_contiguous and not tensor.data.flags.c_contiguous
        assert tensor.grad.flags.f_contiguous
        assert np.array_equal(tensor.data, reference)


class TestMinibatchScratch:
    def test_minibatches_match_fancy_indexing(self):
        rng_fill = np.random.default_rng(0)
        buffer = RolloutBuffer(horizon=10, num_envs=3, observation_size=4)
        for _ in range(10):
            buffer.add(rng_fill.standard_normal((3, 4)),
                       rng_fill.integers(0, 5, size=3),
                       rng_fill.standard_normal(3),
                       np.zeros(3), rng_fill.standard_normal(3),
                       rng_fill.standard_normal(3))
        buffer.finalize(np.zeros(3), gamma=0.99, lam=0.95)
        total = 30
        observations = buffer.observations.reshape(total, 4)
        advantages = buffer.advantages.reshape(total)
        normalized = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        order = np.random.default_rng(42).permutation(total)
        for position, batch in enumerate(
                buffer.iter_minibatches(8, rng=np.random.default_rng(42))):
            index = order[position * 8:(position + 1) * 8]
            assert np.array_equal(batch.observations, observations[index])
            assert np.array_equal(batch.advantages, normalized[index])
            # the yielded arrays are views into reusable scratch: they are
            # valid only until the next minibatch is produced
            if position == 0:
                first_copy = batch.observations.copy()
                first_view = batch.observations
        assert not np.array_equal(first_copy, first_view)

    def test_buffer_reset_reuses_storage(self):
        buffer = RolloutBuffer(horizon=4, num_envs=2, observation_size=3)
        storage = buffer.observations
        for _ in range(4):
            buffer.add(np.ones((2, 3)), np.zeros(2, dtype=np.int64),
                       np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        buffer.finalize(np.zeros(2), gamma=0.99, lam=0.95)
        buffer.reset()
        assert buffer.observations is storage
        assert buffer.position == 0
        assert buffer.advantages is None
        assert not buffer.full
        with pytest.raises(RuntimeError):
            buffer.finalize(np.zeros(2), gamma=0.99, lam=0.95)


class TestFloat32Mode:
    def test_policy_and_optimizer_dtypes(self):
        trainer = PPOTrainer("guessing/lru-4way", seed=0,
                             ppo_config=PPOConfig(dtype="float32", horizon=16,
                                                  num_envs=4, minibatch_size=32,
                                                  update_epochs=1))
        for _, parameter in trainer.policy.named_parameters():
            assert parameter.data.dtype == np.float32
        result = trainer.train(max_updates=2, eval_every=5)
        assert result.updates == 2
        for moment in trainer.updater.optimizer._m:
            assert moment.dtype == np.float32
        for record in result.history.updates:
            assert np.isfinite(record.get("policy_loss", 0.0))

    def test_float32_checkpoint_roundtrip(self, tmp_path):
        config = PPOConfig(dtype="float32", horizon=16, num_envs=4,
                           minibatch_size=32, update_epochs=1)
        trainer = PPOTrainer("guessing/lru-4way", seed=3, ppo_config=config)
        trainer.train(max_updates=1, eval_every=5)
        path = tmp_path / "ckpt.pkl"
        trainer.save_checkpoint(path)
        restored = PPOTrainer.load_checkpoint(path)
        assert restored.config.dtype == "float32"
        assert restored.policy.dtype == "float32"
        state = trainer.policy.state_dict()
        restored_state = restored.policy.state_dict()
        for name in state:
            assert state[name].dtype == np.float32
            assert np.array_equal(state[name], restored_state[name])

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError):
            PPOConfig(dtype="float16")
        with pytest.raises(ValueError):
            make_policy(dtype="int32")


class TestReplayRunner:
    def _trained_policy_env(self):
        import repro

        env = repro.make("guessing/lru-4way", seed=5)
        policy = ActorCriticPolicy(env.observation_size, env.action_space.n,
                                   hidden_sizes=(16,),
                                   window_shape=(env.encoder.window_size,
                                                 env.encoder.step_features),
                                   rng=np.random.default_rng(0))
        return env, policy

    def test_step_into_and_fallback_paths_agree(self, monkeypatch):
        from repro.rl.replay import evaluate_policy

        env, policy = self._trained_policy_env()
        with_into = evaluate_policy(env, policy, episodes=6, seed=11)
        monkeypatch.setattr(type(env), "supports_step_into", False)
        without_into = evaluate_policy(env, policy, episodes=6, seed=11)
        assert with_into == without_into

    def test_extraction_covers_secrets_and_uses_compiled_path(self):
        from repro.rl.replay import extract_attack_sequence

        env, policy = self._trained_policy_env()
        before = policy.compiled_call_count
        extraction = extract_attack_sequence(env, policy, seed=2)
        assert policy.compiled_call_count > before
        expected = set(env.config.victim_addresses)
        if env.config.victim_no_access_enable:
            expected.add(None)
        assert set(extraction.sequences) == expected
