"""Bit-parity suite for the compiled inference plan and fused PPO kernels.

Everything in the fast path claims *bit-identical* behavior to the reference
graph (:mod:`repro.autodiff.reference`):

* compiled ``act``/``value``/``action_probabilities`` vs graph inference,
  across MLP depths, dtypes, seeds, and deterministic/sampled modes;
* the fused graph-free PPO minibatch kernel vs graph-based updates — up to
  whole-training-history equality (the ``on_reference_graph`` fixture runs
  a whole update or training run on the graph);
* the in-place Adam/clip rewrite vs the textbook out-of-place formulas.

A guard test asserts that a default ``PPOTrainer`` run builds no graph node.
"""

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor, reference
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.trainer import PPOTrainer


WINDOW_SHAPE = (8, 21)
OBS_SIZE = WINDOW_SHAPE[0] * WINDOW_SHAPE[1]
NUM_ACTIONS = 6
# The policy's only architecture is a tanh MLP, so the plans the compiled and
# fused kernels flatten differ only in depth: the default two hidden layers,
# and three, which runs the linear/tanh steps through one more round.
DEPTHS = pytest.mark.parametrize("hidden_sizes", [(32, 24), (40, 32, 24)],
                                 ids=["mlp", "mlp-3layer"])


def make_policy(dtype="float64", seed=0, hidden_sizes=(32, 24)):
    return ActorCriticPolicy(OBS_SIZE, NUM_ACTIONS, hidden_sizes=hidden_sizes,
                             rng=np.random.default_rng(seed), dtype=dtype)


class TestCompiledActParity:
    @DEPTHS
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("deterministic", [False, True])
    def test_act_bit_identical(self, dtype, deterministic, hidden_sizes):
        for seed in (0, 3):
            policy = make_policy(dtype, seed, hidden_sizes)
            observations = np.random.default_rng(seed + 50).standard_normal(
                (5, OBS_SIZE))
            fast = policy.act(observations, rng=np.random.default_rng(9),
                              deterministic=deterministic)
            actions, log_probs, values = reference.act(
                policy, observations, rng=np.random.default_rng(9),
                deterministic=deterministic)
            assert np.array_equal(fast.actions, actions)
            assert np.array_equal(fast.log_probs, log_probs)
            assert np.array_equal(fast.values, values)

    def test_single_observation_row(self):
        policy = make_policy()
        observation = np.random.default_rng(1).standard_normal(OBS_SIZE)
        fast = policy.act(observation, deterministic=True)
        actions, _, values = reference.act(policy, observation, deterministic=True)
        assert np.array_equal(fast.actions, actions)
        assert np.array_equal(fast.values, values)

    @DEPTHS
    def test_value_and_probabilities(self, hidden_sizes):
        policy = make_policy(hidden_sizes=hidden_sizes)
        observations = np.random.default_rng(2).standard_normal((4, OBS_SIZE))
        assert np.array_equal(policy.value(observations),
                              reference.value(policy, observations))
        probabilities = policy.action_probabilities(observations[0])
        assert np.array_equal(
            probabilities, reference.action_probabilities(policy, observations[0])[0])

    def test_rng_stream_consumption_matches(self):
        # Sampling consumes the shared generator identically on both paths,
        # so downstream draws stay aligned.
        policy = make_policy()
        observations = np.random.default_rng(0).standard_normal((3, OBS_SIZE))
        rng_fast, rng_graph = np.random.default_rng(7), np.random.default_rng(7)
        policy.act(observations, rng=rng_fast)
        reference.act(policy, observations, rng=rng_graph)
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

    def test_unexpected_module_raises_when_plan_is_built(self):
        from repro.nn import Module, Sequential

        class Doubler(Module):
            def forward(self, inputs):
                return inputs * 2.0

        policy = make_policy()
        policy.feature_extractor = Sequential(policy.feature_extractor,
                                              Doubler())
        with pytest.raises(TypeError, match="Doubler"):
            policy.compiled
        with pytest.raises(TypeError, match="Doubler"):
            PPOUpdater(policy, PPOConfig())._fused()


class TestCompiledWorkspace:
    """What the fused PPO kernel reads from the plan's workspace."""

    @DEPTHS
    def test_steps_record_each_step_output(self, hidden_sizes):
        from repro.autodiff import no_grad

        policy = make_policy(hidden_sizes=hidden_sizes)
        plan = policy.compiled
        observations = np.random.default_rng(3).standard_normal((5, OBS_SIZE))
        ws = plan._workspace(5)
        plan._heads(observations, ws)
        current, outputs = Tensor(observations), []
        with no_grad():
            for kind, module in plan._steps:
                current = module(current) if kind == "linear" else current.tanh()
                outputs.append(current.numpy())
        # A tanh step runs in place on its input's buffer, so each buffer ends
        # up holding the output of the last step that shares it — which is
        # what the backward pass reads (tanh's output, a linear's input).
        steps = ws["steps"]
        for position, recorded in enumerate(steps):
            last = max(q for q in range(len(steps)) if steps[q] is recorded)
            assert np.array_equal(recorded, outputs[last]), position
        assert len(ws["steps"]) == len(plan._steps)

    @DEPTHS
    def test_tanh_steps_reuse_their_input_buffer(self, hidden_sizes):
        plan = make_policy(hidden_sizes=hidden_sizes).compiled
        steps = plan._workspace(3)["steps"]
        for position, (kind, _) in enumerate(plan._steps):
            if kind == "tanh":
                assert steps[position] is steps[position - 1]
            else:
                assert all(steps[position] is not steps[other]
                           for other in range(position))

    def test_log_probs_keep_total_and_its_log(self):
        policy = make_policy()
        plan = policy.compiled
        observations = np.random.default_rng(4).standard_normal((6, OBS_SIZE))
        ws = plan._workspace(6)
        logits, _ = plan._heads(observations, ws)
        dist = ws["dist"]
        log_probs = plan._log_probs(logits, dist)
        # The backward pass reads exp and total; log(total) has its own buffer.
        assert np.array_equal(dist.total, dist.exp.sum(axis=-1, keepdims=True))
        assert np.array_equal(dist.log_total, np.log(dist.total))
        assert np.array_equal(log_probs,
                              logits - dist.maximum - dist.log_total)

    def test_fused_kernel_runs_on_the_policy_plan(self):
        policy = make_policy()
        updater = PPOUpdater(policy, PPOConfig())
        assert updater._fused().plan is policy.compiled


def filled_buffer(seed=0, horizon=12):
    rng = np.random.default_rng(seed)
    buffer = RolloutBuffer(horizon=horizon, num_envs=4, observation_size=OBS_SIZE)
    for _ in range(buffer.horizon):
        buffer.add(rng.standard_normal((4, OBS_SIZE)),
                   rng.integers(0, NUM_ACTIONS, size=4),
                   rng.standard_normal(4),
                   (rng.random(4) < 0.2).astype(float),
                   rng.standard_normal(4),
                   -np.abs(rng.standard_normal(4)))
    buffer.finalize(rng.standard_normal(4), gamma=0.99, lam=0.95)
    return buffer


def first_minibatch(buffer, size=16):
    return next(iter(buffer.iter_minibatches(size, rng=np.random.default_rng(2))))


class TestFusedUpdateParity:
    @pytest.mark.parametrize("value_clip", [0.2, None])
    def test_update_bit_identical_to_graph(self, value_clip, on_reference_graph):
        def run():
            config = PPOConfig(minibatch_size=16, update_epochs=2,
                               value_clip=value_clip)
            policy = make_policy()
            updater = PPOUpdater(policy, config, rng=np.random.default_rng(1))
            metrics = updater.update(filled_buffer())
            return metrics, policy.state_dict()

        fast_metrics, fast_state = run()
        with on_reference_graph():
            ref_metrics, ref_state = run()
        assert fast_metrics == ref_metrics
        for name in fast_state:
            assert np.array_equal(fast_state[name], ref_state[name]), name

    @pytest.mark.parametrize("hidden_sizes", [(16,), (40, 32, 24)],
                             ids=["mlp-1layer", "mlp-3layer"])
    def test_every_depth_takes_the_fused_kernel(self, hidden_sizes,
                                                on_reference_graph):
        # Every depth the policy can build flattens into the fused kernel.
        def run():
            config = PPOConfig(minibatch_size=16, update_epochs=2)
            policy = make_policy(hidden_sizes=hidden_sizes)
            updater = PPOUpdater(policy, config, rng=np.random.default_rng(1))
            metrics = updater.update(filled_buffer())
            return metrics, policy.state_dict()

        fast_metrics, fast_state = run()
        with on_reference_graph():
            ref_metrics, ref_state = run()
        assert fast_metrics == ref_metrics
        for name in fast_state:
            assert np.array_equal(fast_state[name], ref_state[name]), name

    def test_fused_compute_allocates_less_than_one_activation(self):
        import tracemalloc

        # The trainer's default geometry: a 256-row minibatch through the
        # 128-128 MLP.  The small (batch,) and (batch, actions) temporaries
        # compute() still makes, and numpy's bounded ufunc buffers for the
        # broadcast bias adds, stay well below one (batch, width) array.
        policy = make_policy(hidden_sizes=(128, 128))
        config = PPOConfig(minibatch_size=256, update_epochs=1)
        updater = PPOUpdater(policy, config, rng=np.random.default_rng(1))
        fused = updater._fused()
        batch = first_minibatch(filled_buffer(horizon=64), config.minibatch_size)
        fused.compute(batch, 0.01)  # warm-up: allocates the workspace
        tracemalloc.start()
        try:
            fused.compute(batch, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        width = policy.hidden_sizes[-1]
        assert peak < config.minibatch_size * width * policy._np_dtype.itemsize

    def test_training_history_matches_graph_reference(self, on_reference_graph):
        """Compiled+fused training reproduces the seed-state history exactly."""
        def train():
            trainer = PPOTrainer("guessing/lru-4way", seed=1,
                                 ppo_config=PPOConfig(horizon=32, num_envs=4,
                                                      minibatch_size=32,
                                                      update_epochs=2))
            result = trainer.train(max_updates=3, eval_every=2, eval_episodes=4)
            return result.history.to_dict(), trainer.policy.state_dict()

        fast_history, fast_state = train()
        with on_reference_graph():
            ref_history, ref_state = train()
        assert fast_history == ref_history
        for name in fast_state:
            assert np.array_equal(fast_state[name], ref_state[name]), name


class TestReferenceGraph:
    """The oracle's own contract, independent of the kernels it checks."""

    def test_act_returns_arrays_per_row(self):
        policy = make_policy()
        observations = np.random.default_rng(4).standard_normal((5, OBS_SIZE))
        actions, log_probs, values = reference.act(
            policy, observations, rng=np.random.default_rng(9))
        assert actions.shape == log_probs.shape == values.shape == (5,)
        assert ((actions >= 0) & (actions < NUM_ACTIONS)).all()
        assert (log_probs <= 0.0).all()

    def test_deterministic_act_takes_the_most_probable_action(self):
        policy = make_policy(seed=2)
        observations = np.random.default_rng(5).standard_normal((7, OBS_SIZE))
        actions, log_probs, _ = reference.act(policy, observations,
                                              deterministic=True)
        probabilities = reference.action_probabilities(policy, observations)
        assert np.array_equal(actions, probabilities.argmax(axis=-1))
        assert np.allclose(np.exp(log_probs), probabilities.max(axis=-1))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_action_probabilities_are_distributions(self, dtype):
        policy = make_policy(dtype)
        observations = np.random.default_rng(6).standard_normal((4, OBS_SIZE))
        probabilities = reference.action_probabilities(policy, observations)
        assert probabilities.shape == (4, NUM_ACTIONS)
        assert probabilities.dtype == np.dtype(dtype)
        assert (probabilities >= 0.0).all()
        assert np.allclose(probabilities.sum(axis=-1), 1.0, atol=1e-6)

    def test_ppo_loss_backward_matches_fused_gradients_bitwise(self):
        policy = make_policy()
        updater = PPOUpdater(policy, PPOConfig(minibatch_size=16),
                             rng=np.random.default_rng(1))
        batch = first_minibatch(filled_buffer())
        updater.optimizer.zero_grad()
        fused_metrics = updater._fused().compute(batch, 0.01)
        fused_grads = [p.grad.copy() for p in policy.parameters()]
        updater.optimizer.zero_grad()
        loss, ref_metrics = reference.ppo_loss(policy, batch, updater.config, 0.01)
        loss.backward()
        assert fused_metrics == ref_metrics
        for fused_grad, parameter in zip(fused_grads, policy.parameters()):
            assert np.array_equal(fused_grad, parameter.grad)

    def test_ppo_loss_at_the_old_policy_clips_nothing(self):
        # old_log_probs taken from the policy itself make every ratio 1, so
        # nothing is clipped, the KL estimate is 0 and the surrogate is
        # minus the mean advantage.
        policy = make_policy()
        batch = first_minibatch(filled_buffer())
        # The log-probabilities of the batch's own actions under the policy.
        log_probs = np.log(reference.action_probabilities(policy, batch.observations))
        batch.old_log_probs[:] = log_probs[np.arange(len(batch.actions)),
                                           batch.actions]
        _, metrics = reference.ppo_loss(policy, batch, PPOConfig(), 0.01)
        assert metrics["clip_fraction"] == 0.0
        assert abs(metrics["approx_kl"]) < 1e-12
        assert np.isclose(metrics["policy_loss"], -batch.advantages.mean())

    def test_ppo_loss_wide_value_clip_equals_no_value_clip(self):
        policy = make_policy()
        batch = first_minibatch(filled_buffer())
        wide, _ = reference.ppo_loss(policy, batch, PPOConfig(value_clip=1e9), 0.01)
        unclipped, _ = reference.ppo_loss(policy, batch, PPOConfig(value_clip=None),
                                          0.01)
        assert wide.item() == unclipped.item()

    def test_ppo_loss_entropy_coefficient_subtracts_the_entropy(self):
        policy = make_policy()
        batch = first_minibatch(filled_buffer())
        without, metrics = reference.ppo_loss(policy, batch, PPOConfig(), 0.0)
        with_bonus, _ = reference.ppo_loss(policy, batch, PPOConfig(), 0.5)
        assert metrics["entropy"] > 0.0
        assert np.isclose(without.item() - with_bonus.item(),
                          0.5 * metrics["entropy"])

    def test_float32_ppo_loss_casts_a_copy_of_the_batch(self):
        policy = make_policy("float32")
        batch = first_minibatch(filled_buffer())
        loss, _ = reference.ppo_loss(policy, batch, PPOConfig(), 0.01)
        loss.backward()
        assert all(p.grad.dtype == np.float32 for p in policy.parameters())
        assert batch.observations.dtype == batch.advantages.dtype == np.float64

    def test_on_reference_graph_routes_inference_and_restores_it(
            self, on_reference_graph, monkeypatch):
        from repro.nn.compiled import CompiledForward

        compiled_act = CompiledForward.act
        calls = []
        reference_act = reference.act
        monkeypatch.setattr(reference, "act",
                            lambda *args, **kwargs: calls.append(1)
                            or reference_act(*args, **kwargs))
        policy = make_policy()
        observations = np.random.default_rng(8).standard_normal((3, OBS_SIZE))
        with on_reference_graph():
            routed = policy.act(observations, deterministic=True)
        assert calls == [1]
        assert CompiledForward.act is compiled_act
        policy.act(observations, deterministic=True)
        assert calls == [1]
        assert np.array_equal(routed.actions,
                              reference_act(policy, observations,
                                            deterministic=True)[0])


class TestGuardFastPathTaken:
    def test_default_trainer_uses_compiled_and_fused_paths(self, monkeypatch):
        nodes = []
        make_child = Tensor._make_child

        def counting(self, *args, **kwargs):
            nodes.append(1)
            return make_child(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "_make_child", counting)
        trainer = PPOTrainer("guessing/lru-4way", seed=0,
                             ppo_config=PPOConfig(horizon=16, num_envs=4,
                                                  minibatch_size=32,
                                                  update_epochs=1))
        # The last update always evaluates, so the run includes one evaluation.
        result = trainer.train(max_updates=1, eval_every=5)
        assert any("eval_accuracy" in record
                   for record in result.history.updates)
        assert not nodes, f"the run built {len(nodes)} autodiff graph nodes"


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
                                   rng=np.random.default_rng(0))
        return env, policy

    def test_extraction_covers_secrets_and_uses_compiled_path(self, monkeypatch):
        from repro.nn.compiled import CompiledForward
        from repro.rl.replay import extract_attack_sequence

        calls = []
        plan_act = CompiledForward.act

        def counting(plan, *args, **kwargs):
            calls.append(1)
            return plan_act(plan, *args, **kwargs)

        monkeypatch.setattr(CompiledForward, "act", counting)
        env, policy = self._trained_policy_env()
        extraction = extract_attack_sequence(env, policy, seed=2)
        assert calls
        expected = set(env.config.victim_addresses)
        if env.config.victim_no_access_enable:
            expected.add(None)
        assert set(extraction.sequences) == expected
