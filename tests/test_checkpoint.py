"""Checkpoint/resume and serialization tests for the RL training stack.

The critical property: a PPO training run that is checkpointed mid-flight and
resumed — even in a fresh process — is *bit-identical* to the same run left
uninterrupted (same policy parameters, same evaluation, same history).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from repro.autodiff import Adam, SGD
from repro.nn import Linear
from repro.rl import PPOConfig, PPOTrainer
from repro.rl.replay import AttackExtraction
from repro.rl.stats import TrainingHistory, dump_json, json_ready
from repro.rl.trainer import TrainingResult

SCENARIO = "guessing/quickstart"
PPO = dict(horizon=32, num_envs=4, minibatch_size=64, update_epochs=2)
TRAIN = dict(eval_every=2, eval_episodes=5, target_accuracy=2.0)  # never converges


def make_trainer(seed: int = 3) -> PPOTrainer:
    return PPOTrainer(SCENARIO, PPOConfig(**PPO), hidden_sizes=(16, 16), seed=seed)


def result_key(result: TrainingResult) -> dict:
    """Everything except wall time (the only field allowed to differ)."""
    data = result.to_dict()
    data.pop("wall_time_seconds")
    return data


class TestTrainerCheckpoint:
    def test_resumed_run_is_bit_identical(self, tmp_path):
        uninterrupted = make_trainer()
        reference = uninterrupted.train(max_updates=4, **TRAIN)

        interrupted = make_trainer()
        interrupted.train(max_updates=2, **TRAIN)
        path = tmp_path / "trainer.ckpt"
        interrupted.save_checkpoint(path)
        del interrupted

        resumed = PPOTrainer.load_checkpoint(path)
        result = resumed.train(max_updates=4, **TRAIN)

        ref_state, res_state = uninterrupted.policy.state_dict(), resumed.policy.state_dict()
        assert set(ref_state) == set(res_state)
        for name in ref_state:
            assert np.array_equal(ref_state[name], res_state[name]), name
        assert result_key(reference) == result_key(result)
        assert uninterrupted.evaluate(episodes=10) == resumed.evaluate(episodes=10)

    def test_checkpoint_roundtrip_in_fresh_process(self, tmp_path):
        trainer = make_trainer()
        trainer.train(max_updates=2, **TRAIN)
        path = tmp_path / "trainer.ckpt"
        trainer.save_checkpoint(path)
        expected = trainer.evaluate(episodes=8)

        script = (
            "import json; from repro.rl.trainer import PPOTrainer; "
            f"t = PPOTrainer.load_checkpoint({str(path)!r}); "
            "print(json.dumps(t.evaluate(episodes=8), sort_keys=True))"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""))
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        assert json.loads(output.stdout) == json_ready(expected)

    def test_checkpoint_restores_counters_and_history(self, tmp_path):
        trainer = make_trainer()
        trainer.train(max_updates=3, **TRAIN)
        path = tmp_path / "trainer.ckpt"
        trainer.save_checkpoint(path)
        restored = PPOTrainer.load_checkpoint(path)
        assert restored.updates_done == trainer.updates_done == 3
        assert restored.env_steps == trainer.env_steps
        assert restored.history.updates == trainer.history.updates
        assert restored.seed == trainer.seed
        assert restored.rng.bit_generator.state == trainer.rng.bit_generator.state

    def test_rejects_non_checkpoint_files(self, tmp_path):
        path = tmp_path / "bogus.pkl"
        import pickle

        path.write_bytes(pickle.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            PPOTrainer.load_checkpoint(path)

    def test_update_callbacks_fire_and_are_removable(self):
        trainer = make_trainer()
        seen = []
        callback = trainer.add_update_callback(
            lambda _trainer, update, _metrics: seen.append(update))
        trainer.train(max_updates=2, **TRAIN)
        assert seen == [1, 2]
        trainer.remove_update_callback(callback)
        trainer.train(max_updates=3, **TRAIN)
        assert seen == [1, 2]


class TestOptimizerStateDict:
    def test_adam_roundtrip(self, rng):
        layer = Linear(4, 3, rng=rng)
        optimizer = Adam(layer.parameters(), lr=1e-2)
        for parameter in layer.parameters():
            parameter.grad = np.ones_like(parameter.data)
        optimizer.step()
        state = optimizer.state_dict()

        other = Adam(layer.parameters(), lr=1e-2)
        other.load_state_dict(state)
        assert other._step == optimizer._step
        for a, b in zip(other._m, optimizer._m):
            assert np.array_equal(a, b)

    def test_adam_loads_per_parameter_state_into_its_flat_buffers(self, rng):
        """The checkpoint format is one plain array per parameter, written
        before the optimizer kept its moments in flat buffers; loading copies
        into the views, and the next step continues the textbook update."""
        layer = Linear(4, 3, rng=rng)
        parameters = layer.parameters()
        shapes = [parameter.data.shape for parameter in parameters]
        state = {"step": 3,
                 "m": [rng.standard_normal(shape) for shape in shapes],
                 "v": [rng.random(shape) for shape in shapes]}
        optimizer = Adam(parameters, lr=1e-2)
        moments = list(optimizer._m)
        optimizer.load_state_dict(state)
        assert all(a is b for a, b in zip(optimizer._m, moments))
        assert all(m.base is optimizer._flat_m[0] for m in optimizer._m)

        expected = [parameter.data.copy() for parameter in parameters]
        grads = [rng.standard_normal(shape) for shape in shapes]
        beta1, beta2 = 0.9, 0.999
        bias1, bias2 = 1.0 - beta1 ** 4, 1.0 - beta2 ** 4
        for index, grad in enumerate(grads):
            m = beta1 * state["m"][index] + (1.0 - beta1) * grad
            v = beta2 * state["v"][index] + (1.0 - beta2) * grad ** 2
            expected[index] -= 1e-2 * (m / bias1) / (np.sqrt(v / bias2) + 1e-8)
            parameters[index].grad = grad
        optimizer.step()
        for parameter, value in zip(parameters, expected):
            assert np.array_equal(parameter.data, value)
        saved = optimizer.state_dict()
        assert saved["step"] == 4
        assert [m.shape for m in saved["m"]] == shapes

    def test_adam_rejects_mismatched_state(self, rng):
        layer = Linear(4, 3, rng=rng)
        optimizer = Adam(layer.parameters())
        with pytest.raises(ValueError):
            optimizer.load_state_dict({"step": 0, "m": [], "v": []})

    def test_sgd_roundtrip(self, rng):
        layer = Linear(4, 3, rng=rng)
        optimizer = SGD(layer.parameters(), lr=1e-2, momentum=0.9)
        for parameter in layer.parameters():
            parameter.grad = np.ones_like(parameter.data)
        optimizer.step()
        other = SGD(layer.parameters(), lr=1e-2, momentum=0.9)
        other.load_state_dict(optimizer.state_dict())
        for a, b in zip(other._velocity, optimizer._velocity):
            assert (a is None and b is None) or np.array_equal(a, b)


class TestResultSerialization:
    def test_training_result_json_roundtrip(self):
        history = TrainingHistory()
        history.record({"update": 1, "policy_loss": 0.25})
        history.record({"update": 1, "eval_accuracy": 0.5})
        extraction = AttackExtraction(sequences={0: ["2", "v", "g"], None: ["g"]},
                                      correct={0: True, None: False}, accuracy=0.5)
        result = TrainingResult(converged=True, env_steps=1234, updates=5,
                                epochs_to_converge=0.4, final_accuracy=0.9,
                                final_guess_rate=1.0, final_episode_length=3.5,
                                final_episode_reward=0.8, wall_time_seconds=1.5,
                                history=history, extraction=extraction)
        restored = TrainingResult.from_json(result.to_json())
        assert restored.to_dict() == result.to_dict()
        assert restored.extraction.sequences == extraction.sequences
        assert restored.extraction.correct == extraction.correct
        assert restored.history.updates == history.updates

    def test_history_jsonl_roundtrip(self):
        history = TrainingHistory()
        history.record({"update": 1, "x": 1.0})
        history.record({"update": 2, "x": np.float64(2.0)})
        restored = TrainingHistory.from_jsonl(history.to_jsonl())
        assert restored.updates == [{"update": 1, "x": 1.0}, {"update": 2, "x": 2.0}]

    def test_json_ready_normalizes_numpy(self):
        data = {"a": np.float64(1.5), "b": np.arange(3), "c": (1, 2), "d": np.bool_(True)}
        assert json_ready(data) == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2], "d": True}
        json.loads(dump_json(data))

    def test_dump_json_bytes_pinned(self):
        sample = OrderedDict([
            ("z", np.float32(0.5)),
            ("a", MappingProxyType(
                {"k": (np.int64(3), [np.arange(2), {"n": None}])})),
            ("m", [[1, (2.5, "s")], np.array([[1.5, 2.0]]), np.str_("x"),
                   True]),
            ("t", (np.bool_(False), OrderedDict(b=1, a=[]))),
        ])
        assert dump_json(sample) == (
            '{"a": {"k": [3, [[0, 1], {"n": null}]]}, '
            '"m": [[1, [2.5, "s"]], [[1.5, 2.0]], "x", true], '
            '"t": [false, {"a": [], "b": 1}], "z": 0.5}')
        assert json_ready(sample) == json.loads(dump_json(sample))
