"""Tests for the neural-network layers and distributions."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients
from repro.nn import (
    MLP,
    Categorical,
    Linear,
    Module,
    Sequential,
    Tanh,
)
from repro.nn.init import orthogonal


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = Linear(5, 3, rng=rng)
        output = layer(Tensor(rng.standard_normal((7, 5))))
        assert output.shape == (7, 3)

    def test_linear_parameters(self, rng):
        layer = Linear(5, 3, rng=rng)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert layer.num_parameters() == 5 * 3 + 3

    def test_activations(self):
        x = Tensor([[-1.0, 2.0]])
        assert np.allclose(Tanh()(x).numpy(), np.tanh([[-1.0, 2.0]]))

    def test_sequential_chains(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), Tanh(), Linear(8, 2, rng=rng))
        assert len(model) == 3
        assert model(Tensor(rng.standard_normal((5, 4)))).shape == (5, 2)

    def test_mlp_output_shape(self, rng):
        model = MLP(6, [16, 16], 3, rng=rng)
        assert model(Tensor(rng.standard_normal((2, 6)))).shape == (2, 3)

    def test_mlp_hidden_activation_is_tanh(self, rng):
        model = MLP(4, [8, 6], 2, rng=rng)
        x = rng.standard_normal((3, 4))
        first, _, second, _, out = model.network
        expected = np.tanh(x @ first.weight.data + first.bias.data)
        expected = np.tanh(expected @ second.weight.data + second.bias.data)
        expected = expected @ out.weight.data + out.bias.data
        assert np.allclose(model(Tensor(x)).numpy(), expected)

    def test_mlp_gradients_flow_to_all_parameters(self, rng):
        model = MLP(4, [8], 2, rng=rng)
        x = Tensor(rng.standard_normal((3, 4)))
        loss = (model(x) ** 2).sum()
        loss.backward()
        assert all(p.grad is not None for p in model.parameters())

    def test_linear_gradient_matches_numerical(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)))

        def loss():
            return (layer(x) ** 2).sum()

        assert check_gradients(loss, layer.parameters(), tolerance=1e-3)


class TestModule:
    def test_state_dict_roundtrip(self, rng):
        model = MLP(4, [8], 2, rng=rng)
        clone = MLP(4, [8], 2, rng=np.random.default_rng(999))
        clone.load_state_dict(model.state_dict())
        x = Tensor(rng.standard_normal((3, 4)))
        assert np.allclose(model(x).numpy(), clone(x).numpy())

    def test_load_state_dict_rejects_mismatch(self, rng):
        model = MLP(4, [8], 2, rng=rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"bogus": np.zeros(3)})

    def test_train_eval_modes_propagate(self, rng):
        model = Sequential(Linear(2, 2, rng=rng), Tanh())
        model.eval()
        assert not model.training
        assert all(not layer.training for layer in model)
        model.train()
        assert model.training

    def test_zero_grad_clears_all(self, rng):
        model = MLP(3, [4], 2, rng=rng)
        (model(Tensor(rng.standard_normal((2, 3)))) ** 2).sum().backward()
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestInit:
    def test_orthogonal_columns(self, rng):
        weight = orthogonal((8, 4), rng=rng)
        gram = weight.T @ weight
        assert np.allclose(gram, np.eye(4), atol=1e-8)

    def test_orthogonal_gain(self, rng):
        weight = orthogonal((4, 4), gain=2.0, rng=rng)
        assert np.allclose(weight @ weight.T, 4.0 * np.eye(4), atol=1e-8)


class TestCategorical:
    def test_sample_distribution_matches_probabilities(self, rng):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
        distribution = Categorical(logits)
        samples = [int(distribution.sample(rng)[0]) for _ in range(3000)]
        frequency = np.bincount(samples, minlength=3) / len(samples)
        assert np.allclose(frequency, [0.7, 0.2, 0.1], atol=0.05)

    def test_mode(self):
        distribution = Categorical(Tensor(np.array([[0.0, 5.0, 1.0], [9.0, 0.0, 0.0]])))
        assert np.array_equal(distribution.mode(), [1, 0])

    def test_log_prob(self):
        distribution = Categorical(Tensor(np.log(np.array([[0.25, 0.75]]))))
        assert np.allclose(distribution.log_prob(np.array([1])).numpy(), np.log(0.75))

    def test_entropy_bounds(self, rng):
        logits = Tensor(rng.standard_normal((6, 5)))
        entropy = Categorical(logits).entropy().numpy()
        assert np.all(entropy >= 0.0)
        assert np.all(entropy <= np.log(5.0) + 1e-9)

    def test_probs_sum_to_one(self, rng):
        distribution = Categorical(Tensor(rng.standard_normal((4, 9))))
        assert np.allclose(distribution.probs.sum(axis=-1), 1.0)
