"""Tests for the functional ops (log-softmax family), the fused kernel's
backward helpers and the optimizer."""

import numpy as np
import pytest

from repro.autodiff import Adam, Tensor, check_gradients, functional as F


class TestFunctional:
    def test_log_softmax_is_a_log_distribution(self, rng):
        probabilities = np.exp(F.log_softmax(Tensor(rng.standard_normal((5, 7)))).numpy())
        assert np.allclose(probabilities.sum(axis=-1), 1.0)
        assert np.all(probabilities >= 0.0)

    def test_log_softmax_is_shift_invariant(self, rng):
        logits = rng.standard_normal((3, 4))
        a = F.log_softmax(Tensor(logits)).numpy()
        b = F.log_softmax(Tensor(logits + 100.0)).numpy()
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = rng.standard_normal((4, 6))
        exp = np.exp(logits - logits.max(axis=-1, keepdims=True))
        reference = np.log(exp / exp.sum(axis=-1, keepdims=True))
        assert np.allclose(F.log_softmax(Tensor(logits)).numpy(), reference)

    def test_log_softmax_along_leading_axis(self, rng):
        logits = rng.standard_normal((5, 3))
        along_rows = F.log_softmax(Tensor(logits), axis=0).numpy()
        transposed = F.log_softmax(Tensor(logits.T.copy())).numpy().T
        assert np.allclose(along_rows, transposed)

    def test_gather_log_prob(self):
        log_probs = Tensor(np.log(np.array([[0.2, 0.8], [0.5, 0.5]])))
        picked = F.gather_log_prob(log_probs, np.array([1, 0]))
        assert np.allclose(picked.numpy(), np.log([0.8, 0.5]))

    def test_categorical_entropy_uniform_is_log_n(self):
        logits = Tensor(np.zeros((2, 8)))
        assert np.allclose(F.categorical_entropy(logits).numpy(), np.log(8.0))

    def test_categorical_entropy_peaked_is_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
        assert F.categorical_entropy(logits).numpy()[0] < 1e-3

    def test_log_softmax_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        targets = np.array([0, 3, 1, 2, 2])
        assert check_gradients(
            lambda: -(F.gather_log_prob(F.log_softmax(logits), targets).mean()),
            [logits])

    def test_entropy_gradcheck(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        assert check_gradients(
            lambda: F.categorical_entropy(logits).mean(), [logits])


# (batch, classes) shapes for the bitwise backward-helper tests: one row of
# two classes, a small batch, and a minibatch-sized batch.
HELPER_SHAPES = pytest.mark.parametrize("shape", [(1, 2), (5, 7), (64, 17)],
                                        ids=["1x2", "5x7", "64x17"])


def _softmax_intermediates(logits: np.ndarray):
    """The numpy intermediates the fused kernel saves for its backward pass."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=-1, keepdims=True)
    log_p = shifted - np.log(total)
    return log_p, exp, total


class TestFusedKernels:
    """The fused PPO kernel's backward helpers replay the composed graph."""

    @HELPER_SHAPES
    def test_log_softmax_grad_matches_graph_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        logits = Tensor(rng.standard_normal(shape), requires_grad=True)
        upstream = rng.standard_normal(shape)
        F.log_softmax(logits).backward(upstream)
        _, exp, total = _softmax_intermediates(logits.numpy())
        fused = F.log_softmax_grad(upstream, -1, exp, total)
        assert np.array_equal(fused, logits.grad)

    @HELPER_SHAPES
    def test_entropy_grad_matches_graph_bitwise(self, shape):
        rng = np.random.default_rng(sum(shape))
        logits = Tensor(rng.standard_normal(shape), requires_grad=True)
        upstream = rng.standard_normal(shape[0])
        F.categorical_entropy(logits).backward(upstream)
        log_p, exp, total = _softmax_intermediates(logits.numpy())
        fused = F.entropy_grad(upstream, -1, log_p, np.exp(log_p), exp, total)
        assert np.array_equal(fused, logits.grad)


class TestOptimizers:
    def _quadratic(self, parameter: Tensor) -> Tensor:
        target = Tensor(np.array([3.0, -2.0, 0.5]))
        diff = parameter - target
        return (diff * diff).sum()

    def test_adam_converges_on_quadratic(self):
        parameter = Tensor(np.zeros(3), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        for _ in range(400):
            optimizer.zero_grad()
            self._quadratic(parameter).backward()
            optimizer.step()
        assert np.allclose(parameter.numpy(), [3.0, -2.0, 0.5], atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        parameter = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            optimizer.zero_grad()
            # Zero loss gradient: only weight decay acts.
            (parameter * 0.0).sum().backward()
            optimizer.step()
        assert abs(parameter.item()) < 10.0

    def test_clip_grad_norm(self):
        parameter = Tensor(np.zeros(4), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        (parameter * 100.0).sum().backward()
        norm_before = float(np.linalg.norm(parameter.grad))
        reported = optimizer.clip_grad_norm(1.0)
        assert np.isclose(reported, norm_before)
        assert np.isclose(float(np.linalg.norm(parameter.grad)), 1.0)

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_step_skips_parameters_without_grad(self):
        parameter = Tensor(np.array([1.0]), requires_grad=True)
        optimizer = Adam([parameter], lr=0.1)
        optimizer.step()
        assert np.allclose(parameter.numpy(), [1.0])
