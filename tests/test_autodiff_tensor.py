"""Unit tests for the reverse-mode autodiff tensor."""

import numpy as np
import pytest

from repro.autodiff import Tensor, check_gradients, no_grad, numerical_gradient


class TestBasicOps:
    def test_add_forward(self):
        result = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        assert np.allclose(result.numpy(), [4.0, 6.0])

    def test_add_scalar(self):
        result = Tensor([1.0, 2.0]) + 1.5
        assert np.allclose(result.numpy(), [2.5, 3.5])

    def test_radd(self):
        result = 1.5 + Tensor([1.0, 2.0])
        assert np.allclose(result.numpy(), [2.5, 3.5])

    def test_sub(self):
        result = Tensor([3.0]) - Tensor([1.0])
        assert np.allclose(result.numpy(), [2.0])

    def test_rsub(self):
        result = 5.0 - Tensor([1.0, 2.0])
        assert np.allclose(result.numpy(), [4.0, 3.0])

    def test_mul(self):
        result = Tensor([2.0, 3.0]) * Tensor([4.0, 5.0])
        assert np.allclose(result.numpy(), [8.0, 15.0])

    def test_neg(self):
        assert np.allclose((-Tensor([1.0, -2.0])).numpy(), [-1.0, 2.0])

    def test_pow(self):
        assert np.allclose((Tensor([2.0, 3.0]) ** 2).numpy(), [4.0, 9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** np.array([1.0, 2.0])

    def test_matmul_2d(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        b = Tensor(np.arange(12.0).reshape(3, 4))
        assert np.allclose((a @ b).numpy(), a.numpy() @ b.numpy())

    def test_matmul_batched_matches_numpy(self):
        a = Tensor(np.arange(24.0).reshape(2, 3, 4))
        b = np.arange(8.0).reshape(4, 2)
        assert np.array_equal((a @ b).numpy(), a.numpy() @ b)

    def test_matmul_rejects_vector_operands(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0, 3.0]) @ Tensor(np.ones((3, 2)))
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 3))) @ np.ones(3)

    def test_exp_log(self):
        x = Tensor([1.0, 2.0])
        assert np.allclose(x.exp().log().numpy(), x.numpy())

    def test_tanh_range(self):
        result = Tensor([-100.0, 0.0, 100.0]).tanh().numpy()
        assert np.allclose(result, [-1.0, 0.0, 1.0])

    def test_clip(self):
        assert np.allclose(Tensor([-2.0, 0.5, 3.0]).clip(0.0, 1.0).numpy(), [0.0, 0.5, 1.0])

    def test_maximum_minimum(self):
        a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
        assert np.allclose(a.maximum(b).numpy(), [3.0, 5.0])
        assert np.allclose(a.minimum(b).numpy(), [1.0, 2.0])

    def test_sum_mean_max(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.isclose(x.sum().item(), 10.0)
        assert np.isclose(x.mean().item(), 2.5)
        assert np.isclose(x.max().item(), 4.0)
        assert np.allclose(x.sum(axis=0).numpy(), [4.0, 6.0])
        assert np.allclose(x.mean(axis=1).numpy(), [1.5, 3.5])

    def test_reshape(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)

    def test_getitem(self):
        x = Tensor(np.arange(10.0))
        assert np.allclose(x[2:5].numpy(), [2.0, 3.0, 4.0])

    def test_len_and_item(self):
        assert len(Tensor([1.0, 2.0, 3.0])) == 3
        assert Tensor([2.5]).item() == 2.5

    def test_item_requires_scalar_for_backward(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0], requires_grad=True).backward()


# One finite-difference check per differentiable primitive: each entry maps
# two tensors ``a`` (3, 4) and ``b`` (3, 4), with entries in [0.5, 1.5) so
# log and powers stay well conditioned, to a tensor whose sum is the
# loss.  Entries with a different operand shape say so in the lambda.
PRIMITIVES = {
    "add": lambda a, b: a + b,
    "radd": lambda a, b: 2.0 + a * b,
    "add_broadcast_row": lambda a, b: a + b[0],
    "sub": lambda a, b: a - b,
    "rsub": lambda a, b: 1.0 - a * b,
    "neg": lambda a, b: -(a * b),
    "mul": lambda a, b: a * b,
    "mul_broadcast_column": lambda a, b: a * b[:, :1],
    "pow": lambda a, b: (a * b) ** 3,
    "matmul": lambda a, b: a @ b.reshape(4, 3),
    "matmul_batched": lambda a, b: a.reshape(3, 2, 2) @ b.reshape(3, 2, 2),
    "matmul_broadcast_batch": lambda a, b: a.reshape(3, 2, 2) @ b[0].reshape(2, 2),
    "exp": lambda a, b: (a * b).exp(),
    "log": lambda a, b: (a + b).log(),
    "tanh": lambda a, b: (a - b).tanh(),
    "maximum": lambda a, b: a.maximum(b),
    "minimum": lambda a, b: a.minimum(b),
    "sum_axis_keepdims": lambda a, b: a.sum(axis=-1, keepdims=True) * b,
    "mean_axis": lambda a, b: a.mean(axis=0) * b[1],
    "max_axis_keepdims": lambda a, b: a.max(axis=-1, keepdims=True) * b,
    "reshape": lambda a, b: a.reshape(4, 3) * b.reshape(4, 3),
    "getitem_pairs": lambda a, b: a[(np.arange(3), np.array([2, 0, 3]))] * b[:, 1],
}


class TestGradients:
    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_primitive_gradcheck(self, name):
        rng = np.random.default_rng(7)
        a = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        b = Tensor(rng.random((3, 4)) + 0.5, requires_grad=True)
        operation = PRIMITIVES[name]
        assert check_gradients(lambda: operation(a, b).sum(), [a, b])

    def test_add_mul_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        loss = ((x * y) + x).sum()
        loss.backward()
        assert np.allclose(x.grad, [4.0, 5.0])
        assert np.allclose(y.grad, [1.0, 2.0])

    def test_broadcast_gradient(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        loss = (x + b).sum()
        loss.backward()
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_matmul_gradient_matches_numerical(self, rng):
        w = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((4, 3)))

        def loss():
            return ((x @ w) ** 2).sum()

        assert check_gradients(loss, [w])

    def test_elementwise_gradients_match_numerical(self, rng):
        x = Tensor(rng.standard_normal(5) * 0.5 + 1.5, requires_grad=True)

        def loss():
            return (x.log() + x.exp() * x.tanh()).sum()

        assert check_gradients(loss, [x])

    def test_reduction_gradients_match_numerical(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)

        def loss():
            return (x.mean(axis=0) * x.sum(axis=0)).sum() + x.max()

        assert check_gradients(loss, [x], tolerance=1e-3)

    def test_getitem_gradient(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        loss = (x[1:4] * 2.0).sum()
        loss.backward()
        assert np.allclose(x.grad, [0.0, 2.0, 2.0, 2.0, 0.0])

    def test_gradient_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        loss = (x * x + x).sum()
        loss.backward()
        assert np.allclose(x.grad, [5.0])

    def test_numerical_gradient_helper(self):
        x = Tensor([2.0], requires_grad=True)
        numeric = numerical_gradient(lambda: (x ** 3).sum(), x)
        assert np.allclose(numeric, [12.0], atol=1e-4)

    def test_detach_blocks_gradient(self):
        x = Tensor([1.0], requires_grad=True)
        loss = (x.detach() * 3.0).sum()
        loss.backward()
        assert x.grad is None

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._backward is None

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_clip_gradient_masks_out_of_range(self):
        x = Tensor([-2.0, 0.5, 3.0], requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])
