"""Functional helpers built on :class:`repro.autodiff.Tensor`.

These are the numerically-stable composite operations the RL engine needs:
softmax, log-softmax, cross entropy, categorical entropy, and the usual loss
helpers.  Each works on a trailing "class" dimension so policies over discrete
action spaces can use them directly.

Two implementations exist for the hot ops (``linear``, ``softmax``,
``log_softmax``, ``categorical_entropy``):

* **fused** (the default) — one graph node per op.  The forward pass is a
  handful of numpy calls, and the hand-written backward replays *exactly* the
  same elementwise arithmetic the composed primitive chain would execute, so
  gradients are bit-identical to the composed path (verified by
  ``tests/test_compiled_policy.py``).  This removes ~10 Tensor nodes, their
  closures, and their intermediate allocations per softmax chain — the
  dominant Python overhead of a PPO minibatch update.
* **composed** — the original chains of Tensor primitives.  Used as the
  reference in parity tests and selectable with :func:`composed_ops` (the
  training-throughput benchmark uses it to measure the legacy graph path).

:func:`composed_ops` is the one switch to the graph reference: it also turns
off the graph-free compiled inference plans
(:class:`repro.nn.compiled.CompiledForward`) and the fused PPO minibatch
kernel (:class:`repro.rl.fused_loss.FusedPPOLoss`).
"""

from __future__ import annotations

import contextlib
from typing import Union

import numpy as np

from repro.autodiff.tensor import Tensor

ArrayLike = Union[np.ndarray, float, int]

# Whether the fused single-node kernels are active (see composed_ops()).
FUSED = True


@contextlib.contextmanager
def composed_ops():
    """Temporarily fall back to the composed per-primitive graph ops.

    Compiled policy inference and the fused PPO kernel are off inside it as
    well.  The fast paths are bit-identical, so this only changes speed — it
    exists for parity tests and for benchmarking the legacy graph path.
    """
    global FUSED
    previous = FUSED
    FUSED = False
    try:
        yield
    finally:
        FUSED = previous


# --------------------------------------------------------------------- linear
def linear(inputs: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused affine map ``inputs @ weight + bias`` as a single graph node.

    Bit-identical to the composed matmul + broadcast-add chain, forward and
    backward.
    """
    if not FUSED:
        return inputs @ weight + bias
    inputs = Tensor._ensure(inputs)
    value = inputs.data @ weight.data + bias.data

    def backward(out: Tensor) -> None:
        grad = out.grad
        a, b = inputs.data, weight.data
        if a.ndim >= 2:
            inputs._accumulate(grad @ np.swapaxes(b, -1, -2))
            weight._accumulate(np.swapaxes(a, -1, -2) @ grad)
        else:
            # (k,) @ (k, n) -> (n,)
            inputs._accumulate(grad @ b.T)
            weight._accumulate(np.outer(a, grad))
        bias._accumulate(grad)

    return inputs._make_child(value, (inputs, weight, bias), backward)


# -------------------------------------------------------------------- softmax
def _softmax_forward(x: np.ndarray, axis: int) -> tuple:
    maximum = np.max(x, axis=axis, keepdims=True)
    shifted = x - maximum
    exp = np.exp(shifted)
    total = np.sum(exp, axis=axis, keepdims=True)
    return shifted, exp, total


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if not FUSED:
        return _composed_softmax(logits, axis=axis)
    logits = Tensor._ensure(logits)
    _, exp, total = _softmax_forward(logits.data, axis)
    value = exp / total

    def backward(out: Tensor) -> None:
        grad = out.grad
        # Mirrors the composed div/sum/exp backward chain arithmetic exactly:
        # d_exp = g / s + broadcast(sum(-g * e / s**2)); d_logits = d_exp * e.
        direct = grad / total
        scaled = np.negative(grad)
        scaled = scaled * exp
        scaled = scaled / (total ** 2)
        summed = np.sum(scaled, axis=axis, keepdims=True)
        logits._accumulate((direct + summed) * exp)

    return logits._make_child(value, (logits,), backward)


def _composed_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def fused_log_softmax_node(logits: Tensor, axis: int = -1) -> tuple:
    """Build the fused single-node log-softmax graph op.

    Returns ``(node, log_p, exp, total)`` — the saved forward intermediates
    let callers (:class:`repro.nn.Categorical`) derive entropy without
    re-reducing the logits.  This is the one definition of the
    bit-parity-critical kernel; both :func:`log_softmax` and the
    distribution share it.
    """
    shifted, exp, total = _softmax_forward(logits.data, axis)
    log_p = shifted - np.log(total)

    def backward(out: Tensor) -> None:
        # d_logits = g - (sum(g) / s) * e, with the composed chain's op order.
        logits._accumulate(log_softmax_grad(out.grad, axis, exp, total))

    return logits._make_child(log_p, (logits,), backward), log_p, exp, total


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    if not FUSED:
        return _composed_log_softmax(logits, axis=axis)
    node, _, _, _ = fused_log_softmax_node(Tensor._ensure(logits), axis)
    return node


def _composed_log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    shifted = logits - logits.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def gather_log_prob(log_probs: Tensor, actions: np.ndarray) -> Tensor:
    """Select the log-probability of each taken action.

    ``log_probs`` has shape (batch, num_actions); ``actions`` is an int array
    of shape (batch,).  Returns a tensor of shape (batch,).
    """
    actions = np.asarray(actions, dtype=np.int64)
    batch_index = np.arange(log_probs.shape[0])
    return log_probs[(batch_index, actions)]


def log_softmax_grad(grad: np.ndarray, axis: int,
                     exp: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gradient of log-softmax w.r.t. its logits, given saved ``exp``/``total``.

    Replays the composed sub/exp/sum/log backward arithmetic op for op so the
    result is bit-identical to the primitive chain.
    """
    summed = np.sum(grad, axis=axis, keepdims=True)
    scaled = np.negative(summed)
    scaled /= total
    return grad + scaled * exp


def entropy_grad(grad: np.ndarray, axis: int, log_p: np.ndarray, p: np.ndarray,
                 exp: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Gradient of categorical entropy w.r.t. the logits.

    Replays the composed neg/sum/mul/exp/log-softmax backward arithmetic
    op for op so the result is bit-identical to the primitive chain.
    """
    expanded = np.expand_dims(np.negative(grad), axis)
    inner = expanded * p + (expanded * log_p) * p
    return log_softmax_grad(inner, axis, exp, total)


def _entropy_backward_into(logits: Tensor, grad: np.ndarray, axis: int,
                           log_p: np.ndarray, p: np.ndarray,
                           exp: np.ndarray, total: np.ndarray) -> None:
    """Accumulate the categorical-entropy gradient into ``logits``."""
    logits._accumulate(entropy_grad(grad, axis, log_p, p, exp, total))


def categorical_entropy(logits: Tensor, axis: int = -1) -> Tensor:
    """Entropy of the categorical distribution defined by ``logits``."""
    if not FUSED:
        log_p = _composed_log_softmax(logits, axis=axis)
        p = log_p.exp()
        return -(p * log_p).sum(axis=axis)
    logits = Tensor._ensure(logits)
    shifted, exp, total = _softmax_forward(logits.data, axis)
    log_p = shifted - np.log(total)
    return entropy_from_log_softmax(logits, log_p, exp, total, axis=axis)


def entropy_from_log_softmax(logits: Tensor, log_p: np.ndarray,
                             exp: np.ndarray, total: np.ndarray,
                             axis: int = -1) -> Tensor:
    """Categorical entropy reusing an already-computed log-softmax.

    :class:`repro.nn.Categorical` computes log-probabilities once; entropy
    shares the saved ``log_p``/``exp``/``total`` arrays instead of
    re-reducing the logits (the composed path recomputes them to identical
    values, so this is bit-equivalent).
    """
    p = np.exp(log_p)
    value = -np.sum(p * log_p, axis=axis)

    def backward(out: Tensor) -> None:
        _entropy_backward_into(logits, out.grad, axis, log_p, p, exp, total)

    return logits._make_child(value, (logits,), backward)


def mse_loss(prediction: Tensor, target: ArrayLike) -> Tensor:
    """Mean squared error between prediction and a constant target."""
    target_tensor = target if isinstance(target, Tensor) else Tensor(target)
    diff = prediction - target_tensor.detach()
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: ArrayLike, delta: float = 1.0) -> Tensor:
    """Huber (smooth-L1) loss, useful for value-function regression."""
    target_tensor = target if isinstance(target, Tensor) else Tensor(target)
    diff = (prediction - target_tensor.detach()).abs()
    quadratic = diff.minimum(Tensor(delta))
    linear_part = diff - quadratic
    return (quadratic * quadratic * 0.5 + linear_part * delta).mean()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of integer ``targets`` under ``logits``."""
    log_p = log_softmax(logits)
    picked = gather_log_prob(log_p, targets)
    return -(picked.mean())
