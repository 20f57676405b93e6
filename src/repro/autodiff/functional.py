"""Functional helpers built on :class:`repro.autodiff.Tensor`.

The categorical-policy ops of the reference graph: log-softmax, the
log-probability of taken actions and categorical entropy, each a chain of
:class:`~repro.autodiff.Tensor` primitives over a trailing "class"
dimension.  Only the reference policy graph
(:mod:`repro.autodiff.reference`) builds them; it is the oracle that the
compiled inference plan (:class:`repro.nn.compiled.CompiledForward`) and the
fused PPO minibatch kernel (:class:`repro.rl.fused_loss.FusedPPOLoss`) are
bit-compared against.

:func:`log_softmax_grad` and :func:`entropy_grad` are the fused kernel's
backward formulas: they replay the composed chains' backward arithmetic op
for op on saved numpy intermediates.
"""

from __future__ import annotations

import numpy as np

from repro.autodiff.tensor import Tensor


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
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


def categorical_entropy(logits: Tensor, axis: int = -1) -> Tensor:
    """Entropy of the categorical distribution defined by ``logits``."""
    log_p = log_softmax(logits, axis=axis)
    p = log_p.exp()
    return -(p * log_p).sum(axis=axis)


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
