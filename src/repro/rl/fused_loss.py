"""Graph-free fused PPO minibatch kernel.

Every PPO minibatch update runs here.  The reference is
:func:`repro.autodiff.reference.ppo_loss`: a reverse-mode graph of ~40
Tensor nodes per minibatch.  This module computes the same loss and the same
parameter gradients with no Tensor objects and no graph: the forward pass is
the policy's own :class:`~repro.nn.compiled.CompiledForward` plan, and the
backward pass is a hand-written, fixed sequence of numpy kernels.  Every large
``(batch, features)`` activation/gradient/distribution intermediate lives in
a preallocated, shape-keyed workspace (the plan's or this kernel's).  (Small
``(batch,)`` temporaries in the surrogate/value chains and
``(batch, actions)`` ones in the shared log-softmax/entropy gradient helpers
are still allocated per call — they are a negligible fraction of the work.)

**Bit-parity contract.** Every backward formula below replays the exact
elementwise op order the composed graph would execute, and joins (tensors
consumed by two downstream ops) are plain additions, which are commutative in
IEEE-754 — so the gradients, the optimizer steps, and therefore whole
training runs are bit-identical to the reference graph.  This is enforced by
``tests/test_compiled_policy.py`` (fused-vs-graph update and training-history
equality).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.autodiff.functional import entropy_grad, log_softmax_grad
from repro.rl.buffer import RolloutBatch


def _grad_out(parameter) -> np.ndarray:
    """The array to write ``parameter``'s gradient into, set as its ``.grad``.

    That is the parameter's view into the flat gradient buffer of the
    updater's optimizer.  Mirrors ``Tensor._accumulate`` for the
    single-contribution case.
    """
    parameter.grad = parameter._grad_view
    return parameter.grad


class FusedPPOLoss:
    """Fused forward+backward PPO loss for the policy's flattened tanh MLP."""

    def __init__(self, policy, config):
        self.policy = policy
        self.config = config
        # The policy's own plan runs the forward pass, and its workspace
        # holds every activation the backward pass reads.  The MLP opens
        # with a linear layer, where the backward pass stops (observations
        # need no gradient).
        self.plan = policy.compiled
        self.dtype = self.plan.dtype
        self._workspaces: Dict[int, dict] = {}
        self._one = np.ones((), dtype=self.dtype)

    # ------------------------------------------------------------- workspace
    def _workspace(self, batch: int) -> dict:
        ws = self._workspaces.get(batch)
        if ws is None:
            dtype = self.dtype
            policy = self.policy
            # grads[p] is the gradient w.r.t. step p's *input* (so a step
            # never writes into the buffer it is still reading the
            # downstream gradient from).  Step 0 never propagates a gradient
            # to the observations, so it needs no input-gradient buffer.
            ws = {"grads": []}
            width = policy.observation_size
            for position, (kind, module) in enumerate(self.plan._steps):
                ws["grads"].append(None if position == 0 else
                                   np.empty((batch, width), dtype=dtype))
                if kind == "linear":
                    width = module.out_features
            actions = policy.num_actions
            for name, shape in (("logits_grad", (batch, actions)),
                                ("probs", (batch, actions)),
                                ("prod", (batch, actions)),
                                ("scatter", (batch, actions)),
                                ("features_grad", (batch, width))):
                ws[name] = np.empty(shape, dtype=dtype)
            ws["obs"] = None
            # Comparison against the rollout buffer's native float64, not a
            # cast: float64 policies reuse the buffer's arrays as-is.
            if self.dtype != np.dtype(np.float64):  # repro-lint: disable=dtype.literal
                ws["obs"] = np.empty((batch, policy.observation_size), dtype=dtype)
            self._workspaces[batch] = ws
        return ws

    # ---------------------------------------------------------- forward+back
    def compute(self, batch: RolloutBatch, entropy_coefficient: float) -> Dict[str, float]:
        """Fill every parameter's ``.grad`` and return the loss metrics.

        Equivalent to ``loss, metrics = reference.ppo_loss(policy, batch,
        config, entropy_coefficient); loss.backward()``, bit for bit.
        """
        config = self.config
        policy = self.policy
        plan = self.plan
        count = batch.observations.shape[0]
        ws = self._workspace(count)
        dtype = self.dtype

        observations = batch.observations
        old_log_probs = batch.old_log_probs
        advantages = batch.advantages
        returns = batch.returns
        old_values = batch.old_values
        if ws["obs"] is not None:
            # float32 policy: cast the float64 rollout batch once per minibatch.
            np.copyto(ws["obs"], observations)
            observations = ws["obs"]
            old_log_probs = old_log_probs.astype(dtype)
            advantages = advantages.astype(dtype)
            returns = returns.astype(dtype)
            old_values = old_values.astype(dtype)

        # ---------------------------------------------------------- forward
        # outputs[p] is step p's output; dist keeps exp/total for backward.
        forward = plan._workspace(count)
        logits, values2d = plan._heads(observations, forward)
        values = values2d.reshape(-1)
        dist = forward["dist"]
        log_probs_all = plan._log_probs(logits, dist)
        outputs = forward["steps"]
        features = outputs[-1]
        picked = log_probs_all[(dist.batch_index, batch.actions)]

        # entropy
        np.exp(log_probs_all, out=ws["probs"])
        np.multiply(ws["probs"], log_probs_all, out=ws["prod"])
        entropy_vector = -np.sum(ws["prod"], axis=-1)
        entropy_mean = entropy_vector.mean()

        # clipped surrogate
        ratio = np.exp(picked - old_log_probs)
        low, high = 1.0 - config.clip_ratio, 1.0 + config.clip_ratio
        clip_mask = ((ratio >= low) & (ratio <= high)).astype(dtype)
        clipped_ratio = np.clip(ratio, low, high)
        unclipped = ratio * advantages
        clipped = clipped_ratio * advantages
        take_unclipped = (unclipped <= clipped).astype(dtype)
        surrogate = np.minimum(unclipped, clipped)
        policy_loss = -(surrogate.mean())

        # value loss
        value_difference = values - returns
        squared_unclipped = value_difference * value_difference
        if config.value_clip is not None:
            delta = values - old_values
            delta_mask = ((delta >= -config.value_clip)
                          & (delta <= config.value_clip)).astype(dtype)
            clipped_values = old_values + np.clip(delta, -config.value_clip,
                                                  config.value_clip)
            clipped_difference = clipped_values - returns
            squared_clipped = clipped_difference * clipped_difference
            take_squared = (squared_unclipped >= squared_clipped).astype(dtype)
            value_loss = np.maximum(squared_unclipped, squared_clipped).mean() * 0.5
        else:
            value_loss = squared_unclipped.mean() * 0.5

        # --------------------------------------------------------- backward
        # total = policy_loss + vc * value_loss - ec * entropy; d_total = 1.
        one = self._one
        coefficient = np.asarray(entropy_coefficient, dtype=dtype)
        grad_entropy = np.negative(one) * coefficient
        grad_entropy_vector = np.broadcast_to(grad_entropy / count,
                                              entropy_vector.shape)
        logits_grad = ws["logits_grad"]
        np.copyto(logits_grad, entropy_grad(grad_entropy_vector, -1,
                                            log_probs_all, ws["probs"],
                                            dist.exp, dist.total))

        # policy-loss branch -> ratio -> picked log-probs -> logits
        grad_surrogate = np.broadcast_to(np.negative(one) / count, surrogate.shape)
        grad_unclipped = grad_surrogate * take_unclipped
        grad_clipped = grad_surrogate * (1.0 - take_unclipped)
        grad_ratio = grad_unclipped * advantages + (grad_clipped * advantages) * clip_mask
        grad_picked = grad_ratio * ratio
        scatter = ws["scatter"]
        scatter[...] = 0.0
        np.add.at(scatter, (dist.batch_index, batch.actions), grad_picked)
        logits_grad += log_softmax_grad(scatter, -1, dist.exp, dist.total)

        # value-loss branch -> values
        value_coefficient = np.asarray(config.value_coefficient, dtype=dtype)
        half = np.asarray(0.5, dtype=dtype)
        grad_value_mean = (one * value_coefficient) * half
        if config.value_clip is not None:
            grad_max = np.broadcast_to(grad_value_mean / count, values.shape)
            grad_squared_unclipped = grad_max * take_squared
            grad_squared_clipped = grad_max * (1.0 - take_squared)
            grad_values = ((grad_squared_unclipped * 2) * value_difference
                           + ((grad_squared_clipped * 2) * clipped_difference)
                           * delta_mask)
        else:
            grad_mean = np.broadcast_to(grad_value_mean / count, values.shape)
            grad_values = (grad_mean * 2) * value_difference

        # heads -> features
        head_w = policy.policy_head.weight
        head_b = policy.policy_head.bias
        value_w = policy.value_head.weight
        value_b = policy.value_head.bias
        grad_values2d = grad_values.reshape(count, 1)
        features_grad = ws["features_grad"]
        np.matmul(logits_grad, head_w.data.T, out=features_grad)
        # The value head's share goes through the trailing tanh's input-grad
        # buffer, (batch, width) and unused until the backbone pass below.
        value_share = ws["grads"][-1]
        np.matmul(grad_values2d, value_w.data.T, out=value_share)
        features_grad += value_share
        np.matmul(features.T, logits_grad, out=_grad_out(head_w))
        np.sum(logits_grad, axis=0, out=_grad_out(head_b))
        np.matmul(features.T, grad_values2d, out=_grad_out(value_w))
        np.sum(grad_values2d, axis=0, out=_grad_out(value_b))

        # backbone, in reverse
        grad_current = features_grad
        for position in range(len(plan._steps) - 1, -1, -1):
            kind, module = plan._steps[position]
            below = outputs[position - 1] if position > 0 else observations
            target = ws["grads"][position]
            if kind == "tanh":
                value = outputs[position]
                np.multiply(value, value, out=target)
                np.subtract(1.0, target, out=target)
                target *= grad_current
                grad_current = target
            else:  # linear
                np.matmul(below.T, grad_current, out=_grad_out(module.weight))
                np.sum(grad_current, axis=0, out=_grad_out(module.bias))
                if position > 0:
                    np.matmul(grad_current, module.weight.data.T, out=target)
                    grad_current = target

        # ---------------------------------------------------------- metrics
        clip_fraction = float(np.mean(np.abs(ratio - 1.0) > config.clip_ratio))
        approx_kl = float(np.mean(old_log_probs - picked))
        return {
            "policy_loss": float(policy_loss),
            "value_loss": float(value_loss),
            "entropy": float(entropy_mean),
            "clip_fraction": clip_fraction,
            "approx_kl": approx_kl,
        }
