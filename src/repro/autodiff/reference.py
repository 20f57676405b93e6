"""The actor-critic policy wired as a reverse-mode autodiff graph.

This is the parity oracle of the graph-free kernels, and nothing in a
training or inference run calls it.  Each function takes an
:class:`~repro.rl.policy.ActorCriticPolicy` and builds the policy's forward
pass out of :class:`~repro.autodiff.Tensor` primitives:

* :func:`act`, :func:`value` and :func:`action_probabilities` mirror the
  :class:`~repro.nn.compiled.CompiledForward` methods of the same name
  (raw observations in, numpy arrays out);
* :func:`ppo_loss` builds the clipped-surrogate PPO loss of one minibatch,
  whose ``backward()`` fills the same parameter gradients that
  :meth:`repro.rl.fused_loss.FusedPPOLoss.compute` writes.

The compiled plan and the fused kernel are bit-identical to these functions
(``tests/test_compiled_policy.py``), so the graph derives every gradient
mechanically from primitives that each have a gradcheck.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor, no_grad
from repro.nn.distributions import Categorical

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.rl.buffer import RolloutBatch
    from repro.rl.policy import ActorCriticPolicy
    from repro.rl.ppo import PPOConfig


def _observations(policy: "ActorCriticPolicy", observations: np.ndarray) -> Tensor:
    return Tensor(policy._prepare(observations))


def forward(policy: "ActorCriticPolicy", observations: Tensor) -> Tuple[Tensor, Tensor]:
    """Return (logits, values) with gradients attached."""
    features = policy.feature_extractor(observations)
    logits = policy.policy_head(features)
    values = policy.value_head(features).reshape(-1)
    return logits, values


def distribution(policy: "ActorCriticPolicy",
                 observations: Tensor) -> Tuple[Categorical, Tensor]:
    logits, values = forward(policy, observations)
    return Categorical(logits), values


def act(policy: "ActorCriticPolicy", observations: np.ndarray,
        rng: Optional[np.random.Generator] = None,
        deterministic: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(actions, log_probs, values): sampled, or argmax when ``deterministic``."""
    with no_grad():
        dist, values = distribution(policy, _observations(policy, observations))
        actions = dist.mode() if deterministic else dist.sample(rng=rng)
        log_probs = dist.log_prob(actions).numpy()
    return actions, np.asarray(log_probs), values.numpy().copy()


def value(policy: "ActorCriticPolicy", observations: np.ndarray) -> np.ndarray:
    with no_grad():
        _, values = forward(policy, _observations(policy, observations))
    return values.numpy().copy()


def action_probabilities(policy: "ActorCriticPolicy",
                         observations: np.ndarray) -> np.ndarray:
    """Action probabilities, one row per observation."""
    with no_grad():
        dist, _ = distribution(policy, _observations(policy, observations))
    return dist.probs


def ppo_loss(policy: "ActorCriticPolicy", batch: "RolloutBatch", config: "PPOConfig",
             entropy_coefficient: float) -> Tuple[Tensor, Dict[str, float]]:
    """The minibatch's total PPO loss as a graph, and its metrics."""
    if policy.dtype != "float64":
        # float32 policies compute the per-sample graph in float32; the
        # rollout buffer stays float64 (GAE precision), cast per batch.
        # Every full reduction's numpy scalar is lifted to float64 by
        # ``tensor._as_array``, so the scalar tail, from the entropy and
        # policy-loss means onwards, and the loss itself are float64.  The
        # fused kernel matches this bit for bit; making the tail float32
        # re-baselines float32 training bits (ROADMAP item 4).
        cast = np.dtype(policy.dtype)
        batch = dataclasses.replace(
            batch,
            observations=batch.observations.astype(cast),
            old_log_probs=batch.old_log_probs.astype(cast),
            advantages=batch.advantages.astype(cast),
            returns=batch.returns.astype(cast),
            old_values=batch.old_values.astype(cast))
    dist, values = distribution(policy, Tensor(batch.observations))
    log_probs = dist.log_prob(batch.actions)
    entropy = dist.entropy().mean()

    ratio = (log_probs - batch.old_log_probs).exp()
    advantages = Tensor(batch.advantages)
    unclipped = ratio * advantages
    clipped = ratio.clip(1.0 - config.clip_ratio, 1.0 + config.clip_ratio) * advantages
    policy_loss = -(unclipped.minimum(clipped).mean())

    returns = Tensor(batch.returns)
    if config.value_clip is not None:
        old_values = Tensor(batch.old_values)
        clipped_values = old_values + (values - old_values).clip(
            -config.value_clip, config.value_clip)
        loss_unclipped = (values - returns) ** 2
        loss_clipped = (clipped_values - returns) ** 2
        value_loss = loss_unclipped.maximum(loss_clipped).mean() * 0.5
    else:
        value_loss = ((values - returns) ** 2).mean() * 0.5

    total = (policy_loss + config.value_coefficient * value_loss
             - entropy_coefficient * entropy)

    clip_fraction = float(np.mean(np.abs(ratio.numpy() - 1.0) > config.clip_ratio))
    approx_kl = float(np.mean(batch.old_log_probs - log_probs.numpy()))
    return total, {
        "policy_loss": policy_loss.item(),
        "value_loss": value_loss.item(),
        "entropy": entropy.item(),
        "clip_fraction": clip_fraction,
        "approx_kl": approx_kl,
    }
