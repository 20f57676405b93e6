"""Proximal Policy Optimization: clipped-surrogate policy updates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.autodiff import Adam
from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.nn.compiled import UnsupportedArchitecture
from repro.rl.buffer import RolloutBatch, RolloutBuffer
from repro.rl.fused_loss import FusedPPOLoss
from repro.rl.policy import ActorCriticPolicy


@dataclass
class PPOConfig:
    """PPO hyper-parameters (defaults tuned for the small guessing-game envs)."""

    learning_rate: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_ratio: float = 0.2
    value_coefficient: float = 0.5
    entropy_coefficient: float = 0.01
    entropy_coefficient_final: Optional[float] = None
    update_epochs: int = 4
    minibatch_size: int = 256
    max_grad_norm: float = 0.5
    horizon: int = 256
    num_envs: int = 8
    value_clip: Optional[float] = 0.2
    normalize_advantages: bool = True
    # Policy/optimizer precision.  "float64" (the default) is bit-identical
    # to the reference implementation; "float32" halves memory traffic and
    # roughly doubles BLAS throughput for large sweeps.
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")


class PPOUpdater:
    """Performs PPO updates on an actor-critic policy from a rollout buffer."""

    def __init__(self, policy: ActorCriticPolicy, config: PPOConfig,
                 rng: Optional[np.random.Generator] = None):
        self.policy = policy
        self.config = config
        self.rng = rng or np.random.default_rng(0)
        self.optimizer = Adam(policy.parameters(), lr=config.learning_rate)
        self.entropy_coefficient = config.entropy_coefficient
        self._fused_loss: Optional[FusedPPOLoss] = None
        self._fused_unsupported = False
        # Minibatch updates that went through the fused graph-free kernel
        # (guard tests use this to detect a silent fallback).
        self.fused_minibatches = 0

    def _fused(self) -> Optional[FusedPPOLoss]:
        """The fused graph-free loss kernel, or ``None`` when unavailable.

        Disabled together with the other fast paths by
        :func:`repro.autodiff.functional.composed_ops`.
        """
        if not F.FUSED:
            return None
        if self._fused_loss is None and not self._fused_unsupported:
            try:
                self._fused_loss = FusedPPOLoss(self.policy, self.config)
            except UnsupportedArchitecture:
                self._fused_unsupported = True
        return self._fused_loss

    # ------------------------------------------------------------- state I/O
    def state_dict(self) -> Dict:
        """Optimizer moments/step plus the annealed entropy coefficient."""
        return {"optimizer": self.optimizer.state_dict(),
                "entropy_coefficient": self.entropy_coefficient}

    def load_state_dict(self, state: Dict) -> None:
        self.optimizer.load_state_dict(state["optimizer"])
        self.entropy_coefficient = float(state["entropy_coefficient"])

    def set_progress(self, progress: float) -> None:
        """Anneal the entropy bonus linearly with training progress in [0, 1]."""
        final = self.config.entropy_coefficient_final
        if final is None:
            return
        progress = min(max(progress, 0.0), 1.0)
        start = self.config.entropy_coefficient
        self.entropy_coefficient = start + (final - start) * progress

    def _batch_loss(self, batch: RolloutBatch) -> tuple:
        config = self.config
        if self.policy.dtype != "float64":
            # float32 policies compute the whole loss graph in float32; the
            # rollout buffer stays float64 (GAE precision), cast per batch.
            cast = np.dtype(self.policy.dtype)
            batch = RolloutBatch(
                observations=batch.observations.astype(cast),
                actions=batch.actions,
                old_log_probs=batch.old_log_probs.astype(cast),
                advantages=batch.advantages.astype(cast),
                returns=batch.returns.astype(cast),
                old_values=batch.old_values.astype(cast))
        distribution, values = self.policy.distribution(Tensor(batch.observations))
        log_probs = distribution.log_prob(batch.actions)
        entropy = distribution.entropy().mean()

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
                 - self.entropy_coefficient * entropy)

        with_ratio = ratio.numpy()
        clip_fraction = float(np.mean(np.abs(with_ratio - 1.0) > config.clip_ratio))
        approx_kl = float(np.mean(batch.old_log_probs - log_probs.numpy()))
        return total, {
            "policy_loss": policy_loss.item(),
            "value_loss": value_loss.item(),
            "entropy": entropy.item(),
            "clip_fraction": clip_fraction,
            "approx_kl": approx_kl,
        }

    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """Run ``update_epochs`` passes of minibatch SGD over the buffer.

        Each minibatch goes through the fused graph-free kernel when the
        architecture supports it (bit-identical gradients), otherwise
        through the reference autodiff graph.
        """
        config = self.config
        fused = self._fused()
        metrics: Dict[str, list] = {}
        for _ in range(config.update_epochs):
            for batch in buffer.iter_minibatches(config.minibatch_size, rng=self.rng,
                                                 normalize_advantages=config.normalize_advantages):
                if fused is not None:
                    self.optimizer.zero_grad()
                    batch_metrics = fused.compute(batch, self.entropy_coefficient)
                    self.fused_minibatches += 1
                else:
                    loss, batch_metrics = self._batch_loss(batch)
                    self.optimizer.zero_grad()
                    loss.backward()
                self.optimizer.clip_grad_norm(config.max_grad_norm)
                self.optimizer.step()
                for key, value in batch_metrics.items():
                    metrics.setdefault(key, []).append(value)
        return {key: float(np.mean(values)) for key, values in metrics.items()}
