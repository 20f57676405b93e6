"""Proximal Policy Optimization: clipped-surrogate policy updates."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.autodiff import Adam
from repro.rl.buffer import RolloutBuffer
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

    def _fused(self) -> FusedPPOLoss:
        """The fused graph-free loss kernel, built on first use."""
        if self._fused_loss is None:
            self._fused_loss = FusedPPOLoss(self.policy, self.config)
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

    def update(self, buffer: RolloutBuffer) -> Dict[str, float]:
        """Run ``update_epochs`` passes of minibatch SGD over the buffer.

        Each minibatch goes through the fused graph-free kernel, whose
        gradients are bit-identical to :func:`repro.autodiff.reference.ppo_loss`.
        """
        config = self.config
        fused = self._fused()
        metrics: Dict[str, list] = {}
        for _ in range(config.update_epochs):
            for batch in buffer.iter_minibatches(config.minibatch_size, rng=self.rng,
                                                 normalize_advantages=config.normalize_advantages):
                self.optimizer.zero_grad()
                batch_metrics = fused.compute(batch, self.entropy_coefficient)
                self.optimizer.clip_grad_norm(config.max_grad_norm)
                self.optimizer.step()
                for key, value in batch_metrics.items():
                    metrics.setdefault(key, []).append(value)
        return {key: float(np.mean(values)) for key, values in metrics.items()}
