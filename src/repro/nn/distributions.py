"""Probability distributions used by the policy head."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.determinism import fallback_rng


class Categorical:
    """Categorical distribution over discrete actions defined by logits.

    ``logits`` has shape (batch, num_actions).  Sampling uses numpy (no
    gradient flows through sampling); ``log_prob`` and ``entropy`` are
    differentiable so they can appear in the PPO loss.  ``entropy()`` builds
    its own log-softmax chain from the logits, as the fused PPO kernel's
    backward pass assumes (its two log-softmax gradients meet at the logits).
    """

    def __init__(self, logits: Tensor):
        self.logits = logits
        self._log_probs = F.log_softmax(logits, axis=-1)

    @property
    def probs(self) -> np.ndarray:
        return np.exp(self._log_probs.data)

    def sample(self, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        rng = rng if rng is not None else fallback_rng()
        probabilities = self.probs
        cumulative = probabilities.cumsum(axis=-1)
        cumulative[..., -1] = 1.0
        draws = rng.random(size=probabilities.shape[:-1] + (1,))
        return (draws > cumulative).sum(axis=-1).astype(np.int64)

    def mode(self) -> np.ndarray:
        """Most likely action, used for deterministic replay/extraction."""
        return np.argmax(self._log_probs.data, axis=-1).astype(np.int64)

    def log_prob(self, actions: np.ndarray) -> Tensor:
        return F.gather_log_prob(self._log_probs, actions)

    def entropy(self) -> Tensor:
        return F.categorical_entropy(self.logits, axis=-1)
