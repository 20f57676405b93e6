"""Actor-critic policy networks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.autodiff import default_dtype
from repro.nn import MLP, Linear, Module, Sequential, Tanh
from repro.nn.compiled import CompiledForward


@dataclass
class PolicyOutput:
    """Result of acting on a batch of observations (numpy, no graph attached)."""

    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray


class ActorCriticPolicy(Module):
    """Shared-backbone actor-critic over flat window observations.

    The backbone is a tanh MLP whose last hidden layer (``hidden_sizes[-1]``
    wide) feeds both the policy and the value head.

    ``dtype`` selects the parameter/compute precision.  The default
    ``"float64"`` keeps bit-parity with the reference implementation;
    ``"float32"`` halves memory traffic and roughly doubles BLAS throughput
    (useful for large sweeps, plumbed through ``PPOConfig.dtype``).

    Inference (:meth:`act`, :meth:`value`, :meth:`action_probabilities`)
    runs on the graph-free :class:`~repro.nn.compiled.CompiledForward` plan.
    The same network wired as an autodiff graph, which the plan is
    bit-identical to, is :mod:`repro.autodiff.reference`.
    """

    def __init__(self, observation_size: int, num_actions: int,
                 hidden_sizes: Sequence[int] = (128, 128),
                 rng: Optional[np.random.Generator] = None,
                 dtype: str = "float64"):
        super().__init__()
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {dtype!r}")
        self.observation_size = observation_size
        self.num_actions = num_actions
        self.hidden_sizes = tuple(hidden_sizes)
        self.dtype = dtype
        self._np_dtype = np.dtype(dtype)
        rng = rng or np.random.default_rng(0)
        with default_dtype(self._np_dtype):
            feature_dim = hidden_sizes[-1]
            self.feature_extractor = Sequential(
                MLP(observation_size, hidden_sizes[:-1], feature_dim, rng=rng), Tanh())
            self.policy_head = Linear(feature_dim, num_actions, gain=0.01, rng=rng)
            self.value_head = Linear(feature_dim, 1, gain=1.0, rng=rng)
        self._compiled: Optional[CompiledForward] = None

    @property
    def compiled(self) -> CompiledForward:
        """The graph-free forward plan, built on first use."""
        if self._compiled is None:
            self._compiled = CompiledForward(self)
        return self._compiled

    def __getstate__(self) -> dict:
        # Compiled workspaces are cheap to rebuild; keep pickles lean.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # ----------------------------------------------------------------- acting
    def _prepare(self, observations: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(observations, dtype=self._np_dtype))

    def act(self, observations: np.ndarray, rng: Optional[np.random.Generator] = None,
            deterministic: bool = False) -> PolicyOutput:
        """Sample (or argmax) actions for a batch of observations."""
        actions, log_probs, values = self.compiled.act(
            self._prepare(observations), rng=rng, deterministic=deterministic)
        return PolicyOutput(actions=actions, log_probs=log_probs, values=values)

    def value(self, observations: np.ndarray) -> np.ndarray:
        return self.compiled.value(self._prepare(observations))

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """Probability of each action for a single observation (analysis helper)."""
        return self.compiled.action_probabilities(self._prepare(observation))[0]
