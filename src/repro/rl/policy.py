"""Actor-critic policy networks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.autodiff import default_dtype, no_grad
from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.nn import MLP, Categorical, Linear, Module, Sequential, Tanh
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
    routes through a graph-free :class:`~repro.nn.compiled.CompiledForward`
    plan — bit-identical to the graph path, several times faster.
    :func:`repro.autodiff.functional.composed_ops` turns it off.
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
        self._compiled_calls = 0

    # ------------------------------------------------------------- compiled
    @property
    def compiled(self) -> Optional[CompiledForward]:
        """The graph-free forward plan, or ``None`` inside ``composed_ops()``."""
        if not F.FUSED:
            return None
        if self._compiled is None:
            self._compiled = CompiledForward(self)
        return self._compiled

    @property
    def compiled_call_count(self) -> int:
        """How many inference calls took the compiled fast path (guard metric)."""
        return self._compiled_calls

    def __getstate__(self) -> dict:
        # Compiled workspaces are cheap to rebuild; keep pickles lean.
        state = self.__dict__.copy()
        state["_compiled"] = None
        return state

    # ----------------------------------------------------------------- graph
    def forward(self, observations: Tensor) -> tuple:
        """Return (logits, values) with gradients attached."""
        features = self.feature_extractor(observations)
        logits = self.policy_head(features)
        values = self.value_head(features).reshape(-1)
        return logits, values

    def distribution(self, observations: Tensor) -> tuple:
        logits, values = self.forward(observations)
        return Categorical(logits), values

    # ----------------------------------------------------------------- acting
    def _prepare(self, observations: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(observations, dtype=self._np_dtype))

    def act(self, observations: np.ndarray, rng: Optional[np.random.Generator] = None,
            deterministic: bool = False) -> PolicyOutput:
        """Sample (or argmax) actions for a batch of observations, without a graph."""
        observations = self._prepare(observations)
        plan = self.compiled
        if plan is not None:
            self._compiled_calls += 1
            actions, log_probs, values = plan.act(observations, rng=rng,
                                                  deterministic=deterministic)
            return PolicyOutput(actions=actions, log_probs=log_probs, values=values)
        return self._act_graph(observations, rng=rng, deterministic=deterministic)

    def _act_graph(self, observations: np.ndarray,
                   rng: Optional[np.random.Generator] = None,
                   deterministic: bool = False) -> PolicyOutput:
        """Reference graph-based acting (parity baseline for the compiled plan)."""
        observations = self._prepare(observations)
        with no_grad():
            distribution, values = self.distribution(Tensor(observations))
            if deterministic:
                actions = distribution.mode()
            else:
                actions = distribution.sample(rng=rng)
            log_probs = distribution.log_prob(actions).numpy()
        return PolicyOutput(actions=actions, log_probs=np.asarray(log_probs),
                            values=values.numpy().copy())

    def value(self, observations: np.ndarray) -> np.ndarray:
        observations = self._prepare(observations)
        plan = self.compiled
        if plan is not None:
            self._compiled_calls += 1
            return plan.value(observations)
        with no_grad():
            _, values = self.forward(Tensor(observations))
        return values.numpy().copy()

    def action_probabilities(self, observation: np.ndarray) -> np.ndarray:
        """Probability of each action for a single observation (analysis helper)."""
        observation = self._prepare(observation)
        plan = self.compiled
        if plan is not None:
            self._compiled_calls += 1
            return plan.action_probabilities(observation)[0]
        with no_grad():
            distribution, _ = self.distribution(Tensor(observation))
        return distribution.probs[0]
