"""Actor-critic policy networks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.autodiff import default_dtype, no_grad
from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.nn import MLP, Categorical, Linear, Module, SelfAttentionEncoder, Sequential, Tanh
from repro.nn.compiled import CompiledForward, UnsupportedArchitecture


@dataclass
class PolicyOutput:
    """Result of acting on a batch of observations (numpy, no graph attached)."""

    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray


class ActorCriticPolicy(Module):
    """Shared-backbone actor-critic over flat window observations.

    ``backbone`` selects between the default MLP and the attention encoder
    standing in for the paper's Transformer (both operate on the same
    windowed observation; the attention variant reshapes it to
    (window, features)).

    ``dtype`` selects the parameter/compute precision.  The default
    ``"float64"`` keeps bit-parity with the reference implementation;
    ``"float32"`` halves memory traffic and roughly doubles BLAS throughput
    (useful for large sweeps, plumbed through ``PPOConfig.dtype``).

    Inference (:meth:`act`, :meth:`value`, :meth:`action_probabilities`)
    routes through a graph-free :class:`~repro.nn.compiled.CompiledForward`
    plan when one exists for the architecture — bit-identical to the graph
    path, several times faster.  :func:`repro.autodiff.functional.composed_ops`
    turns it off.
    """

    def __init__(self, observation_size: int, num_actions: int,
                 hidden_sizes: Sequence[int] = (128, 128), backbone: str = "mlp",
                 window_shape: Optional[tuple] = None,
                 rng: Optional[np.random.Generator] = None,
                 dtype: str = "float64"):
        super().__init__()
        if dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {dtype!r}")
        self.observation_size = observation_size
        self.num_actions = num_actions
        self.backbone_kind = backbone
        self.hidden_sizes = tuple(hidden_sizes)
        self.window_shape = window_shape
        self.dtype = dtype
        self._np_dtype = np.dtype(dtype)
        rng = rng or np.random.default_rng(0)
        with default_dtype(self._np_dtype):
            if backbone == "mlp":
                feature_dim = hidden_sizes[-1]
                self.feature_extractor = Sequential(
                    MLP(observation_size, hidden_sizes[:-1], feature_dim, rng=rng), Tanh())
            elif backbone == "attention":
                if window_shape is None:
                    raise ValueError("attention backbone requires window_shape=(window, features)")
                feature_dim = hidden_sizes[-1]
                self.feature_extractor = SelfAttentionEncoder(window_shape[1],
                                                              model_dim=feature_dim,
                                                              rng=rng)
            else:
                raise ValueError(f"unknown backbone {backbone!r}")
            self.policy_head = Linear(feature_dim, num_actions, gain=0.01, rng=rng)
            self.value_head = Linear(feature_dim, 1, gain=1.0, rng=rng)
        self._compiled: Optional[CompiledForward] = None
        self._compiled_unsupported = False
        self._compiled_calls = 0

    # ------------------------------------------------------------- compiled
    @property
    def compiled(self) -> Optional[CompiledForward]:
        """The graph-free forward plan, or ``None`` when disabled/unsupported."""
        if not F.FUSED:
            return None
        if self._compiled is None and not self._compiled_unsupported:
            try:
                self._compiled = CompiledForward(self)
            except UnsupportedArchitecture:
                self._compiled_unsupported = True
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
    def _features(self, observations: Tensor) -> Tensor:
        if self.backbone_kind == "attention":
            batch = observations.shape[0]
            window, features = self.window_shape
            observations = observations.reshape(batch, window, features)
        return self.feature_extractor(observations)

    def forward(self, observations: Tensor) -> tuple:
        """Return (logits, values) with gradients attached."""
        features = self._features(observations)
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
