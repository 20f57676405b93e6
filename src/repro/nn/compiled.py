"""Graph-free compiled forward plans for actor-critic policies.

A :class:`CompiledForward` plan is the policy's one forward pass outside the
reference graph: it flattens the tanh-MLP forward pass into a sequence of
pure-numpy kernel calls that write into preallocated, *shape-keyed* buffers —
no :class:`~repro.autodiff.Tensor` objects, no graph, and no per-call
allocation beyond the small output arrays.  Acting runs on it once per
environment step, and :class:`repro.rl.fused_loss.FusedPPOLoss` runs each
minibatch's forward pass on it, reading the activations and softmax
intermediates the plan leaves in its workspace for the backward pass.

The plan replays exactly the same numpy operations (same op order, same
intermediate values) as the graph, so its outputs — actions, log-probs,
values, and consumed RNG stream — are **bit-identical** to the reference
graph's inference in :mod:`repro.autodiff.reference`, whose functions mirror
this plan's :meth:`~CompiledForward.act`, :meth:`~CompiledForward.value` and
:meth:`~CompiledForward.action_probabilities` (enforced by
``tests/test_compiled_policy.py``).

Plans are built lazily by :meth:`repro.rl.policy.ActorCriticPolicy.compiled`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.determinism import fallback_rng
from repro.nn.layers import MLP, Linear, Sequential, Tanh


def _flatten_feedforward(module) -> List[tuple]:
    """Flatten a tree of Sequential/MLP/Linear/Tanh modules into plan steps."""
    if isinstance(module, Sequential):
        return [step for layer in module for step in _flatten_feedforward(layer)]
    if isinstance(module, MLP):
        return _flatten_feedforward(module.network)
    if isinstance(module, Linear):
        return [("linear", module)]
    if isinstance(module, Tanh):
        return [("tanh", None)]
    raise TypeError(f"no compiled kernel for module {type(module).__name__}")


class _DistributionBuffers:
    """Preallocated buffers for the categorical head at one batch size."""

    def __init__(self, batch: int, num_actions: int, dtype) -> None:
        self.maximum = np.empty((batch, 1), dtype=dtype)
        self.log_probs = np.empty((batch, num_actions), dtype=dtype)
        self.exp = np.empty((batch, num_actions), dtype=dtype)
        self.total = np.empty((batch, 1), dtype=dtype)
        self.log_total = np.empty((batch, 1), dtype=dtype)
        self.cumulative = np.empty((batch, num_actions), dtype=dtype)
        self.above = np.empty((batch, num_actions), dtype=bool)
        self.batch_index = np.arange(batch)


class CompiledForward:
    """Flattened, allocation-free forward plan for one policy network.

    Workspaces are keyed by batch size, so the rollout batch (``num_envs``
    rows), the single-row evaluation batch, and any other recurring shape
    each reuse their own buffers across calls.

    One measured exception: each broadcast bias add (``buffer += bias``)
    makes numpy allocate an iterator buffer of up to 8,192 elements per call
    (numpy 2.4: ~9 KB traced at (8, 128), ~65 KB at (512, 128) and above).
    It is kept because it is the graph path's exact operation, which the
    bit-identity contract pins.
    """

    def __init__(self, policy) -> None:
        self.policy = policy
        self.dtype = policy.policy_head.weight.data.dtype
        self._steps = _flatten_feedforward(policy.feature_extractor)
        self._workspaces: Dict[int, dict] = {}

    # ------------------------------------------------------------- workspaces
    def _workspace(self, batch: int) -> dict:
        ws = self._workspaces.get(batch)
        if ws is None:
            ws = self._allocate(batch)
            self._workspaces[batch] = ws
        return ws

    def _allocate(self, batch: int) -> dict:
        policy = self.policy
        dtype = self.dtype
        # steps[p] holds step p's output: each linear step gets its own
        # buffer, and tanh works in place on its input's buffer.
        steps = []
        for kind, module in self._steps:
            steps.append(np.empty((batch, module.out_features), dtype=dtype)
                         if kind == "linear" else steps[-1])
        return {"steps": steps,
                "logits": np.empty((batch, policy.num_actions), dtype=dtype),
                "values": np.empty((batch, 1), dtype=dtype),
                "dist": _DistributionBuffers(batch, policy.num_actions, dtype)}

    # ---------------------------------------------------------------- forward
    def _features(self, observations: np.ndarray, ws: dict) -> np.ndarray:
        current = observations
        for (kind, module), buffer in zip(self._steps, ws["steps"]):
            if kind == "linear":
                np.matmul(current, module.weight.data, out=buffer)
                buffer += module.bias.data
            else:  # tanh, in place: ``buffer`` is ``current``
                np.tanh(current, out=buffer)
            current = buffer
        return current

    def _heads(self, observations: np.ndarray, ws: dict,
               want_logits: bool = True) -> Tuple[Optional[np.ndarray], np.ndarray]:
        policy = self.policy
        features = self._features(observations, ws)
        values = ws["values"]
        np.matmul(features, policy.value_head.weight.data, out=values)
        values += policy.value_head.bias.data
        if not want_logits:
            return None, values
        logits = ws["logits"]
        np.matmul(features, policy.policy_head.weight.data, out=logits)
        logits += policy.policy_head.bias.data
        return logits, values

    def _log_probs(self, logits: np.ndarray, dist: _DistributionBuffers) -> np.ndarray:
        np.amax(logits, axis=-1, keepdims=True, out=dist.maximum)
        np.subtract(logits, dist.maximum, out=dist.log_probs)
        np.exp(dist.log_probs, out=dist.exp)
        np.sum(dist.exp, axis=-1, keepdims=True, out=dist.total)
        np.log(dist.total, out=dist.log_total)
        dist.log_probs -= dist.log_total
        return dist.log_probs

    # -------------------------------------------------------------- inference
    def act(self, observations: np.ndarray,
            rng: Optional[np.random.Generator] = None,
            deterministic: bool = False) -> tuple:
        """(actions, log_probs, values) — bit-identical to the reference graph."""
        ws = self._workspace(observations.shape[0])
        logits, values = self._heads(observations, ws)
        dist = ws["dist"]
        log_probs = self._log_probs(logits, dist)
        if deterministic:
            actions = np.argmax(log_probs, axis=-1).astype(np.int64)
        else:
            rng = rng if rng is not None else fallback_rng()
            np.exp(log_probs, out=dist.exp)
            np.cumsum(dist.exp, axis=-1, out=dist.cumulative)
            dist.cumulative[..., -1] = 1.0
            draws = rng.random(size=(observations.shape[0], 1))
            np.greater(draws, dist.cumulative, out=dist.above)
            actions = dist.above.sum(axis=-1).astype(np.int64)
        picked = log_probs[(dist.batch_index, actions)]
        return actions, picked, values.reshape(-1).copy()

    def value(self, observations: np.ndarray) -> np.ndarray:
        """State values only (the policy head is skipped)."""
        ws = self._workspace(observations.shape[0])
        _, values = self._heads(observations, ws, want_logits=False)
        return values.reshape(-1).copy()

    def action_probabilities(self, observations: np.ndarray) -> np.ndarray:
        """Action probabilities for a batch; returns a fresh array."""
        ws = self._workspace(observations.shape[0])
        logits, _ = self._heads(observations, ws)
        dist = ws["dist"]
        log_probs = self._log_probs(logits, dist)
        return np.exp(log_probs)
