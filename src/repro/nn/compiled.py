"""Graph-free compiled inference plans for actor-critic policies.

``ActorCriticPolicy.act()`` is called once per environment step during
rollouts; the reverse-mode graph it builds is thrown away immediately because
acting never needs gradients.  A :class:`CompiledForward` plan removes that
overhead: for a fixed architecture it flattens the forward pass into a
sequence of pure-numpy kernel calls that write into preallocated,
*shape-keyed* buffers — no :class:`~repro.autodiff.Tensor` objects, no graph,
and no per-call allocation beyond the small output arrays.

The plan replays exactly the same numpy operations (same op order, same
intermediate values) as the graph path, so its outputs — actions, log-probs,
values, and consumed RNG stream — are **bit-identical** to
``Tensor``-based inference (enforced by ``tests/test_compiled_policy.py``).

Plans are built lazily by :meth:`repro.rl.policy.ActorCriticPolicy.compiled`
for the MLP and single-block attention backbones; unknown module compositions
raise :class:`UnsupportedArchitecture` and the policy silently keeps the
graph path.  Inside :func:`repro.autodiff.functional.composed_ops` the policy
also keeps the graph path (the reference used for parity testing and legacy
benchmarking).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.determinism import fallback_rng


class UnsupportedArchitecture(Exception):
    """The policy's module tree has no compiled plan; use the graph path."""


def _flatten_feedforward(module) -> List[tuple]:
    """Flatten a tree of Sequential/MLP/Linear/activation/LayerNorm modules."""
    from repro.nn.layers import (MLP, LayerNorm, Linear, ReLU, Sequential,
                                 Sigmoid, Tanh)

    steps: List[tuple] = []
    if isinstance(module, Sequential):
        for layer in module:
            steps.extend(_flatten_feedforward(layer))
    elif isinstance(module, MLP):
        steps.extend(_flatten_feedforward(module.network))
    elif isinstance(module, Linear):
        steps.append(("linear", module))
    elif isinstance(module, Tanh):
        steps.append(("tanh", None))
    elif isinstance(module, ReLU):
        steps.append(("relu", None))
    elif isinstance(module, Sigmoid):
        steps.append(("sigmoid", None))
    elif isinstance(module, LayerNorm):
        steps.append(("layernorm", module))
    else:
        raise UnsupportedArchitecture(
            f"no compiled kernel for module {type(module).__name__}")
    return steps


class _LayerNormBuffers:
    """Preallocated intermediates for one LayerNorm call at one shape."""

    def __init__(self, shape: tuple, dtype) -> None:
        self.mean = np.empty(shape[:-1] + (1,), dtype=dtype)
        self.centered = np.empty(shape, dtype=dtype)
        self.squared = np.empty(shape, dtype=dtype)
        self.variance = np.empty(shape[:-1] + (1,), dtype=dtype)


def _layernorm_into(module, x: np.ndarray, out: np.ndarray,
                    buffers: _LayerNormBuffers) -> None:
    """LayerNorm with the exact op order of the graph implementation."""
    np.mean(x, axis=-1, keepdims=True, out=buffers.mean)
    np.subtract(x, buffers.mean, out=buffers.centered)
    np.multiply(buffers.centered, buffers.centered, out=buffers.squared)
    np.mean(buffers.squared, axis=-1, keepdims=True, out=buffers.variance)
    buffers.variance += module.eps
    np.power(buffers.variance, 0.5, out=buffers.variance)
    np.divide(buffers.centered, buffers.variance, out=out)
    out *= module.gamma.data
    out += module.beta.data


class _DistributionBuffers:
    """Preallocated buffers for the categorical head at one batch size."""

    def __init__(self, batch: int, num_actions: int, dtype) -> None:
        self.maximum = np.empty((batch, 1), dtype=dtype)
        self.log_probs = np.empty((batch, num_actions), dtype=dtype)
        self.exp = np.empty((batch, num_actions), dtype=dtype)
        self.total = np.empty((batch, 1), dtype=dtype)
        self.cumulative = np.empty((batch, num_actions), dtype=dtype)
        self.above = np.empty((batch, num_actions), dtype=bool)
        self.batch_index = np.arange(batch)


class CompiledForward:
    """Flattened, allocation-free forward plan for one policy network.

    Workspaces are keyed by batch size, so the rollout batch (``num_envs``
    rows), the single-row evaluation batch, and any other recurring shape
    each reuse their own buffers across calls.
    """

    def __init__(self, policy) -> None:
        from repro.nn.attention import SelfAttentionEncoder

        self.policy = policy
        self.dtype = policy.policy_head.weight.data.dtype
        extractor = policy.feature_extractor
        if isinstance(extractor, SelfAttentionEncoder):
            self._attention = extractor
            self._steps: Optional[List[tuple]] = None
        else:
            self._attention = None
            self._steps = _flatten_feedforward(extractor)
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
        ws: dict = {}
        if self._attention is not None:
            enc = self._attention
            window, features = policy.window_shape
            model = enc.model_dim
            ff_dim = enc.feed_forward._layers[0].out_features
            seq = (batch, window, model)
            ws["hidden"] = np.empty(seq, dtype=dtype)
            ws["query"] = np.empty(seq, dtype=dtype)
            ws["key"] = np.empty(seq, dtype=dtype)
            ws["value"] = np.empty(seq, dtype=dtype)
            ws["scores"] = np.empty((batch, window, window), dtype=dtype)
            ws["scores_max"] = np.empty((batch, window, 1), dtype=dtype)
            ws["scores_sum"] = np.empty((batch, window, 1), dtype=dtype)
            ws["attended"] = np.empty(seq, dtype=dtype)
            ws["normed"] = np.empty(seq, dtype=dtype)
            ws["ff_hidden"] = np.empty((batch, window, ff_dim), dtype=dtype)
            ws["ff_mask"] = np.empty((batch, window, ff_dim), dtype=bool)
            ws["ff_out"] = np.empty(seq, dtype=dtype)
            ws["encoded"] = np.empty(seq, dtype=dtype)
            ws["ln"] = _LayerNormBuffers(seq, dtype)
            ws["features"] = np.empty((batch, model), dtype=dtype)
            feature_dim = model
        else:
            buffers = []
            width = policy.observation_size
            for kind, module in self._steps:
                if kind == "linear":
                    width = module.out_features
                    buffers.append(np.empty((batch, width), dtype=dtype))
                elif kind == "layernorm":
                    buffers.append(_LayerNormBuffers((batch, width), dtype))
                else:
                    buffers.append(None)
            ws["steps"] = buffers
            feature_dim = width
        ws["logits"] = np.empty((batch, policy.num_actions), dtype=dtype)
        ws["values"] = np.empty((batch, 1), dtype=dtype)
        ws["dist"] = _DistributionBuffers(batch, policy.num_actions, dtype)
        ws["feature_dim"] = feature_dim
        return ws

    # ---------------------------------------------------------------- forward
    def _features(self, observations: np.ndarray, ws: dict) -> np.ndarray:
        if self._attention is not None:
            return self._attention_features(observations, ws)
        current = observations
        for (kind, module), buffer in zip(self._steps, ws["steps"]):
            if kind == "linear":
                np.matmul(current, module.weight.data, out=buffer)
                buffer += module.bias.data
                current = buffer
            elif kind == "tanh":
                np.tanh(current, out=current)
            elif kind == "relu":
                mask = current > 0
                np.multiply(current, mask, out=current)
            elif kind == "sigmoid":
                np.negative(current, out=current)
                np.exp(current, out=current)
                current += 1.0
                np.divide(1.0, current, out=current)
            else:  # layernorm
                _layernorm_into(module, current, current, buffer)
        return current

    def _attention_features(self, observations: np.ndarray, ws: dict) -> np.ndarray:
        enc = self._attention
        batch = observations.shape[0]
        window, features = self.policy.window_shape
        inputs = observations.reshape(batch, window, features)

        def affine(module, x, out):
            np.matmul(x, module.weight.data, out=out)
            out += module.bias.data
            return out

        hidden = affine(enc.input_projection, inputs, ws["hidden"])
        queries = affine(enc.query, hidden, ws["query"])
        keys = affine(enc.key, hidden, ws["key"])
        values = affine(enc.value, hidden, ws["value"])
        # The graph path coerces the python-float scale to the tensor dtype
        # before multiplying; match it so float32 stays bit-identical.
        scale = self.dtype.type(1.0 / np.sqrt(enc.model_dim))
        scores = ws["scores"]
        np.matmul(queries, keys.transpose(0, 2, 1), out=scores)
        scores *= scale
        # softmax over the last axis, graph op order
        np.amax(scores, axis=-1, keepdims=True, out=ws["scores_max"])
        np.subtract(scores, ws["scores_max"], out=scores)
        np.exp(scores, out=scores)
        np.sum(scores, axis=-1, keepdims=True, out=ws["scores_sum"])
        scores /= ws["scores_sum"]
        attended = ws["attended"]
        np.matmul(scores, values, out=attended)
        attended += hidden
        normed = ws["normed"]
        _layernorm_into(enc.attention_norm, attended, normed, ws["ln"])
        ff_linear1, _, ff_linear2 = enc.feed_forward._layers
        ff_hidden = affine(ff_linear1, normed, ws["ff_hidden"])
        np.greater(ff_hidden, 0, out=ws["ff_mask"])
        np.multiply(ff_hidden, ws["ff_mask"], out=ff_hidden)
        ff_out = affine(ff_linear2, ff_hidden, ws["ff_out"])
        ff_out += normed
        encoded = ws["encoded"]
        _layernorm_into(enc.feed_forward_norm, ff_out, encoded, ws["ln"])
        np.mean(encoded, axis=1, out=ws["features"])
        return ws["features"]

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
        np.log(dist.total, out=dist.total)
        dist.log_probs -= dist.total
        return dist.log_probs

    # -------------------------------------------------------------- inference
    def act(self, observations: np.ndarray,
            rng: Optional[np.random.Generator] = None,
            deterministic: bool = False) -> tuple:
        """(actions, log_probs, values) — bit-identical to the graph path."""
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
