"""Neural-network layers built on the :mod:`repro.autodiff` engine.

Provides the building blocks used by the AutoCAT policy/value networks: dense
layers, activations, layer normalization, embeddings, an MLP convenience
module, and a single-head self-attention sequence encoder standing in for the
paper's Transformer backbone.

Inference fast path
-------------------

Training needs the autodiff graph; acting does not.  For the fixed MLP and
attention policy architectures, :class:`repro.nn.compiled.CompiledForward`
flattens the forward pass into a sequence of pure-numpy kernels writing into
preallocated shape-keyed buffers — no ``Tensor`` objects, no graph, no
per-call allocation — with outputs bit-identical to the graph path.
``ActorCriticPolicy.act()/.value()/.action_probabilities()`` use the plan
automatically whenever the architecture is supported; unsupported module
compositions silently fall back to the graph.  Inside
:func:`repro.autodiff.functional.composed_ops` every fast path is off and the
graph runs everywhere (parity debugging, legacy benchmarking).
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Linear,
    ReLU,
    Tanh,
    Sigmoid,
    LayerNorm,
    Embedding,
    Sequential,
    MLP,
)
from repro.nn.attention import SelfAttentionEncoder
from repro.nn.compiled import CompiledForward, UnsupportedArchitecture
from repro.nn.distributions import Categorical

__all__ = [
    "CompiledForward",
    "UnsupportedArchitecture",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Tanh",
    "Sigmoid",
    "LayerNorm",
    "Embedding",
    "Sequential",
    "MLP",
    "SelfAttentionEncoder",
    "Categorical",
]
