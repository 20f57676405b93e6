"""Neural-network layers built on the :mod:`repro.autodiff` engine.

Provides the building blocks used by the AutoCAT policy/value networks: dense
layers, the tanh activation, and the tanh MLP the PPO agent uses as its
backbone (the paper's Transformer backbone is not reproduced; the paper
reports that an MLP also finds the attacks, Sec. VI-B).

Inference fast path
-------------------

Training needs the autodiff graph; acting does not.
:class:`repro.nn.compiled.CompiledForward` flattens the policy's MLP forward
pass into a sequence of pure-numpy kernels writing into preallocated
shape-keyed buffers — no ``Tensor`` objects, no graph, no per-call
allocation — with outputs bit-identical to the graph path.
``ActorCriticPolicy.act()/.value()/.action_probabilities()`` always use the
plan, except inside :func:`repro.autodiff.functional.composed_ops`, where
every fast path is off and the graph runs everywhere (parity debugging,
legacy benchmarking).
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Linear,
    Tanh,
    Sequential,
    MLP,
)
from repro.nn.compiled import CompiledForward
from repro.nn.distributions import Categorical

__all__ = [
    "CompiledForward",
    "Module",
    "Parameter",
    "Linear",
    "Tanh",
    "Sequential",
    "MLP",
    "Categorical",
]
