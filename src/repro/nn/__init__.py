"""Neural-network layers built on the :mod:`repro.autodiff` engine.

Provides the building blocks used by the AutoCAT policy/value networks: dense
layers, the tanh activation, and the tanh MLP the PPO agent uses as its
backbone (the paper's Transformer backbone is not reproduced; the paper
reports that an MLP also finds the attacks, Sec. VI-B).

The graph and the compiled plan
-------------------------------

These modules build the policy's layers; :mod:`repro.autodiff.reference`
wires them into the reference autodiff graph of the policy.
:class:`repro.nn.compiled.CompiledForward` flattens the same MLP forward
pass into a sequence of pure-numpy kernels writing into preallocated
shape-keyed buffers — no ``Tensor`` objects, no graph, no per-call
allocation — with outputs bit-identical to the graph.  Acting
(``ActorCriticPolicy.act()/.value()/.action_probabilities()``) and the fused
PPO kernel's forward pass both run on the plan; only the parity tests build
the graph.
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
