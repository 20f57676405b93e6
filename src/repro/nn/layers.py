"""Core neural-network layers."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.nn.init import orthogonal
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Fully-connected layer ``y = x W + b`` (a matmul and a broadcast add).

    The compiled plan and the fused PPO kernel replay the same two numpy
    operations, so their outputs and gradients match this graph bit for bit.
    """

    def __init__(self, in_features: int, out_features: int, gain: float = np.sqrt(2.0),
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(orthogonal((in_features, out_features), gain=gain, rng=rng),
                                name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs @ self.weight + self.bias


class Tanh(Module):
    """Hyperbolic-tangent activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.tanh()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self._layers: List[Module] = []
        for index, module in enumerate(modules):
            setattr(self, f"layer_{index}", module)
            self._layers.append(module)

    def forward(self, inputs):
        output = inputs
        for layer in self._layers:
            output = layer(output)
        return output

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


class MLP(Module):
    """Multi-layer perceptron with tanh hidden activations.

    This is the backbone of the reproduction's PPO agent (the paper reports
    the MLP backbone also finds attacks, Sec. VI-B).
    """

    def __init__(self, input_dim: int, hidden_sizes: Sequence[int], output_dim: int,
                 output_gain: float = 1.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        layers: List[Module] = []
        previous = input_dim
        for hidden in hidden_sizes:
            layers.append(Linear(previous, hidden, rng=rng))
            layers.append(Tanh())
            previous = hidden
        layers.append(Linear(previous, output_dim, gain=output_gain, rng=rng))
        self.network = Sequential(*layers)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.network(inputs)
