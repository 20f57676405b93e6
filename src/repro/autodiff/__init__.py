"""Reverse-mode automatic differentiation over numpy arrays.

The paper trains its PPO agent with PyTorch, which this numpy-only
reproduction does not use.  Training and acting run on graph-free kernels
(:class:`repro.nn.compiled.CompiledForward`,
:class:`repro.rl.fused_loss.FusedPPOLoss`); this subpackage is their parity
oracle.  It carries only what the reference policy graph needs: tensors with
a gradient tape, the categorical-policy ops in :mod:`.functional`, the
policy's graph wiring in :mod:`.reference`, gradient checking, and the Adam
optimizer that both paths update parameters with.
"""

from repro.autodiff.tensor import (Tensor, no_grad, is_grad_enabled,
                                   default_dtype, get_default_dtype)
from repro.autodiff import functional
from repro.autodiff.optim import Adam, Optimizer
from repro.autodiff.gradcheck import numerical_gradient, check_gradients

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "get_default_dtype",
    "functional",
    "Optimizer",
    "Adam",
    "numerical_gradient",
    "check_gradients",
]
