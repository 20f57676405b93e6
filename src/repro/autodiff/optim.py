"""Gradient-descent optimizers for :class:`repro.autodiff.Tensor` parameters.

An optimizer owns its parameters' storage.  The constructor lays the
parameters of each dtype out in one contiguous buffer and rebinds every
``parameter.data`` to a view of it; gradients get views into a matching flat
buffer (``Tensor._grad_view``), which the backward pass and the fused PPO
kernel write into.  ``Adam.step`` and the rescaling in ``clip_grad_norm``
then run a handful of whole-vector ufuncs over each buffer instead of one
loop iteration per parameter, with no allocation.

Every view keeps its parameter's shape and memory order, so each parameter
goes through the same elementwise arithmetic on the same memory layout as a
per-parameter update: results are bit-identical to the naive out-of-place
formulas (see ``tests/test_compiled_policy.py``).  A parameter whose
``grad`` is ``None`` got no gradient this pass and is skipped.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.autodiff.tensor import Tensor


def _order(array: np.ndarray) -> str:
    return "F" if array.flags.f_contiguous and not array.flags.c_contiguous else "C"


class _FlatGroup:
    """The parameters of one dtype, with data, gradients and two scratch
    arrays in flat buffers."""

    def __init__(self, parameters: List[Tensor]):
        self.parameters = parameters
        self.shapes = [(p.data.shape, _order(p.data)) for p in parameters]
        ends = np.cumsum([p.data.size for p in parameters])
        self.bounds = list(zip([0, *ends[:-1]], ends))
        dtype = parameters[0].data.dtype
        self.data = np.empty(int(ends[-1]), dtype=dtype)
        # Zeroed once so whole-buffer ufuncs never read uninitialised memory.
        self.grad = np.zeros_like(self.data)
        self.scratch = (np.empty_like(self.data), np.empty_like(self.data))
        self.data_views = self.views(self.data)
        self.grad_views = self.views(self.grad)
        for parameter, view, grad_view in zip(parameters, self.data_views,
                                              self.grad_views):
            np.copyto(view, parameter.data)
            parameter.data = view
            parameter._grad_view = grad_view

    def views(self, flat: np.ndarray) -> List[np.ndarray]:
        """``flat`` split into per-parameter views (shape and memory order)."""
        return [flat[start:stop].reshape(shape, order=order)
                for (start, stop), (shape, order) in zip(self.bounds, self.shapes)]

    def gather(self) -> bool:
        """Point each parameter's data and grad at this group's views.

        Arrays rebound since the last call (a gradient assigned by hand,
        another optimizer over the same parameters) are copied in.  Returns
        ``True`` when every parameter has a gradient.
        """
        complete = True
        for parameter, view, grad_view in zip(self.parameters, self.data_views,
                                              self.grad_views):
            if parameter.data is not view:
                np.copyto(view, parameter.data)
                parameter.data = view
            parameter._grad_view = grad_view
            grad = parameter.grad
            if grad is None:
                complete = False
            elif grad is not grad_view:
                np.copyto(grad_view, grad)
                parameter.grad = grad_view
        return complete


class Optimizer:
    """Base class: holds parameters in flat buffers and clears their gradients."""

    def __init__(self, parameters: Iterable[Tensor]):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        by_dtype: Dict[np.dtype, List[Tensor]] = {}
        for parameter in self.parameters:
            by_dtype.setdefault(parameter.data.dtype, []).append(parameter)
        self._groups = [_FlatGroup(group) for group in by_dtype.values()]
        # Per-parameter views of the two flat scratch buffers.
        self._scratch = [self._views([group.scratch[slot] for group in self._groups])
                         for slot in (0, 1)]

    def _views(self, flats: List[np.ndarray]) -> List[np.ndarray]:
        """Per-parameter views (in parameter order) of one flat array per group."""
        views = {id(parameter): view
                 for group, flat in zip(self._groups, flats)
                 for parameter, view in zip(group.parameters, group.views(flat))}
        return [views[id(parameter)] for parameter in self.parameters]

    def _gather(self) -> bool:
        """:meth:`_FlatGroup.gather` for every group; ``True`` when every
        parameter has a gradient, so whole-buffer ufuncs may run."""
        return all([group.gather() for group in self._groups])

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.grad = None

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------- state I/O
    def state_dict(self) -> dict:
        """Serializable internal state (slot buffers, step counts)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore internal state captured by :meth:`state_dict`."""
        if state:
            raise ValueError(f"unexpected optimizer state: {sorted(state)}")

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip gradients in place to a global L2 norm; return the pre-clip norm.

        The squared norm is summed one parameter at a time, in parameter
        order, exactly as a per-parameter loop would (one ``np.sum`` over a
        whole buffer would change the reduction order).
        """
        complete = self._gather()
        total = 0.0
        for parameter, squared in zip(self.parameters, self._scratch[0]):
            grad = parameter.grad
            if grad is not None:
                np.multiply(grad, grad, out=squared)
                total += float(np.sum(squared))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0.0:
            scale = max_norm / norm
            if complete:
                for group in self._groups:
                    group.grad *= scale
            else:
                for parameter in self.parameters:
                    if parameter.grad is not None:
                        parameter.grad *= scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-2,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * parameter.data
            if self.momentum:
                if self._velocity[index] is None:
                    self._velocity[index] = np.zeros_like(parameter.data)
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            parameter.data -= self.lr * grad

    def state_dict(self) -> dict:
        return {"velocity": [None if v is None else v.copy() for v in self._velocity]}

    def load_state_dict(self, state: dict) -> None:
        velocity = state["velocity"]
        if len(velocity) != len(self.parameters):
            raise ValueError(f"velocity count mismatch: {len(velocity)} vs "
                             f"{len(self.parameters)} parameters")
        self._velocity = [None if v is None else np.array(v, dtype=np.float64)
                          for v in velocity]


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    ``step()`` is fully in-place: the moments live in flat buffers beside
    the parameters and are updated with ``out=`` ufuncs, and the parameter
    delta is assembled in two flat scratch buffers, so a step performs no
    allocations.  The arithmetic matches the textbook out-of-place update
    bit for bit:

    .. code-block:: python

        m = beta1 * m + (1 - beta1) * grad
        v = beta2 * v + (1 - beta2) * grad ** 2
        param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)

    When every parameter has a gradient (every PPO minibatch), the update
    is one pass of ufuncs over each dtype's whole buffers; otherwise it runs
    per parameter on the views, skipping the parameters without one.
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._flat_m = [np.zeros_like(group.data) for group in self._groups]
        self._flat_v = [np.zeros_like(group.data) for group in self._groups]
        # Per-parameter views of the moments (parameter order).
        self._m = self._views(self._flat_m)
        self._v = self._views(self._flat_v)

    def step(self) -> None:
        self._step += 1
        # Bias-correction scalars are hoisted out of the parameter loop.
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        if self._gather():
            for group, m, v in zip(self._groups, self._flat_m, self._flat_v):
                self._update(group.data, group.grad, m, v, *group.scratch,
                             bias1, bias2)
            return
        for parameter, m, v, scratch, scratch2 in zip(
                self.parameters, self._m, self._v, *self._scratch):
            if parameter.grad is not None:
                self._update(parameter.data, parameter.grad, m, v, scratch,
                             scratch2, bias1, bias2)

    def _update(self, data: np.ndarray, grad: np.ndarray, m: np.ndarray,
                v: np.ndarray, scratch: np.ndarray, scratch2: np.ndarray,
                bias1: float, bias2: float) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=scratch)
        m += scratch
        # v = beta2 * v + (1 - beta2) * grad**2
        v *= self.beta2
        np.multiply(grad, grad, out=scratch)
        scratch *= 1.0 - self.beta2
        v += scratch
        # param -= (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
        np.divide(m, bias1, out=scratch)
        scratch *= self.lr
        np.divide(v, bias2, out=scratch2)
        np.sqrt(scratch2, out=scratch2)
        scratch2 += self.eps
        scratch /= scratch2
        data -= scratch

    def state_dict(self) -> dict:
        return {"step": self._step,
                "m": [m.copy() for m in self._m],
                "v": [v.copy() for v in self._v]}

    def load_state_dict(self, state: dict) -> None:
        if len(state["m"]) != len(self.parameters) or len(state["v"]) != len(self.parameters):
            raise ValueError(f"moment count mismatch: {len(state['m'])}/{len(state['v'])} vs "
                             f"{len(self.parameters)} parameters")
        self._step = int(state["step"])
        # Copy into the views: the flat moment buffers must stay the ones
        # ``step`` updates.
        for view, m in zip(self._m, state["m"]):
            np.copyto(view, m, casting="unsafe")
        for view, v in zip(self._v, state["v"]):
            np.copyto(view, v, casting="unsafe")
