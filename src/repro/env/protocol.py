"""The environment protocol every scenario-built env conforms to.

``repro.make()`` can return plain guessing-game envs, covert multi-guess
envs, blackbox-hardware envs, or any of them wrapped in detection wrappers.
All of them satisfy :class:`Env`: the classic gym calling convention, its
allocation-free twin, and the two sizes the RL stack needs to build policies
and rollout buffers.

``reset_into``/``step_into`` write the observation directly into a
caller-provided buffer instead of allocating a fresh array per step; they are
the one step protocol :class:`repro.rl.vec_env.VecEnv` and policy replay use.
``reset``/``step`` return the same observations, rewards, dones and infos.
Wrappers implement both pairs on top of the wrapped env, so their shaping
applies on either path.
"""

from __future__ import annotations

from typing import Any, Dict, Protocol, Tuple, runtime_checkable

import numpy as np


@runtime_checkable
class Env(Protocol):
    """Gym-style environment protocol (duck-typed, structural)."""

    def reset(self, **kwargs) -> np.ndarray:
        """Start a new episode and return the initial observation."""

    def step(self, action_index: int) -> Tuple[np.ndarray, float, bool, Dict]:
        """Apply one action; return (observation, reward, done, info)."""

    def reset_into(self, out: np.ndarray, **kwargs) -> None:
        """Reset and write the initial observation into ``out``."""

    def step_into(self, action_index: int,
                  out: np.ndarray) -> Tuple[float, bool, Dict]:
        """Step and write the observation into ``out``; return (reward, done, info)."""

    @property
    def observation_size(self) -> int:
        """Flattened observation length (rollout-buffer row size)."""

    @property
    def action_space(self) -> Any:
        """Discrete action space exposing ``n``."""
