"""Observation encoding: a sliding window of per-step features.

The state space (Sec. IV-C) is the Cartesian product over a window of W steps
of (latency, action taken, step index, victim-triggered).  The encoder keeps
the most recent W steps and produces one flat feature vector, the MLP
policy's input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

import numpy as np


class LatencyObservation(enum.Enum):
    """What the attacker observed for one step: a hit, a miss, or nothing."""

    HIT = 0
    MISS = 1
    NA = 2


@dataclass
class StepRecord:
    """One step of history: latency category, action index, step, trigger flag."""

    latency: LatencyObservation
    action_index: int
    step: int
    victim_triggered: bool


class ObservationEncoder:
    """Fixed-size sliding-window encoder for the guessing-game state."""

    def __init__(self, window_size: int, num_actions: int, max_steps: int):
        if window_size < 1:
            raise ValueError("window_size must be >= 1")
        self.window_size = window_size
        self.num_actions = num_actions
        self.max_steps = max(max_steps, 1)
        # Per-step features: latency one-hot (3) + action one-hot (+1 "none")
        # + normalized step + victim-triggered flag.
        self.step_features = 3 + (num_actions + 1) + 1 + 1
        self.reset()

    def reset(self) -> None:
        self._history: List[StepRecord] = []

    def record(self, latency: LatencyObservation, action_index: int, step: int,
               victim_triggered: bool) -> None:
        """Append one step of history (oldest entries fall out of the window)."""
        self._history.append(StepRecord(latency, action_index, step, victim_triggered))
        if len(self._history) > self.window_size:
            del self._history[: len(self._history) - self.window_size]

    @property
    def history(self) -> List[StepRecord]:
        return list(self._history)

    @property
    def flat_size(self) -> int:
        return self.window_size * self.step_features

    def encode_flat(self) -> np.ndarray:
        """Flattened window feature vector, most recent step last."""
        out = np.empty(self.flat_size, dtype=np.float64)
        self.encode_into(out)
        return out

    def encode_into(self, out: np.ndarray) -> None:
        """Write the flat encoding into ``out`` (shape ``(flat_size,)``) in place.

        This is the allocation-free path used by the vectorized env: ``out``
        is typically one row of a preallocated batch observation buffer.
        """
        if out.shape != (self.flat_size,):
            raise ValueError(f"expected output of shape ({self.flat_size},), "
                             f"got {out.shape}")
        out[:] = 0.0
        features = self.step_features
        none_action = 3 + self.num_actions
        padding = self.window_size - len(self._history)
        base = 0
        for _ in range(padding):
            # Empty slot: latency NA, action "none".
            out[base + LatencyObservation.NA.value] = 1.0
            out[base + none_action] = 1.0
            base += features
        for record in self._history:
            out[base + record.latency.value] = 1.0
            out[base + 3 + record.action_index] = 1.0
            out[base + none_action + 1] = min(record.step / self.max_steps, 1.0)
            if record.victim_triggered:
                out[base + none_action + 2] = 1.0
            base += features
