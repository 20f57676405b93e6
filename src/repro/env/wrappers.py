"""Environment wrappers that add detection schemes to the guessing game.

:class:`EnvWrapper` implements the whole :class:`~repro.env.protocol.Env`
protocol — ``reset``/``reset_into``/``step``/``step_into`` — once, on top of
the wrapped env.  A detection wrapper overrides only two hooks:
:meth:`EnvWrapper._shape` rewrites one step's ``(reward, done, info)`` and
:meth:`EnvWrapper._on_reset` clears per-episode detector state.  Both step
paths run the hooks, so a wrapper's shaping cannot be bypassed:

* :class:`MissCountDetectionWrapper` — terminate with ``detection_reward``
  when the victim's triggered access misses (µarch-statistics detection);
* :class:`AutocorrelationPenaltyWrapper` — add an L2 autocorrelation penalty
  at episode end (CC-Hunter bypass training, Sec. V-D);
* :class:`SVMDetectionWrapper` — add ``detection_reward`` when a Cyclone-style
  SVM classifies the episode's trace as an attack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.detection.autocorrelation import AutocorrelationDetector
from repro.detection.cyclone import CycloneDetector
from repro.detection.misscount import MissCountDetector
from repro.env.guessing_game import CacheGuessingGameEnv, StepResult


class EnvWrapper:
    """Base wrapper: the step protocol on top of the wrapped env, plus hooks."""

    def __init__(self, env: CacheGuessingGameEnv):
        self.env = env

    def __getattr__(self, name):
        return getattr(self.env, name)

    def reset(self, **kwargs) -> np.ndarray:
        self._on_reset()
        return self.env.reset(**kwargs)

    def reset_into(self, out: np.ndarray, **kwargs) -> None:
        self._on_reset()
        self.env.reset_into(out, **kwargs)

    def step(self, action_index: int) -> StepResult:
        observation, reward, done, info = self.env.step(action_index)
        return StepResult(observation, *self._shape(reward, done, info))

    def step_into(self, action_index: int, out: np.ndarray) -> tuple:
        reward, done, info = self.env.step_into(action_index, out)
        return self._shape(reward, done, info)

    def _on_reset(self) -> None:
        """Hook run before the wrapped env resets."""

    def _shape(self, reward: float, done: bool, info: Dict) -> tuple:
        """Hook rewriting one step's (reward, done, info)."""
        return reward, done, info


class MissCountDetectionWrapper(EnvWrapper):
    """Terminate the episode when the victim's access misses."""

    def __init__(self, env: CacheGuessingGameEnv, detector: Optional[MissCountDetector] = None):
        super().__init__(env)
        self.detector = detector or MissCountDetector()

    def _on_reset(self) -> None:
        self.detector.reset()

    def _shape(self, reward: float, done: bool, info: Dict) -> tuple:
        victim_hit = info.get("victim_hit", "absent")
        if victim_hit != "absent" and self.detector.observe_victim_access(victim_hit):
            return (reward + self.env.config.rewards.detection_reward, True,
                    {**info, "detected": True})
        return reward, done, info


def conflict_train_from_env(env: CacheGuessingGameEnv) -> List[int]:
    """Extract the CC-Hunter conflict-event train from the env's cache backend."""
    events = env.backend.events
    if events is None:
        return []
    return events.conflict_train()


class AutocorrelationPenaltyWrapper(EnvWrapper):
    """Add an autocorrelation L2 penalty to the reward at episode end."""

    def __init__(self, env: CacheGuessingGameEnv,
                 detector: Optional[AutocorrelationDetector] = None,
                 penalty_scale: float = -1.0, terminate_on_detection: bool = False):
        super().__init__(env)
        self.detector = detector or AutocorrelationDetector()
        self.penalty_scale = penalty_scale
        self.terminate_on_detection = terminate_on_detection

    def _shape(self, reward: float, done: bool, info: Dict) -> tuple:
        if not done:
            return reward, done, info
        train = conflict_train_from_env(self.env)
        penalty = self.detector.penalty(train, scale=self.penalty_scale)
        max_autocorrelation = self.detector.max_autocorrelation(train)
        detected = self.detector.detect(train)
        reward = reward + penalty
        if detected and self.terminate_on_detection:
            reward += self.env.config.rewards.detection_reward
        info = {**info,
                "autocorrelation_penalty": penalty,
                "max_autocorrelation": max_autocorrelation,
                "detected": detected,
                "conflict_train": train}
        return reward, done, info


def domain_trace_from_env(env: CacheGuessingGameEnv) -> List[Tuple[str, int]]:
    """(domain, address) trace of the current episode for the Cyclone detector."""
    trace = []
    for entry in env.trace:
        if entry.kind == "access" and entry.address is not None:
            trace.append((entry.actor, entry.address))
    return trace


class SVMDetectionWrapper(EnvWrapper):
    """Penalize episodes whose access trace the Cyclone SVM classifies as an attack."""

    def __init__(self, env: CacheGuessingGameEnv, detector: CycloneDetector,
                 penalize: bool = True):
        super().__init__(env)
        self.detector = detector
        self.penalize = penalize

    def _shape(self, reward: float, done: bool, info: Dict) -> tuple:
        if not done:
            return reward, done, info
        trace = domain_trace_from_env(self.env)
        detection_rate = self.detector.detection_rate(trace)
        detected = detection_rate > 0.0
        if detected and self.penalize:
            reward += self.env.config.rewards.detection_reward * detection_rate
        info = {**info, "detected": detected,
                "svm_detection_rate": detection_rate}
        return reward, done, info
