"""The cache guessing-game environment (AutoCAT's core RL formulation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.env.actions import Action, ActionKind, ActionSpace
from repro.env.backends import CacheBackend, make_backend
from repro.env.config import EnvConfig
from repro.env.observation import LatencyObservation, ObservationEncoder
from repro.env.spaces import Box, Discrete


@dataclass
class StepResult:
    """Tuple-compatible step result (observation, reward, done, info)."""

    observation: np.ndarray
    reward: float
    done: bool
    info: Dict

    def __iter__(self):
        return iter((self.observation, self.reward, self.done, self.info))


@dataclass
class TraceEntry:
    """One event in the episode trace, used by detectors and the classifier."""

    step: int
    actor: str
    kind: str
    address: Optional[int]
    hit: Optional[bool]
    latency: Optional[int] = None
    correct: Optional[bool] = None

    def short(self) -> str:
        if self.actor == "victim":
            return "v"
        if self.kind == "access":
            return str(self.address)
        if self.kind == "flush":
            return f"f{self.address}"
        if self.kind == "guess":
            return "g"
        return self.kind


class CacheGuessingGameEnv:
    """Single-secret guessing game: the episode ends when the agent guesses.

    Implements the :class:`~repro.env.protocol.Env` protocol: the gym-style
    ``reset()``/``step(action)`` pair and the allocation-free
    ``reset_into(out)``/``step_into(action, out)`` pair that
    :class:`repro.rl.vec_env.VecEnv` and policy replay step through.  Both
    pairs run the same ``_step_core``; subclasses change the episode
    semantics through its two hooks, :meth:`_after_guess` and
    :meth:`_check_episode_end`.
    """

    def __init__(self, config: EnvConfig, backend: Optional[CacheBackend] = None,
                 rng: Optional[np.random.Generator] = None,
                 pl_locked_addresses: Optional[List[int]] = None):
        self.config = config
        self.rng = rng or np.random.default_rng(config.seed)
        self.actions = ActionSpace(config)
        self.action_space = Discrete(len(self.actions))
        self.window_size = config.effective_window_size()
        self.max_steps = config.effective_max_steps()
        self.encoder = ObservationEncoder(self.window_size, len(self.actions), self.max_steps)
        self.observation_space = Box(0.0, 1.0, (self.encoder.flat_size,))
        self.backend = backend if backend is not None else make_backend(
            config, rng=self.rng, pl_locked_addresses=pl_locked_addresses)
        self.secret: Optional[int] = None
        self.step_count = 0
        self.victim_triggered = False
        self.trace: List[TraceEntry] = []
        self.episode_count = 0

    # ------------------------------------------------------------------ reset
    def _draw_secret(self) -> Optional[int]:
        secrets: List[Optional[int]] = list(self.config.victim_addresses)
        if self.config.victim_no_access_enable:
            secrets.append(None)
        return secrets[int(self.rng.integers(len(secrets)))]

    def _warm_up(self) -> None:
        count = self.config.effective_warmup()
        if count <= 0:
            return
        pool = self.config.attacker_addresses + self.config.victim_addresses
        addresses = [pool[int(self.rng.integers(len(pool)))] for _ in range(count)]
        self.backend.warm_up(addresses, domain="attacker")

    def _reset_core(self, secret: Optional[int] = "random") -> None:
        """Reset episode state without encoding an observation."""
        self.backend.reset()
        self._warm_up()
        self.encoder.reset()
        self.secret = self._draw_secret() if secret == "random" else secret
        self.step_count = 0
        self.victim_triggered = False
        self.trace = []
        self.episode_count += 1

    def reset(self, secret: Optional[int] = "random") -> np.ndarray:
        """Start a new episode.  ``secret`` can pin the victim secret for replay."""
        self._reset_core(secret=secret)
        return self.encoder.encode_flat()

    def reset_into(self, out: np.ndarray, secret: Optional[int] = "random") -> None:
        """Allocation-free reset: write the initial observation into ``out``."""
        self._reset_core(secret=secret)
        self.encoder.encode_into(out)

    # ------------------------------------------------------------------- step
    def _victim_access(self) -> Optional[bool]:
        """Run the victim's secret-dependent access; return its hit/miss (or None)."""
        if self.secret is None:
            return None
        hit, _latency = self.backend.access(self.secret, "victim")
        return hit

    def _guess_is_correct(self, action: Action) -> bool:
        if self.config.force_trigger_before_guess and not self.victim_triggered:
            # A guess made before the victim ever ran cannot be an informed
            # attack; treating it as wrong removes the degenerate
            # guess-immediately strategy (as in the original AutoCAT env).
            return False
        if action.kind is ActionKind.GUESS_EMPTY:
            return self.secret is None
        return self.secret is not None and action.address == self.secret

    def step(self, action_index: int) -> StepResult:
        """Apply one agent action and return (observation, reward, done, info)."""
        reward, done, info = self._step_core(int(action_index))
        return StepResult(self.encoder.encode_flat(), reward, done, info)

    def step_into(self, action_index: int, out: np.ndarray) -> tuple:
        """Allocation-free step: write the observation into ``out``.

        Returns ``(reward, done, info)``.  This is the env-side half of the
        vectorized batch step path; :class:`repro.rl.vec_env.VecEnv` hands in
        one row of its preallocated observation buffer.
        """
        reward, done, info = self._step_core(int(action_index))
        self.encoder.encode_into(out)
        return reward, done, info

    def _step_core(self, action_index: int) -> tuple:
        """Advance the game by one action; returns (reward, done, info)."""
        action = self.actions.decode(int(action_index))
        rewards = self.config.rewards
        self.step_count += 1
        reward = rewards.step_reward
        done = False
        info: Dict = {"action": action, "secret": self.secret, "step": self.step_count}
        latency_obs = LatencyObservation.NA

        if action.kind is ActionKind.ACCESS:
            hit, latency = self.backend.access(action.address, "attacker")
            latency_obs = LatencyObservation.HIT if hit else LatencyObservation.MISS
            info["hit"] = hit
            self.trace.append(TraceEntry(self.step_count, "attacker", "access",
                                         action.address, hit, latency))
        elif action.kind is ActionKind.FLUSH:
            self.backend.flush(action.address, "attacker")
            info["hit"] = None
            self.trace.append(TraceEntry(self.step_count, "attacker", "flush",
                                         action.address, None))
        elif action.kind is ActionKind.TRIGGER:
            victim_hit = self._victim_access()
            self.victim_triggered = True
            info["victim_hit"] = victim_hit
            self.trace.append(TraceEntry(self.step_count, "victim", "access",
                                         self.secret, victim_hit))
        else:  # guess
            correct = self._guess_is_correct(action)
            reward = rewards.correct_guess_reward if correct else rewards.wrong_guess_reward
            info["correct"] = correct
            info["guess"] = action.address if action.kind is ActionKind.GUESS else None
            self.trace.append(TraceEntry(self.step_count, "attacker", "guess",
                                         action.address, None, correct=correct))
            done = self._after_guess(correct)

        reward, done = self._check_episode_end(reward, done, info)
        self.encoder.record(latency_obs, int(action_index), self.step_count,
                            self.victim_triggered)
        info["trace"] = self.trace
        return reward, done, info

    def _after_guess(self, correct: bool) -> bool:
        """Hook run after a guess is scored; returns whether the episode ends."""
        return True

    def _check_episode_end(self, reward: float, done: bool, info: Dict) -> tuple:
        """Hook run at the end of every step; returns the final (reward, done)."""
        if not done and self.step_count >= self.max_steps:
            reward += self.config.rewards.length_violation_reward
            done = True
            info["length_violation"] = True
        return reward, done

    # ------------------------------------------------------------------ misc
    def action_labels(self) -> List[str]:
        """Human-readable label per action index (for printing attack sequences)."""
        return [str(action) for action in self.actions]

    def render_trace(self) -> str:
        """Render the episode trace in the paper's arrow notation."""
        return " -> ".join(entry.short() for entry in self.trace)

    @property
    def observation_size(self) -> int:
        return self.encoder.flat_size
