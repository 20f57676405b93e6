"""Deterministic replay: extracting attack sequences from a trained policy.

Once training converges, the paper extracts the attack sequence by replaying
the policy deterministically (Sec. IV-C).  For each possible secret we pin the
environment's secret, roll the greedy policy, and record the action labels;
the result is the per-secret attack sequence plus the aggregate guess
accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.rl.policy import ActorCriticPolicy


@dataclass
class AttackExtraction:
    """Attack sequences extracted by deterministic replay."""

    sequences: Dict[Optional[int], List[str]] = field(default_factory=dict)
    correct: Dict[Optional[int], bool] = field(default_factory=dict)
    accuracy: float = 0.0

    @property
    def representative(self) -> List[str]:
        """The longest per-secret sequence (the paper reports one example sequence)."""
        if not self.sequences:
            return []
        return max(self.sequences.values(), key=len)

    def render(self, secret: Optional[int] = None) -> str:
        sequence = self.sequences.get(secret, self.representative)
        return " -> ".join(sequence)

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; secrets (int or None) are kept as [secret, value] pairs."""
        return {
            "sequences": [[secret, list(labels)] for secret, labels in self.sequences.items()],
            "correct": [[secret, bool(value)] for secret, value in self.correct.items()],
            "accuracy": float(self.accuracy),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AttackExtraction":
        return cls(
            sequences={secret: list(labels) for secret, labels in data.get("sequences", [])},
            correct={secret: bool(value) for secret, value in data.get("correct", [])},
            accuracy=float(data.get("accuracy", 0.0)),
        )


class _EpisodeRunner:
    """Replays a policy on one env through the compiled batch-act path.

    Instead of handing ``policy.act`` a fresh 1-D observation every step
    (which forces a per-step ``atleast_2d`` copy and a shape-(1, n) workspace
    rebuild), the runner keeps one persistent ``(1, observation_size)``
    batch row that the env's ``reset_into``/``step_into`` encode into.
    """

    def __init__(self, env, policy: ActorCriticPolicy):
        self.env = env
        self.policy = policy
        self.observations = np.zeros((1, env.observation_size))
        self._row = self.observations[0]

    def reset(self, secret) -> None:
        self.env.reset_into(self._row, secret=secret)

    def step(self, action_index: int) -> tuple:
        return self.env.step_into(action_index, self._row)

    def act(self, rng: np.random.Generator, deterministic: bool) -> int:
        output = self.policy.act(self.observations, rng=rng,
                                 deterministic=deterministic)
        return int(output.actions[0])


def _run_episode(runner: _EpisodeRunner, secret, max_steps: int,
                 deterministic: bool, rng: np.random.Generator) -> tuple:
    runner.reset(secret)
    env = runner.env
    labels: List[str] = []
    correct = False
    guessed = False
    total_reward = 0.0
    for _ in range(max_steps):
        action_index = runner.act(rng, deterministic)
        labels.append(str(env.actions.decode(action_index)))
        reward, done, info = runner.step(action_index)
        total_reward += reward
        if done:
            correct = bool(info.get("correct", False))
            guessed = "correct" in info
            break
    return labels, correct, guessed, total_reward


def evaluate_policy(env, policy: ActorCriticPolicy, episodes: int = 50,
                    deterministic: bool = True, seed: int = 0) -> Dict[str, float]:
    """Accuracy, guess rate, episode length, and reward of a policy on an env."""
    rng = np.random.default_rng(seed)
    max_steps = env.max_steps + 1
    runner = _EpisodeRunner(env, policy)
    correct_count = 0
    guess_count = 0
    lengths: List[int] = []
    rewards: List[float] = []
    for _ in range(episodes):
        labels, correct, guessed, total_reward = _run_episode(
            runner, "random", max_steps, deterministic, rng)
        correct_count += int(correct)
        guess_count += int(guessed)
        lengths.append(len(labels))
        rewards.append(total_reward)
    return {
        "accuracy": correct_count / episodes,
        "guess_rate": guess_count / episodes,
        "mean_episode_length": float(np.mean(lengths)),
        "mean_episode_reward": float(np.mean(rewards)),
    }


def extract_attack_sequence(env, policy: ActorCriticPolicy, deterministic: bool = True,
                            seed: int = 0) -> AttackExtraction:
    """Replay the greedy policy once per possible secret and record the sequences."""
    rng = np.random.default_rng(seed)
    secrets: List[Optional[int]] = list(env.config.victim_addresses)
    if env.config.victim_no_access_enable:
        secrets.append(None)
    extraction = AttackExtraction()
    max_steps = env.max_steps + 1
    runner = _EpisodeRunner(env, policy)
    for secret in secrets:
        labels, correct, _guessed, _reward = _run_episode(
            runner, secret, max_steps, deterministic, rng)
        extraction.sequences[secret] = labels
        extraction.correct[secret] = correct
    if extraction.correct:
        extraction.accuracy = sum(extraction.correct.values()) / len(extraction.correct)
    return extraction
