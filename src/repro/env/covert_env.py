"""Multi-guess (covert-channel) episodes.

For the CC-Hunter and Cyclone case studies (Sec. V-D), the paper trains a
baseline agent where "multiple guesses happen in one fixed-step (e.g. 160
step) episode and each guess corresponds to one secret".  After each guess the
environment draws a fresh secret and the episode continues until the step
limit; there is a negative reward at the end if the agent never guessed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional

from repro.env.config import EnvConfig
from repro.env.guessing_game import CacheGuessingGameEnv


class MultiGuessCovertEnv(CacheGuessingGameEnv):
    """Fixed-length episodes in which every guess transmits one secret."""

    def __init__(self, config: EnvConfig, episode_length: int = 160, **kwargs):
        super().__init__(replace(config, max_steps=episode_length), **kwargs)
        self.episode_length = episode_length
        self.guesses_made = 0
        self.correct_guesses = 0

    def _reset_core(self, secret: Optional[int] = "random") -> None:
        super()._reset_core(secret=secret)
        self.guesses_made = 0
        self.correct_guesses = 0

    def _after_guess(self, correct: bool) -> bool:
        """Count the guess, then draw a new secret and keep going."""
        self.guesses_made += 1
        self.correct_guesses += int(correct)
        self.secret = self._draw_secret()
        self.victim_triggered = False
        return False

    def _check_episode_end(self, reward: float, done: bool, info: Dict) -> tuple:
        """End at the fixed length; penalize an episode without any guess."""
        if self.step_count >= self.episode_length:
            done = True
            if self.guesses_made == 0:
                reward += self.config.rewards.no_guess_reward
            info["guesses_made"] = self.guesses_made
            info["correct_guesses"] = self.correct_guesses
            info["bit_rate"] = self.guesses_made / self.episode_length
            info["guess_accuracy"] = (self.correct_guesses / self.guesses_made
                                      if self.guesses_made else 0.0)
        return reward, done

    # ------------------------------------------------------------ statistics
    def episode_statistics(self) -> Dict[str, float]:
        """Bit rate (guesses per step) and accuracy of the finished episode."""
        return {
            "guesses_made": self.guesses_made,
            "correct_guesses": self.correct_guesses,
            "bit_rate": self.guesses_made / max(self.step_count, 1),
            "guess_accuracy": (self.correct_guesses / self.guesses_made
                               if self.guesses_made else 0.0),
        }
