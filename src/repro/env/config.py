"""Environment configuration (Table II: attack/victim program and RL configs)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cache.config import CacheConfig


@dataclass
class RewardConfig:
    """Reward values from Table II (defaults match Sec. IV-C)."""

    correct_guess_reward: float = 1.0
    wrong_guess_reward: float = -1.0
    step_reward: float = -0.01
    length_violation_reward: float = -2.0
    detection_reward: float = -2.0
    no_guess_reward: float = -1.0

    def __post_init__(self) -> None:
        if self.correct_guess_reward <= 0:
            raise ValueError("correct_guess_reward must be positive")
        if self.wrong_guess_reward > 0 or self.step_reward > 0:
            raise ValueError("wrong_guess_reward and step_reward must be non-positive")


@dataclass
class EnvConfig:
    """Full configuration of a cache guessing-game environment."""

    cache: CacheConfig = field(default_factory=CacheConfig)
    attacker_addr_s: int = 0
    attacker_addr_e: int = 3
    victim_addr_s: int = 0
    victim_addr_e: int = 0
    flush_enable: bool = False
    victim_no_access_enable: bool = True
    detection_enable: bool = False
    force_trigger_before_guess: bool = True
    window_size: Optional[int] = None
    max_steps: Optional[int] = None
    rewards: RewardConfig = field(default_factory=RewardConfig)
    warmup_accesses: Optional[int] = None
    hierarchy: bool = False
    l2_cache: Optional[CacheConfig] = None
    attacker_core: int = 0
    victim_core: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attacker_addr_e < self.attacker_addr_s:
            raise ValueError("attacker address range is empty")
        if self.victim_addr_e < self.victim_addr_s:
            raise ValueError("victim address range is empty")
        if self.hierarchy and self.l2_cache is None:
            raise ValueError("hierarchy=True requires an l2_cache config")

    # ------------------------------------------------------------- properties
    @property
    def attacker_addresses(self) -> List[int]:
        return list(range(self.attacker_addr_s, self.attacker_addr_e + 1))

    @property
    def victim_addresses(self) -> List[int]:
        return list(range(self.victim_addr_s, self.victim_addr_e + 1))

    @property
    def num_secrets(self) -> int:
        """Number of possible secrets (victim addresses plus optional no-access)."""
        return len(self.victim_addresses) + (1 if self.victim_no_access_enable else 0)

    @property
    def shared_addresses(self) -> List[int]:
        """Addresses accessible to both programs (enables flush+reload / evict+reload)."""
        attacker = set(self.attacker_addresses)
        return [address for address in self.victim_addresses if address in attacker]

    def effective_window_size(self) -> int:
        """Observation window size; defaults to 4x the cache block count, ≥ 8."""
        if self.window_size is not None:
            return self.window_size
        return max(8, 4 * self.cache.num_blocks)

    def effective_max_steps(self) -> int:
        """Episode length limit; defaults to the window size."""
        if self.max_steps is not None:
            return self.max_steps
        return self.effective_window_size()

    def effective_warmup(self) -> int:
        """Number of random warm-up accesses used to initialize the cache."""
        if self.warmup_accesses is not None:
            return self.warmup_accesses
        return self.cache.num_blocks
