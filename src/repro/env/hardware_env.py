"""Guessing-game environment running against a simulated real machine.

For the Table III experiments, the environment's cache implementation is a
blackbox machine (hidden replacement policy, measurement noise, no clflush),
exercised through the same attacker-controls-everything interface the paper
uses with CacheQuery.  The attacker's address range spans two ways' worth of
lines mapping to one set; the victim either accesses address 0 or makes no
access, matching the "0/E" victim configuration in Table III.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.config import CacheConfig
from repro.env.config import EnvConfig, RewardConfig
from repro.env.guessing_game import CacheGuessingGameEnv
from repro.hardware.blackbox import BlackboxCacheBackend
from repro.hardware.machines import MachineSpec, get_machine


class BlackboxHardwareEnv(CacheGuessingGameEnv):
    """The cache guessing game played against a simulated blackbox machine."""

    def __init__(self, machine: MachineSpec, attacker_addresses: Optional[int] = None,
                 rewards: Optional[RewardConfig] = None, window_size: Optional[int] = None,
                 seed: int = 0):
        self.machine = machine
        num_attacker_addresses = attacker_addresses or 2 * machine.num_ways
        # The cache config recorded here only describes the address layout the
        # agent sees; the actual behaviour comes from the blackbox backend.
        placeholder_cache = CacheConfig.fully_associative(
            num_ways=machine.num_ways, rep_policy="lru")
        reward_config = rewards or RewardConfig(step_reward=-0.005)
        config = EnvConfig(
            cache=placeholder_cache,
            attacker_addr_s=0,
            attacker_addr_e=num_attacker_addresses - 1,
            victim_addr_s=0,
            victim_addr_e=0,
            flush_enable=False,
            victim_no_access_enable=True,
            rewards=reward_config,
            window_size=window_size or max(16, 2 * machine.num_ways + 8),
            warmup_accesses=machine.num_ways,
            seed=seed,
        )
        rng = np.random.default_rng(seed)
        backend = BlackboxCacheBackend(machine, rng=rng)
        super().__init__(config, backend=backend, rng=rng)

    @classmethod
    def from_machine_key(cls, key: str, **kwargs) -> "BlackboxHardwareEnv":
        """Build the environment for a registered machine ("name:level")."""
        return cls(get_machine(key), **kwargs)
