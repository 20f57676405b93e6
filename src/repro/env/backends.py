"""Cache backends the guessing-game environment can run against.

The RL formulation only needs an interface that (1) performs an attacker or
victim memory access and reports hit/miss, (2) optionally flushes a line, and
(3) can be reset.  Three backends implement it:

* :class:`SimulatedCacheBackend` — the software cache simulator (optionally a
  PL cache);
* :class:`HierarchyBackend` — two cores with private L1s and a shared
  inclusive L2 (Table IV configs 16-17);
* blackbox hardware backends live in :mod:`repro.hardware` and are adapted by
  :class:`repro.env.hardware_env.BlackboxHardwareEnv`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.defended import make_cache
from repro.cache.events import EventLog
from repro.cache.hierarchy import TwoLevelCache
from repro.cache.plcache import PLCache
from repro.env.config import EnvConfig


class CacheBackend:
    """Interface between the environment and a cache implementation."""

    def reset(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def access(self, address: int, domain: str) -> tuple:
        """Access ``address`` for ``domain``; return (hit, latency)."""
        raise NotImplementedError  # pragma: no cover - abstract

    def flush(self, address: int, domain: str) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def events(self) -> Optional[EventLog]:
        """Event log for detectors, when the backend exposes one."""
        return None

    def warm_up(self, addresses, domain: str = "attacker") -> None:
        for address in addresses:
            self.access(address, domain)


class SimulatedCacheBackend(CacheBackend):
    """Single-level software cache, optionally defended.

    The cache class follows the config: PL-locked victim lines build a
    :class:`~repro.cache.plcache.PLCache`, a compiled ``defense`` fragment in
    ``config.extra`` builds the matching :mod:`repro.cache.defended` cache,
    everything else a plain :class:`~repro.cache.cache.Cache`.
    """

    def __init__(self, config: CacheConfig, rng: Optional[np.random.Generator] = None,
                 pl_locked_addresses: Optional[list] = None):
        self.config = config
        self.rng = rng or np.random.default_rng(config.rng_seed)
        self.pl_locked_addresses = list(pl_locked_addresses or [])
        if self.pl_locked_addresses:
            self.cache: Cache = PLCache(config, rng=self.rng)
        else:
            self.cache = make_cache(config, rng=self.rng)
        self._install_locks()

    def _install_locks(self) -> None:
        if self.pl_locked_addresses:
            self.cache.preload_locked(self.pl_locked_addresses, domain="victim")

    def reset(self) -> None:
        self.cache.reset()
        self._install_locks()

    def access(self, address: int, domain: str) -> tuple:
        result = self.cache.access(address, domain=domain)
        return result.hit, result.latency

    def flush(self, address: int, domain: str) -> None:
        self.cache.flush(address, domain=domain)

    @property
    def events(self) -> EventLog:
        return self.cache.events


class HierarchyBackend(CacheBackend):
    """Two-core hierarchy: attacker and victim each run on their own core."""

    def __init__(self, l1_config: CacheConfig, l2_config: CacheConfig,
                 attacker_core: int = 0, victim_core: int = 1,
                 rng: Optional[np.random.Generator] = None):
        self.hierarchy = TwoLevelCache(l1_config, l2_config, cores=2, rng=rng)
        self.attacker_core = attacker_core
        self.victim_core = victim_core

    def reset(self) -> None:
        self.hierarchy.reset()

    def _core_for(self, domain: str) -> int:
        return self.victim_core if domain == "victim" else self.attacker_core

    def access(self, address: int, domain: str) -> tuple:
        result = self.hierarchy.access(address, core=self._core_for(domain), domain=domain)
        return result.hit, result.latency

    def flush(self, address: int, domain: str) -> None:
        self.hierarchy.flush(address, domain=domain)

    @property
    def events(self) -> EventLog:
        return self.hierarchy.l2.events


def make_backend(config: EnvConfig, rng: Optional[np.random.Generator] = None,
                 pl_locked_addresses: Optional[list] = None) -> CacheBackend:
    """Build the per-env object backend described by an :class:`EnvConfig`.

    Single envs always run on the full-fidelity object simulator, which keeps
    the event log for detectors; the SoA engine runs only as the batched game
    that :class:`~repro.rl.vec_env.VecEnv` builds for a whole batch.
    """
    rng = rng or np.random.default_rng(config.seed)
    if config.hierarchy:
        if config.l2_cache is None:
            raise ValueError("hierarchy backend requires l2_cache")
        return HierarchyBackend(config.cache, config.l2_cache,
                                attacker_core=config.attacker_core,
                                victim_core=config.victim_core, rng=rng)
    return SimulatedCacheBackend(config.cache, rng=rng,
                                 pl_locked_addresses=pl_locked_addresses)
