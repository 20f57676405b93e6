"""Event logging for detection schemes.

CC-Hunter consumes a *conflict-miss event train*: events where the victim
evicts an attacker line (V->A, encoded 0) or the attacker evicts a victim line
(A->V, encoded 1).  Cyclone consumes per-line *cyclic interference* counts
(domain a touches a line, domain b evicts/touches it, then a returns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ConflictEvent:
    """One inter-domain conflict: ``evictor`` replaced a line owned by ``owner``."""

    evictor: str
    owner: str
    address: int
    set_index: int
    step: int

    @property
    def code(self) -> int:
        """CC-Hunter encoding: 1 for attacker-evicts-victim, 0 for victim-evicts-attacker."""
        return 1 if self.evictor == "attacker" else 0


@dataclass(frozen=True)
class FlushEvent:
    """One clflush: ``domain`` invalidated ``address`` (``resident`` if it was cached)."""

    domain: Optional[str]
    address: int
    set_index: int
    resident: bool
    step: int


@dataclass
class EventLog:
    """Accumulates detection-relevant events during a cache run.

    ``max_events`` bounds the ``conflicts`` and ``flushes`` lists as rolling
    windows (oldest events dropped first) so million-step RL runs cannot grow
    the log without limit.  It is off (None) by default because detectors
    consume complete episode traces; long-running training enables it via a
    scenario override (``cache.max_events``).  Scalar counters keep counting
    past the window.
    """

    conflicts: List[ConflictEvent] = field(default_factory=list)
    flushes: List[FlushEvent] = field(default_factory=list)
    victim_misses: int = 0
    attacker_misses: int = 0
    total_accesses: int = 0
    max_events: Optional[int] = None
    _line_history: Dict[Tuple[int, int], List[str]] = field(default_factory=dict)
    cyclic_interference: Dict[Tuple[int, int], int] = field(default_factory=dict)
    _step: int = 0

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events < 1:
            raise ValueError("max_events must be None or >= 1")

    def reset(self) -> None:
        self.conflicts.clear()
        self.flushes.clear()
        self.victim_misses = 0
        self.attacker_misses = 0
        self.total_accesses = 0
        self._line_history.clear()
        self.cyclic_interference.clear()
        self._step = 0

    def record_access(self, domain: Optional[str], hit: bool,
                      set_index: int, way: int,
                      evicted_domain: Optional[str]) -> None:
        """Record one cache access and any inter-domain conflict it caused."""
        self._step += 1
        self.total_accesses += 1
        if not hit:
            if domain == "victim":
                self.victim_misses += 1
            elif domain == "attacker":
                self.attacker_misses += 1
        if (not hit and evicted_domain is not None and domain is not None
                and evicted_domain != domain):
            self.conflicts.append(ConflictEvent(
                evictor=domain, owner=evicted_domain, address=-1,
                set_index=set_index, step=self._step))
            self._trim(self.conflicts)
        self._track_cyclic(domain, set_index, way)

    def record_flush(self, domain: Optional[str], address: int, set_index: int,
                     resident: bool) -> None:
        """Record one clflush so detectors can observe flush activity."""
        self._step += 1
        self.flushes.append(FlushEvent(domain=domain, address=address,
                                       set_index=set_index, resident=resident,
                                       step=self._step))
        self._trim(self.flushes)

    def _trim(self, events: List) -> None:
        """Enforce the rolling ``max_events`` window on one event list."""
        if self.max_events is not None and len(events) > self.max_events:
            del events[: len(events) - self.max_events]

    def flush_count(self, domain: Optional[str] = None) -> int:
        """Number of recorded flushes, optionally filtered by domain."""
        if domain is None:
            return len(self.flushes)
        return sum(1 for event in self.flushes if event.domain == domain)

    def _track_cyclic(self, domain: Optional[str], set_index: int, way: int) -> None:
        """Cyclone-style cyclic interference: a -> b -> a on the same line."""
        if domain is None:
            return
        key = (set_index, way)
        history = self._line_history.setdefault(key, [])
        history.append(domain)
        if len(history) >= 3 and history[-1] == history[-3] and history[-2] != history[-1]:
            self.cyclic_interference[key] = self.cyclic_interference.get(key, 0) + 1
        if len(history) > 8:
            del history[:-4]

    def conflict_train(self) -> List[int]:
        """CC-Hunter event train: 1 = A evicts V, 0 = V evicts A."""
        return [event.code for event in self.conflicts]

    def total_cyclic_interference(self) -> int:
        return sum(self.cyclic_interference.values())
