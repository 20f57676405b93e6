"""Declarative, serializable secure-cache defense descriptions.

A :class:`DefenseSpec` is the defense-layer sibling of
:class:`repro.scenarios.ScenarioSpec`: a frozen value object naming one
defense *mechanism* (``kind``) plus its parameters.  Specs round-trip
losslessly through ``to_dict``/``from_dict`` and JSON (the
:class:`repro.registry.Record` base), so defenses can be stored inside
scenario specs, campaign manifests, and run artifacts.

A defense does not build anything by itself — it **compiles into fragments**
(:class:`CompiledDefense`) that the scenario layer folds into the environment
it is defending:

* ``cache_overrides`` are merged into the scenario's cache config.  Mechanisms
  that change cache behavior (keyed-remap, skew, way-partition, random-fill)
  place a plain-data ``defense`` fragment in ``CacheConfig.extra``, which
  :func:`repro.cache.defended.make_cache` and the SoA engine interpret;
* ``env_overrides`` are merged into the scenario's env kwargs;
* ``wrappers`` are appended to the scenario's wrapper pipeline;
* ``locked_addresses`` pre-installs and locks victim lines (the PL cache).

``_SOA_KERNELS`` lists the mechanisms with SoA batched kernels (keyed-remap,
and way-partition on lru/mru); :func:`repro.env.batched_env.config_supports_batching`
reads it from the compiled cache config.  Defended scenarios whose mechanism
is not listed warn and step per env on the (bit-identical) object path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.registry import Record

#: Defense mechanisms the cache substrate implements.
DEFENSE_KINDS = ("plcache", "keyed_remap", "skew", "way_partition", "random_fill")

#: Mechanisms with vectorized SoA kernels, mapped to the replacement policies
#: the kernel supports (None = every SoA-capable policy).  Read by
#: :func:`repro.env.batched_env.config_supports_batching`.
_SOA_KERNELS: Dict[str, Optional[Tuple[str, ...]]] = {
    "keyed_remap": None,
    "way_partition": ("lru", "mru"),
}


@dataclass(frozen=True)
class CompiledDefense:
    """The fragments a defense contributes to the scenario that applies it."""

    cache_overrides: Dict = field(default_factory=dict)
    env_overrides: Dict = field(default_factory=dict)
    wrappers: Tuple[Dict, ...] = ()
    locked_addresses: Tuple[int, ...] = ()


@dataclass(frozen=True)
class DefenseSpec(Record):
    """Frozen description of one secure-cache defense.

    Fields
    ------
    defense_id:
        Registry key (``"plcache"``, ``"keyed-remap"``, ...).
    kind:
        The mechanism, one of :data:`DEFENSE_KINDS`.  Several registered
        defenses may share a kind with different parameters.
    description:
        One-line summary for listings.
    params:
        Mechanism parameters: ``locked_addresses`` (plcache, defaults to the
        scenario's victim range), ``rekey_epoch`` (keyed_remap), ``groups``
        (skew), ``victim_ways`` (way_partition, defaults to half the ways),
        ``fill_window`` (random_fill).
    """

    defense_id: str
    kind: str
    description: str = ""
    params: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.defense_id:
            raise ValueError("defense_id must be non-empty")
        if self.kind not in DEFENSE_KINDS:
            raise ValueError(f"unknown defense kind {self.kind!r}; "
                             f"choose from {DEFENSE_KINDS}")
        object.__setattr__(self, "params", dict(self.params))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DefenseSpec":
        # Inline fragments may omit the id; the kind doubles as one.
        if "defense_id" not in data and "kind" in data:
            data = {**data, "defense_id": data["kind"]}
        return super().from_dict(data)

    # -------------------------------------------------------------- derivation
    def derive(self, defense_id: str, **params: Any) -> "DefenseSpec":
        """A renamed copy with parameter overrides merged in."""
        merged = {**self.params, **params}
        return replace(self, defense_id=defense_id, params=merged)

    # ------------------------------------------------------------- compilation
    def compile(self, scenario: Any = None) -> CompiledDefense:
        """Compile into the fragments the scenario layer applies.

        ``scenario`` (a :class:`~repro.scenarios.ScenarioSpec`, duck-typed) is
        the scenario being defended; it supplies context-dependent defaults
        (the victim address range for plcache, the associativity for
        way-partition).  ``None`` falls back to :class:`CacheConfig` /
        :class:`~repro.env.config.EnvConfig` defaults.
        """
        cache_kwargs = dict(getattr(scenario, "cache", None) or {})
        env_kwargs = dict(getattr(scenario, "env_kwargs", None) or {})
        if self.kind == "plcache":
            locked = self.params.get("locked_addresses")
            if locked is None:
                victim_s = int(env_kwargs.get("victim_addr_s", 0))
                victim_e = int(env_kwargs.get("victim_addr_e", 0))
                locked = range(victim_s, victim_e + 1)
            return CompiledDefense(cache_overrides={"lockable": True},
                                   locked_addresses=tuple(int(a) for a in locked))
        if self.kind == "keyed_remap":
            fragment = {"kind": "keyed_remap",
                        "rekey_epoch": int(self.params.get("rekey_epoch", 32))}
        elif self.kind == "skew":
            fragment = {"kind": "skew", "groups": int(self.params.get("groups", 2))}
        elif self.kind == "way_partition":
            num_ways = int(cache_kwargs.get("num_ways", CacheConfig.num_ways))
            victim_ways = self.params.get("victim_ways")
            victim_ways = (max(1, num_ways // 2) if victim_ways is None
                           else int(victim_ways))
            fragment = {"kind": "way_partition", "victim_ways": victim_ways}
        else:  # random_fill
            fragment = {"kind": "random_fill",
                        "fill_window": int(self.params.get("fill_window", 4))}
        return CompiledDefense(cache_overrides={"extra": {"defense": fragment}})
