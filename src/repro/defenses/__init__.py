"""Pluggable secure-cache defenses.

The defense layer mirrors :mod:`repro.scenarios` one level down: a frozen
JSON-serializable :class:`DefenseSpec` describes one defense mechanism plus
parameters, a registry resolves defense ids, and every scenario accepts a
``defense`` (id, inline mapping, or spec) that compiles into cache-config /
wrapper fragments at build time::

    import repro

    repro.list_defenses()           # ['keyed-remap', 'plcache', 'random-fill', ...]
    env = repro.make("guessing/lru-4way", defense="keyed-remap")
    env = repro.make("guessing/lru-4way",
                     defense={"kind": "way_partition",
                              "params": {"victim_ways": 1}})

The attacker-vs-defense evaluation matrix lives in the experiment registry as
``repro.run("defense_matrix", ...)``; the ``defended/*`` scenario family
enumerates curated base-scenario x defense combinations.
"""

from repro.defenses.spec import (
    DEFENSE_KINDS,
    CompiledDefense,
    DefenseSpec,
)
from repro.defenses.registry import (
    DefenseLike,
    get_defense,
    is_defense_registered,
    list_defenses,
    register_defense,
    unregister_defense,
)
from repro.defenses import builtin as _builtin  # noqa: F401  (registers catalogue)

__all__ = [
    "DEFENSE_KINDS",
    "CompiledDefense",
    "DefenseLike",
    "DefenseSpec",
    "get_defense",
    "is_defense_registered",
    "list_defenses",
    "register_defense",
    "unregister_defense",
]
