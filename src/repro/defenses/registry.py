"""The defense registry behind ``repro.make(scenario, defense=...)``.

Mirrors the scenario registry one layer down: defenses are registered once
(the built-in catalogue lives in :mod:`repro.defenses.builtin`) and addressed
by id wherever a scenario takes a ``defense``::

    import repro

    repro.list_defenses()                        # every registered defense id
    env = repro.make("guessing/lru-4way", defense="keyed-remap")
    repro.register_defense(base="keyed-remap", defense_id="keyed-remap-fast",
                           rekey_epoch=8)

The public names are the methods of :data:`DEFENSES`, a
:class:`repro.registry.Registry`; ``get_defense`` and ``register_defense``
wrap its ``get``/``register`` to also accept an inline :class:`DefenseSpec`
mapping (``{"kind": "skew"}``).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.defenses.spec import DefenseSpec
from repro.registry import Registry

DefenseLike = Union[str, Mapping, DefenseSpec]

DEFENSES: Registry[DefenseSpec] = Registry(DefenseSpec, "defense_id", "defense")

unregister_defense = DEFENSES.unregister
is_defense_registered = DEFENSES.is_registered
list_defenses = DEFENSES.list


def get_defense(defense: DefenseLike) -> DefenseSpec:
    """Look up a defense id (specs and inline mappings pass through)."""
    if isinstance(defense, Mapping):
        return DefenseSpec.from_dict(defense)
    if not isinstance(defense, (str, DefenseSpec)):
        raise TypeError(f"expected a defense id, mapping, or DefenseSpec, "
                        f"got {type(defense)!r}")
    return DEFENSES.get(defense)


def register_defense(spec: Optional[DefenseSpec] = None, *,
                     base: Optional[DefenseLike] = None, **fields: Any) -> DefenseSpec:
    """:meth:`Registry.register <repro.registry.Registry.register>` on
    :data:`DEFENSES`; ``base`` may also be an inline mapping."""
    return DEFENSES.register(spec, base=None if base is None else get_defense(base),
                             **fields)
