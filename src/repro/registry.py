"""The addressing layer's two building blocks: one record base, one registry.

Scenarios, defenses and experiments are all frozen, JSON-round-trippable
specs addressed by id.  How a spec is serialised and how it is named and
looked up is decided once, here:

* :class:`Record` — the dict/JSON round trip every spec (and the fault
  plans of :mod:`repro.runs.faults`) inherits.  ``to_dict`` returns
  top-level tuples as lists, so a dict compares equal to itself after a JSON
  round trip (campaign manifests rely on that); ``from_dict`` rejects
  unknown fields.
* :class:`Registry` — a typed id → spec table.  Each addressing module owns
  one instance and binds its public names to it::

      SCENARIOS = Registry(ScenarioSpec, "scenario_id", "scenario")
      register, get_spec = SCENARIOS.register, SCENARIOS.get

  so ``repro.register``, ``repro.get_spec``, ``repro.register_defense`` and
  ``repro.get_experiment`` are the same code over different tables.
"""

from __future__ import annotations

import dataclasses
import json
from typing import (Any, Callable, ClassVar, Dict, Generic, List, Mapping,
                    Optional, Protocol, Type, TypeVar, Union)

R = TypeVar("R", bound="Record")


class Record:
    """A frozen dataclass with a dict/JSON round trip that rejects unknown fields."""

    __dataclass_fields__: ClassVar[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data dict (JSON-safe) that losslessly round-trips via from_dict."""
        return {key: list(value) if isinstance(value, tuple) else value
                for key, value in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls: Type[R], data: Mapping[str, Any]) -> R:
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown {cls.__name__} fields: {sorted(unknown)}")
        build: Callable[..., R] = cls
        return build(**dict(data))

    def to_json(self, **json_kwargs: Any) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **json_kwargs)

    @classmethod
    def from_json(cls: Type[R], text: str) -> R:
        return cls.from_dict(json.loads(text))


class Derivable(Protocol):
    """A spec that can be copied under a new id with overrides applied."""

    def derive(self, spec_id: str, /, **overrides: Any) -> Any: ...


S = TypeVar("S", bound=Derivable)


def _article(word: str) -> str:
    return "an" if word[:1].lower() in "aeiou" else "a"


class Registry(Generic[S]):
    """A table of specs of one type, keyed by the spec's ``id_field``.

    ``kind`` names the table in error messages (``unknown scenario 'x'``).
    """

    def __init__(self, spec_type: Type[S], id_field: str, kind: str) -> None:
        self.spec_type = spec_type
        self.id_field = id_field
        self.kind = kind
        self._specs: Dict[str, S] = {}

    def register(self, spec: Optional[S] = None, *,
                 base: Optional[Union[str, S]] = None, overwrite: bool = False,
                 **fields: Any) -> S:
        """Register a spec and return it.

        Three calling styles (shown for scenarios):

        * ``register(spec)`` — register a ready-made spec under its own id;
        * ``register(scenario_id="x/y", env=..., cache=..., ...)`` — build
          the spec from keyword fields;
        * ``register(base="x/y", scenario_id="x/z", **overrides)`` — derive
          from a registered (or given) base through the spec's ``derive``.
        """
        name = self.spec_type.__name__
        if spec is not None and (base is not None or fields):
            raise TypeError(f"pass either {_article(name)} {name} or "
                            f"{self.id_field}/base/fields, not both")
        if spec is None:
            spec_id = fields.pop(self.id_field, None)
            if base is not None:
                if spec_id is None:
                    raise TypeError(f"deriving from a base requires {self.id_field}")
                spec = self.get(base).derive(spec_id, **fields)
            else:
                if spec_id is None:
                    raise TypeError(f"{self.kind} registration requires a spec "
                                    f"or {self.id_field}")
                build: Callable[..., S] = self.spec_type
                spec = build(**{self.id_field: spec_id}, **fields)
        spec_id = getattr(spec, self.id_field)
        if spec_id in self._specs and not overwrite:
            raise ValueError(f"{self.kind} {spec_id!r} is already registered "
                             "(pass overwrite=True to replace it)")
        self._specs[spec_id] = spec
        return spec

    def unregister(self, spec_id: str) -> None:
        """Remove a spec (mainly for tests)."""
        self._specs.pop(spec_id, None)

    def is_registered(self, spec_id: str) -> bool:
        return spec_id in self._specs

    def list(self, prefix: str = "") -> List[str]:
        """Sorted ids of all registered specs (optionally filtered by prefix)."""
        return sorted(spec_id for spec_id in self._specs if spec_id.startswith(prefix))

    def get(self, spec: Union[str, S]) -> S:
        """Look up an id (specs pass through unchanged)."""
        if isinstance(spec, self.spec_type):
            return spec
        if isinstance(spec, str):
            if spec not in self._specs:
                raise KeyError(f"unknown {self.kind} {spec!r}; known: {self.list()}")
            return self._specs[spec]
        raise TypeError(f"expected {_article(self.kind)} {self.kind} id or "
                        f"{self.spec_type.__name__}, got {type(spec)!r}")
