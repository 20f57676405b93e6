"""The scenario registry behind ``repro.make()``.

Scenarios are registered once (the built-in catalogue lives in
:mod:`repro.scenarios.builtin`; experiments and users can add their own) and
constructed by id::

    import repro

    env = repro.make("guessing/lru-4way", seed=3)
    env = repro.make("guessing/lru-4way", **{"cache.num_ways": 8})
    factory = repro.make_factory("covert/prime-probe", episode_length=64)

``register`` also supports spec inheritance, deriving a new scenario from a
registered base::

    repro.register(base="guessing/lru-4way", scenario_id="guessing/lru-8way",
                   **{"cache.num_ways": 8, "attacker_addr_e": 8})

``register``, ``unregister``, ``is_registered``, ``list_scenarios`` and
``get_spec`` are the methods of one :class:`repro.registry.Registry`,
:data:`SCENARIOS`; the defense and experiment registries are two more
instances of the same class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Union

from repro.registry import Registry
from repro.scenarios.spec import ScenarioSpec

ScenarioLike = Union[str, ScenarioSpec]

SCENARIOS: Registry[ScenarioSpec] = Registry(ScenarioSpec, "scenario_id", "scenario")

register = SCENARIOS.register
unregister = SCENARIOS.unregister
is_registered = SCENARIOS.is_registered
list_scenarios = SCENARIOS.list
get_spec = SCENARIOS.get


def make(scenario: ScenarioLike, seed: Optional[int] = None,
         detector: Optional[Any] = None, **overrides: Any) -> Any:
    """Build the environment for a scenario, with optional overrides.

    ``seed`` seeds the env (falling back to the spec's own seed); ``detector``
    is handed to ``svm_detection`` wrappers; every other keyword is a spec
    override (flat config fields, dotted paths, or whole spec fields — see
    :meth:`ScenarioSpec.with_overrides`).
    """
    return make_factory(scenario, detector, **overrides)(seed)


class SpecFactory:
    """A picklable ``factory(seed) -> env`` for a resolved scenario spec.

    Being a plain object (rather than a closure) lets trainers that hold a
    factory be checkpointed with ``pickle`` and rebuilt in another process.
    The resolved spec is exposed as ``.spec`` so consumers (``VecEnv``'s
    batched fast path) can introspect what will be built.
    """

    __slots__ = ("spec", "runtime")

    def __init__(self, spec: ScenarioSpec, runtime: Optional[Dict[str, Any]] = None) -> None:
        self.spec = spec
        self.runtime = dict(runtime or {})

    def __call__(self, seed: Optional[int]) -> Any:
        return self.spec.build(seed=seed, runtime=dict(self.runtime))

    def __repr__(self) -> str:
        return f"SpecFactory({self.spec.scenario_id!r})"


def make_factory(scenario: ScenarioLike, detector: Optional[Any] = None,
                 **overrides: Any) -> SpecFactory:
    """A picklable ``factory(seed) -> env`` for trainers and vectorized envs."""
    spec = get_spec(scenario)
    if overrides:
        spec = spec.with_overrides(**overrides)
    runtime = {"detector": detector} if detector is not None else {}
    return SpecFactory(spec, runtime)


def as_env_factory(source: Union[ScenarioLike, Callable[[int], Any]],
                   **overrides: Any) -> Callable[[int], Any]:
    """Normalize an env source (factory callable, scenario id, or spec) to a factory."""
    if callable(source) and not isinstance(source, ScenarioSpec):
        if overrides:
            raise TypeError("overrides only apply to scenario ids/specs, not factories")
        return source
    return make_factory(source, **overrides)
