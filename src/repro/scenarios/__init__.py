"""Scenario registry: declarative environment construction for AutoCAT.

One RL formulation spans many scenarios — cache configurations, replacement
policies, PL-cache locking, detector-in-the-loop wrappers, blackbox machine
backends.  This package gives them a single declarative API:

* :class:`ScenarioSpec` — a frozen, JSON-serializable scenario description;
* :func:`register` / :func:`list_scenarios` / :func:`get_spec` — the registry
  (methods of :data:`repro.scenarios.registry.SCENARIOS`, one
  :class:`repro.registry.Registry`);
* :func:`make` / :func:`make_factory` — ``repro.make("guessing/lru-4way")``.

Importing this package registers the built-in catalogue
(:mod:`repro.scenarios.builtin`).
"""

from repro.scenarios.spec import ScenarioSpec, WRAPPER_BUILDERS
from repro.scenarios.registry import (
    as_env_factory,
    get_spec,
    is_registered,
    list_scenarios,
    make,
    make_factory,
    register,
    unregister,
)
from repro.scenarios import builtin as _builtin  # noqa: F401  (registers the catalogue)
from repro.scenarios.builtin import machine_scenario_id, register_builtin_scenarios

__all__ = [
    "ScenarioSpec",
    "WRAPPER_BUILDERS",
    "as_env_factory",
    "get_spec",
    "is_registered",
    "list_scenarios",
    "machine_scenario_id",
    "make",
    "make_factory",
    "register",
    "register_builtin_scenarios",
    "unregister",
]
