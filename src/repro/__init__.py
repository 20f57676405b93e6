"""AutoCAT reproduction: RL for automated exploration of cache-timing attacks.

This package reproduces the system described in "AutoCAT: Reinforcement
Learning for Automated Exploration of Cache-Timing Attacks" (HPCA 2023):

* :mod:`repro.cache` — the cache simulator substrate (replacement policies,
  prefetchers, PL cache, two-level hierarchy, detection event hooks);
* :mod:`repro.env` — the cache guessing game as a gym-style RL environment;
* :mod:`repro.rl` — PPO (on a from-scratch numpy autodiff stack in
  :mod:`repro.autodiff` / :mod:`repro.nn`), replay, and search baselines;
* :mod:`repro.detection` — CC-Hunter, Cyclone, and miss-count detectors;
* :mod:`repro.attacks` — textbook attacks, LRU-state attacks,
  StealthyStreamline, covert channels, and a Spectre-v1 demo;
* :mod:`repro.hardware` — blackbox machine models replacing real processors;
* :mod:`repro.registry` — the one ``Registry`` class and ``Record`` base
  behind the scenario, defense, and experiment registries;
* :mod:`repro.scenarios` — the scenario registry behind :func:`repro.make`;
* :mod:`repro.defenses` — pluggable secure-cache defenses (PL cache, keyed
  remapping, skewed associativity, way partitioning, random fill) applied to
  any scenario via ``repro.make(scenario, defense=...)``;
* :mod:`repro.experiments` — drivers regenerating every table and figure.

Environments are constructed declaratively through the scenario registry::

    import repro

    repro.list_scenarios()                     # every registered scenario id
    env = repro.make("guessing/lru-4way")      # build one, gym-style
    env = repro.make("guessing/lru-4way", seed=3, **{"cache.num_ways": 8})

and whole training campaigns through the experiment registry (see
:mod:`repro.runs`)::

    repro.list_experiments()                   # every registered experiment id
    campaign = repro.run("table5", scale="smoke", workers=4)
    print(campaign.format_results())           # rows + persistent run artifact
"""

__version__ = "1.2.0"

from repro._blas import budget_threads as _budget_threads

_budget_threads()

from repro.cache import Cache, CacheConfig
from repro.defenses import (
    DefenseSpec,
    get_defense,
    list_defenses,
    register_defense,
)
from repro.env import CacheGuessingGameEnv, EnvConfig, RewardConfig
from repro.rl import PPOConfig, PPOTrainer
from repro.scenarios import (
    ScenarioSpec,
    get_spec,
    list_scenarios,
    make,
    make_factory,
    register,
)
from repro.runs import (
    CampaignResult,
    ExperimentSpec,
    get_experiment,
    list_experiments,
    register_experiment,
    run,
)

__all__ = [
    "__version__",
    "Cache",
    "CacheConfig",
    "CacheGuessingGameEnv",
    "CampaignResult",
    "DefenseSpec",
    "EnvConfig",
    "ExperimentSpec",
    "RewardConfig",
    "PPOConfig",
    "PPOTrainer",
    "ScenarioSpec",
    "get_defense",
    "get_experiment",
    "get_spec",
    "list_defenses",
    "list_experiments",
    "list_scenarios",
    "make",
    "make_factory",
    "register",
    "register_defense",
    "register_experiment",
    "run",
]
