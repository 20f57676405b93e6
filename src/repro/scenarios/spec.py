"""Declarative, serializable scenario descriptions.

A :class:`ScenarioSpec` is a frozen value object that fully describes one
environment the RL agent can be trained in: the cache (or blackbox machine),
the guessing-game configuration, the reward shaping, an optional secure-cache
defense (see :mod:`repro.defenses`), and a declarative pipeline of detection
wrappers.  Specs round-trip losslessly through ``to_dict``/``from_dict`` and
JSON (the :class:`repro.registry.Record` base), so scenarios can be logged,
sharded across workers, or shipped to remote actors without pickling code.

``ScenarioSpec.build(seed)`` materializes the environment; the registry in
:mod:`repro.scenarios.registry` resolves scenario ids to specs and is the
normal way to construct environments (``repro.make("guessing/lru-4way")``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Mapping, Optional,
                    Tuple, Union)

from repro.cache.config import CacheConfig
from repro.env.config import EnvConfig, RewardConfig
from repro.registry import Record

if TYPE_CHECKING:
    from repro.defenses.spec import CompiledDefense, DefenseSpec

ENV_TYPES = ("guessing", "covert", "blackbox")

# Field names used to route flat override keys to the right nested mapping.
_ENV_FIELDS = frozenset(f.name for f in fields(EnvConfig)) - {"cache", "l2_cache", "rewards"}
_REWARD_FIELDS = frozenset(f.name for f in fields(RewardConfig))
_CACHE_FIELDS = frozenset(f.name for f in fields(CacheConfig))
_MACHINE_FIELDS = frozenset({"attacker_addresses"})


class UnknownOverrideError(KeyError, TypeError):
    """An override key that names no spec field, config field or dotted path.

    A ``TypeError`` like any unexpected keyword argument to ``repro.make`` or
    ``VecEnv``, and a ``KeyError`` for callers that treat overrides as keys.
    """


def _frozen_mapping(value: Optional[Mapping]) -> Optional[Dict]:
    if value is None:
        return None
    return dict(value)


def _normalize_defense(defense: Any) -> Optional[Union[str, Dict]]:
    """Normalize the ``defense`` field to JSON-safe plain data (id or dict)."""
    if defense is None or isinstance(defense, str):
        return defense
    if hasattr(defense, "to_dict"):  # a DefenseSpec instance
        return defense.to_dict()
    if isinstance(defense, Mapping):
        return dict(defense)
    raise TypeError(f"defense must be a registered id, a mapping, or a "
                    f"DefenseSpec; got {type(defense)!r}")


@dataclass(frozen=True)
class ScenarioSpec(Record):
    """Frozen description of one environment scenario.

    Fields
    ------
    scenario_id:
        Registry key, conventionally ``"family/variant"``.
    env:
        ``"guessing"`` (single-secret episodes), ``"covert"`` (fixed-length
        multi-guess episodes), or ``"blackbox"`` (simulated real machine).
    cache / l2_cache:
        :class:`~repro.cache.config.CacheConfig` keyword mappings (``l2_cache``
        only for two-level hierarchies).  Ignored for blackbox scenarios.
    env_kwargs:
        :class:`~repro.env.config.EnvConfig` keywords other than ``cache``,
        ``l2_cache``, and ``rewards`` (address ranges, window size, seed, ...).
    rewards:
        :class:`~repro.env.config.RewardConfig` keyword overrides.
    defense:
        Secure-cache defense protecting the victim: a registered defense id
        (``"plcache"``, ``"keyed-remap"``, ...), an inline
        :class:`~repro.defenses.DefenseSpec` mapping, or ``None``.  The
        defense compiles into cache-config / lock / wrapper fragments at
        build time (see :mod:`repro.defenses`).
    episode_length:
        Covert-env episode length (``env == "covert"`` only).
    machine / machine_kwargs:
        Blackbox machine key (``"name:level"``) and extra keywords
        (``attacker_addresses``) for ``env == "blackbox"``.
    wrappers:
        Declarative wrapper pipeline, applied innermost-first.  Each entry is a
        mapping with a ``"type"`` key (see :data:`WRAPPER_BUILDERS`) plus
        builder-specific parameters.
    """

    scenario_id: str
    env: str = "guessing"
    description: str = ""
    cache: Optional[Dict] = None
    l2_cache: Optional[Dict] = None
    env_kwargs: Dict = field(default_factory=dict)
    rewards: Dict = field(default_factory=dict)
    defense: Optional[Union[str, Dict]] = None
    episode_length: Optional[int] = None
    machine: Optional[str] = None
    machine_kwargs: Dict = field(default_factory=dict)
    wrappers: Tuple[Dict, ...] = ()

    def __post_init__(self) -> None:
        if self.env not in ENV_TYPES:
            raise ValueError(f"unknown env type {self.env!r}; choose from {ENV_TYPES}")
        if self.env == "blackbox" and not self.machine:
            raise ValueError("blackbox scenarios require a machine key ('name:level')")
        # Normalize mutable/sequence fields so equality and serialization are
        # stable regardless of how the spec was constructed.
        object.__setattr__(self, "cache", _frozen_mapping(self.cache))
        object.__setattr__(self, "l2_cache", _frozen_mapping(self.l2_cache))
        object.__setattr__(self, "env_kwargs", dict(self.env_kwargs))
        object.__setattr__(self, "rewards", dict(self.rewards))
        object.__setattr__(self, "machine_kwargs", dict(self.machine_kwargs))
        object.__setattr__(self, "defense", _normalize_defense(self.defense))
        if self.defense is not None and self.env == "blackbox":
            raise ValueError("defenses apply to simulated caches, not blackbox "
                             "machines")
        wrappers = tuple(dict(w) for w in self.wrappers)
        for wrapper in wrappers:
            if "type" not in wrapper:
                raise ValueError(f"wrapper spec {wrapper!r} is missing its 'type' key")
            if wrapper["type"] not in WRAPPER_BUILDERS:
                raise ValueError(f"unknown wrapper type {wrapper['type']!r}; "
                                 f"known: {sorted(WRAPPER_BUILDERS)}")
        object.__setattr__(self, "wrappers", wrappers)

    # -------------------------------------------------------------- overrides
    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """Return a new spec with overrides applied.

        Three kinds of keys are accepted:

        * spec field names (``cache``, ``env_kwargs``, ``wrappers``, ...) —
          mapping-valued fields merge into the existing mapping, everything
          else replaces the field;
        * dotted paths into mapping fields (``{"cache.rep_policy": "plru"}``);
        * flat config field names, routed automatically: :class:`EnvConfig`
          fields to ``env_kwargs``, :class:`RewardConfig` fields to
          ``rewards``, :class:`CacheConfig` fields to ``cache``, and blackbox
          machine fields to ``machine_kwargs``.
        """
        spec_fields = {f.name for f in fields(self)}
        mapping_fields = {"cache", "l2_cache", "env_kwargs", "rewards", "machine_kwargs"}
        updates: Dict[str, Any] = {}

        def merge(target_field: str, key: str, value: Any) -> None:
            current = updates.get(target_field)
            if current is None:
                current = dict(getattr(self, target_field) or {})
                updates[target_field] = current
            current[key] = value

        for key, value in overrides.items():
            if "." in key:
                target_field, _, sub_key = key.partition(".")
                if target_field not in mapping_fields:
                    raise KeyError(f"cannot apply dotted override {key!r}: "
                                   f"{target_field!r} is not a mapping field")
                merge(target_field, sub_key, value)
            elif key in spec_fields:
                if key in mapping_fields and isinstance(value, Mapping):
                    for sub_key, sub_value in value.items():
                        merge(key, sub_key, sub_value)
                else:
                    updates[key] = value
            elif key in _ENV_FIELDS:
                merge("env_kwargs", key, value)
            elif key in _REWARD_FIELDS:
                merge("rewards", key, value)
            elif key in _CACHE_FIELDS:
                merge("cache", key, value)
            elif key in _MACHINE_FIELDS:
                merge("machine_kwargs", key, value)
            else:
                raise UnknownOverrideError(f"unknown scenario override {key!r}")
        return replace(self, **updates)

    def derive(self, scenario_id: str, **overrides: Any) -> "ScenarioSpec":
        """Spec inheritance: a renamed copy with overrides applied."""
        return self.with_overrides(**overrides)._rename(scenario_id)

    def _rename(self, scenario_id: str) -> "ScenarioSpec":
        return replace(self, scenario_id=scenario_id)

    # ----------------------------------------------------------------- defense
    def resolved_defense(self) -> Optional["DefenseSpec"]:
        """The :class:`~repro.defenses.DefenseSpec` this scenario applies (or None)."""
        if self.defense is None:
            return None
        from repro.defenses import get_defense

        return get_defense(self.defense)

    def compiled_defense(self) -> Optional["CompiledDefense"]:
        """The defense compiled against this scenario (or None)."""
        defense = self.resolved_defense()
        return None if defense is None else defense.compile(self)

    def supports_soa(self) -> bool:
        """Capability hook: can N copies collapse into the SoA batched game?

        Consults the environment class (only the plain guessing game is
        batchable), every wrapper builder's ``supports_soa`` attribute, and
        the compiled cache config, defense included
        (:func:`repro.env.batched_env.config_supports_batching`).
        """
        if not _env_class_supports_soa(self.env):
            return False
        if any(not getattr(WRAPPER_BUILDERS[w["type"]], "supports_soa", False)
               for w in self.wrappers):
            return False
        try:
            config = self.build_config()
        except (TypeError, ValueError, KeyError):
            return False
        from repro.env.batched_env import config_supports_batching

        return config_supports_batching(config)

    # ---------------------------------------------------------------- building
    def build_config(self, seed: Optional[int] = None) -> EnvConfig:
        """The :class:`EnvConfig` this spec describes (simulated scenarios only).

        The compiled defense's cache/env fragments are already folded in, so
        consumers of the config (backends, the SoA engine) see the defended
        cache without knowing about the defense layer.
        """
        if self.env == "blackbox":
            raise ValueError("blackbox scenarios have no standalone EnvConfig; "
                             "build() the env and read env.config instead")
        cache_kwargs = dict(self.cache or {})
        env_kwargs = dict(self.env_kwargs)
        compiled = self.compiled_defense()
        if compiled is not None:
            cache_kwargs = _merge_cache_overrides(cache_kwargs,
                                                  compiled.cache_overrides)
            env_kwargs.update(compiled.env_overrides)
        if seed is not None:
            env_kwargs["seed"] = seed
        return EnvConfig(
            cache=CacheConfig(**cache_kwargs),
            l2_cache=CacheConfig(**self.l2_cache) if self.l2_cache else None,
            rewards=RewardConfig(**self.rewards),
            **env_kwargs,
        )

    def build(self, seed: Optional[int] = None,
              runtime: Optional[Mapping[str, Any]] = None) -> Any:
        """Materialize the environment (with its wrapper pipeline applied).

        ``runtime`` carries non-serializable collaborators that wrappers may
        need — currently ``{"detector": ...}`` for ``svm_detection``.
        """
        runtime = dict(runtime or {})
        compiled: Optional["CompiledDefense"] = None
        env: Any
        if self.env == "blackbox":
            from repro.env.hardware_env import BlackboxHardwareEnv
            from repro.hardware.machines import get_machine

            assert self.machine is not None  # enforced in __post_init__
            machine_kwargs = dict(self.machine_kwargs)
            env = BlackboxHardwareEnv(
                get_machine(self.machine),
                attacker_addresses=machine_kwargs.get("attacker_addresses"),
                rewards=RewardConfig(**self.rewards) if self.rewards else None,
                window_size=machine_kwargs.get("window_size")
                or self.env_kwargs.get("window_size"),
                seed=seed if seed is not None else int(self.env_kwargs.get("seed", 0)),
            )
        else:
            config = self.build_config(seed=seed)
            compiled = self.compiled_defense()
            locked = list(compiled.locked_addresses) if compiled else None
            if self.env == "covert":
                from repro.env.covert_env import MultiGuessCovertEnv

                env = MultiGuessCovertEnv(config,
                                          episode_length=self.episode_length or 160,
                                          pl_locked_addresses=locked or None)
            else:
                from repro.env.guessing_game import CacheGuessingGameEnv

                env = CacheGuessingGameEnv(config, pl_locked_addresses=locked or None)
        wrappers = self.wrappers
        if compiled is not None and compiled.wrappers:
            wrappers = wrappers + tuple(dict(w) for w in compiled.wrappers)
        for wrapper_spec in wrappers:
            params = {k: v for k, v in wrapper_spec.items() if k != "type"}
            env = WRAPPER_BUILDERS[wrapper_spec["type"]](env, params, runtime)
        return env


def _merge_cache_overrides(cache_kwargs: Dict, overrides: Mapping) -> Dict:
    """Merge compiled-defense cache fragments, deep-merging the ``extra`` dict."""
    merged = dict(cache_kwargs)
    for key, value in overrides.items():
        if key == "extra":
            merged["extra"] = {**dict(merged.get("extra") or {}), **dict(value)}
        else:
            merged[key] = value
    return merged


def _env_class_supports_soa(env_type: str) -> bool:
    """The env class's SoA-batching capability flag (lazily imported)."""
    if env_type == "guessing":
        from repro.env.guessing_game import CacheGuessingGameEnv as env_class
    elif env_type == "covert":
        from repro.env.covert_env import MultiGuessCovertEnv as env_class
    else:
        from repro.env.hardware_env import BlackboxHardwareEnv as env_class
    return bool(getattr(env_class, "supports_soa_batching", False))


# -------------------------------------------------------- wrapper pipeline
def _build_miss_count(env: Any, params: Dict, runtime: Dict) -> Any:
    from repro.env.wrappers import MissCountDetectionWrapper

    return MissCountDetectionWrapper(env)


def _build_autocorrelation_penalty(env: Any, params: Dict, runtime: Dict) -> Any:
    from repro.env.wrappers import AutocorrelationPenaltyWrapper

    return AutocorrelationPenaltyWrapper(
        env,
        penalty_scale=params.get("penalty_scale", -1.0),
        terminate_on_detection=params.get("terminate_on_detection", False),
    )


def _build_svm_detection(env: Any, params: Dict, runtime: Dict) -> Any:
    from repro.env.wrappers import SVMDetectionWrapper

    detector = runtime.get("detector")
    if detector is None:
        raise ValueError("the svm_detection wrapper needs a trained detector; "
                         "pass it via repro.make(scenario, detector=...)")
    return SVMDetectionWrapper(env, detector, penalize=params.get("penalize", True))


WRAPPER_BUILDERS: Dict[str, Callable] = {
    "miss_count": _build_miss_count,
    "autocorrelation_penalty": _build_autocorrelation_penalty,
    "svm_detection": _build_svm_detection,
}
