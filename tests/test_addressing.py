"""Tests for the addressing layer: the one registry class and the one record base.

Scenarios, defenses and experiments are three instances of
:class:`repro.registry.Registry`; every spec (and every experiment scale)
serialises through :class:`repro.registry.Record`.  The catalogue digest pins
every serialised byte, which the catalogue's ``spec_hash`` and a resumed
campaign's manifest check both depend on.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import defenses, runs, scenarios
from repro.defenses import DefenseSpec
from repro.experiments.common import SCALES, ExperimentScale
from repro.registry import Record, Registry
from repro.runs import ExperimentSpec

# (module registry, id field, a registered id to derive from)
REGISTRIES = {
    "scenario": (scenarios.registry.SCENARIOS, "scenario_id", "guessing/lru-4way"),
    "defense": (defenses.registry.DEFENSES, "defense_id", "keyed-remap"),
    "experiment": (runs.registry.EXPERIMENTS, "experiment_id", "table1"),
}

#: SHA-256 of the newline-joined serialised catalogue (see test below).
CATALOGUE_SHA256 = "9ba26f0d03530ff72bfaf40b44f994fb6e5d5b176aab7acb212f96b49be22e48"


def _catalogue():
    specs = ([scenarios.get_spec(s) for s in scenarios.list_scenarios()]
             + [defenses.get_defense(d) for d in defenses.list_defenses()]
             + [runs.get_experiment(e) for e in runs.list_experiments()]
             + [SCALES[name] for name in sorted(SCALES)])
    return [pytest.param(spec, id=f"{type(spec).__name__}:{getattr(spec, field)}")
            for spec in specs
            for field in ("scenario_id", "defense_id", "experiment_id", "name")
            if hasattr(spec, field)]


class TestCatalogueRoundTrip:
    def test_catalogue_size(self):
        assert (len(scenarios.list_scenarios()), len(defenses.list_defenses()),
                len(runs.list_experiments()), len(SCALES)) == (57, 5, 12, 3)

    @pytest.mark.parametrize("spec", _catalogue())
    def test_dict_and_json_round_trip(self, spec):
        assert isinstance(spec, Record)
        assert type(spec).from_dict(spec.to_dict()) == spec
        assert json.loads(spec.to_json()) == spec.to_dict()
        assert type(spec).from_json(spec.to_json()) == spec

    def test_catalogue_digest_is_pinned(self):
        lines = [scenarios.get_spec(s).to_json() for s in sorted(scenarios.list_scenarios())]
        lines += [defenses.get_defense(d).to_json() for d in sorted(defenses.list_defenses())]
        lines += [runs.get_experiment(e).to_json() for e in sorted(runs.list_experiments())]
        lines += [json.dumps(SCALES[name].to_dict(), sort_keys=True) for name in sorted(SCALES)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == CATALOGUE_SHA256


class TestRegistry:
    @pytest.mark.parametrize("kind", sorted(REGISTRIES))
    def test_spec_with_a_different_id_is_rejected(self, kind):
        registry, id_field, base_id = REGISTRIES[kind]
        spec = registry.get(base_id).derive("tmp/a")
        try:
            with pytest.raises(TypeError, match="not both"):
                registry.register(spec, **{id_field: "tmp/b"})
            with pytest.raises(TypeError, match="not both"):
                registry.register(spec, base=base_id)
            assert not registry.is_registered("tmp/a")
            assert not registry.is_registered("tmp/b")
        finally:
            registry.unregister("tmp/a")
            registry.unregister("tmp/b")

    @pytest.mark.parametrize("kind", sorted(REGISTRIES))
    def test_register_get_list_unregister(self, kind):
        registry, id_field, base_id = REGISTRIES[kind]
        try:
            derived = registry.register(base=base_id, **{id_field: "tmp/derived"})
            assert getattr(derived, id_field) == "tmp/derived"
            assert registry.get("tmp/derived") is derived
            assert registry.get(derived) is derived
            assert registry.list("tmp/") == ["tmp/derived"]
            with pytest.raises(ValueError, match=f"{kind} 'tmp/derived' is already registered"):
                registry.register(derived)
            assert registry.register(derived, overwrite=True) is derived
        finally:
            registry.unregister("tmp/derived")
        assert not registry.is_registered("tmp/derived")
        with pytest.raises(KeyError, match=f"unknown {kind} 'tmp/derived'"):
            registry.get("tmp/derived")

    def test_lookup_type_errors_name_the_registry(self):
        with pytest.raises(TypeError, match="expected a scenario id or ScenarioSpec"):
            scenarios.get_spec(3)
        with pytest.raises(TypeError, match="expected an experiment id or ExperimentSpec"):
            runs.get_experiment(3)
        with pytest.raises(TypeError, match="expected a defense id, mapping, or DefenseSpec"):
            defenses.get_defense(3)

    def test_inline_defense_mapping_takes_its_kind_as_id(self):
        spec = defenses.get_defense({"kind": "skew", "params": {"groups": 4}})
        assert spec == DefenseSpec(defense_id="skew", kind="skew", params={"groups": 4})
        try:
            derived = defenses.register_defense(base={"kind": "skew"},
                                                defense_id="tmp/skew4", groups=4)
            assert defenses.get_defense("tmp/skew4") is derived
            assert derived.params == {"groups": 4}
        finally:
            defenses.unregister_defense("tmp/skew4")

    def test_registry_builds_from_keyword_fields(self):
        registry: Registry[ExperimentSpec] = Registry(ExperimentSpec, "experiment_id",
                                                      "experiment")
        spec = registry.register(experiment_id="x", driver="repro.experiments.table1")
        assert registry.list() == ["x"] and spec.driver == "repro.experiments.table1"
        with pytest.raises(TypeError,
                           match="experiment registration requires a spec or experiment_id"):
            registry.register(driver="repro.experiments.table1")
        with pytest.raises(TypeError, match="deriving from a base requires experiment_id"):
            registry.register(base="x")

    def test_public_names_are_bound_to_the_instances(self):
        assert scenarios.register.__self__ is scenarios.registry.SCENARIOS
        assert defenses.list_defenses.__self__ is defenses.registry.DEFENSES
        assert runs.get_experiment.__self__ is runs.registry.EXPERIMENTS
        for module in (scenarios, defenses, runs):
            assert not any(name.startswith("resolve") for name in module.__all__)


class TestScaleRecord:
    def test_hidden_sizes_read_back_as_a_tuple(self):
        data = json.loads(json.dumps(SCALES["smoke"].to_dict()))
        assert data["hidden_sizes"] == [32, 32]
        assert ExperimentScale.from_dict(data) == SCALES["smoke"]

    def test_ppo_config_rejects_unknown_overrides(self):
        with pytest.raises(TypeError, match="learning_rat"):
            SCALES["smoke"].ppo_config(learning_rat=0.5)

    def test_ppo_config_overrides_are_validated(self):
        with pytest.raises(ValueError, match="dtype"):
            SCALES["smoke"].ppo_config(dtype="float16")
        config = SCALES["smoke"].ppo_config(learning_rate=0.5, dtype="float32")
        assert (config.learning_rate, config.dtype) == (0.5, "float32")
        assert config.horizon == SCALES["smoke"].horizon
