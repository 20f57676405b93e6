"""Tests for the defense subsystem: registry, compiled fragments, defended
cache mechanisms, SoA kernel parity, way-partition isolation, and the
defense_matrix experiment."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

import repro
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.defended import (
    KeyedRemapCache,
    RandomFillCache,
    SkewedCache,
    WayPartitionCache,
    make_cache,
)
from repro.cache.soa import SoACacheEngine, domain_code
from repro.defenses import (
    DefenseSpec,
    get_defense,
    is_defense_registered,
    list_defenses,
    register_defense,
    resolve_defense,
    unregister_defense,
)
from repro.rl.vec_env import VecEnv
from repro.scenarios import ScenarioSpec, get_spec, make, make_factory

BUILTIN_DEFENSES = ("plcache", "keyed-remap", "skew", "way-partition",
                    "random-fill")


class TestDefenseRegistry:
    def test_builtin_catalogue(self):
        registered = list_defenses()
        assert len(registered) >= 5
        for defense_id in BUILTIN_DEFENSES:
            assert defense_id in registered
            assert is_defense_registered(defense_id)

    def test_every_builtin_round_trips_via_json(self):
        for defense_id in list_defenses():
            spec = get_defense(defense_id)
            restored = DefenseSpec.from_json(spec.to_json())
            assert restored == spec
            json.loads(spec.to_json())  # plain data

    def test_register_derive_unregister(self):
        try:
            spec = register_defense(base="keyed-remap",
                                    defense_id="_test-keyed-fast",
                                    rekey_epoch=8)
            assert spec.kind == "keyed_remap"
            assert spec.params["rekey_epoch"] == 8
            env = make("guessing/lru-4way", defense="_test-keyed-fast")
            assert env.backend.cache.rekey_epoch == 8
        finally:
            unregister_defense("_test-keyed-fast")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_defense(defense_id="plcache", kind="plcache")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown defense kind"):
            DefenseSpec(defense_id="x", kind="moat")

    def test_unknown_id_raises_with_catalogue(self):
        with pytest.raises(KeyError, match="unknown defense"):
            resolve_defense("does-not-exist")

    def test_inline_mapping_resolves(self):
        spec = resolve_defense({"kind": "way_partition",
                                "params": {"victim_ways": 1}})
        assert spec.defense_id == "way_partition"  # kind doubles as the id
        assert spec.params == {"victim_ways": 1}


class TestScenarioDefenseField:
    def test_make_with_each_builtin_defense(self):
        expected = {
            "plcache": "PLCache",
            "keyed-remap": "KeyedRemapCache",
            "skew": "SkewedCache",
            "way-partition": "WayPartitionCache",
            "random-fill": "RandomFillCache",
        }
        for defense_id, cache_class in expected.items():
            env = make("guessing/lru-4way-disjoint", defense=defense_id, seed=0)
            assert type(env.backend.cache).__name__ == cache_class, defense_id
            env.reset()
            for action in range(4):
                env.step(action)

    def test_inline_defense_params_reach_the_cache(self):
        env = make("guessing/lru-4way",
                   defense={"kind": "keyed_remap", "params": {"rekey_epoch": 5}})
        assert env.backend.cache.rekey_epoch == 5
        env = make("guessing/lru-4way",
                   defense={"kind": "way_partition", "params": {"victim_ways": 3}})
        assert env.backend.cache.victim_ways == 3

    def test_defense_spec_instance_accepted(self):
        spec = DefenseSpec(defense_id="rf", kind="random_fill",
                           params={"fill_window": 2})
        env = make("guessing/lru-4way", defense=spec)
        assert env.backend.cache.fill_window == 2

    def test_defense_field_round_trips(self):
        spec = get_spec("guessing/lru-4way").with_overrides(defense="keyed-remap")
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        inline = spec.with_overrides(defense={"kind": "skew", "params": {}})
        assert ScenarioSpec.from_dict(inline.to_dict()) == inline

    def test_legacy_pl_locked_addresses_rejected(self):
        # PL locks are expressed through the defense field only; the
        # pre-defense-layer spec key is an unknown field like any other.
        legacy = {
            "scenario_id": "legacy/pl",
            "cache": {"num_sets": 1, "num_ways": 4, "rep_policy": "plru",
                      "lockable": True},
            "env_kwargs": {"attacker_addr_s": 1, "attacker_addr_e": 5},
            "pl_locked_addresses": [0],
        }
        with pytest.raises(ValueError, match="pl_locked_addresses"):
            ScenarioSpec.from_dict(legacy)

    def test_plcache_defense_locks_the_victim_range(self):
        env = make("guessing/quickstart", defense="plcache")
        env.reset()
        assert env.backend.pl_locked_addresses == [0, 1]
        assert env.backend.cache.contains(0) and env.backend.cache.contains(1)

    def test_migrated_table7_scenarios(self):
        pl = get_spec("guessing/plcache-plru-4way")
        assert pl.defense == "plcache"
        env = make(pl)
        env.reset()
        assert env.backend.pl_locked_addresses == [0]
        baseline = get_spec("guessing/plcache-baseline-4way")
        assert baseline.defense is None
        assert make(baseline).backend.pl_locked_addresses == []

    def test_defended_family_registered_and_constructible(self):
        family = repro.list_scenarios("defended/")
        assert len(family) == 15
        for scenario_id in family:
            assert get_spec(scenario_id).defense is not None

    def test_blackbox_defense_rejected(self):
        with pytest.raises(ValueError, match="blackbox"):
            get_spec("blackbox/core-i7-6700-l1d").with_overrides(
                defense="keyed-remap")

    def test_custom_defense_can_add_wrappers(self):
        from repro.defenses.spec import CompiledDefense
        from repro.env.wrappers import MissCountDetectionWrapper

        class WrapperDefense(DefenseSpec):
            def compile(self, scenario=None):
                return CompiledDefense(wrappers=({"type": "miss_count"},))

        spec = get_spec("guessing/lru-4way").with_overrides(
            defense=WrapperDefense(defense_id="wrapped", kind="random_fill"))
        # Normalized to plain data on the spec; resolution returns the base
        # DefenseSpec, so this exercises the wrapper fragment path directly.
        compiled = WrapperDefense(defense_id="wrapped",
                                  kind="random_fill").compile(spec)
        assert compiled.wrappers == ({"type": "miss_count"},)
        env = MissCountDetectionWrapper(make("guessing/lru-4way"))
        assert env is not None


class TestDefendedCacheBehavior:
    def test_keyed_remap_rekeys_and_flushes_every_epoch(self):
        config = CacheConfig(num_sets=1, num_ways=4,
                             extra={"defense": {"kind": "keyed_remap",
                                                "rekey_epoch": 4}})
        cache = KeyedRemapCache(config, rng=np.random.default_rng(0))
        first_key = cache.mapping.key
        for address in (1, 2, 3):
            cache.access(address)
        assert cache.contents() == [1, 2, 3]
        cache.access(4)  # 4th access closes the epoch
        assert cache.contents() == []
        assert cache.mapping.key != first_key

    def test_keyed_remap_reset_draws_a_fresh_key(self):
        config = CacheConfig(num_sets=4, num_ways=2,
                             extra={"defense": {"kind": "keyed_remap"}})
        cache = KeyedRemapCache(config, rng=np.random.default_rng(3))
        key = cache.mapping.key
        cache.reset()
        assert cache.mapping.key != key

    def test_skew_lookup_spans_hash_groups(self):
        config = CacheConfig(num_sets=8, num_ways=4,
                             extra={"defense": {"kind": "skew", "groups": 2}})
        cache = SkewedCache(config, rng=np.random.default_rng(1))
        for address in range(12):
            cache.access(address)
        for address in range(12):
            resident = cache.contains(address)
            if resident:
                assert cache.access(address).hit  # found across groups
        # Flush removes the single resident copy.
        resident = [a for a in range(12) if cache.contains(a)]
        assert resident, "random fills should keep some lines resident"
        assert cache.flush(resident[0])
        assert not cache.contains(resident[0])

    def test_skew_group_size_must_divide_ways(self):
        config = CacheConfig(num_ways=4,
                             extra={"defense": {"kind": "skew", "groups": 3}})
        with pytest.raises(ValueError, match="evenly divide"):
            SkewedCache(config)

    def test_random_fill_never_installs_the_demand_line(self):
        config = CacheConfig(num_sets=4, num_ways=2,
                             extra={"defense": {"kind": "random_fill",
                                                "fill_window": 4}})
        cache = RandomFillCache(config, rng=np.random.default_rng(0))
        for address in (0, 8, 16, 24):
            result = cache.access(address)
            assert result.miss and result.way == -1
            assert not cache.contains(address)  # fills land on a+1..a+window
        assert cache.contents(), "neighbor lines should have been filled"

    def test_way_partition_confines_fills(self):
        config = CacheConfig(num_sets=1, num_ways=4,
                             extra={"defense": {"kind": "way_partition",
                                                "victim_ways": 2}})
        cache = WayPartitionCache(config, rng=np.random.default_rng(0))
        for address in range(8):
            assert cache.access(address, domain="attacker").way in (2, 3)
        for address in range(8, 12):
            assert cache.access(address, domain="victim").way in (0, 1)

    def test_way_partition_bounds_validated(self):
        config = CacheConfig(num_ways=4,
                             extra={"defense": {"kind": "way_partition",
                                                "victim_ways": 4}})
        with pytest.raises(ValueError, match="victim_ways"):
            WayPartitionCache(config)

    def test_make_cache_dispatch(self):
        assert isinstance(make_cache(CacheConfig()), Cache)
        assert isinstance(
            make_cache(CacheConfig(extra={"defense": {"kind": "keyed_remap"}})),
            KeyedRemapCache)
        with pytest.raises(ValueError, match="unknown defense kind"):
            make_cache(CacheConfig(extra={"defense": {"kind": "moat"}}))

    def test_defended_caches_reject_prefetchers_and_locks(self):
        for kind in ("keyed_remap", "skew", "way_partition", "random_fill"):
            with pytest.raises(ValueError, match="prefetcher"):
                make_cache(CacheConfig(prefetcher="nextline",
                                       extra={"defense": {"kind": kind}}))
            with pytest.raises(ValueError, match="PL locking"):
                make_cache(CacheConfig(lockable=True,
                                       extra={"defense": {"kind": kind}}))


def drive_defended_pair(config: CacheConfig, cache_class, steps: int = 300,
                        max_address: int = 24, num_envs: int = 3,
                        base_seed: int = 40):
    """Seeded-trace parity: SoA engine vs per-env defended object caches."""
    engine = SoACacheEngine(
        config, num_envs,
        rngs=[np.random.default_rng(base_seed + i) for i in range(num_envs)])
    caches = [cache_class(config, rng=np.random.default_rng(base_seed + i))
              for i in range(num_envs)]
    trace_rng = np.random.default_rng(7)
    addr_rngs = [np.random.default_rng(100 + i) for i in range(num_envs)]
    env_indices = np.arange(num_envs)
    for step in range(steps):
        op = ("access", "access", "access", "flush")[int(trace_rng.integers(4))]
        addresses = np.array([int(rng.integers(max_address)) for rng in addr_rngs])
        domain = ("attacker", "victim")[int(trace_rng.integers(2))]
        domains = np.full(num_envs, domain_code(domain), dtype=np.int8)
        if op == "access":
            hit, way, evicted_addr, evicted_dom = engine.access(
                env_indices, addresses, domains)
            for i, cache in enumerate(caches):
                result = cache.access(int(addresses[i]), domain=domain)
                assert bool(hit[i]) == result.hit, (step, i)
                assert int(way[i]) == result.way, (step, i)
        else:
            resident = engine.flush(env_indices, addresses)
            for i, cache in enumerate(caches):
                assert bool(resident[i]) == cache.flush(int(addresses[i]),
                                                        domain=domain), (step, i)
        for i, cache in enumerate(caches):
            for set_index in range(config.num_sets):
                assert engine.replacement_state(i, set_index) == \
                    cache.replacement_state(set_index), (step, i, set_index)
    for i, cache in enumerate(caches):
        assert engine.contents(i) == cache.contents(), i
        assert engine.access_count[i] == cache.access_count, i
        assert engine.miss_count[i] == cache.miss_count, i


class TestSoAKernelParity:
    @pytest.mark.parametrize("policy", ["lru", "plru", "rrip", "random", "mru"])
    def test_keyed_remap_across_epoch_boundaries(self, policy):
        # rekey_epoch=7 with 300 accesses crosses dozens of epoch boundaries,
        # exercising key draws, invalidation, and state resets on both paths.
        config = CacheConfig(num_sets=4, num_ways=4, rep_policy=policy,
                             extra={"defense": {"kind": "keyed_remap",
                                                "rekey_epoch": 7}})
        drive_defended_pair(config, KeyedRemapCache, max_address=48)

    @pytest.mark.parametrize("policy", ["lru", "mru"])
    @pytest.mark.parametrize("num_sets,victim_ways", [(1, 1), (2, 2)])
    def test_way_partition(self, policy, num_sets, victim_ways):
        config = CacheConfig(num_sets=num_sets, num_ways=4, rep_policy=policy,
                             extra={"defense": {"kind": "way_partition",
                                                "victim_ways": victim_ways}})
        drive_defended_pair(config, WayPartitionCache, max_address=16)

    def test_scalar_warm_up_crosses_epoch_boundary(self):
        config = CacheConfig(num_sets=2, num_ways=4,
                             extra={"defense": {"kind": "keyed_remap",
                                                "rekey_epoch": 4}})
        scalar = SoACacheEngine(config, 1, rngs=[np.random.default_rng(5)])
        vector = SoACacheEngine(config, 1, rngs=[np.random.default_rng(5)])
        trace = [1, 5, 3, 1, 7, 2, 5, 0, 3, 6]  # 10 accesses, 2 rekeys
        scalar.warm_up_from_empty(0, trace)
        vector.warm_up(np.array([0]), np.array([trace]))
        assert scalar.contents(0) == vector.contents(0)
        assert int(scalar._keys[0]) == int(vector._keys[0])
        assert int(scalar._rekey_counter[0]) == int(vector._rekey_counter[0])
        for set_index in range(config.num_sets):
            assert scalar.replacement_state(0, set_index) == \
                vector.replacement_state(0, set_index)

    def test_unsupported_defense_kind_rejected_by_engine(self):
        with pytest.raises(ValueError, match="defense kind"):
            SoACacheEngine(CacheConfig(extra={"defense": {"kind": "skew",
                                                          "groups": 2}}), 1)
        with pytest.raises(ValueError, match="lru/mru"):
            SoACacheEngine(CacheConfig(rep_policy="plru", num_ways=4,
                                       extra={"defense":
                                              {"kind": "way_partition",
                                               "victim_ways": 2}}), 1)

    @pytest.mark.parametrize("scenario,overrides", [
        ("defended/lru-4way-keyed-remap", {}),
        ("defended/lru-4way-keyed-remap",
         {"defense": {"kind": "keyed_remap", "params": {"rekey_epoch": 5}}}),
        ("defended/lru-4way-way-partition", {}),
    ])
    def test_vec_env_batched_matches_object(self, scenario, overrides):
        batched = VecEnv(scenario, num_envs=4, **overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = VecEnv(scenario, num_envs=4, backend="object",
                               **overrides)
        assert batched.batched and not reference.batched
        np.testing.assert_array_equal(batched.reset(), reference.reset())
        rng = np.random.default_rng(11)
        for _ in range(150):
            actions = rng.integers(batched.num_actions, size=4)
            obs_b, rew_b, done_b, infos_b = batched.step(actions)
            obs_r, rew_r, done_r, infos_r = reference.step(actions)
            np.testing.assert_array_equal(obs_b, obs_r)
            np.testing.assert_array_equal(rew_b, rew_r)
            np.testing.assert_array_equal(done_b, done_r)
            for info_b, info_r in zip(infos_b, infos_r):
                assert info_b.get("episode") == info_r.get("episode")

    def test_defended_training_is_bit_identical_across_backends(self):
        # The acceptance contract of the SoA kernels: PPO training on the
        # batched path equals the object path parameter-for-parameter.
        from repro.rl.ppo import PPOConfig
        from repro.rl.trainer import PPOTrainer

        def train(backend_override):
            trainer = PPOTrainer(
                make_factory("defended/lru-4way-keyed-remap",
                             **backend_override),
                PPOConfig(horizon=32, num_envs=4, minibatch_size=64,
                          update_epochs=2),
                hidden_sizes=(16,), seed=3)
            trainer.train(max_updates=3, eval_every=10, eval_episodes=2)
            return trainer.policy.parameters()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = train({"backend": "object"})
        fast = train({})
        for p_fast, p_ref in zip(fast, reference):
            np.testing.assert_array_equal(p_fast.data, p_ref.data)


class TestWayPartitionIsolation:
    def test_observations_independent_of_secret(self):
        # Full isolation: with disjoint address ranges, every attacker
        # observation sequence is identical whether the victim accessed its
        # line or not — the attacker cannot beat chance.
        env_secret = make("defended/lru-4way-way-partition", seed=0)
        env_empty = make("defended/lru-4way-way-partition", seed=0)
        rng = np.random.default_rng(4)
        trigger = env_secret.actions.trigger_index
        non_guess = [i for i, a in enumerate(env_secret.actions)
                     if i not in env_secret.actions.guess_indices]
        for _episode in range(6):
            obs_a = env_secret.reset(secret=0)
            obs_b = env_empty.reset(secret=None)
            np.testing.assert_array_equal(obs_a, obs_b)
            for _step in range(env_secret.max_steps - 1):
                action = int(non_guess[int(rng.integers(len(non_guess)))])
                if _step == 2:
                    action = trigger
                result_a = env_secret.step(action)
                result_b = env_empty.step(action)
                np.testing.assert_array_equal(result_a.observation,
                                              result_b.observation)
                assert result_a.reward == result_b.reward
                if result_a.done:
                    break

    def test_partitioned_scripted_attack_is_at_chance(self):
        from repro.attacks.evaluate import evaluate_action_sequence

        env = make("defended/lru-4way-way-partition", seed=0)
        # The undefended distinguishing sequence: prime, trigger, evict, probe,
        # guess.  Against the partitioned cache it cannot beat chance; with
        # 2 equiprobable secrets and 400 trials, binomial bounds give
        # [0.35, 0.65] with overwhelming probability.
        access = [i for i, a in enumerate(env.actions)
                  if i not in env.actions.guess_indices
                  and i != env.actions.trigger_index]
        sequence = access[:3] + [env.actions.trigger_index] + access[3:4] \
            + access[:2] + [env.actions.guess_indices[0]]
        accuracy, _ = evaluate_action_sequence(env, sequence, trials=400)
        assert 0.35 <= accuracy <= 0.65, accuracy


class TestCapabilityHook:
    def test_spec_supports_soa(self):
        assert get_spec("guessing/lru-4way").supports_soa()
        assert get_spec("defended/lru-4way-keyed-remap").supports_soa()
        assert get_spec("defended/lru-4way-way-partition").supports_soa()
        assert get_spec("defended/plru-4way-keyed-remap").supports_soa()
        # way-partition kernel is lru/mru only; plru falls back.
        assert not get_spec("defended/plru-4way-way-partition").supports_soa()
        assert not get_spec("defended/lru-4way-skew").supports_soa()
        assert not get_spec("defended/lru-4way-random-fill").supports_soa()
        assert not get_spec("defended/lru-4way-plcache").supports_soa()
        assert not get_spec("covert/prime-probe").supports_soa()
        assert not get_spec("guessing/lru-4way").with_overrides(
            backend="object").supports_soa()
        assert not get_spec("covert/prime-probe-cchunter").supports_soa()

    def test_vec_env_batches_soa_capable_defenses(self):
        vec = VecEnv("defended/lru-4way-keyed-remap", num_envs=4)
        assert vec.batched
        vec = VecEnv("defended/lru-4way-way-partition", num_envs=4)
        assert vec.batched

    def test_vec_env_warns_and_falls_back_for_non_soa_defense(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            vec = VecEnv("defended/lru-4way-skew", num_envs=4)
        assert not vec.batched
        assert any("no SoA batched kernel" in str(w.message) for w in caught)
        # An explicit object backend is not blamed on the defense.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            VecEnv("defended/lru-4way-keyed-remap", num_envs=4,
                   backend="object")
        assert not any("no SoA batched kernel" in str(w.message)
                       for w in caught)

    def test_config_level_fragment_check(self):
        from repro.env.batched_env import config_supports_batching

        keyed = get_spec("defended/lru-4way-keyed-remap").build_config()
        assert config_supports_batching(keyed)
        skew = get_spec("defended/lru-4way-skew").build_config()
        assert not config_supports_batching(skew)


class TestDefenseMatrixExperiment:
    def test_registered_with_full_grid(self):
        spec = repro.get_experiment("defense_matrix")
        cells = spec.cells("smoke")
        scenarios = {cell["scenario"] for cell in cells}
        defenses = {cell["defense"] for cell in cells}
        assert len(scenarios) >= 2
        assert len(defenses - {"none"}) >= 4
        assert len(cells) == len(scenarios) * len(defenses)

    def test_run_cell_reports_matrix_metrics(self, tmp_path):
        from repro.experiments import defense_matrix
        from repro.experiments.common import ExperimentScale

        tiny = ExperimentScale(name="tiny", max_updates=2, horizon=16,
                               num_envs=2, eval_episodes=4, runs=1,
                               hidden_sizes=(8,), minibatch_size=16,
                               update_epochs=1)
        row = defense_matrix.run_cell(
            {"scenario": "guessing/lru-4way-disjoint",
             "defense": "way-partition"}, tiny, seed=0)
        assert row["scenario"] == "guessing/lru-4way-disjoint"
        assert row["defense"] == "way-partition"
        assert 0.0 <= row["accuracy"] <= 1.0
        assert row["bits_per_episode"] >= 0.0
        # Full isolation: even the scripted probe sits at chance.
        assert row["probe_accuracy"] <= 0.65
        assert defense_matrix.format_results([row])

    def test_probe_reproduces_table7_attack_and_isolation(self):
        # The scripted replacement-state probe is the fast, deterministic
        # carrier of the matrix's security claims: undefended leaks fully,
        # the PLRU PL cache is still attackable (Table VII) while the LRU PL
        # cache is secure, way partitioning pins the probe at chance, and
        # keyed remapping protects the multi-set partial-footprint cache.
        from repro.attacks.evaluate import evaluate_action_sequence
        from repro.experiments.defense_matrix import replacement_probe_sequence

        def probe(scenario, defense=None):
            overrides = {"warmup_accesses": 0}
            if defense:
                overrides["defense"] = defense
            env = make(scenario, seed=0, **overrides)
            accuracy, _ = evaluate_action_sequence(
                env, replacement_probe_sequence(env), trials=40)
            return accuracy

        assert probe("guessing/plcache-baseline-4way") == 1.0
        assert probe("guessing/plcache-baseline-4way", "plcache") == 1.0
        assert probe("guessing/plcache-baseline-4way", "way-partition") == 0.5
        assert probe("guessing/lru-4way-disjoint", "plcache") == 0.5
        assert probe("guessing/sa-4set-2way") == 1.0
        assert probe("guessing/sa-4set-2way", "keyed-remap") <= 0.75

    def test_guess_channel_bits(self):
        from repro.analysis.defenses import guess_channel_bits

        assert guess_channel_bits(0.5, 2) == pytest.approx(0.0)
        assert guess_channel_bits(1.0, 2) == pytest.approx(1.0, abs=1e-6)
        assert guess_channel_bits(0.25, 4) == pytest.approx(0.0, abs=1e-6)
        assert guess_channel_bits(1.0, 4) == pytest.approx(2.0, abs=1e-6)
        assert guess_channel_bits(0.9, 2) > guess_channel_bits(0.6, 2)
        # Below-chance (e.g. a never-guessing agent) is 0 leaked bits, not
        # an anti-correlated "informative" channel.
        assert guess_channel_bits(0.0, 2) == 0.0
        assert guess_channel_bits(0.1, 4) == 0.0

    def test_pivot_matrix_rendering(self):
        from repro.analysis.defenses import pivot_matrix

        rows = [{"scenario": "s1", "defense": "none", "accuracy": 1.0},
                {"scenario": "s1", "defense": "way-partition", "accuracy": 0.5}]
        text = pivot_matrix(rows, "accuracy")
        assert "way-partition" in text and "1.000" in text and "0.500" in text
