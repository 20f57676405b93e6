"""Exhaustive parity suite: the SoA batched engine vs the object cache model.

The structure-of-arrays engine must be a pure speedup — bit-identical
hit/miss/eviction behavior, replacement state, and final contents across all
supported policies and mappings, including the per-env RNG stream consumption
of seeded-random replacement.  The suite drives both implementations with
identical seeded traces (accesses, flushes, lock/unlock) and compares every
step, then checks the VecEnv-level equivalence of the collapsed batched fast
path against per-env object environments.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
import pytest

import repro
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.soa import (DOMAIN_NONE, DOMAIN_NAMES, SOA_POLICIES,
                             SoACacheEngine, domain_code)
from repro.env.batched_env import BatchedGuessingGame
from repro.rl.vec_env import VecEnv
from repro.scenarios import get_spec

NUM_ENVS = 3
BASE_SEED = 40


def make_pair(config: CacheConfig, num_envs: int = NUM_ENVS):
    """One SoA engine plus the equivalent per-env object caches (same seeds)."""
    engine = SoACacheEngine(
        config, num_envs,
        rngs=[np.random.default_rng(BASE_SEED + i) for i in range(num_envs)])
    caches = [Cache(config, rng=np.random.default_rng(BASE_SEED + i))
              for i in range(num_envs)]
    return engine, caches


def drive_and_compare(config: CacheConfig, steps: int = 300, max_address: int = 24,
                      with_flush: bool = True, with_locks: bool = False,
                      num_envs: int = NUM_ENVS):
    """Replay one seeded random trace on both implementations, step by step."""
    engine, caches = make_pair(config, num_envs)
    trace_rng = np.random.default_rng(7)
    addr_rngs = [np.random.default_rng(100 + i) for i in range(num_envs)]
    env_indices = np.arange(num_envs)
    ops = ["access", "access", "access"]
    if with_flush:
        ops.append("flush")
    if with_locks:
        ops += ["lock", "unlock"]

    for step in range(steps):
        op = ops[int(trace_rng.integers(len(ops)))]
        addresses = np.array([int(rng.integers(max_address)) for rng in addr_rngs])
        domain_id = int(trace_rng.integers(2))
        domain = ("attacker", "victim")[domain_id]
        domains = np.full(num_envs, domain_code(domain), dtype=np.int8)
        if op == "access":
            hit, way, evicted_addr, evicted_dom = engine.access(
                env_indices, addresses, domains)
            for i, cache in enumerate(caches):
                result = cache.access(int(addresses[i]), domain=domain)
                assert bool(hit[i]) == result.hit, (step, i, op)
                assert int(way[i]) == result.way, (step, i, op)
                expected_addr = (-1 if result.evicted_address is None
                                 else result.evicted_address)
                assert int(evicted_addr[i]) == expected_addr, (step, i, op)
                expected_dom = DOMAIN_NAMES.get(int(evicted_dom[i]))
                assert expected_dom == result.evicted_domain, (step, i, op)
        elif op == "flush":
            resident = engine.flush(env_indices, addresses)
            for i, cache in enumerate(caches):
                assert bool(resident[i]) == cache.flush(int(addresses[i]),
                                                        domain=domain), (step, i)
        elif op == "lock":
            # Lock a small address subset so no set ever becomes fully
            # locked (both implementations raise on a full-locked set).
            lock_addresses = addresses % 3
            engine.lock(env_indices, lock_addresses, domains)
            for i, cache in enumerate(caches):
                cache.lock(int(lock_addresses[i]), domain=domain)
        else:
            engine.unlock(env_indices, addresses)
            for i, cache in enumerate(caches):
                cache.unlock(int(addresses[i]))

        for i, cache in enumerate(caches):
            for set_index in range(config.num_sets):
                assert engine.replacement_state(i, set_index) == \
                    cache.replacement_state(set_index), (step, i, set_index)

    for i, cache in enumerate(caches):
        assert engine.contents(i) == cache.contents(), i
        assert engine.access_count[i] == cache.access_count, i
        assert engine.miss_count[i] == cache.miss_count, i
        assert engine.hit_rate(i) == pytest.approx(cache.hit_rate), i


class TestEnginePolicyParity:
    @pytest.mark.parametrize("policy", SOA_POLICIES)
    def test_fully_associative(self, policy):
        drive_and_compare(CacheConfig(num_sets=1, num_ways=4, rep_policy=policy))

    @pytest.mark.parametrize("policy", SOA_POLICIES)
    def test_set_associative(self, policy):
        drive_and_compare(CacheConfig(num_sets=4, num_ways=4, rep_policy=policy),
                          max_address=48)

    @pytest.mark.parametrize("policy", SOA_POLICIES)
    def test_random_permutation_mapping(self, policy):
        drive_and_compare(CacheConfig(num_sets=4, num_ways=4, rep_policy=policy,
                                      mapping="random_permutation", mapping_seed=3),
                          max_address=48)

    @pytest.mark.parametrize("policy", SOA_POLICIES)
    def test_locks(self, policy):
        drive_and_compare(CacheConfig(num_sets=2, num_ways=4, rep_policy=policy,
                                      lockable=True),
                          steps=200, max_address=10, with_locks=True)

    def test_direct_mapped(self):
        drive_and_compare(CacheConfig(num_sets=8, num_ways=1, rep_policy="lru"),
                          max_address=32)

    def test_eight_way_plru(self):
        drive_and_compare(CacheConfig(num_sets=1, num_ways=8, rep_policy="plru"),
                          max_address=16)


class TestEngineBatchSemantics:
    def test_partial_env_subsets(self):
        """Accessing a subset of envs must not disturb the others."""
        config = CacheConfig(num_sets=1, num_ways=4, rep_policy="lru")
        engine, caches = make_pair(config)
        trace_rng = np.random.default_rng(3)
        for _ in range(200):
            active = np.flatnonzero(trace_rng.integers(2, size=NUM_ENVS))
            if active.size == 0:
                continue
            addresses = trace_rng.integers(8, size=active.size)
            hit, way, _, _ = engine.access(active, addresses)
            for j, i in enumerate(active):
                result = caches[i].access(int(addresses[j]))
                assert bool(hit[j]) == result.hit
                assert int(way[j]) == result.way
        for i, cache in enumerate(caches):
            assert engine.contents(i) == cache.contents()

    @pytest.mark.parametrize("policy", SOA_POLICIES)
    def test_warm_up_from_empty_matches_vectorized(self, policy):
        config = CacheConfig(num_sets=2, num_ways=4, rep_policy=policy)
        scalar_engine = SoACacheEngine(config, 1)
        vector_engine = SoACacheEngine(config, 1)
        trace = [1, 5, 3, 1, 7, 2, 5, 0, 3, 6]
        scalar_engine.warm_up_from_empty(0, trace)
        vector_engine.warm_up(np.array([0]), np.array([trace]))
        assert scalar_engine.contents(0) == vector_engine.contents(0)
        for set_index in range(config.num_sets):
            assert scalar_engine.replacement_state(0, set_index) == \
                vector_engine.replacement_state(0, set_index)

    def test_all_ways_locked_raises(self):
        config = CacheConfig(num_sets=1, num_ways=2, rep_policy="lru", lockable=True)
        engine = SoACacheEngine(config, 1)
        env = np.array([0])
        engine.lock(env, np.array([0]))
        engine.lock(env, np.array([1]))
        with pytest.raises(RuntimeError, match="locked"):
            engine.access(env, np.array([2]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="SoA kernel"):
            SoACacheEngine(CacheConfig(rep_policy="fifo"), 1)

    def test_prefetcher_rejected(self):
        with pytest.raises(ValueError, match="prefetcher"):
            SoACacheEngine(CacheConfig(prefetcher="nextline"), 1)


class TestVecEnvBatchedEquivalence:
    @pytest.mark.parametrize("policy", ["lru", "plru", "rrip", "random"])
    def test_batched_matches_per_env_objects(self, policy):
        scenario = f"guessing/{policy}-4way"
        batched = VecEnv(scenario, num_envs=4)
        reference = VecEnv(functools.partial(repro.make, scenario), num_envs=4)
        assert batched.batched
        assert not reference.batched
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

    def test_batched_engages_only_for_capable_specs(self):
        assert get_spec("guessing/lru-4way").supports_soa()
        assert not get_spec("guessing/plcache-plru-4way").supports_soa()
        assert not get_spec("covert/prime-probe").supports_soa()
        assert not get_spec("table4/cfg16").supports_soa()  # hierarchy
        assert not get_spec("table4/cfg02").supports_soa()  # prefetcher
        assert not get_spec("guessing/lru-4way").with_overrides(
            **{"cache.prefetcher": "nextline"}).supports_soa()

    def test_batched_game_rejects_incapable_config(self):
        spec = get_spec("table4/cfg02")  # next-line prefetcher
        with pytest.raises(ValueError):
            BatchedGuessingGame(spec.build_config(), 2)

    def test_batched_game_rejects_pl_cache_config(self):
        # The batched game installs no PL locks, so a lockable cache must
        # not run on it (it would run unlocked).
        config = get_spec("defended/lru-4way-plcache").build_config()
        with pytest.raises(ValueError, match="not SoA-batchable"):
            BatchedGuessingGame(config, 4)

    def test_infos_list_is_reused(self):
        vec = VecEnv("guessing/lru-4way", num_envs=2)
        vec.reset()
        _, _, _, first_infos = vec.step(np.zeros(2, dtype=int))
        _, _, _, second_infos = vec.step(np.zeros(2, dtype=int))
        assert first_infos is second_infos

    def test_episode_infos_materialize_on_done_only(self):
        vec = VecEnv("guessing/lru-4way", num_envs=2)
        vec.reset()
        guess = vec.num_actions - 1  # GUESS_EMPTY ends the episode
        _, _, dones, infos = vec.step(np.array([0, guess]))
        assert dones[0] == 0.0 and dones[1] == 1.0
        assert "episode" not in infos[0]
        assert infos[1]["episode"]["length"] == 1
        # The next step clears the stale episode entry.
        _, _, dones, infos = vec.step(np.array([0, 0]))
        assert "episode" not in infos[1]


#: Registered scenarios that VecEnv batches at num_envs=4.
BATCHED_SCENARIOS = frozenset({
    "defended/lru-4way-keyed-remap", "defended/lru-4way-way-partition",
    "defended/plru-4way-keyed-remap", "defended/sa-4set-2way-keyed-remap",
    "defended/sa-4set-2way-way-partition",
    "guessing/lru-4way", "guessing/lru-4way-disjoint",
    "guessing/plcache-baseline-4way", "guessing/plru-4way",
    "guessing/quickstart", "guessing/random-4way", "guessing/rrip-4way",
    "guessing/sa-4set-2way",
    "known/evict-reload", "known/flush-reload", "known/lru-state",
    "known/prime-probe",
    "table4/cfg01", "table4/cfg03", "table4/cfg04", "table4/cfg05",
    "table4/cfg06", "table4/cfg07", "table4/cfg08", "table4/cfg09",
    "table4/cfg10", "table4/cfg11", "table4/cfg12", "table4/cfg15",
})

#: defense_matrix smoke cells (scenario, defense) that VecEnv batches.
BATCHED_MATRIX_CELLS = frozenset(
    {(base, defense)
     for base in ("guessing/lru-4way-disjoint", "guessing/sa-4set-2way")
     for defense in ("none", "keyed-remap", "way-partition")}
    | {("guessing/plcache-baseline-4way", defense)
       for defense in ("none", "keyed-remap")})

# The svm wrapper reads its detector only when stepping, so a placeholder
# lets every registered scenario build.
_PLACEHOLDER_DETECTOR = object()


def _matrix_cells():
    return [(cell["scenario"], cell.get("defense") or "none")
            for cell in repro.get_experiment("defense_matrix").cells("smoke")]


class TestEngineSelection:
    """One rule picks the engine: supports_soa() and num_envs >= threshold."""

    @pytest.mark.parametrize("scenario", repro.list_scenarios())
    def test_registered_scenario_engine(self, scenario):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vec = VecEnv(repro.make_factory(scenario,
                                            detector=_PLACEHOLDER_DETECTOR),
                         num_envs=4)
        assert vec.batched == (scenario in BATCHED_SCENARIOS)

    @pytest.mark.parametrize("scenario,defense", _matrix_cells())
    def test_defense_matrix_cell_engine(self, scenario, defense):
        overrides = {} if defense == "none" else {"defense": defense}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            vec = VecEnv(scenario, num_envs=4, **overrides)
        assert vec.batched == ((scenario, defense) in BATCHED_MATRIX_CELLS)

    def test_expected_engines_name_live_ids(self):
        assert BATCHED_SCENARIOS <= set(repro.list_scenarios())
        assert BATCHED_MATRIX_CELLS <= set(_matrix_cells())

    def test_below_threshold_and_factories_step_per_env(self):
        assert not VecEnv("guessing/lru-4way", num_envs=3).batched
        assert VecEnv("guessing/lru-4way", num_envs=1,
                      batching_threshold=1).batched
        assert not VecEnv(functools.partial(repro.make, "guessing/lru-4way"),
                          num_envs=4).batched

    @pytest.mark.parametrize("engine", ["soa", "object", "auto"])
    def test_stale_backend_override_is_rejected(self, engine):
        stale = {"backend": engine}
        with pytest.raises(TypeError, match="backend"):
            repro.make("guessing/lru-4way", **stale)
        with pytest.raises(TypeError, match="backend"):
            VecEnv("guessing/lru-4way", num_envs=4, **stale)


class TestEventLogWindow:
    def test_conflicts_and_flushes_are_bounded(self):
        from repro.cache.events import EventLog

        log = EventLog(max_events=5)
        for step in range(20):
            log.record_access("attacker", False, 0, 0, "victim")
            log.record_flush("attacker", step, 0, True)
        assert len(log.conflicts) == 5
        assert len(log.flushes) == 5
        # Scalar counters keep counting past the window.
        assert log.total_accesses == 20
        assert log.flushes[-1].address == 19
        assert log.flushes[0].address == 15

    def test_unbounded_by_default(self):
        from repro.cache.events import EventLog

        log = EventLog()
        for step in range(50):
            log.record_access("attacker", False, 0, 0, "victim")
        assert len(log.conflicts) == 50

    def test_scenario_override_plumbs_to_cache(self):
        env = repro.make("guessing/lru-4way", **{"cache.max_events": 7})
        assert env.backend.cache.events.max_events == 7
