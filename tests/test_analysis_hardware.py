"""Tests for the analysis utilities and the simulated-hardware substitutes."""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (
    brute_force_steps_estimate,
    bit_rate,
    classify_labels,
    classify_sequence,
    event_train_autocorrelogram,
    guess_accuracy,
    hamming_distance,
    prime_probe_search_space,
)
from repro.attacks.sequences import AttackCategory, AttackSequence
from repro.cache.config import CacheConfig
from repro.env.config import EnvConfig
from repro.env.hardware_env import BlackboxHardwareEnv
from repro.hardware import (
    BlackboxCache,
    BlackboxCacheBackend,
    CacheQueryInterface,
    CovertChannelTimingModel,
    TimingParameters,
    get_machine,
    list_machines,
)
from repro.hardware.machines import TABLE3_MACHINES, TABLE10_MACHINES


class TestClassifier:
    def _config(self, **kwargs):
        defaults = dict(cache=CacheConfig.direct_mapped(4), attacker_addr_s=4,
                        attacker_addr_e=7, victim_addr_s=0, victim_addr_e=3,
                        victim_no_access_enable=False, warmup_accesses=0)
        defaults.update(kwargs)
        return EnvConfig(**defaults)

    def test_prime_probe_classified(self):
        # Table IV config 1 example sequence: 7 -> 4 -> 5 -> v -> 7 -> 5 -> 4 -> g
        config = self._config()
        category = classify_labels(["7", "4", "5", "v", "7", "5", "4", "g0"], config)
        assert category is AttackCategory.PRIME_PROBE

    def test_flush_reload_classified(self):
        # Table IV config 3 example: f0 -> f3 -> f2 -> v -> 2 -> 3 -> 0 -> g
        config = self._config(attacker_addr_s=0, attacker_addr_e=3, flush_enable=True)
        category = classify_labels(["f0", "f3", "f2", "v", "2", "3", "0", "g1"], config)
        assert category is AttackCategory.FLUSH_RELOAD

    def test_evict_reload_classified(self):
        # Table IV config 4 example: 6 -> 5 -> 7 -> v -> 7 -> 6 -> 1 -> g
        config = self._config(attacker_addr_s=0, attacker_addr_e=7,
                              cache=CacheConfig.direct_mapped(4))
        category = classify_labels(["6", "5", "7", "4", "v", "7", "6", "1", "g0"], config)
        assert category in (AttackCategory.EVICT_RELOAD, AttackCategory.PRIME_PROBE)

    def test_lru_state_classified(self):
        # Table V LRU example: 3 -> 1 -> 4 -> 2 -> v -> 0 -> g on a 4-way set
        config = self._config(cache=CacheConfig.fully_associative(4), attacker_addr_s=0,
                              attacker_addr_e=4, victim_addr_s=0, victim_addr_e=0,
                              victim_no_access_enable=True)
        category = classify_labels(["3", "1", "4", "2", "v", "0", "g0"], config)
        assert category in (AttackCategory.LRU_STATE, AttackCategory.EVICT_RELOAD)

    def test_sequence_without_trigger_unknown(self):
        config = self._config()
        assert classify_labels(["4", "5", "g0"], config) is AttackCategory.UNKNOWN

    def test_short_reload_without_eviction_is_lru_state(self):
        config = self._config(cache=CacheConfig.fully_associative(4), attacker_addr_s=0,
                              attacker_addr_e=5, victim_addr_s=0, victim_addr_e=0,
                              victim_no_access_enable=True)
        # Only two distinct accesses before the trigger cannot fill a 4-way set.
        category = classify_labels(["1", "2", "v", "0", "g0"], config)
        assert category is AttackCategory.LRU_STATE

    def test_classify_sequence_object(self):
        config = self._config()
        sequence = AttackSequence.from_labels(["4", "5", "6", "7", "v", "4", "5", "6", "7", "g0"])
        assert classify_sequence(sequence, config) is AttackCategory.PRIME_PROBE


class TestMetricsAndSearchSpace:
    def test_hamming_distance(self):
        assert hamming_distance([1, 0, 1], [1, 1, 1]) == 1
        with pytest.raises(ValueError):
            hamming_distance([1], [1, 0])

    def test_bit_rate_and_accuracy(self):
        assert bit_rate(16, 160) == 0.1
        assert guess_accuracy(3, 4) == 0.75
        assert guess_accuracy(0, 0) == 0.0
        with pytest.raises(ValueError):
            bit_rate(1, 0)
        with pytest.raises(ValueError):
            guess_accuracy(5, 4)

    def test_search_space_matches_paper_for_eight_ways(self):
        # The paper quotes M ~ 2.05e7 sequences and ~369 million steps for N=8.
        assert prime_probe_search_space(8) == pytest.approx(2.05e7, rel=0.05)
        assert brute_force_steps_estimate(8) == pytest.approx(3.69e8, rel=0.05)

    def test_search_space_grows_exponentially(self):
        values = [prime_probe_search_space(n) for n in (2, 4, 8, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_ways_rejected(self):
        with pytest.raises(ValueError):
            prime_probe_search_space(0)

    def test_event_train_autocorrelogram_summary(self):
        summary = event_train_autocorrelogram([1, 0] * 20, max_lag=10)
        assert summary["length"] == 40
        assert summary["max_beyond_lag_zero"] > 0.75
        assert len(summary["autocorrelogram"]) == 11


class TestMachines:
    def test_registry_contains_paper_machines(self):
        keys = list_machines()
        assert "Core i7-6700:L1" in keys
        assert "Xeon W-1350P:L1D" in keys
        assert len(TABLE3_MACHINES) == 7
        assert len(TABLE10_MACHINES) == 4

    def test_get_machine(self):
        spec = get_machine("Core i7-6700:L1")
        assert spec.num_ways == 8
        assert spec.policy_is_documented
        nod = get_machine("Core i7-6700:L2")
        assert not nod.policy_is_documented

    def test_unknown_machine_rejected(self):
        with pytest.raises(KeyError):
            get_machine("Pentium II:L1")


class TestBlackbox:
    def test_timed_access_reflects_cache_state(self):
        spec = get_machine("Core i7-6700:L2")
        noiseless = dataclasses.replace(spec, noise_probability=0.0)
        blackbox = BlackboxCache(noiseless, rng=np.random.default_rng(0))
        hit, latency = blackbox.timed_access(0)
        assert hit is False
        hit, latency_hit = blackbox.timed_access(0)
        assert hit is True
        assert latency_hit < latency

    def test_noise_flips_some_observations(self):
        spec = get_machine("Core i7-6700:L2")
        noisy = dataclasses.replace(spec, noise_probability=0.5)
        blackbox = BlackboxCache(noisy, rng=np.random.default_rng(0))
        blackbox.timed_access(0)
        observations = [blackbox.timed_access(0)[0] for _ in range(100)]
        assert any(not hit for hit in observations)

    def test_backend_interface(self):
        backend = BlackboxCacheBackend(get_machine("Core i7-6700:L2"),
                                       rng=np.random.default_rng(0))
        hit, latency = backend.access(0, "attacker")
        assert isinstance(hit, bool) and latency >= 1
        backend.flush(0, "attacker")  # unsupported: silently ignored
        backend.reset()
        assert backend.blackbox.true_contents() == []


class TestCacheQuery:
    def test_batch_masks_victim_latency(self):
        interface = CacheQueryInterface(get_machine("Core i7-6700:L2"),
                                        rng=np.random.default_rng(0))
        result = interface.run_batch([("attacker", 1), ("victim", 0), ("attacker", 1)])
        assert result.hits[1] is None
        assert result.latencies[1] is None
        assert result.hits[2] is not None
        assert len(result.hit_pattern()) == 3
        assert result.hit_pattern()[1] == "-"

    def test_measure_eviction_detects_victim_activity(self):
        spec = get_machine("Core i7-6700:L2")
        quiet = dataclasses.replace(spec, noise_probability=0.0)
        interface = CacheQueryInterface(quiet, rng=np.random.default_rng(0))
        prime = list(range(1, spec.num_ways + 1))
        with_victim = interface.measure_eviction(prime, prime[0], victim_address=0, repeats=5)
        without_victim = interface.measure_eviction(prime, prime[0], victim_address=None, repeats=5)
        assert with_victim >= without_victim


class TestTimingModel:
    def test_stealthy_streamline_faster_on_every_machine(self):
        for machine in TABLE10_MACHINES:
            model = CovertChannelTimingModel(machine, seed=0)
            lru = model.bit_rate_mbps(TimingParameters.lru_address_based(machine.num_ways))
            stealthy = model.bit_rate_mbps(TimingParameters.stealthy_streamline(machine.num_ways))
            assert stealthy > lru

    def test_improvement_larger_for_higher_associativity(self):
        eight_way = get_machine("Xeon E5-2687W v2:L1D")
        twelve_way = get_machine("Xeon W-1350P:L1D")
        improvements = []
        for machine in (eight_way, twelve_way):
            model = CovertChannelTimingModel(machine, seed=0)
            lru = model.bit_rate_mbps(TimingParameters.lru_address_based(machine.num_ways))
            stealthy = model.bit_rate_mbps(TimingParameters.stealthy_streamline(machine.num_ways))
            improvements.append(stealthy / lru - 1.0)
        assert improvements[1] > improvements[0]
        assert improvements[0] > 0.1

    def test_repetitions_reduce_rate_and_error(self):
        machine = get_machine("Core i7-6700:L1D")
        model = CovertChannelTimingModel(machine, seed=0)
        parameters = TimingParameters.stealthy_streamline(machine.num_ways)
        assert model.bit_rate_mbps(parameters, repetitions=3) < model.bit_rate_mbps(parameters)
        assert (model.symbol_error_probability(parameters, repetitions=3)
                < model.symbol_error_probability(parameters, repetitions=1))

    def test_simulated_transmission_fields(self):
        machine = get_machine("Core i5-11600K:L1D")
        model = CovertChannelTimingModel(machine, seed=0)
        run = model.simulate_transmission(TimingParameters.stealthy_streamline(12),
                                          message_bits=512)
        assert run["bits_sent"] == 512
        assert run["bit_rate_mbps"] > 0
        assert 0.0 <= run["error_rate"] <= 1.0

    def test_error_curve_monotone_in_noise(self):
        machine = get_machine("Xeon E5-2687W v2:L1D")
        model = CovertChannelTimingModel(machine, seed=0)
        curve = model.bit_rate_error_curve(TimingParameters.stealthy_streamline(8),
                                           message_bits=512, noise_scales=(0.5, 4.0), trials=3)
        assert curve[0]["error_rate_mean"] <= curve[1]["error_rate_mean"]

    def test_timing_parameters_validation(self):
        with pytest.raises(ValueError):
            TimingParameters(bits_per_symbol=2, total_accesses=4, measured_accesses=6)
        with pytest.raises(ValueError):
            TimingParameters(bits_per_symbol=0, total_accesses=4, measured_accesses=2)


class TestBlackboxHardwareEnv:
    def test_environment_constructs_and_steps(self):
        env = BlackboxHardwareEnv.from_machine_key("Core i7-6700:L2", seed=0)
        observation = env.reset()
        assert observation.shape == (env.observation_size,)
        rng = np.random.default_rng(0)
        for _ in range(5):
            result = env.step(int(rng.integers(env.action_space.n)))
            if result.done:
                env.reset()

    def test_flush_reload_is_not_available(self):
        env = BlackboxHardwareEnv.from_machine_key("Core i7-6700:L1", seed=0)
        assert not env.config.flush_enable

    def test_attacker_range_defaults_to_twice_the_ways(self):
        env = BlackboxHardwareEnv.from_machine_key("Core i7-9700:L2", seed=0)
        assert len(env.config.attacker_addresses) == 2 * 4
