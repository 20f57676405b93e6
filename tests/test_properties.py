"""Property-based tests (hypothesis) on the core data structures and invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import hamming_distance
from repro.attacks.lru_attacks import LRUAddressBasedChannel
from repro.attacks.stealthy_streamline import StealthyStreamlineChannel
from repro.autodiff import Tensor, functional as F
from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.policies import LRUPolicy, PLRUPolicy, RRIPPolicy
from repro.detection.autocorrelation import autocorrelation, autocorrelogram
from repro.env.actions import ActionSpace
from repro.env.config import EnvConfig
from repro.env.guessing_game import CacheGuessingGameEnv
from repro.env.observation import LatencyObservation, ObservationEncoder

# ---------------------------------------------------------------------- cache

addresses = st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=60)


@given(addresses)
@settings(max_examples=40, deadline=None)
def test_cache_contents_subset_of_accessed(trace):
    cache = Cache(CacheConfig.set_associative(4, 2))
    for address in trace:
        cache.access(address)
    assert set(cache.contents()) <= set(trace)
    assert len(cache.contents()) <= cache.config.num_blocks


@given(addresses)
@settings(max_examples=40, deadline=None)
def test_second_access_always_hits_immediately(trace):
    cache = Cache(CacheConfig.fully_associative(4))
    for address in trace:
        cache.access(address)
        assert cache.access(address).hit


@given(addresses)
@settings(max_examples=40, deadline=None)
def test_most_recently_used_line_never_evicted_under_lru(trace):
    cache = Cache(CacheConfig.fully_associative(4, rep_policy="lru"))
    for address in trace:
        result = cache.access(address)
        assert result.evicted_address != address
        assert cache.contains(address)


@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
       st.sampled_from(["lru", "plru", "rrip", "mru"]))
@settings(max_examples=40, deadline=None)
def test_policy_victims_always_in_range(touches, policy_name):
    policies = {"lru": LRUPolicy, "plru": PLRUPolicy, "rrip": RRIPPolicy}
    if policy_name == "mru":
        from repro.cache.policies import MRUPolicy as policy_cls
    else:
        policy_cls = policies[policy_name]
    policy = policy_cls(8)
    for way in touches:
        policy.on_fill(way)
        victim = policy.victim([True] * 8)
        assert 0 <= victim < 8


@given(addresses)
@settings(max_examples=30, deadline=None)
def test_flush_then_access_always_misses(trace):
    cache = Cache(CacheConfig.set_associative(2, 2))
    for address in trace:
        cache.access(address)
        cache.flush(address)
        assert not cache.access(address).hit


# ------------------------------------------------------------------- autodiff

small_arrays = st.lists(st.floats(min_value=-5.0, max_value=5.0,
                                  allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=8)


@given(small_arrays)
@settings(max_examples=50, deadline=None)
def test_softmax_is_a_probability_distribution(values):
    probabilities = np.exp(F.log_softmax(Tensor([values])).numpy())
    assert np.all(probabilities >= 0.0)
    assert np.isclose(probabilities.sum(), 1.0)


@given(small_arrays)
@settings(max_examples=50, deadline=None)
def test_entropy_bounded_by_log_n(values):
    entropy = F.categorical_entropy(Tensor([values])).numpy()[0]
    assert -1e-9 <= entropy <= np.log(len(values)) + 1e-9


@given(small_arrays, small_arrays)
@settings(max_examples=50, deadline=None)
def test_addition_gradient_is_ones(a, b):
    size = min(len(a), len(b))
    x = Tensor(a[:size], requires_grad=True)
    y = Tensor(b[:size], requires_grad=True)
    (x + y).sum().backward()
    assert np.allclose(x.grad, 1.0)
    assert np.allclose(y.grad, 1.0)


# ------------------------------------------------------------------ detection

bit_trains = st.lists(st.integers(min_value=0, max_value=1), min_size=0, max_size=80)


@given(bit_trains, st.integers(min_value=1, max_value=20))
@settings(max_examples=60, deadline=None)
def test_autocorrelation_is_bounded(train, lag):
    value = autocorrelation(train, lag)
    n = len(train)
    bound = (n / max(n - lag, 1)) + 1e-9 if n else 1.0
    assert abs(value) <= bound


@given(bit_trains)
@settings(max_examples=40, deadline=None)
def test_autocorrelogram_starts_at_one_for_nonempty(train):
    coefficients = autocorrelogram(train, max_lag=min(5, max(len(train) - 1, 0)))
    if train:
        assert coefficients[0] == 1.0


# ----------------------------------------------------------------------- env

env_configs = st.tuples(st.integers(min_value=2, max_value=4),
                        st.booleans(), st.booleans())


@given(env_configs, st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=20))
@settings(max_examples=30, deadline=None)
def test_env_steps_never_crash_and_rewards_bounded(parameters, action_stream):
    ways, flush_enable, no_access = parameters
    config = EnvConfig(cache=CacheConfig.fully_associative(ways),
                       attacker_addr_s=0, attacker_addr_e=ways,
                       victim_addr_s=0, victim_addr_e=0,
                       flush_enable=flush_enable, victim_no_access_enable=no_access,
                       window_size=8, max_steps=8, warmup_accesses=0, seed=0)
    env = CacheGuessingGameEnv(config)
    env.reset()
    rewards = config.rewards
    low = (rewards.wrong_guess_reward + rewards.length_violation_reward
           + rewards.step_reward - 1.0)
    high = rewards.correct_guess_reward + 1.0
    for raw_action in action_stream:
        result = env.step(raw_action % env.action_space.n)
        assert low <= result.reward <= high
        assert env.observation_space.contains(result.observation)
        if result.done:
            env.reset()


@given(st.integers(min_value=2, max_value=6), st.booleans(), st.booleans())
@settings(max_examples=30, deadline=None)
def test_action_space_encode_decode_roundtrip(span, flush_enable, no_access):
    config = EnvConfig(cache=CacheConfig.fully_associative(2),
                       attacker_addr_s=0, attacker_addr_e=span,
                       victim_addr_s=0, victim_addr_e=1,
                       flush_enable=flush_enable, victim_no_access_enable=no_access,
                       warmup_accesses=0)
    space = ActionSpace(config)
    for index in range(len(space)):
        assert space.encode(space.decode(index)) == index


@given(st.integers(min_value=1, max_value=8),
       st.lists(st.tuples(st.sampled_from(list(LatencyObservation)),
                          st.integers(min_value=0, max_value=4),
                          st.booleans()),
                min_size=0, max_size=20))
@settings(max_examples=40, deadline=None)
def test_observation_encoder_shape_and_bounds(window, records):
    encoder = ObservationEncoder(window_size=window, num_actions=5, max_steps=10)
    for step, (latency, action, triggered) in enumerate(records, start=1):
        encoder.record(latency, action, step, triggered)
    flat = encoder.encode_flat()
    assert flat.shape == (encoder.flat_size,)
    assert np.all(flat >= 0.0) and np.all(flat <= 1.0)
    assert len(encoder.history) <= window


# ------------------------------------------------------------------- channels

messages = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=96)


@given(messages)
@settings(max_examples=20, deadline=None)
def test_stealthy_streamline_transmits_any_message_without_error(message):
    channel = StealthyStreamlineChannel(num_ways=8, seed=0)
    result = channel.transmit(message)
    assert result.received_bits == [bit & 1 for bit in message]
    assert result.sender_misses == 0


@given(messages)
@settings(max_examples=20, deadline=None)
def test_lru_address_channel_transmits_any_message_without_error(message):
    channel = LRUAddressBasedChannel(num_ways=8, seed=0)
    result = channel.transmit(message)
    assert result.received_bits == [bit & 1 for bit in message]
    assert result.sender_misses == 0


@given(messages, messages)
@settings(max_examples=50, deadline=None)
def test_hamming_distance_properties(a, b):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    assert hamming_distance(a, b) == hamming_distance(b, a)
    assert hamming_distance(a, a) == 0
    assert 0 <= hamming_distance(a, b) <= size
