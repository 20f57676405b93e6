"""One step protocol for every env: ``reset``/``step`` and ``reset_into``/``step_into`` agree.

Every scenario-built env — plain, covert, blackbox, defended, and wrapped in
detection wrappers — implements both halves of the
:class:`~repro.env.protocol.Env` protocol.  Two same-seed envs driven by the
same seeded action stream, one through each half, must produce identical
observations, rewards, dones and infos, across auto-resets.  ``VecEnv``
steps every env through ``step_into``, so this is also what makes a wrapped
env's shaping apply in training.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.rl.vec_env import VecEnv

STEPS = 200


class _StubDetector:
    """Deterministic stand-in for a trained Cyclone SVM."""

    def detection_rate(self, trace) -> float:
        return sum(address for _domain, address in trace) % 3 / 2.0


_WRAPPED_EXTRAS = {
    # No registered scenario uses the miss-count wrapper; cover it here, on a
    # one-line cache where random play makes the victim miss.
    "guessing/lru-4way+miss_count": ("guessing/lru-4way",
                                     {"wrappers": [{"type": "miss_count"}],
                                      "cache.num_ways": 1}),
}


def _make_pair(case: str):
    scenario, overrides = _WRAPPED_EXTRAS.get(case, (case, {}))
    if scenario.startswith("covert/"):
        # Infos carry the whole episode trace; shorter episodes keep the
        # per-step comparison cheap and cross more auto-resets.
        overrides = {**overrides, "episode_length": 50}
    return [repro.make(scenario, seed=7, detector=_StubDetector(), **overrides)
            for _ in range(2)]


@pytest.mark.parametrize("case", repro.list_scenarios() + sorted(_WRAPPED_EXTRAS))
def test_step_and_step_into_agree(case):
    classic, into = _make_pair(case)
    row = np.zeros(into.observation_size)
    into.reset_into(row)
    np.testing.assert_array_equal(row, classic.reset())
    rng = np.random.default_rng(11)
    episodes = 0
    for action in rng.integers(classic.action_space.n, size=STEPS):
        observation, reward, done, info = classic.step(int(action))
        reward_into, done_into, info_into = into.step_into(int(action), row)
        np.testing.assert_array_equal(row, observation)
        assert reward_into == reward
        assert done_into == done
        np.testing.assert_equal(info_into, info)
        if done:
            episodes += 1
            into.reset_into(row)
            np.testing.assert_array_equal(row, classic.reset())
    assert episodes >= 2


class TestVecEnvActionCount:
    @pytest.mark.parametrize("threshold,batched", [(1, True), (99, False)])
    def test_wrong_action_count_is_rejected(self, threshold, batched):
        vec = VecEnv("guessing/lru-4way", num_envs=4,
                     batching_threshold=threshold)
        assert vec.batched == batched
        vec.reset()
        for count in (3, 5):
            with pytest.raises(ValueError, match="expected 4 actions"):
                vec.step(np.zeros(count, dtype=int))
        _obs, rewards, _dones, _infos = vec.step(np.zeros(4, dtype=int))
        assert rewards.shape == (4,)
