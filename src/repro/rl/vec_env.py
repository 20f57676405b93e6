"""A synchronous vector of environments with an array-native step path.

Batching several environment copies lets the numpy policy amortize its forward
pass, standing in for the asynchronous actor pool the paper uses (RLMeta /
Sample Factory style).  Environments auto-reset when their episode ends, and
episode summaries are surfaced so the trainer can track accuracy and length.

Environments can be given as a factory callable ``factory(index) -> env``, a
scenario id (``"guessing/lru-4way"``), or a :class:`~repro.scenarios.ScenarioSpec`;
ids and specs are resolved through the scenario registry, so the vectorized
path and ``repro.make()`` construct identical environments.

Two hot paths exist, and one rule picks between them:

* **Batched SoA fast path** — when the source is a scenario whose
  ``spec.supports_soa()`` says yes (plain guessing env, every wrapper
  SoA-capable, and a cache config that
  :func:`~repro.env.batched_env.config_supports_batching` accepts — the
  ``keyed-remap`` and ``way-partition`` defenses have batched kernels) and
  ``num_envs >= batching_threshold``, the N per-env objects are collapsed
  into one :class:`~repro.env.batched_env.BatchedGuessingGame` that advances
  the whole batch per step in a handful of numpy kernels.  This is
  bit-identical to the per-env path (same seeds, same RNG streams) but
  roughly an order of magnitude faster.  Defended scenarios whose defense
  has no kernel warn and fall back.
* **Per-env path** — everything else is stepped one env at a time; envs
  that advertise ``supports_step_into`` write their observations directly
  into rows of the batch buffer.  A plain factory callable such as
  ``functools.partial(repro.make, scenario_id)`` always takes this path,
  which is how parity tests and benchmarks reach the object model.

Returned arrays are double-buffered — each is reused two calls later, which is
exactly the lifetime the PPO rollout loop needs; callers keeping references
longer must copy.  The ``infos`` list is likewise reused across steps and only
materializes a fresh dict (with the ``"episode"`` summary) for envs whose
episode just ended.
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Union

import numpy as np

# Below this many envs the per-op overhead of the batched numpy kernels loses
# to the per-env object path (BENCH_throughput.json: 0.54x at num_envs=1), so
# the SoA collapse only engages at or above it.
BATCHING_THRESHOLD = 4

# Shared placeholder for steps with nothing to report; treat as read-only.
_EMPTY_INFO: Dict = {}


class VecEnv:
    """Synchronous vectorized environment with auto-reset and reusable buffers."""

    def __init__(self, env_source: Union[Callable[[int], object], str, object],
                 num_envs: int, batching_threshold: int = BATCHING_THRESHOLD,
                 **scenario_overrides):
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        from repro.scenarios import as_env_factory

        env_factory = as_env_factory(env_source, **scenario_overrides)
        self._env_factory = env_factory
        self.num_envs = num_envs
        self._batched = None
        self._envs = None
        spec = getattr(env_factory, "spec", None)
        if spec is not None and num_envs >= batching_threshold:
            if spec.supports_soa():
                from repro.env.batched_env import BatchedGuessingGame

                # factory(index) builds spec.build(seed=index); the batched
                # game reproduces exactly those N envs.
                self._batched = BatchedGuessingGame(spec.build_config(), num_envs,
                                                    seeds=range(num_envs))
            elif (spec.defense is not None
                  and spec.with_overrides(defense=None).supports_soa()):
                # The defense is the only thing keeping this batch on the
                # object path: warn so the throughput cliff is visible.
                warnings.warn(
                    f"scenario {spec.scenario_id!r}: its defense has no SoA "
                    "batched kernel; stepping per-env on the bit-identical "
                    "object path (expect object-path throughput)",
                    RuntimeWarning, stacklevel=2)
        if self._batched is not None:
            self.observation_size = self._batched.observation_size
            self.num_actions = self._batched.num_actions
        else:
            self._envs = [env_factory(index) for index in range(num_envs)]
            first = self._envs[0]
            self.observation_size = first.observation_size
            self.num_actions = first.action_space.n
            self._fast_path = [bool(getattr(env, "supports_step_into", False))
                               for env in self._envs]
        # Double-buffered outputs: the batch returned by one call stays valid
        # while the next call fills the other buffer (the PPO loop holds the
        # previous observation batch across exactly one step).
        self._observation_buffers = (
            np.zeros((num_envs, self.observation_size)),
            np.zeros((num_envs, self.observation_size)),
        )
        self._reward_buffers = (np.zeros(num_envs), np.zeros(num_envs))
        self._done_buffers = (np.zeros(num_envs), np.zeros(num_envs))
        self._flip = 0
        self._episode_rewards = np.zeros(num_envs)
        self._episode_lengths = np.zeros(num_envs, dtype=np.int64)
        self._infos: List[Dict] = [_EMPTY_INFO] * num_envs
        self._info_touched: List[int] = []

    @property
    def batched(self) -> bool:
        """Whether the collapsed SoA batched fast path is active."""
        return self._batched is not None

    @property
    def envs(self) -> list:
        """Per-env objects for introspection (action space, configs, replay).

        Under the batched fast path these are materialized on demand as
        *fresh* envs from the factory — they share the scenario but not the
        live batch state, which lives in the SoA arrays.  Step them only for
        replay/extraction (which resets first), not to observe the batch.
        """
        if self._envs is None:
            self._envs = [self._env_factory(index) for index in range(self.num_envs)]
        return self._envs

    def _next_buffers(self) -> tuple:
        buffers = (self._observation_buffers[self._flip],
                   self._reward_buffers[self._flip],
                   self._done_buffers[self._flip])
        self._flip ^= 1
        return buffers

    def reset(self) -> np.ndarray:
        self._episode_rewards[:] = 0.0
        self._episode_lengths[:] = 0
        observations, _rewards, _dones = self._next_buffers()
        if self._batched is not None:
            self._batched.reset_into(observations)
            return observations
        for index, env in enumerate(self.envs):
            if self._fast_path[index]:
                env.reset_into(observations[index])
            else:
                observations[index] = env.reset()
        return observations

    def step(self, actions: np.ndarray) -> tuple:
        """Step every env; auto-reset finished ones.

        Returns (observations, rewards, dones, infos) where ``infos`` is a
        reused list of per-env dicts; finished episodes get a fresh dict with
        an ``"episode"`` entry (total reward, length, guess correctness).

        Info contract: only the ``"episode"`` entry (and ``"correct"`` on
        guess endings) is guaranteed.  The per-env fallback additionally
        surfaces the env's own step info (``action``/``secret``/``hit``/
        ``trace``...), but the batched fast path shares one empty placeholder
        for non-finished envs — consumers needing per-step introspection
        should pass a factory callable (per-env path) or use a single env.
        """
        observations, rewards, dones = self._next_buffers()
        infos = self._infos
        for index in self._info_touched:
            infos[index] = _EMPTY_INFO
        self._info_touched.clear()
        if self._batched is not None:
            return self._step_batched(actions, observations, rewards, dones)
        for index, (env, action) in enumerate(zip(self.envs, actions)):
            fast = self._fast_path[index]
            if fast:
                reward, done, info = env.step_into(int(action), observations[index])
            else:
                observation, reward, done, info = env.step(int(action))
                observations[index] = observation
            self._episode_rewards[index] += reward
            self._episode_lengths[index] += 1
            if done:
                info = dict(info)
                info["episode"] = {
                    "reward": float(self._episode_rewards[index]),
                    "length": int(self._episode_lengths[index]),
                    "correct": bool(info.get("correct", False)),
                    "guessed": "correct" in info,
                }
                self._episode_rewards[index] = 0.0
                self._episode_lengths[index] = 0
                if fast:
                    env.reset_into(observations[index])
                else:
                    observations[index] = env.reset()
            rewards[index] = reward
            dones[index] = float(done)
            infos[index] = info
            self._info_touched.append(index)
        return observations, rewards, dones, infos

    def _step_batched(self, actions: np.ndarray, observations: np.ndarray,
                      rewards: np.ndarray, dones: np.ndarray) -> tuple:
        correct, guessed = self._batched.step_into(actions, observations,
                                                   rewards, dones)
        self._episode_rewards += rewards
        self._episode_lengths += 1
        infos = self._infos
        done_indices = np.flatnonzero(dones)
        for i in done_indices:
            index = int(i)
            info: Dict = {"episode": {
                "reward": float(self._episode_rewards[index]),
                "length": int(self._episode_lengths[index]),
                "correct": bool(correct[index]),
                "guessed": bool(guessed[index]),
            }}
            if guessed[index]:
                info["correct"] = bool(correct[index])
            infos[index] = info
            self._info_touched.append(index)
        if done_indices.size:
            self._episode_rewards[done_indices] = 0.0
            self._episode_lengths[done_indices] = 0
        return observations, rewards, dones, infos

    @property
    def single_env(self):
        """The first underlying environment (used for replay/extraction)."""
        return self.envs[0]
