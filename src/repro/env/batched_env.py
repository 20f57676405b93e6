"""Batched guessing-game environment over the SoA cache engine.

:class:`BatchedGuessingGame` advances **all** envs of a vectorized batch by
one step in a handful of numpy operations: action decoding is a table lookup,
cache accesses go through the vectorized :class:`~repro.cache.soa.SoACacheEngine`
kernels, rewards/termination are array expressions, and the observation window
is a rolling ``[num_envs, window, features]`` buffer written in place into the
caller's batch.

Parity contract: a batch of ``num_envs`` games seeded ``seeds[i]`` behaves
bit-identically to ``num_envs`` independent
:class:`~repro.env.guessing_game.CacheGuessingGameEnv` instances built with
the same config and ``seed=seeds[i]`` — same observations, rewards, dones,
and per-env RNG stream consumption (warm-up draws, secret draws, and
random-replacement victim picks happen in the same per-env order).
:class:`~repro.rl.vec_env.VecEnv` relies on this to transparently collapse N
identical SoA-capable scenario envs into one batched env.  The batched game
is the only way the SoA engine runs an env: single envs, and any batch built
from a plain factory callable, step the per-env object model.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.cache.soa import (
    DOMAIN_ATTACKER,
    DOMAIN_VICTIM,
    SOA_MAPPINGS,
    SOA_POLICIES,
    SoACacheEngine,
)
from repro.defenses.spec import _SOA_KERNELS
from repro.env.actions import ActionKind, ActionSpace
from repro.env.config import EnvConfig

# Integer codes for the action-kind lookup table.
_KIND_ACCESS = 0
_KIND_FLUSH = 1
_KIND_TRIGGER = 2
_KIND_GUESS = 3
_KIND_GUESS_EMPTY = 4
_KIND_CODE = {
    ActionKind.ACCESS: _KIND_ACCESS,
    ActionKind.FLUSH: _KIND_FLUSH,
    ActionKind.TRIGGER: _KIND_TRIGGER,
    ActionKind.GUESS: _KIND_GUESS,
    ActionKind.GUESS_EMPTY: _KIND_GUESS_EMPTY,
}

# Observation feature layout (must match ObservationEncoder.encode_into).
_LAT_HIT = 0
_LAT_MISS = 1
_LAT_NA = 2


def config_supports_batching(config: EnvConfig) -> bool:
    """Whether one :class:`EnvConfig` can run on the SoA batched engine.

    This is the one capability table for the batched engine: the env class
    and wrapper checks in :meth:`~repro.scenarios.ScenarioSpec.supports_soa`
    sit on top of it, and defended caches batch only where the defense
    layer's ``_SOA_KERNELS`` lists a kernel for the replacement policy.
    PL-cache locks (``cache.lockable``) have no batched kernel.
    """
    if config.hierarchy or config.l2_cache is not None:
        return False
    cache = config.cache
    if cache.prefetcher or cache.lockable:
        return False
    policy = cache.rep_policy.lower()
    if policy not in SOA_POLICIES:
        return False
    if policy == "plru" and cache.num_ways & (cache.num_ways - 1):
        return False
    if cache.mapping.lower() not in SOA_MAPPINGS:
        return False
    fragment = (cache.extra or {}).get("defense")
    if fragment:
        kind = fragment.get("kind")
        if kind not in _SOA_KERNELS:
            return False
        policies = _SOA_KERNELS[kind]
        return policies is None or policy in policies
    return True


class BatchedGuessingGame:
    """All envs of one VecEnv batch as a single structure-of-arrays game."""

    def __init__(self, config: EnvConfig, num_envs: int,
                 seeds: Optional[Sequence[int]] = None):
        if not config_supports_batching(config):
            raise ValueError("this EnvConfig is not SoA-batchable; "
                             "use per-env CacheGuessingGameEnv instances")
        if seeds is None:
            seeds = range(num_envs)
        seeds = [int(seed) for seed in seeds]
        if len(seeds) != num_envs:
            raise ValueError("need one seed per env")
        self.config = config
        self.num_envs = num_envs
        # One stream per env, consumed in the same order as the per-env path
        # (which shares a single Generator between env and cache backend).
        self.rngs: List[np.random.Generator] = [np.random.default_rng(s) for s in seeds]
        # The game never reads per-access counters or per-line domain codes.
        self.engine = SoACacheEngine(config.cache, num_envs, rngs=self.rngs,
                                     track_stats=False, track_domains=False)
        # Domain-sensitive defenses (way partitioning) need to know whether
        # each access is the attacker's or the victim's.
        self._needs_domains = self.engine.domain_sensitive
        self._domain_buffer = np.zeros(num_envs, dtype=np.int8)

        self.actions = ActionSpace(config)
        self.num_actions = len(self.actions)
        self._kind_table = np.array([_KIND_CODE[a.kind] for a in self.actions],
                                    dtype=np.int64)
        self._addr_table = np.array(
            [-1 if a.address is None else a.address for a in self.actions],
            dtype=np.int64)
        # Per-action boolean tables: one gather per mask instead of a gather
        # plus compare.  GUESS and GUESS_EMPTY share one mask because the
        # address table encodes GUESS_EMPTY as -1, the same sentinel the
        # secrets array uses for "victim made no access" — so guess
        # correctness is a single ``addrs == secrets`` compare.
        self._access_table = self._kind_table == _KIND_ACCESS
        self._trigger_table = self._kind_table == _KIND_TRIGGER
        self._flush_table = self._kind_table == _KIND_FLUSH
        self._guess_table = ((self._kind_table == _KIND_GUESS)
                             | (self._kind_table == _KIND_GUESS_EMPTY))
        self._has_flush = bool(self._flush_table.any())

        self.window_size = config.effective_window_size()
        self.max_steps = config.effective_max_steps()
        # Normalized step feature per step count (the encoder clamps at 1).
        self._step_feature = np.minimum(
            np.arange(self.max_steps + 2) / max(self.max_steps, 1), 1.0)
        # ObservationEncoder layout: latency one-hot (3) + action one-hot
        # (+1 "none") + normalized step + victim-triggered flag.
        self.step_features = 3 + (self.num_actions + 1) + 1 + 1
        self.observation_size = self.window_size * self.step_features
        self._none_action = 3 + self.num_actions

        # -1 encodes the "victim makes no access" secret.
        choices: List[Optional[int]] = list(config.victim_addresses)
        if config.victim_no_access_enable:
            choices.append(None)
        self._secret_choices = choices
        self._warm_pool = config.attacker_addresses + config.victim_addresses
        self._warm_count = config.effective_warmup()

        E = num_envs
        self.secrets = np.full(E, -1, dtype=np.int64)
        self.step_counts = np.zeros(E, dtype=np.int64)
        self.victim_triggered = np.zeros(E, dtype=bool)
        self.episode_count = 0
        self._window = np.zeros((E, self.window_size, self.step_features))
        self._padding_row = np.zeros(self.step_features)
        self._padding_row[_LAT_NA] = 1.0
        self._padding_row[self._none_action] = 1.0
        self._row = np.zeros((E, self.step_features))
        self._latency = np.full(E, _LAT_NA, dtype=np.int64)
        self._arange = np.arange(E)
        self._rewards_cfg = config.rewards

    # ------------------------------------------------------------------ reset
    def _reset_envs(self, env_indices: np.ndarray) -> None:
        idx = np.asarray(env_indices, dtype=np.intp)
        if idx.shape[0] == 0:
            return
        self.engine.reset(idx)
        count = self._warm_count
        pool = self._warm_pool
        choices = self._secret_choices
        for env in idx:
            rng = self.rngs[env]
            if count > 0:
                # A size-``count`` integers() call consumes the stream exactly
                # like the per-env path's ``count`` scalar draws; the replay
                # itself runs on the engine's scalar (width-1) fast path
                # (fresh resets cannot hold locks, and the batched game never
                # locks lines, so the lock-free precondition always holds).
                draws = [pool[k] for k in rng.integers(len(pool), size=count)]
                self.engine.warm_up_from_empty(int(env), draws)
            secret = choices[int(rng.integers(len(choices)))]
            self.secrets[env] = -1 if secret is None else secret
        self.step_counts[idx] = 0
        self.victim_triggered[idx] = False
        self._window[idx] = self._padding_row
        self.episode_count += idx.shape[0]

    def reset_into(self, out: np.ndarray) -> None:
        """Start a new episode in every env; write the batch observation."""
        self._reset_envs(self._arange)
        out[:] = self._window.reshape(self.num_envs, -1)

    # ------------------------------------------------------------------- step
    def step_into(self, actions: np.ndarray, out_obs: np.ndarray,
                  out_rewards: np.ndarray, out_dones: np.ndarray) -> tuple:
        """Advance every env by one action; auto-reset finished episodes.

        Observations, rewards, and dones are written in place into the
        caller's (double-buffered) batch arrays.  Returns ``(correct,
        guessed)`` boolean arrays, meaningful where ``out_dones`` is set:
        whether the episode ended in a correct guess, and whether it ended by
        guessing at all (as opposed to a length violation).
        """
        acts = np.asarray(actions, dtype=np.int64)
        addrs = self._addr_table[acts]
        rewards_cfg = self._rewards_cfg
        self.step_counts += 1
        out_rewards[:] = rewards_cfg.step_reward
        latency = self._latency
        latency[:] = _LAT_NA

        # Attacker accesses and victim triggers share one vectorized access
        # call (a trigger with no secret performs no access).
        is_access = self._access_table[acts]
        is_trigger = self._trigger_table[acts]
        does_access = is_access | (is_trigger & (self.secrets >= 0))
        domains = None
        if self._needs_domains:
            domains = self._domain_buffer
            np.copyto(domains, np.where(is_access, DOMAIN_ATTACKER, DOMAIN_VICTIM))
        if does_access.all():
            # Common in attack traces: every env accesses, no subset gathers.
            addr = np.where(is_access, addrs, self.secrets)
            hit, _, _, _ = self.engine.access(self._arange, addr, domains,
                                              collect=False)
            latency[is_access] = np.where(hit[is_access], _LAT_HIT, _LAT_MISS)
        elif does_access.any():
            env_idx = np.flatnonzero(does_access)
            addr = np.where(is_access, addrs, self.secrets)[env_idx]
            hit, _, _, _ = self.engine.access(
                env_idx, addr, None if domains is None else domains[env_idx],
                collect=False)
            attacker_rows = is_access[env_idx]
            latency[env_idx[attacker_rows]] = np.where(hit[attacker_rows],
                                                       _LAT_HIT, _LAT_MISS)
        self.victim_triggered |= is_trigger

        if self._has_flush:
            is_flush = self._flush_table[acts]
            if is_flush.any():
                self.engine.flush(np.flatnonzero(is_flush), addrs[is_flush])

        # addrs is -1 for GUESS_EMPTY and secrets is -1 for "no access", so
        # one compare covers both guess kinds.
        guessed = self._guess_table[acts]
        correct = guessed & (addrs == self.secrets)
        if self.config.force_trigger_before_guess:
            correct &= self.victim_triggered
        done = guessed.copy()
        out_rewards[guessed] = np.where(correct[guessed],
                                        rewards_cfg.correct_guess_reward,
                                        rewards_cfg.wrong_guess_reward)
        length_violation = ~done & (self.step_counts >= self.max_steps)
        out_rewards[length_violation] += rewards_cfg.length_violation_reward
        done |= length_violation

        # Record this step into every env's sliding window; envs that just
        # finished are reset right after, wiping their rows (the per-env path
        # likewise overwrites the final observation with the reset one).
        window = self._window
        window[:, :-1] = window[:, 1:]
        row = self._row
        row[:] = 0.0
        row[self._arange, latency] = 1.0
        row[self._arange, 3 + acts] = 1.0
        row[:, self._none_action + 1] = self._step_feature[self.step_counts]
        row[:, self._none_action + 2] = self.victim_triggered
        window[:, -1] = row

        if done.any():
            self._reset_envs(np.flatnonzero(done))
        out_obs[:] = window.reshape(self.num_envs, -1)
        out_dones[:] = done
        return correct, guessed
