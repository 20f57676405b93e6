"""Synchronous PPO trainer for the cache guessing game.

The trainer is *resumable*: all mutable training state (policy and optimizer
state, the shared RNG stream, the live vectorized envs, episode statistics,
and convergence bookkeeping) can be captured with :meth:`PPOTrainer.save_checkpoint`
and restored in a fresh process with :meth:`PPOTrainer.load_checkpoint`.  A
run resumed from a checkpoint is bit-identical to the same run left
uninterrupted — the campaign runner in :mod:`repro.runs` relies on this to
resume in-flight training after a crash or kill.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from repro import telemetry
from repro.jsonio import dump_json
from repro.rl.buffer import RolloutBuffer
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig, PPOUpdater
from repro.rl.replay import AttackExtraction, evaluate_policy, extract_attack_sequence
from repro.rl.stats import RunningStats, TrainingHistory
from repro.rl.vec_env import VecEnv

# The paper reports training time in epochs of 3000 training steps (Table V).
STEPS_PER_EPOCH = 3000

CHECKPOINT_FORMAT = "repro-ppo-checkpoint"
CHECKPOINT_VERSION = 1

# callback(trainer, update, metrics) invoked after every completed PPO update.
UpdateCallback = Callable[["PPOTrainer", int, Dict[str, float]], None]


def _trainer_metrics() -> Dict[str, object]:
    """Telemetry handles for one trainer, created once per trainer.

    Handles sample the telemetry enabled-state at creation time: with
    ``REPRO_TELEMETRY=0`` every entry is the shared null metric and the
    training loop's instrumentation is pure no-op attribute calls.  The
    handles are deliberately not checkpoint state — a restored trainer
    re-creates them for its own process.
    """
    return {
        "rollout_seconds": telemetry.counter("trainer.time.rollout_seconds"),
        "update_seconds": telemetry.counter("trainer.time.update_seconds"),
        "eval_seconds": telemetry.counter("trainer.time.eval_seconds"),
        "reset_seconds": telemetry.counter("trainer.time.reset_seconds"),
        "updates": telemetry.counter("trainer.updates.total"),
        "env_steps": telemetry.counter("trainer.env_steps.total"),
        "updates_per_second": telemetry.gauge("trainer.updates.per_second"),
        "env_steps_per_second": telemetry.gauge("trainer.env_steps.per_second"),
        "update_histogram": telemetry.histogram("trainer.update.seconds"),
    }


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    converged: bool
    env_steps: int
    updates: int
    epochs_to_converge: Optional[float]
    final_accuracy: float
    final_guess_rate: float
    final_episode_length: float
    final_episode_reward: float
    wall_time_seconds: float
    history: TrainingHistory = field(default_factory=TrainingHistory)
    extraction: Optional[AttackExtraction] = None

    @property
    def epochs_trained(self) -> float:
        return self.env_steps / STEPS_PER_EPOCH

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict that round-trips losslessly via :meth:`from_dict`.

        Run artifacts (``runs/<id>/``) and ``BENCH_*.json`` files both store
        results through this one path.
        """
        return {
            "converged": bool(self.converged),
            "env_steps": int(self.env_steps),
            "updates": int(self.updates),
            "epochs_to_converge": (None if self.epochs_to_converge is None
                                   else float(self.epochs_to_converge)),
            "final_accuracy": float(self.final_accuracy),
            "final_guess_rate": float(self.final_guess_rate),
            "final_episode_length": float(self.final_episode_length),
            "final_episode_reward": float(self.final_episode_reward),
            "wall_time_seconds": float(self.wall_time_seconds),
            "extraction": None if self.extraction is None else self.extraction.to_dict(),
            "history": self.history.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TrainingResult":
        extraction = data.get("extraction")
        history = data.get("history")
        return cls(
            converged=bool(data["converged"]),
            env_steps=int(data["env_steps"]),
            updates=int(data["updates"]),
            epochs_to_converge=(None if data.get("epochs_to_converge") is None
                                else float(data["epochs_to_converge"])),
            final_accuracy=float(data["final_accuracy"]),
            final_guess_rate=float(data["final_guess_rate"]),
            final_episode_length=float(data["final_episode_length"]),
            final_episode_reward=float(data["final_episode_reward"]),
            wall_time_seconds=float(data["wall_time_seconds"]),
            history=(TrainingHistory.from_dict(history) if history else TrainingHistory()),
            extraction=(None if extraction is None
                        else AttackExtraction.from_dict(extraction)),
        )

    def to_json(self, **json_kwargs) -> str:
        return dump_json(self.to_dict(), **json_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "TrainingResult":
        import json

        return cls.from_dict(json.loads(text))


class PPOTrainer:
    """Collect rollouts from a vector of guessing-game envs and run PPO updates.

    ``env_factory`` may be a ``factory(seed) -> env`` callable, a scenario id
    (``"guessing/lru-4way"``), or a :class:`~repro.scenarios.ScenarioSpec`.
    """

    def __init__(self, env_factory: Callable[[int], object],
                 ppo_config: Optional[PPOConfig] = None,
                 hidden_sizes=(128, 128), seed: int = 0):
        from repro.scenarios import as_env_factory

        env_factory = as_env_factory(env_factory)
        self.config = ppo_config or PPOConfig()
        self.seed = seed
        self.hidden_sizes = tuple(hidden_sizes)
        self.rng = np.random.default_rng(seed)
        self.vec_env = VecEnv(env_factory, self.config.num_envs)
        self.eval_env = env_factory(1_000_000 + seed)
        self.policy = ActorCriticPolicy(self.vec_env.observation_size,
                                        self.vec_env.num_actions,
                                        hidden_sizes=hidden_sizes,
                                        rng=np.random.default_rng(seed),
                                        dtype=self.config.dtype)
        self.updater = PPOUpdater(self.policy, self.config, rng=self.rng)
        # One rollout buffer for the trainer's lifetime: storage arrays and
        # minibatch scratch are reused across every update.
        self._rollout_buffer = RolloutBuffer(self.config.horizon, self.config.num_envs,
                                             self.vec_env.observation_size)
        self.env_steps = 0
        self.updates_done = 0
        self.history = TrainingHistory()
        self._episode_rewards = RunningStats(window=200)
        self._episode_lengths = RunningStats(window=200)
        self._episode_correct = RunningStats(window=200)
        # Resumable-training state: the live observation batch, the last
        # evaluation, and convergence bookkeeping survive checkpoints.
        self._observations: Optional[np.ndarray] = None
        self._last_evaluation: Optional[Dict[str, float]] = None
        self._converged = False
        self._epochs_to_converge: Optional[float] = None
        self._update_callbacks: List[UpdateCallback] = []
        self._telemetry = _trainer_metrics()

    # ------------------------------------------------------------- callbacks
    def add_update_callback(self, callback: UpdateCallback) -> UpdateCallback:
        """Register ``callback(trainer, update, metrics)`` to run after every
        PPO update (checkpointing, live metric streaming, early stopping via
        exceptions).  Callbacks are not part of checkpoint state."""
        self._update_callbacks.append(callback)
        return callback

    def remove_update_callback(self, callback: UpdateCallback) -> None:
        self._update_callbacks.remove(callback)

    def _notify_update(self, update: int, metrics: Dict[str, float]) -> None:
        for callback in list(self._update_callbacks):
            callback(self, update, metrics)

    # ---------------------------------------------------------------- rollout
    def _collect_rollout(self, observations: np.ndarray) -> tuple:
        config = self.config
        buffer = self._rollout_buffer
        buffer.reset()
        for _ in range(config.horizon):
            output = self.policy.act(observations, rng=self.rng)
            next_observations, rewards, dones, infos = self.vec_env.step(output.actions)
            buffer.add(observations, output.actions, rewards, dones, output.values,
                       output.log_probs)
            for info in infos:
                episode = info.get("episode")
                if episode:
                    self._episode_rewards.add(episode["reward"])
                    self._episode_lengths.add(episode["length"])
                    self._episode_correct.add(1.0 if episode["correct"] else 0.0)
            observations = next_observations
            self.env_steps += config.num_envs
        last_values = self.policy.value(observations)
        buffer.finalize(last_values, gamma=config.gamma, lam=config.gae_lambda)
        return buffer, observations

    # ------------------------------------------------------------------ train
    def train(self, max_updates: int = 100, target_accuracy: float = 0.95,
              eval_every: int = 5, eval_episodes: int = 30) -> TrainingResult:
        """Train until evaluation accuracy reaches the target or the budget runs out.

        The loop continues from ``self.updates_done``, so calling ``train()``
        on a trainer restored via :meth:`load_checkpoint` picks up exactly
        where the checkpoint left off (same RNG streams, same env states —
        bit-identical to never having stopped).
        """
        start = time.perf_counter()
        tm = self._telemetry
        steps_at_start = self.env_steps
        updates_at_start = self.updates_done
        if self._observations is None:
            reset_started = time.perf_counter()
            self._observations = self.vec_env.reset()
            tm["reset_seconds"].inc(time.perf_counter() - reset_started)
        if self._last_evaluation is None:
            self._last_evaluation = {"accuracy": 0.0, "guess_rate": 0.0,
                                     "mean_episode_length": 0.0,
                                     "mean_episode_reward": 0.0}
        while not self._converged and self.updates_done < max_updates:
            update = self.updates_done + 1
            phase_started = time.perf_counter()
            buffer, self._observations = self._collect_rollout(self._observations)
            rollout_done = time.perf_counter()
            tm["rollout_seconds"].inc(rollout_done - phase_started)
            self.updater.set_progress(update / max_updates)
            metrics = self.updater.update(buffer)
            update_done = time.perf_counter()
            tm["update_seconds"].inc(update_done - rollout_done)
            tm["update_histogram"].record(update_done - phase_started)
            self.updates_done += 1
            tm["updates"].inc()
            tm["env_steps"].inc(self.config.horizon * self.config.num_envs)
            elapsed = update_done - start
            if elapsed > 0.0:
                tm["updates_per_second"].set(
                    (self.updates_done - updates_at_start) / elapsed)
                tm["env_steps_per_second"].set(
                    (self.env_steps - steps_at_start) / elapsed)
            metrics.update({
                "update": update,
                "env_steps": self.env_steps,
                "rollout_reward": self._episode_rewards.mean,
                "rollout_length": self._episode_lengths.mean,
                "rollout_accuracy": self._episode_correct.mean,
            })
            self.history.record(metrics)
            if update % eval_every == 0 or update == max_updates:
                eval_started = time.perf_counter()
                evaluation = evaluate_policy(self.eval_env, self.policy,
                                             episodes=eval_episodes, seed=self.seed + update)
                tm["eval_seconds"].inc(time.perf_counter() - eval_started)
                self.history.record({"update": update, **{f"eval_{k}": v
                                                          for k, v in evaluation.items()}})
                self._last_evaluation = evaluation
                if (evaluation["accuracy"] >= target_accuracy
                        and evaluation["guess_rate"] >= target_accuracy):
                    self._converged = True
                    self._epochs_to_converge = self.env_steps / STEPS_PER_EPOCH
            self._notify_update(update, metrics)

        extraction = None
        if self._converged:
            extraction = extract_attack_sequence(self.eval_env, self.policy,
                                                 seed=self.seed)
        evaluation = self._last_evaluation
        return TrainingResult(
            converged=self._converged,
            env_steps=self.env_steps,
            updates=self.updates_done,
            epochs_to_converge=self._epochs_to_converge,
            final_accuracy=evaluation["accuracy"],
            final_guess_rate=evaluation["guess_rate"],
            final_episode_length=evaluation["mean_episode_length"],
            final_episode_reward=evaluation["mean_episode_reward"],
            wall_time_seconds=time.perf_counter() - start,
            history=self.history,
            extraction=extraction,
        )

    # ------------------------------------------------------------ checkpoints
    def save_checkpoint(self, path) -> None:
        """Atomically write everything needed to resume training bit-identically.

        The payload combines structured component state (policy parameters,
        optimizer moments, RNG stream, counters, history) with the pickled
        live environments — the cache state, episode progress, and per-env RNG
        streams are what make a resumed run indistinguishable from an
        uninterrupted one.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "seed": self.seed,
            "config": dataclasses.asdict(self.config),
            "hidden_sizes": self.hidden_sizes,
            "env_steps": self.env_steps,
            "updates_done": self.updates_done,
            "rng_state": self.rng.bit_generator.state,
            "policy_state": self.policy.state_dict(),
            "updater_state": self.updater.state_dict(),
            "history": self.history.to_dict(),
            "episode_stats": (self._episode_rewards, self._episode_lengths,
                              self._episode_correct),
            "converged": self._converged,
            "epochs_to_converge": self._epochs_to_converge,
            "last_evaluation": self._last_evaluation,
            # One pickle payload so aliasing between the observation batch and
            # the vec env's double buffers survives the round trip.
            "world": {"vec_env": self.vec_env, "eval_env": self.eval_env,
                      "observations": self._observations},
        }
        # Imported lazily: repro.runs.context imports this module, so a
        # module-level import of the (leaf) artifacts helper would cycle.
        from repro.runs.artifacts import atomic_write_pickle

        atomic_write_pickle(Path(path), payload)

    @classmethod
    def load_checkpoint(cls, path) -> "PPOTrainer":
        """Restore a trainer saved by :meth:`save_checkpoint` (any process).

        The checkpoint's SHA-256 sidecar is verified first; a corrupt or
        truncated file is quarantined to ``<name>.corrupt-N`` and
        :class:`~repro.runs.artifacts.CorruptArtifactError` raised so the
        caller can restart from its last good state.
        """
        from repro.runs.artifacts import load_pickle

        payload = load_pickle(Path(path))
        if payload.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(f"{path} is not a PPOTrainer checkpoint")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')!r}")
        # Checkpoints written before the policy became MLP-only name their
        # backbone; only "mlp" describes a policy this trainer can rebuild.
        backbone = payload.get("backbone", "mlp")
        if backbone != "mlp":
            raise ValueError(f"unsupported checkpoint field 'backbone': {backbone!r} "
                             "(only 'mlp' policies can be restored)")
        trainer = cls.__new__(cls)
        trainer.config = PPOConfig(**payload["config"])
        trainer.seed = payload["seed"]
        trainer.hidden_sizes = tuple(payload["hidden_sizes"])
        trainer.rng = np.random.default_rng(trainer.seed)
        trainer.rng.bit_generator.state = payload["rng_state"]
        world = payload["world"]
        trainer.vec_env = world["vec_env"]
        trainer.eval_env = world["eval_env"]
        trainer._observations = world["observations"]
        trainer.policy = ActorCriticPolicy(trainer.vec_env.observation_size,
                                           trainer.vec_env.num_actions,
                                           hidden_sizes=trainer.hidden_sizes,
                                           rng=np.random.default_rng(trainer.seed),
                                           dtype=trainer.config.dtype)
        trainer.policy.load_state_dict(payload["policy_state"])
        trainer.updater = PPOUpdater(trainer.policy, trainer.config, rng=trainer.rng)
        trainer._rollout_buffer = RolloutBuffer(trainer.config.horizon,
                                                trainer.config.num_envs,
                                                trainer.vec_env.observation_size)
        trainer.updater.load_state_dict(payload["updater_state"])
        trainer.env_steps = int(payload["env_steps"])
        trainer.updates_done = int(payload["updates_done"])
        trainer.history = TrainingHistory.from_dict(payload["history"])
        rewards, lengths, correct = payload["episode_stats"]
        trainer._episode_rewards = rewards
        trainer._episode_lengths = lengths
        trainer._episode_correct = correct
        trainer._converged = bool(payload["converged"])
        trainer._epochs_to_converge = payload["epochs_to_converge"]
        trainer._last_evaluation = payload["last_evaluation"]
        trainer._update_callbacks = []
        trainer._telemetry = _trainer_metrics()
        return trainer

    # --------------------------------------------------------------- analysis
    def evaluate(self, episodes: int = 100, deterministic: bool = True) -> Dict[str, float]:
        return evaluate_policy(self.eval_env, self.policy, episodes=episodes,
                               deterministic=deterministic, seed=self.seed + 7)

    def extract(self) -> AttackExtraction:
        return extract_attack_sequence(self.eval_env, self.policy, seed=self.seed)
