"""Shared experiment infrastructure: training helpers over the scales.

The scales (:class:`ExperimentScale`, ``SMOKE``/``BENCH``/``PAPER``,
:func:`resolve_scale`) and :func:`format_table` live in the numpy-free
:mod:`repro.experiments.scales` and are re-exported here for the drivers.
Importing this module loads the learner (numpy, the PPO stack, the scenario
registry): the campaign runner and the workers import it so that no cell
pays for that inside its run.

The training helpers optionally take a ``ctx`` (a
:class:`repro.runs.CellContext`) that makes them *resumable*: checkpoints are
saved every few updates, an interrupted training resumes from its checkpoint,
and a finished training is memoized to disk (result JSON + history JSONL +
extraction JSON + policy pickle) so a resumed campaign cell never retrains
completed work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.experiments.scales import (  # noqa: F401  (re-exported for the drivers)
    BENCH,
    PAPER,
    SCALES,
    SMOKE,
    ExperimentScale,
    ScaleLike,
    format_table,
    resolve_scale,
)
from repro.rl.policy import ActorCriticPolicy
from repro.rl.trainer import PPOTrainer, TrainingResult
from repro.scenarios import ScenarioSpec

# Anything the trainer can turn into environments: a ``factory(seed) -> env``
# callable, a registered scenario id, or a ScenarioSpec.
EnvSource = Union[Callable[[int], object], str, ScenarioSpec]


@dataclass
class TrainedPolicyHandle:
    """What a memoized training leaves behind for further evaluation.

    :func:`train_agent_with_trainer` returns either a live
    :class:`~repro.rl.trainer.PPOTrainer` or — when a campaign cell resumes
    past an already-finished training — this handle wrapping the persisted
    policy.  Both expose ``.policy``, which is all the covert-channel
    evaluators need.
    """

    policy: ActorCriticPolicy


def _train(env_source: EnvSource, scale: ExperimentScale, seed: int,
           target_accuracy: float, ppo_overrides: Optional[dict],
           ctx=None, name: str = "train") -> tuple:
    """Train one agent, with optional checkpoint/resume/memoization via ``ctx``.

    Returns ``(result, trainer_or_handle)``.  Without a ctx this is exactly
    the legacy in-memory path.  With a ctx:

    * a finished training is memoized under ``<name>.result.json`` (plus
      history JSONL, extraction JSON, and the policy pickle) and returned
      without retraining;
    * an in-flight training resumes from ``<name>.checkpoint.pkl``;
    * a checkpoint is saved every ``ctx.checkpoint_every`` updates.
    """
    if ctx is not None:
        # Refuse to reuse artifacts produced under different parameters (the
        # campaign runner's manifest guards whole campaigns; this guards
        # standalone CellContext use).
        ctx.ensure_training_meta(name, {
            "scale": scale.to_dict(), "seed": seed,
            "target_accuracy": target_accuracy,
            "ppo_overrides": ppo_overrides or {},
        })
        # load_training verifies checksums: a corrupt/truncated memo (result
        # JSON or policy pickle) is quarantined and we fall through to the
        # checkpoint — the cell transparently re-runs from its last good state.
        memo = ctx.load_training(name)
        if memo is not None:
            result, policy = memo
            return result, TrainedPolicyHandle(policy)
    checkpoint_path = None
    if ctx is not None:
        checkpoint_path = ctx.checkpoint_path(name)
        # None when absent *or* corrupt (then quarantined): restart from scratch.
        trainer = ctx.load_trainer_checkpoint(name)
        if trainer is None:
            trainer = PPOTrainer(env_source, scale.ppo_config(**(ppo_overrides or {})),
                                 hidden_sizes=scale.hidden_sizes, seed=seed)
        trainer.add_update_callback(ctx.checkpoint_callback(checkpoint_path))
    else:
        trainer = PPOTrainer(env_source, scale.ppo_config(**(ppo_overrides or {})),
                             hidden_sizes=scale.hidden_sizes, seed=seed)
    result = trainer.train(max_updates=scale.max_updates, target_accuracy=target_accuracy,
                           eval_every=10, eval_episodes=scale.eval_episodes)
    if ctx is not None:
        ctx.save_training(name, result, trainer.policy)
    return result, trainer


def train_agent(env_source: EnvSource,
                scale: ScaleLike, seed: int = 0,
                target_accuracy: float = 0.95,
                ppo_overrides: Optional[dict] = None,
                ctx=None, name: str = "train") -> TrainingResult:
    """Train one PPO agent with the scale's budget and return its result.

    ``env_source`` is anything :class:`~repro.rl.trainer.PPOTrainer` accepts:
    an env factory, a scenario id, or a :class:`~repro.scenarios.ScenarioSpec`.
    ``ctx`` (a :class:`repro.runs.CellContext`) enables checkpoint/resume and
    memoization when the training runs inside a campaign cell.
    """
    scale = resolve_scale(scale)
    result, _ = _train(env_source, scale, seed, target_accuracy, ppo_overrides,
                       ctx=ctx, name=name)
    return result


def train_agent_with_trainer(env_source: EnvSource,
                             scale: ScaleLike, seed: int = 0,
                             target_accuracy: float = 0.95,
                             ppo_overrides: Optional[dict] = None,
                             ctx=None, name: str = "train") -> tuple:
    """Like :func:`train_agent` but also return the trainer (for further
    evaluation).  Under a resumed campaign cell the second element may be a
    :class:`TrainedPolicyHandle`; both expose ``.policy``."""
    scale = resolve_scale(scale)
    return _train(env_source, scale, seed, target_accuracy, ppo_overrides,
                  ctx=ctx, name=name)


def average_over_runs(values: Sequence[float]) -> float:
    """Mean of per-run statistics (Tables V and VII average over three runs)."""
    cleaned = [value for value in values if value is not None]
    if not cleaned:
        return float("nan")
    return float(np.mean(cleaned))
