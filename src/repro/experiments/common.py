"""Shared experiment infrastructure: scales, training helpers, table formatting.

The paper trains on a GPU cluster; this reproduction runs on one CPU, so every
experiment accepts an :class:`ExperimentScale` that shrinks the training
budget (and, for the most expensive studies, the cache size) while preserving
the comparisons the paper makes.  ``PAPER`` approximates the original budgets;
``BENCH`` is what the benchmark harness runs; ``SMOKE`` is for tests.

Scale resolution is normalized in one place: every ``run_cell()`` /
``cells()`` entry point accepts a :data:`ScaleLike` — either an
:class:`ExperimentScale` instance or a preset name string — and calls
:func:`resolve_scale` exactly once at the boundary.

The training helpers optionally take a ``ctx`` (a
:class:`repro.runs.CellContext`) that makes them *resumable*: checkpoints are
saved every few updates, an interrupted training resumes from its checkpoint,
and a finished training is memoized to disk (result JSON + history JSONL +
extraction JSON + policy pickle) so a resumed campaign cell never retrains
completed work.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.registry import Record
from repro.rl.policy import ActorCriticPolicy
from repro.rl.ppo import PPOConfig
from repro.rl.trainer import PPOTrainer, TrainingResult
from repro.scenarios import ScenarioSpec

# Anything the trainer can turn into environments: a ``factory(seed) -> env``
# callable, a registered scenario id, or a ScenarioSpec.
EnvSource = Union[Callable[[int], object], str, ScenarioSpec]


@dataclass(frozen=True)
class ExperimentScale(Record):
    """Budget knobs for one experiment run.

    Round-trips through ``to_dict``/``from_dict`` for campaign manifests;
    ``hidden_sizes`` is normalized to a tuple so a scale read back from JSON
    equals the original.
    """

    name: str
    max_updates: int
    horizon: int
    num_envs: int
    eval_episodes: int
    runs: int
    hidden_sizes: tuple = (128, 128)
    learning_rate: float = 1e-3
    entropy_coefficient: float = 0.1
    entropy_coefficient_final: float = 0.003
    minibatch_size: int = 512
    update_epochs: int = 6

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))

    def ppo_config(self, **overrides) -> PPOConfig:
        """The scale's PPO config; ``overrides`` are validated PPOConfig fields."""
        return replace(PPOConfig(
            learning_rate=self.learning_rate,
            entropy_coefficient=self.entropy_coefficient,
            entropy_coefficient_final=self.entropy_coefficient_final,
            update_epochs=self.update_epochs,
            minibatch_size=self.minibatch_size,
            horizon=self.horizon,
            num_envs=self.num_envs,
        ), **overrides)

    def with_overrides(self, **overrides) -> "ExperimentScale":
        return replace(self, **overrides)


SMOKE = ExperimentScale(name="smoke", max_updates=6, horizon=64, num_envs=4,
                        eval_episodes=10, runs=1, hidden_sizes=(32, 32))
BENCH = ExperimentScale(name="bench", max_updates=200, horizon=256, num_envs=8,
                        eval_episodes=40, runs=1)
PAPER = ExperimentScale(name="paper", max_updates=800, horizon=512, num_envs=8,
                        eval_episodes=100, runs=3)

SCALES: Dict[str, ExperimentScale] = {"smoke": SMOKE, "bench": BENCH, "paper": PAPER}

# A scale argument as the experiment entry points accept it: a preset name
# string or a ready ExperimentScale.
ScaleLike = Union[ExperimentScale, str]


def resolve_scale(scale: Optional[ScaleLike]) -> ExperimentScale:
    """Normalize a :data:`ScaleLike` (or None, meaning ``bench``) to a scale."""
    if scale is None:
        return BENCH
    if isinstance(scale, ExperimentScale):
        return scale
    if scale in SCALES:
        return SCALES[scale]
    raise KeyError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")


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
            return memo, TrainedPolicyHandle(ctx.load_policy(name))
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


def format_table(rows: List[Dict], columns: Sequence[str],
                 title: str = "") -> str:
    """Render rows as a fixed-width text table in the paper's column order."""
    header = [str(column) for column in columns]
    rendered_rows = [[_render_cell(row.get(column, "")) for column in columns] for row in rows]
    widths = [max(len(header[i]), *(len(r[i]) for r in rendered_rows)) if rendered_rows
              else len(header[i]) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(len(header))))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row in rendered_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))))
    return "\n".join(lines)


def _render_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
