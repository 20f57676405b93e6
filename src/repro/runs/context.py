"""Per-cell execution context: checkpoints, artifacts, and fault injection.

A :class:`CellContext` is handed to a driver's ``run_cell()`` (and threaded
into :func:`repro.experiments.common.train_agent`) when the cell runs inside a
campaign.  It owns the cell's artifact directory and provides:

* **checkpointing** — a trainer callback that saves a resumable
  :class:`~repro.rl.trainer.PPOTrainer` checkpoint every
  :data:`CHECKPOINT_EVERY` updates;
* **memoization** — a finished training persists its policy (pickle) and
  then its :class:`~repro.rl.trainer.TrainingResult` (JSON, which carries
  the training history and the extracted attack), so a resumed cell skips
  completed trainings entirely;
* **crash safety** — every artifact goes through
  :mod:`repro.runs.artifacts` (atomic replace + checksum sidecar); a corrupt
  or truncated artifact found on load is quarantined and the affected
  training transparently restarts from its last good state (the memoized
  result, the checkpoint, or — if those are gone too — from scratch);
* **fault injection** — an attached
  :class:`~repro.runs.faults.FaultInjector` can kill the cell at checkpoint
  boundaries, tear or bit-flip just-written artifacts, and stall the cell,
  which is how the chaos tests (and the CI chaos-matrix job) simulate
  crashes deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.jsonio import json_ready
from repro.rl.trainer import PPOTrainer, TrainingResult
from repro.runs.artifacts import (
    CorruptArtifactError,
    atomic_write_json,
    atomic_write_pickle,
    atomic_write_text,
    load_json,
    load_pickle,
    load_text,
    quarantine,
    remove_artifact,
)
from repro.runs.faults import FaultInjector

#: PPO updates between two checkpoint saves of an in-flight training.
CHECKPOINT_EVERY = 2


@dataclass
class CellContext:
    """Artifact directory + fault injector for one running campaign cell."""

    cell_dir: Path
    injector: Optional[FaultInjector] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.cell_dir = Path(self.cell_dir)

    # ------------------------------------------------------------------ paths
    def checkpoint_path(self, name: str = "train") -> Path:
        return self.cell_dir / f"{name}.checkpoint.pkl"

    def result_path(self, name: str = "train") -> Path:
        return self.cell_dir / f"{name}.result.json"

    def policy_path(self, name: str = "train") -> Path:
        return self.cell_dir / f"{name}.policy.pkl"

    def meta_path(self, name: str = "train") -> Path:
        return self.cell_dir / f"{name}.meta.json"

    # ------------------------------------------------------------- guardrails
    def ensure_training_meta(self, name: str, meta: dict) -> None:
        """Bind this cell's artifacts to one set of training parameters.

        The campaign runner guards whole campaigns through the manifest, but a
        CellContext can also be used standalone (see
        ``examples/real_hardware_exploration.py``); this check refuses to
        resume a checkpoint or reuse a memoized result that was produced under
        different parameters (e.g. a different scale).
        """
        meta = json_ready(meta)
        path = self.meta_path(name)
        if path.exists():
            try:
                existing = load_json(path)
            except CorruptArtifactError:
                existing = None  # quarantined; rewrite below
            if existing is not None:
                if existing != meta:
                    raise ValueError(
                        f"{self.cell_dir} holds artifacts for training {name!r} with "
                        f"different parameters ({existing} != {meta}); use a fresh "
                        "directory or delete the old artifacts")
                return
        atomic_write_json(path, meta)

    # ------------------------------------------------------------ checkpoints
    def checkpoint_callback(self, path: Path):
        """A trainer on-update callback that checkpoints (and maybe faults)."""

        def callback(trainer: PPOTrainer, update: int, _metrics) -> None:
            boundary = update % CHECKPOINT_EVERY == 0
            if self.injector is not None and self.injector.wants_checkpoint(update):
                boundary = True
            if boundary:
                trainer.save_checkpoint(path)
                if self.injector is not None:
                    self.injector.on_checkpoint_saved(update, path)

        return callback

    def load_trainer_checkpoint(self, name: str = "train") -> Optional[PPOTrainer]:
        """The in-flight trainer for ``name``, or None.

        A corrupt or truncated checkpoint is quarantined by the loader and
        treated as absent, so the training transparently restarts from
        scratch instead of crashing the campaign.
        """
        path = self.checkpoint_path(name)
        if not path.exists():
            return None
        try:
            return PPOTrainer.load_checkpoint(path)
        except CorruptArtifactError:
            return None

    # ------------------------------------------------------------ memoization
    def save_training(self, name: str, result: TrainingResult, policy) -> None:
        """Persist a finished training's policy and result, and drop its
        checkpoint."""
        atomic_write_pickle(self.policy_path(name), policy)
        self._notify("policy", self.policy_path(name))
        # The result JSON is written last: its existence marks the training
        # as complete, so a crash between these writes stays resumable.
        atomic_write_text(self.result_path(name), result.to_json())
        self._notify("training-result", self.result_path(name))
        remove_artifact(self.checkpoint_path(name))

    def load_training(self, name: str) -> Optional[Tuple[TrainingResult, Any]]:
        """A previously finished training's result and policy, or None.

        The policy pickle is read, checksummed and unpickled once.  A result
        JSON or policy pickle that is missing, corrupt or unparseable
        quarantines the damaged file (where it exists) and returns None —
        the caller retrains and the fresh artifacts overwrite whatever was
        left.
        """
        path = self.result_path(name)
        if not path.exists():
            return None
        try:
            result = TrainingResult.from_json(load_text(path))
        except (CorruptArtifactError, ValueError):
            if path.exists():  # unparseable but checksum-valid: still unusable
                quarantine(path, "unparseable TrainingResult")
            return None
        try:
            policy = load_pickle(self.policy_path(name))
        except (CorruptArtifactError, FileNotFoundError):
            return None
        return result, policy

    # ---------------------------------------------------------------- faults
    def _notify(self, artifact: str, path: Path) -> None:
        if self.injector is not None:
            self.injector.on_artifact_written(artifact, path)
