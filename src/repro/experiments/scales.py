"""Experiment scales and the paper-order text table (no numpy, no learner).

The paper trains on a GPU cluster; this reproduction runs on one CPU, so every
experiment accepts an :class:`ExperimentScale` that shrinks the training
budget (and, for the most expensive studies, the cache size) while preserving
the comparisons the paper makes.  ``PAPER`` approximates the original budgets;
``BENCH`` is what the benchmark harness runs; ``SMOKE`` is for tests.

Scale resolution is normalized in one place: every ``run_cell()`` /
``cells()`` entry point accepts a :data:`ScaleLike` — either an
:class:`ExperimentScale` instance or a preset name string — and calls
:func:`resolve_scale` exactly once at the boundary.

The campaign service (experiment specs, the CLI, the catalogue's query
tables) reads scales and renders tables without training anything, so this
module imports neither numpy nor the learner; :mod:`repro.experiments.common`
re-exports it beside the training helpers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.registry import Record

if TYPE_CHECKING:
    from repro.rl.ppo import PPOConfig


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

    def ppo_config(self, **overrides) -> "PPOConfig":
        """The scale's PPO config; ``overrides`` are validated PPOConfig fields."""
        from repro.rl.ppo import PPOConfig

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
