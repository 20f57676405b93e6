"""Attacker-vs-defense evaluation matrix (``repro.run("defense_matrix")``).

Evaluates every {base scenario} x {defense} cell along two axes:

* **probe accuracy** — the best guess accuracy achievable from the
  observation signature of a scripted replacement-state probe (prime
  capacity-1 lines, trigger, evict with a fresh line, re-probe; warm-up
  disabled so the probe measures the channel, not episode noise), the same
  :func:`~repro.attacks.evaluate.evaluate_action_sequence` criterion the
  Table I/IV verifications use.  This is the "does a known attack still
  work?" column: the PLRU PL cache stays fully attackable through its
  replacement state (1.0 — the paper's Table VII finding) while an *LRU* PL
  cache is secure (victim hits on a locked line preserve the relative order
  of the attacker's ways), a fully way-partitioned cache sits exactly at
  chance, and keyed remapping protects the multi-set partial-footprint row
  while doing nothing for a fully-associative set (nothing to remap);
* **RL attacker accuracy / leaked bits** — a PPO attacker trained against
  the defended cell at the campaign's budget, reporting final guess accuracy
  and a Fano-bound bits-per-episode estimate.  Undefended baselines converge
  at the bench budget; rediscovering the PL-cache attack needs paper-scale
  compute (the paper trained for hours on a GPU cluster), so at smoke/bench
  scale the probe column carries the defense comparison and the RL column
  shows the attacker's progress at the configured budget.

PPO needs the bench training geometry (horizon 256, 8 envs, 128-wide net) to
rediscover attacks at all, so ``smoke`` keeps that geometry and only trims
the update budget.  Cells whose defense has an SoA kernel (keyed-remap,
way-partition on lru/mru) train on the batched engine automatically.
"""

from __future__ import annotations

import zlib
from typing import Dict, List

from repro.analysis.defenses import guess_channel_bits, pivot_matrix
from repro.attacks.evaluate import evaluate_action_sequence
from repro.experiments.common import (
    ExperimentScale,
    ScaleLike,
    format_table,
    resolve_scale,
    train_agent,
)
from repro.runs.registry import get_experiment
from repro.scenarios import make_factory

#: Training-update budgets per scale name (None = keep the scale's own).
_UPDATE_BUDGETS = {"smoke": 160}

#: Probe evaluation trials per secret (the probe is deterministic up to the
#: episode warm-up, so a few dozen trials pin the signature -> secret map).
PROBE_TRIALS = 60


def replacement_probe_sequence(env) -> List[int]:
    """The scripted probe: prime capacity-1 lines, trigger, evict, re-probe.

    Covers eviction-based channels (prime+probe / evict+reload) and
    replacement-state channels (the PL-cache leak): the post-trigger eviction
    lands on a victim-dependent way, which the re-probe observes.
    """
    from repro.env.actions import ActionKind

    access = [index for index, action in enumerate(env.actions)
              if action.kind is ActionKind.ACCESS]
    capacity = env.config.cache.num_blocks
    prime = access[:max(1, min(len(access) - 1, capacity - 1))]
    evict = access[len(prime):len(prime) + 1] or prime[:1]
    return prime + [env.actions.trigger_index] + evict + prime


def _cell_scale(scale: ExperimentScale) -> ExperimentScale:
    """The training scale for one cell (bench geometry, per-scale budget)."""
    overrides = {"eval_episodes": max(scale.eval_episodes, 50)}
    if scale.name == "smoke":
        # PPO cannot rediscover attacks with the 4-env/64-step smoke
        # geometry; keep bench geometry and trim only the budget.
        overrides.update(horizon=256, num_envs=8, hidden_sizes=(128, 128),
                         minibatch_size=512)
    budget = _UPDATE_BUDGETS.get(scale.name)
    if budget is not None:
        overrides["max_updates"] = budget
    return scale.with_overrides(**overrides)


def _cell_seed(seed: int, scenario: str, defense: str) -> int:
    """Deterministic per-cell seed derived from the campaign seed."""
    return seed + zlib.crc32(f"{scenario}|{defense}".encode()) % 9973


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One matrix cell: scripted probe + PPO attacker against one defended env."""
    scale = resolve_scale(scale)
    scenario = params["scenario"]
    defense = params.get("defense") or "none"
    overrides = {} if defense == "none" else {"defense": defense}
    factory = make_factory(scenario, **overrides)
    num_secrets = factory.spec.build_config().num_secrets

    # The probe measures the channel itself, so it runs without the random
    # episode warm-up (whose noise would otherwise smear the signatures).
    probe_env = make_factory(scenario, warmup_accesses=0, **overrides)(seed)
    probe_accuracy, _ = evaluate_action_sequence(
        probe_env, replacement_probe_sequence(probe_env), trials=PROBE_TRIALS)

    result = train_agent(factory, _cell_scale(scale),
                         seed=_cell_seed(seed, scenario, defense), ctx=ctx)
    example = ""
    if result.extraction is not None:
        example = " -> ".join(result.extraction.representative)
    return {
        "scenario": scenario,
        "defense": defense,
        "probe_accuracy": probe_accuracy,
        "accuracy": result.final_accuracy,
        "bits_per_episode": guess_channel_bits(result.final_accuracy, num_secrets),
        "episode_length": result.final_episode_length,
        "epochs_to_converge": (result.epochs_to_converge if result.converged
                               else None),
        "converged": result.converged,
        "example_sequence": example,
    }


def format_results(rows: List[Dict]) -> str:
    """Pivot views per metric, then the per-cell table over the spec's columns."""
    parts = ["Defense matrix: scripted-probe accuracy per scenario x defense",
             pivot_matrix(rows, "probe_accuracy"),
             "",
             "RL attacker guess accuracy (at the campaign's training budget)",
             pivot_matrix(rows, "accuracy"),
             "",
             "Leaked bits per episode (Fano bound from RL guess accuracy)",
             pivot_matrix(rows, "bits_per_episode"),
             "",
             format_table(rows, get_experiment("defense_matrix").columns,
                          title="Per-cell detail")]
    return "\n".join(parts)
