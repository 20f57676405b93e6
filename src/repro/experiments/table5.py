"""Table V: RL training statistics across deterministic replacement policies.

A 4-way cache set with LRU, PLRU, and RRIP replacement; the attacker's address
range (0-4) is large enough to fill the set, and the victim either accesses
address 0 or makes no access.  The paper reports epochs-to-converge (one epoch
is 3000 training steps) and final episode length, averaged over three runs,
with RRIP requiring noticeably more training and a longer attack than
LRU/PLRU.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    ScaleLike,
    average_over_runs,
    resolve_scale,
    train_agent,
)
from repro.scenarios import make_factory


def make_env_factory(policy: str, num_ways: int = 4):
    """Environment factory for one replacement policy (Table V setting).

    Thin shim over the scenario registry: resolves ``guessing/<policy>-4way``
    and applies associativity overrides when ``num_ways != 4``.
    """
    overrides = {"window_size": 3 * num_ways, "max_steps": 3 * num_ways}
    if num_ways != 4:
        overrides.update({"cache.num_ways": num_ways, "attacker_addr_e": num_ways})
    return make_factory(f"guessing/{policy}-4way", **overrides)


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Table V row: train ``scale.runs`` agents against one policy."""
    scale = resolve_scale(scale)
    policy = params["policy"]
    num_ways = params.get("num_ways", 4)
    if scale.name == "smoke":
        num_ways = 2
    epochs: List[float] = []
    lengths: List[float] = []
    accuracies: List[float] = []
    example_sequence = ""
    for run_index in range(scale.runs):
        result = train_agent(make_env_factory(policy, num_ways=num_ways),
                             scale, seed=seed + 17 * run_index,
                             ctx=ctx, name=f"run{run_index}")
        epochs.append(result.epochs_to_converge if result.converged
                      else result.epochs_trained)
        lengths.append(result.final_episode_length)
        accuracies.append(result.final_accuracy)
        if result.extraction is not None and not example_sequence:
            example_sequence = result.extraction.render()
    return {
        "replacement_policy": policy,
        "epochs_to_converge": average_over_runs(epochs),
        "episode_length": average_over_runs(lengths),
        "accuracy": average_over_runs(accuracies),
        "converged_runs": sum(1 for a in accuracies if a >= 0.95),
        "runs": scale.runs,
        "example_sequence": example_sequence,
    }
