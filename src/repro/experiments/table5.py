"""Table V: RL training statistics across deterministic replacement policies.

A 4-way cache set with LRU, PLRU, and RRIP replacement; the attacker's address
range (0-4) is large enough to fill the set, and the victim either accesses
address 0 or makes no access.  The paper reports epochs-to-converge (one epoch
is 3000 training steps) and final episode length, averaged over three runs,
with RRIP requiring noticeably more training and a longer attack than
LRU/PLRU.

Each cell trains one agent (``run0``), so a row is one run: ``runs`` is 1 and
``converged_runs`` is 0 or 1.  The paper's three runs are the ``paper``
scale's seed replicas, three cells per policy that the campaign runner
schedules and the rendered table averages.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ScaleLike, resolve_scale, train_agent
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
    """One Table V run: train one agent against one policy."""
    scale = resolve_scale(scale)
    policy = params["policy"]
    num_ways = params.get("num_ways", 4)
    if scale.name == "smoke":
        num_ways = 2
    result = train_agent(make_env_factory(policy, num_ways=num_ways),
                         scale, seed=seed, ctx=ctx, name="run0")
    return {
        "replacement_policy": policy,
        "epochs_to_converge": float(result.epochs_to_converge if result.converged
                                    else result.epochs_trained),
        "episode_length": float(result.final_episode_length),
        "accuracy": float(result.final_accuracy),
        "converged_runs": int(result.final_accuracy >= 0.95),
        "runs": 1,
        "example_sequence": ("" if result.extraction is None
                             else result.extraction.render()),
    }
