"""Section VI-A: RL versus brute-force / unguided search.

Reproduces the analytical search-space estimate (M ~ e^(2N) candidate
sequences for an N-way prime+probe attack) and runs the empirical random
search baseline on a small configuration to show how quickly unguided search
degrades compared to the RL agent's step budget.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.search_space import brute_force_steps_estimate, prime_probe_search_space
from repro.cache.config import CacheConfig
from repro.env.config import EnvConfig
from repro.experiments.common import ScaleLike, resolve_scale
from repro.rl.baselines import RandomSearchBaseline

# The paper quotes ~1 million RL steps to converge for the 8-way case.
RL_STEPS_REFERENCE = 1_000_000


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Section VI-A row: an analytical estimate or the empirical search."""
    scale = resolve_scale(scale)
    num_ways = params.get("num_ways", 2)
    if params["kind"] == "analytical":
        return {
            "num_ways": num_ways,
            "brute_force_sequences": prime_probe_search_space(num_ways),
            "brute_force_steps": brute_force_steps_estimate(num_ways),
            "rl_steps_reference": RL_STEPS_REFERENCE,
            "speedup_vs_rl": brute_force_steps_estimate(num_ways) / RL_STEPS_REFERENCE,
            "kind": "analytical",
        }
    config = EnvConfig(cache=CacheConfig.fully_associative(num_ways),
                       attacker_addr_s=num_ways, attacker_addr_e=2 * num_ways - 1,
                       victim_addr_s=0, victim_addr_e=0, victim_no_access_enable=True,
                       window_size=4 * num_ways, warmup_accesses=0, seed=seed)
    search = RandomSearchBaseline(config, seed=seed)
    max_sequences = 200 if scale.name == "smoke" else 2000
    result = search.search(max_sequences=max_sequences)
    return {
        "num_ways": num_ways,
        "brute_force_sequences": result.sequences_tried,
        "brute_force_steps": result.env_steps,
        "rl_steps_reference": RL_STEPS_REFERENCE,
        "speedup_vs_rl": float("nan"),
        "kind": "empirical random search" + ("" if result.found else " (not found)"),
    }
