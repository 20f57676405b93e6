"""Table VII: attacking the partition-locked (PL) cache.

The victim's line (address 0) is pre-installed and locked, so the attacker can
never evict it and the victim's accesses never evict attacker lines — the
setting a prior formal analysis deemed secure.  AutoCAT still finds an attack
through the replacement state; it just takes longer to converge and produces a
slightly longer sequence than the unprotected baseline.

Each cell trains one agent (``run0``), so a row is one run; the paper's
three-run averages come from the ``paper`` scale's seed replicas, which the
campaign runner schedules as separate cells and the rendered table averages.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.common import ScaleLike, resolve_scale, train_agent
from repro.scenarios import make_factory


def make_env_factory(pl_cache: bool, num_ways: int = 4, rep_policy: str = "plru"):
    """Environment factory: PLRU cache, victim line 0 locked when ``pl_cache``.

    Thin shim over the scenario registry: the Table VII baseline scenario
    hardened through the generic defense registry (``defense="plcache"``
    pre-installs and locks the victim range), with associativity/policy
    overrides.
    """
    overrides = {}
    if pl_cache:
        overrides["defense"] = "plcache"
    if rep_policy != "plru":
        overrides["cache.rep_policy"] = rep_policy
    if num_ways != 4:
        overrides.update({"cache.num_ways": num_ways,
                          "attacker_addr_e": num_ways + 1,
                          "window_size": 3 * num_ways, "max_steps": 3 * num_ways})
    return make_factory("guessing/plcache-baseline-4way", **overrides)


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Table VII run: one agent against the PL-locked or baseline cache."""
    scale = resolve_scale(scale)
    pl_cache = params["pl_cache"]
    num_ways = params.get("num_ways", 4)
    if scale.name == "smoke":
        num_ways = 2
    result = train_agent(make_env_factory(pl_cache, num_ways=num_ways),
                         scale, seed=seed, ctx=ctx, name="run0")
    return {
        "cache": params["cache"],
        "epochs_to_converge": float(result.epochs_to_converge if result.converged
                                    else result.epochs_trained),
        "final_episode_length": float(result.final_episode_length),
        "accuracy": float(result.final_accuracy),
        "example_sequence": ("" if result.extraction is None
                             else result.extraction.render()),
    }
