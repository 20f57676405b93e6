"""Table I / Section II: the known cache-timing attack catalogue.

Each known attack category has a matching registered scenario (``known/*``);
we generate the textbook attack sequence for its configuration and verify on
the simulator that its observations fully distinguish the possible secrets
(accuracy 1.0 on a deterministic cache).
"""

from __future__ import annotations

from typing import Dict

from repro.attacks.evaluate import evaluate_action_sequence
from repro.attacks.lru_attacks import lru_address_based_sequence
from repro.attacks.textbook import (
    evict_reload_sequence,
    flush_reload_sequence,
    prime_probe_sequence,
)
from repro.experiments.common import ScaleLike
from repro.scenarios import get_spec, make

# (row name, registered scenario, textbook sequence generator)
KNOWN_ATTACK_CASES = (
    ("prime+probe", "known/prime-probe", prime_probe_sequence),
    ("flush+reload", "known/flush-reload", flush_reload_sequence),
    ("evict+reload", "known/evict-reload", evict_reload_sequence),
    ("lru state (addr-based)", "known/lru-state", lru_address_based_sequence),
)


def run_cell(params: Dict, scale: ScaleLike = None, seed: int = 0, ctx=None) -> Dict:
    """One Table I row: verify one known attack category on its scenario."""
    by_name = {name: (scenario_id, builder)
               for name, scenario_id, builder in KNOWN_ATTACK_CASES}
    name = params["attack_category"]
    scenario_id, sequence_builder = by_name[name]
    env = make(scenario_id)
    sequence = sequence_builder(get_spec(scenario_id).build_config())
    indices = sequence.to_indices(env.actions)
    accuracy, _steps = evaluate_action_sequence(env, indices, trials=2)
    return {
        "attack_category": name,
        "attacker_actions": "flush addrs" if sequence.uses_flush else "access addrs",
        "victim_actions": "access an addr",
        "observation": "attacker latency",
        "sequence": sequence.render(),
        "accuracy": accuracy,
    }
