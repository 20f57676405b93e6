"""Table III: attack sequences found on (simulated) real hardware.

The paper runs AutoCAT against multiple cache levels of three Intel
processors through CacheQuery, without knowing the replacement policies.  Real
hardware is replaced by the blackbox machine models in :mod:`repro.hardware`
(hidden policy + measurement noise); the agent-side procedure is identical.
The driver trains one agent per machine and reports the attack accuracy, the
extracted sequence, and its category.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.classifier import classify_sequence
from repro.attacks.sequences import AttackSequence
from repro.experiments.common import ScaleLike, resolve_scale, train_agent
from repro.hardware.machines import TABLE3_MACHINES, MachineSpec, get_machine
from repro.scenarios import machine_scenario_id, make, make_factory

# The 4-way L2/L3 partitions are the tractable ones on a single-CPU budget.
DEFAULT_BENCH_MACHINES = ("Core i7-6700:L2",)


def make_env_factory(machine: MachineSpec, attacker_addresses: Optional[int] = None):
    """Environment factory for one blackbox machine.

    Thin shim over the scenario registry (``blackbox/<machine>`` scenarios).
    """
    overrides = {}
    if attacker_addresses is not None:
        overrides["attacker_addresses"] = attacker_addresses
    return make_factory(machine_scenario_id(machine.key), **overrides)


def cells(scale: ScaleLike) -> List[Dict]:
    """One campaign cell per machine; paper scale covers all Table III machines."""
    scale = resolve_scale(scale)
    if scale.name == "paper":
        machines = [spec.key for spec in TABLE3_MACHINES]
    else:
        machines = list(DEFAULT_BENCH_MACHINES)
    return [{"machine": key} for key in machines]


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Table III row: train an agent against one blackbox machine."""
    scale = resolve_scale(scale)
    spec = get_machine(params["machine"])
    attacker_addresses = spec.num_ways + 1 if scale.name != "paper" else 2 * spec.num_ways
    result = train_agent(make_env_factory(spec, attacker_addresses=attacker_addresses),
                         scale, seed=seed, target_accuracy=0.9, ctx=ctx)
    sequence_labels: List[str] = []
    category = ""
    if result.extraction is not None:
        sequence_labels = result.extraction.representative
        env = make(machine_scenario_id(spec.key), seed=seed,
                   attacker_addresses=attacker_addresses)
        category = classify_sequence(AttackSequence.from_labels(sequence_labels),
                                     env.config).value
    return {
        "cpu": spec.name,
        "cache_level": spec.cache_level,
        "ways": spec.num_ways,
        "documented_policy": spec.documented_policy or "N.O.D.",
        "victim_addr": "0/E",
        "attack_addr": f"0-{attacker_addresses - 1}",
        "accuracy": result.final_accuracy,
        "converged": result.converged,
        "sequence": " -> ".join(sequence_labels),
        "attack_category": category,
        "env_steps": result.env_steps,
    }
