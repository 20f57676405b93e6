"""Table IV: attacks across diverse cache and attack/victim configurations.

The paper exercises 17 environment configurations (direct-mapped, fully- and
set-associative caches, prefetchers, flush on/off, shared or disjoint address
ranges, and a two-level hierarchy) and shows the RL agent finds a working
attack in every one, usually of the category the configuration permits.

The 17 environment configurations live in the scenario registry as
``table4/cfg01`` .. ``table4/cfg17`` (see :mod:`repro.scenarios.builtin`);
this driver pairs them with the expected attack categories.  It (a) verifies a
feasible textbook sequence for every configuration — a fast, deterministic
check — and (b) runs RL training on a configurable subset (all 17 at paper
scale).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.classifier import classify_sequence
from repro.attacks.evaluate import evaluate_action_sequence
from repro.attacks.sequences import AttackSequence
from repro.attacks.textbook import textbook_attack_for_config
from repro.env.config import EnvConfig
from repro.experiments.common import ScaleLike, resolve_scale, train_agent
from repro.scenarios import get_spec, make, make_factory


@dataclass(frozen=True)
class TableIVConfig:
    """One row of Table IV: the scenario plus the expected attack categories."""

    number: int
    description: str
    expected_attacks: str
    scenario: str

    def build(self) -> EnvConfig:
        """The row's :class:`EnvConfig` (resolved through the registry)."""
        return get_spec(self.scenario).build_config()


# Expected attack categories per configuration number (the env configurations
# themselves are registered scenarios).
EXPECTED_ATTACKS = {
    1: "PP", 2: "PP", 3: "FR", 4: "ER, PP", 5: "PP, LRU", 6: "FR, LRU",
    7: "ER, PP, LRU", 8: "FR, LRU", 9: "FR, LRU", 10: "FR", 11: "FR, LRU",
    12: "ER, PP, LRU", 13: "ER, PP, LRU", 14: "ER", 15: "PP", 16: "PP", 17: "PP",
}


def table4_configs() -> List[TableIVConfig]:
    """The 17 configurations of Table IV, resolved from the scenario registry."""
    configs: List[TableIVConfig] = []
    for number, expected in sorted(EXPECTED_ATTACKS.items()):
        scenario_id = f"table4/cfg{number:02d}"
        description = get_spec(scenario_id).description.split(": ", 1)[1]
        configs.append(TableIVConfig(number=number, description=description,
                                     expected_attacks=expected,
                                     scenario=scenario_id))
    return configs


DEFAULT_RL_SUBSET = (1, 3, 5, 6)


def default_rl_configs(scale: ScaleLike) -> tuple:
    """Configuration numbers that get RL training at the given scale."""
    scale = resolve_scale(scale)
    if scale.name == "paper":
        return tuple(config.number for config in table4_configs())
    if scale.name == "smoke":
        return ()
    return DEFAULT_RL_SUBSET


def run_cell(params: Dict, scale: ScaleLike, seed: int = 0, ctx=None) -> Dict:
    """One Table IV row: textbook feasibility (always) plus optional RL training."""
    scale = resolve_scale(scale)
    number = params["config"]
    rl_trained = params.get("rl")
    if rl_trained is None:
        rl_trained = number in default_rl_configs(scale)
    entry = next((e for e in table4_configs() if e.number == number), None)
    if entry is None:
        raise KeyError(f"unknown Table IV config {number!r}; "
                       f"choose from 1-{len(EXPECTED_ATTACKS)}")
    env_config = entry.build()
    env = make(entry.scenario)
    textbook = textbook_attack_for_config(env_config)
    textbook_accuracy, _ = evaluate_action_sequence(env, textbook.to_indices(env.actions),
                                                    trials=2)
    row = {
        "config": entry.number,
        "description": entry.description,
        "expected_attacks": entry.expected_attacks,
        "textbook_category": textbook.category.value,
        "textbook_accuracy": textbook_accuracy,
        "rl_trained": bool(rl_trained),
        "rl_accuracy": None,
        "rl_sequence": "",
        "rl_category": "",
    }
    if rl_trained:
        result = train_agent(make_factory(entry.scenario), scale,
                             seed=seed + entry.number, ctx=ctx)
        row["rl_accuracy"] = result.final_accuracy
        if result.extraction is not None:
            representative = result.extraction.representative
            row["rl_sequence"] = " -> ".join(representative)
            sequence = AttackSequence.from_labels(representative)
            row["rl_category"] = classify_sequence(sequence, env_config).value
    return row
