#!/usr/bin/env python3
"""Discover attacks against a chosen replacement policy (the Table V study).

The victim either accesses address 0 or makes no access; the attacker owns
addresses 0-4 of a 4-way fully-associative set.  The agent must learn an
eviction- or replacement-state-based attack whose shape depends on the policy:
LRU and PLRU admit short attacks, RRIP needs extra accesses to control the
re-reference prediction values, and the random policy only admits probabilistic
attacks.

This example drives the study through the campaign API: it registers a
one-off :class:`repro.ExperimentSpec` whose single cell is the chosen
(policy, ways) configuration, then ``repro.run()``s it — so the training is
checkpointed, resumable (re-run after Ctrl-C to continue), and leaves its
trained policy and ``TrainingResult`` (with the training history and the
extracted attack) under ``runs/``.

Run with:  python examples/discover_attack.py --policy rrip [--scale bench]
"""

from __future__ import annotations

import argparse

import repro


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--policy", choices=("lru", "plru", "rrip", "random"), default="lru")
    parser.add_argument("--ways", type=int, default=4)
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--root", default="runs")
    arguments = parser.parse_args()

    experiment_id = f"discover-{arguments.policy}-{arguments.ways}way"
    if not repro.runs.is_experiment_registered(experiment_id):
        repro.register_experiment(
            experiment_id=experiment_id,
            description=f"Discover an attack against {arguments.policy.upper()} "
                        f"({arguments.ways}-way set, victim accesses 0 or nothing)",
            driver="repro.experiments.table5",
            columns=("replacement_policy", "epochs_to_converge", "episode_length",
                     "accuracy", "converged_runs", "runs"),
            grid=({"policy": arguments.policy, "num_ways": arguments.ways},),
            base_seed=arguments.seed,
        )

    print(f"Training against the {arguments.policy.upper()} policy "
          f"({arguments.ways}-way set)...  (re-run to resume if interrupted)")
    campaign = repro.run(experiment_id, scale=arguments.scale, root=arguments.root)

    print()
    print(campaign.format_results())
    row = campaign.rows[0]
    print(f"\nepochs (3000 steps)  : {row['epochs_to_converge']:.1f}")
    print(f"guess accuracy       : {row['accuracy']:.3f}")
    if row["example_sequence"]:
        print(f"attack sequence      : {row['example_sequence']}")
    else:
        print("no attack extracted — try --scale paper (or a smaller --ways)")
    print(f"\nartifacts: {campaign.out_dir}/cells/")


if __name__ == "__main__":
    main()
