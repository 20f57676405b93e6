#!/usr/bin/env python3
"""Explore attacks against a blackbox "real" machine (the Table III workflow).

The machine models in :mod:`repro.hardware` hide their replacement policy and
add measurement noise, exactly like the CacheQuery-driven real-hardware setup
in the paper.  This example first pokes at one cache set through the
CacheQuery-style batched interface (the manual reverse-engineering a human
would attempt), then trains the RL agent, which needs no such knowledge, and
prints the attack it finds.

Run with:  python examples/real_hardware_exploration.py --machine "Core i7-6700:L2"
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from repro.experiments import table3
from repro.hardware import CacheQueryInterface, get_machine, list_machines
from repro.runs import CellContext


def probe_with_cachequery(machine_key: str) -> None:
    """Manually measure eviction behaviour, as a human analyst would."""
    machine = get_machine(machine_key)
    interface = CacheQueryInterface(machine, rng=np.random.default_rng(0))
    prime = list(range(1, machine.num_ways + 1))
    with_victim = interface.measure_eviction(prime, prime[0], victim_address=0, repeats=20)
    without_victim = interface.measure_eviction(prime, prime[0], victim_address=None, repeats=20)
    print(f"CacheQuery probing of {machine.name} {machine.cache_level} "
          f"({machine.num_ways} ways, policy "
          f"{'documented: ' + machine.documented_policy if machine.documented_policy else 'not documented'}):")
    print(f"  probe miss rate after priming, victim active : {with_victim:.2f}")
    print(f"  probe miss rate after priming, victim idle    : {without_victim:.2f}")
    print("  (a difference means the set leaks victim activity, but turning that"
          " into a reliable attack sequence is what the RL agent automates)\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--machine", default="Core i7-6700:L2",
                        help=f"one of: {', '.join(list_machines())}")
    parser.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="runs/real-hardware",
                        help="cell artifact directory (checkpoints enable resume)")
    arguments = parser.parse_args()

    probe_with_cachequery(arguments.machine)

    machine = get_machine(arguments.machine)
    print(f"Training the RL agent against the blackbox {machine.name} "
          f"{machine.cache_level}...  (interrupt and re-run to resume)")
    # The Table III driver computes one row per machine; the CellContext makes
    # the training checkpointed/resumable and persists its artifacts.
    ctx = CellContext(Path(arguments.out_dir) / machine.key.replace(":", "-"))
    row = table3.run_cell({"machine": machine.key}, arguments.scale,
                          seed=arguments.seed, ctx=ctx)

    print(f"\nconverged        : {row['converged']}")
    print(f"guess accuracy   : {row['accuracy']:.3f}")
    print(f"attack sequence  : {row['sequence']}")
    print(f"attack category  : {row['attack_category']}")
    print(f"artifacts        : {ctx.cell_dir}/")


if __name__ == "__main__":
    main()
