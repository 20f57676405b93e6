#!/usr/bin/env python3
"""Run a whole experiment campaign with persistent, resumable artifacts.

Every table and figure of the paper is a registered *experiment*: a frozen
:class:`repro.ExperimentSpec` naming a grid of cells (one per table row), the
driver that computes a row, and the metric schema.  ``repro.run()`` expands
the spec into queued cells, drains them with local worker processes, and
writes a run artifact under ``runs/<experiment>-<scale>/`` — re-running the same command
skips finished cells and resumes interrupted training from checkpoints.

Run with:  python examples/run_campaign.py [--experiment table5] [--scale smoke]
           python -m repro run table5 --scale smoke --workers 4   # same thing
"""

from __future__ import annotations

import argparse

import repro


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--experiment", default="table5",
                        help=f"one of: {', '.join(repro.list_experiments())}")
    parser.add_argument("--scale", default="smoke", choices=("smoke", "bench", "paper"))
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--root", default="runs")
    arguments = parser.parse_args()

    spec = repro.get_experiment(arguments.experiment)
    cells = spec.cells(arguments.scale)
    print(f"Experiment : {spec.experiment_id} — {spec.description}")
    print(f"Cells      : {len(cells)} ({arguments.workers} workers)")
    print(f"Spec (JSON): {spec.to_json()[:88]}...")
    print()

    campaign = repro.run(spec, scale=arguments.scale, workers=arguments.workers,
                         root=arguments.root)

    print(campaign.format_results())
    reused = f" ({campaign.resumed} cells reused from a previous run)" if campaign.resumed else ""
    print(f"\n{campaign.completed}/{len(campaign.cells)} cells complete{reused}")
    print(f"Artifacts in {campaign.out_dir}/ (manifest.json, results.json, "
          f"cells/*/result.json + history JSONL + extracted sequences)")
    print("\nInterrupt this script mid-training and re-run it: finished cells are "
          "skipped and in-flight PPO runs resume from their checkpoints, "
          "bit-identically.")


if __name__ == "__main__":
    main()
