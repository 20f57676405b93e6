"""Benchmark: Table IV — attacks across diverse cache/attack configurations.

All 17 configurations are verified with their textbook attack; RL training
runs on a subset at bench scale (every configuration at paper scale).
"""

import dataclasses

import pytest

from benchmarks._common import emit, run_campaign, run_once
from repro.runs import get_experiment


@pytest.mark.table
def test_table4_configs(benchmark, bench_scale, tmp_path_factory):
    spec = get_experiment("table4")
    if bench_scale.name == "bench":
        # Train RL on configs 5 and 6 only; the textbook check covers all 17.
        spec = dataclasses.replace(spec, grid=tuple({"config": n, "rl": n in (5, 6)}
                                                    for n in range(1, 18)))
    campaign = run_once(benchmark, run_campaign, tmp_path_factory, spec, bench_scale)
    rows = campaign.rows
    emit("Table IV", campaign.format_results())
    assert len(rows) == 17
    assert all(row["textbook_accuracy"] >= 0.5 for row in rows)
    trained = [row for row in rows if row["rl_trained"]]
    if trained:
        assert all(row["rl_accuracy"] is not None and row["rl_accuracy"] > 0.45
                   for row in trained)
        # At least one of the trained configurations converges to a reliable
        # attack within the bench-scale budget.
        assert max(row["rl_accuracy"] for row in trained) > 0.9
