"""Benchmark: Section VI-A — brute-force search versus RL.

Expected shape: the analytical brute-force step count grows exponentially with
associativity and exceeds the paper's ~1M-step RL budget by orders of
magnitude at 8 ways and beyond.
"""

import pytest

from benchmarks._common import emit, run_campaign


@pytest.mark.table
def test_search_comparison(benchmark, bench_scale, tmp_path_factory):
    campaign = benchmark(run_campaign, tmp_path_factory, "search", bench_scale)
    rows = campaign.rows
    emit("Section VI-A", campaign.format_results())
    analytical = {row["num_ways"]: row for row in rows if row["kind"] == "analytical"}
    assert analytical[8]["brute_force_steps"] > 100 * analytical[8]["rl_steps_reference"]
    assert analytical[16]["brute_force_steps"] > analytical[8]["brute_force_steps"]
    empirical = [row for row in rows if "empirical" in row["kind"]]
    assert empirical
