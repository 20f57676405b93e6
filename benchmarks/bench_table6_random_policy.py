"""Benchmark: Table VI — attacks against the random replacement policy.

Expected shape: there is no perfectly reliable attack; the step-reward value
trades attack length against accuracy.
"""

import pytest

from benchmarks._common import emit, run_campaign, run_once


@pytest.mark.table
def test_table6_random_replacement(benchmark, bench_scale, tmp_path_factory):
    campaign = run_once(benchmark, run_campaign, tmp_path_factory, "table6", bench_scale)
    rows = campaign.rows
    emit("Table VI", campaign.format_results())
    assert len(rows) == 3
    assert all(0.0 <= row["end_accuracy"] <= 1.0 for row in rows)
    assert all(row["episode_length"] >= 1.0 for row in rows)
