"""Benchmark: Table VIII — bypassing CC-Hunter's autocorrelation detection.

Expected shape: the textbook prime+probe attacker shows near-perfect
periodicity (high maximum autocorrelation); the autocorrelation-penalized RL
agent stays well below the textbook attacker's autocorrelation.
"""

import pytest

from benchmarks._common import emit, run_campaign, run_once


@pytest.mark.table
def test_table8_cchunter_bypass(benchmark, bench_scale, tmp_path_factory):
    campaign = run_once(benchmark, run_campaign, tmp_path_factory, "table8", bench_scale)
    rows = campaign.rows
    emit("Table VIII", campaign.format_results())
    by_attack = {row["attack"]: row for row in rows}
    assert set(by_attack) == {"textbook", "RL baseline", "RL autocor"}
    assert by_attack["textbook"]["max_autocorrelation"] > 0.75
    assert by_attack["textbook"]["guess_accuracy"] > 0.95
    assert (by_attack["RL autocor"]["max_autocorrelation"]
            <= by_attack["textbook"]["max_autocorrelation"])
