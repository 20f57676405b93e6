"""Benchmark: Table IX — bypassing the Cyclone-style SVM detector.

Expected shape: the textbook attacker is detected at a high rate; the agent
trained with the SVM penalty is detected far less often than the textbook
attacker.
"""

import pytest

from benchmarks._common import emit, run_campaign, run_once


@pytest.mark.table
def test_table9_svm_bypass(benchmark, bench_scale, tmp_path_factory):
    campaign = run_once(benchmark, run_campaign, tmp_path_factory, "table9", bench_scale)
    rows = campaign.rows
    emit("Table IX", campaign.format_results())
    by_attack = {row["attack"]: row for row in rows}
    assert set(by_attack) == {"textbook", "RL baseline", "RL SVM"}
    assert by_attack["textbook"]["detection_rate"] > 0.5
    assert by_attack["textbook"]["svm_validation_accuracy"] > 0.9
    assert (by_attack["RL SVM"]["detection_rate"]
            <= by_attack["textbook"]["detection_rate"])
