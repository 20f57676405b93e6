"""Benchmark: Table X — covert-channel bit rates on (simulated) real machines.

Expected shape: StealthyStreamline beats the LRU address-based channel on every
machine, with a larger relative improvement on the 12-way RocketLake L1Ds than
on the 8-way parts (the paper reports up to 24% and up to 71% respectively).
"""

import pytest

from benchmarks._common import emit, run_campaign


@pytest.mark.table
def test_table10_covert_bitrate(benchmark, tmp_path_factory):
    campaign = benchmark(run_campaign, tmp_path_factory, "table10")
    rows = campaign.rows
    emit("Table X", campaign.format_results())
    assert len(rows) == 4
    for row in rows:
        assert row["ss_bit_rate_mbps"] > row["lru_bit_rate_mbps"]
        assert row["improvement"] > 0.1
    eight_way = max(row["improvement"] for row in rows if "8way" in row["l1d_config"])
    twelve_way = max(row["improvement"] for row in rows if "12way" in row["l1d_config"])
    assert twelve_way > eight_way
