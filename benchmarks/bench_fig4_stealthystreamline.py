"""Benchmark: Figure 4 — StealthyStreamline versus the prior attacks.

Expected shape: StealthyStreamline transmits more bits per access than the
LRU address-based attack while (unlike Streamline) never making the victim
miss, so it bypasses µarch-statistics detection.
"""

import pytest

from benchmarks._common import emit, run_campaign
from repro.experiments import fig4


@pytest.mark.figure
def test_fig4_stealthystreamline(benchmark, tmp_path_factory):
    campaign = benchmark(run_campaign, tmp_path_factory, "fig4")
    rows = campaign.rows
    emit("Figure 4", campaign.format_results())
    by_name = {row["channel"]: row for row in rows}
    stealthy = by_name["stealthy_streamline"]
    assert stealthy["bypasses_miss_detection"]
    assert stealthy["error_rate"] == 0.0
    assert stealthy["bits_per_access"] > by_name["lru_address_based"]["bits_per_access"]
    assert not by_name["streamline"]["bypasses_miss_detection"]


@pytest.mark.figure
def test_fig4_cache_state_walkthrough(benchmark):
    rows = benchmark(fig4.cache_state_walkthrough, num_ways=8)
    assert all(row["correct"] for row in rows)
