"""Benchmark: Table VII — attacking the partition-locked (PL) cache.

Expected shape: the agent still finds an attack with the victim line locked,
but needs at least as much training as against the unprotected baseline.
"""

import pytest

from benchmarks._common import emit, run_campaign, run_once


@pytest.mark.table
def test_table7_plcache(benchmark, bench_scale, tmp_path_factory):
    campaign = run_once(benchmark, run_campaign, tmp_path_factory, "table7", bench_scale)
    rows = campaign.rows
    emit("Table VII", campaign.format_results())
    by_cache = {row["cache"]: row for row in rows}
    assert set(by_cache) == {"PL Cache", "Baseline"}
    assert by_cache["PL Cache"]["epochs_to_converge"] >= 0.0
    assert by_cache["Baseline"]["accuracy"] >= 0.5
