"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
rows it produced.  The training budget is controlled by the
``REPRO_BENCH_SCALE`` environment variable (``smoke``, ``bench`` — the
default — or ``paper``); the presets and how they shrink the paper's
GPU-cluster budgets are in :mod:`repro.experiments.common`.
"""

from __future__ import annotations

import os

import pytest

import repro
from repro.experiments.common import resolve_scale


def pytest_configure(config):
    config.addinivalue_line("markers", "table: benchmark regenerating a paper table")
    config.addinivalue_line("markers", "figure: benchmark regenerating a paper figure")


@pytest.fixture(scope="session")
def bench_scale():
    """The experiment scale used by all RL-based benchmarks."""
    return resolve_scale(os.environ.get("REPRO_BENCH_SCALE", "bench"))


@pytest.fixture(scope="session")
def make_env():
    """Scenario-registry constructor: benchmarks build envs via ``repro.make``."""
    return repro.make


@pytest.fixture(scope="session")
def scenario_ids():
    """All registered scenario ids (the benchmark workload catalogue)."""
    return repro.list_scenarios()
