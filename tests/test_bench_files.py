"""The checked-in ``BENCH_*.json`` perf trajectories stay well formed.

They are the repository's only perf record (the benchmark scripts append to
them), so a hand edit or a script change that breaks their shape must fail
here rather than when someone next reads them.
"""

from __future__ import annotations

import json
from numbers import Real
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


def test_bench_files_are_checked_in():
    names = {path.name for path in BENCH_FILES}
    assert {"BENCH_throughput.json", "BENCH_train.json"} <= names


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_checked_in_bench_file_loads(path):
    data = json.loads(path.read_text())
    assert list(data) == ["entries"]
    assert isinstance(data["entries"], list) and data["entries"]
    for entry in data["entries"]:
        assert isinstance(entry["benchmark"], str) and entry["benchmark"]
        assert isinstance(entry["timestamp"], str) and entry["timestamp"]
        if entry["benchmark"] != "env_throughput":
            continue
        for row in entry["results"]:
            for key in ("speedup", "num_envs"):
                assert isinstance(row[key], Real) and not isinstance(
                    row[key], bool), (path.name, key, row)
