"""Helpers shared by the benchmark files."""

from __future__ import annotations

import json
from pathlib import Path

import repro


def emit(title: str, text: str) -> None:
    """Print a regenerated table so it appears in the benchmark log (-s)."""
    print(f"\n=== {title} ===")
    print(text)


def run_campaign(tmp_path_factory, experiment, scale="smoke"):
    """Run a whole experiment (an id or a spec) into a fresh directory.

    A fresh directory per call keeps repeated benchmark rounds from resuming
    the previous round's finished cells.
    """
    name = getattr(experiment, "experiment_id", experiment)
    return repro.run(experiment, scale=scale, out_dir=tmp_path_factory.mktemp(name),
                     catalog=False)


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def append_trajectory(entry: dict, output: Path) -> None:
    """Append one entry to a perf trajectory JSON (``{"entries": [...]}``)."""
    history = []
    if output.exists():
        data = json.loads(output.read_text())
        history = data.get("entries", [])
    history.append(entry)
    output.write_text(json.dumps({"entries": history}, indent=2) + "\n")
