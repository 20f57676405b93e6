"""The campaign service's import closure: no numpy, no learner.

``repro serve`` and the catalogue commands (``status``, ``query``, ``top``)
start a fresh interpreter on every spawn, so whatever their modules import
is paid at every start.  They serve SQLite rows and never train, so none of
them may import numpy or a learner package at module level.  The compute
entry points (the experiment helpers, the runner, the worker) go on loading
the learner when they are imported, so that no cell pays for it inside its
run.  Every check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Any

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: The modules ``python -m repro serve`` and the catalogue commands load.
SERVICE_MODULES = (
    "repro.runs.cli",
    "repro.store.server",
    "repro.store.catalog",
    "repro.store.queue",
    "repro.store.query",
    "repro.store.connection",
    "repro.store.schema",
    "repro.store.chaos",
    "repro.telemetry",
    "repro.telemetry.dashboard",
)

#: numpy and the packages that make up (or load) the learner.
LEARNER_PACKAGES = (
    "numpy", "repro.rl", "repro.nn", "repro.autodiff", "repro.env",
    "repro.cache", "repro.scenarios", "repro.attacks", "repro.defenses",
    "repro.hardware", "repro.detection",
)

COMPUTE_MODULES = (
    "repro.experiments.common", "repro.runs.runner", "repro.store.worker")


def run_python(script: str) -> Any:
    """The JSON a fresh interpreter running ``script`` prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                            env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def loaded_after(*modules: str) -> list:
    """``sys.modules`` of a fresh interpreter after importing ``modules``."""
    return run_python(f"""
        import json, sys
        for name in {list(modules)!r}:
            __import__(name)
        print(json.dumps(sorted(sys.modules)))
    """)


def learner_modules(loaded: list) -> list:
    return [name for name in loaded
            if any(name == package or name.startswith(package + ".")
                   for package in LEARNER_PACKAGES)]


def test_service_tier_imports_no_numpy_and_no_learner():
    assert learner_modules(loaded_after(*SERVICE_MODULES)) == []


def test_import_repro_imports_no_numpy_and_no_learner():
    assert learner_modules(loaded_after("repro")) == []


@pytest.mark.parametrize("module", COMPUTE_MODULES)
def test_compute_entry_points_load_the_learner_at_import(module):
    loaded = set(loaded_after(module))
    assert {"numpy", "repro.rl.trainer", "repro.scenarios",
            "repro.experiments.common"} <= loaded


def test_public_names_resolve_lazily():
    numpy_before, missing, numpy_after = run_python("""
        import json, sys
        import repro, repro.runs, repro.store
        before = "numpy" in sys.modules
        missing = [f"{module.__name__}.{name}"
                   for module in (repro, repro.runs, repro.store)
                   for name in module.__all__ if not hasattr(module, name)]
        print(json.dumps([before, missing, "numpy" in sys.modules]))
    """)
    assert not numpy_before
    assert missing == []
    assert numpy_after  # resolving the learner's names loads it


def test_unknown_lazy_name_is_an_attribute_error():
    import repro

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.nope  # noqa: B018
