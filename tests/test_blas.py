"""The per-process BLAS core budget (``repro._blas``).

Every check runs in a fresh interpreter, because the budget is applied once,
at ``import repro``, from the environment the process started with.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro._blas import USER_VARIABLES, blas_threads

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(
    blas_threads() is None, reason="numpy does not bundle OpenBLAS")


def run_python(script: str, *args: str, **variables: str) -> str:
    """Run ``script`` with ``args`` in a fresh interpreter; return its stdout."""
    env = {key: value for key, value in os.environ.items()
           if key not in USER_VARIABLES}
    env.update(variables)
    env["PYTHONPATH"] = f"{SRC}{os.pathsep}" + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          env=env, capture_output=True, text=True,
                          check=True).stdout


THREADS = "import repro; from repro._blas import blas_threads; print(blas_threads())"


def test_import_budgets_one_thread():
    assert run_python(THREADS).strip() == "1"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps the count at the cores it sees")
@pytest.mark.parametrize("variable", USER_VARIABLES)
def test_user_count_is_kept(variable):
    assert run_python(THREADS, **{variable: "2"}).strip() == "2"


NUMPY_AFTER = """
    import sys
    import repro
    from repro._blas import blas_threads
    print("numpy" in sys.modules)
    import numpy
    numpy.ones((64, 64)) @ numpy.ones((64, 64))
    print(blas_threads())
"""


def test_budget_holds_for_numpy_imported_after_repro():
    """``import repro`` finds and budgets the library without numpy."""
    assert run_python(NUMPY_AFTER).split() == ["False", "1"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS caps the count at the cores it sees")
def test_user_count_is_kept_for_numpy_imported_after_repro():
    assert run_python(NUMPY_AFTER, OPENBLAS_NUM_THREADS="2").split() == [
        "False", "2"]


def test_budget_holds_after_numpy_was_imported():
    script = "import numpy; numpy.ones((2, 2)) @ numpy.ones((2, 2)); " + THREADS
    assert run_python(script).strip() == "1"


def test_forked_drainers_and_timeout_children_inherit_the_budget(tmp_path):
    """The real fork sites: ``_drain``'s child drainers and the watchdog
    child of ``execute_cell``, with the work they run stubbed out."""
    script = f"""
        import os
        from pathlib import Path
        import repro
        import repro.runs.runner as runner
        import repro.store.worker as worker
        from repro._blas import blas_threads

        out = Path({str(tmp_path)!r})

        def fake_work(**options):
            (out / f"drainer-{{os.getpid()}}").write_text(str(blas_threads()))

        worker.work = fake_work
        runner._drain("run", out / "catalog.sqlite", drainers=2)
        runner._attempt_cell = lambda payload: {{"threads": blas_threads(),
                                                 "pid": os.getpid()}}
        outcome = runner.execute_cell({{"timeout": 60.0, "index": 0}})
        assert outcome["pid"] != os.getpid()
        print(outcome["threads"])
    """
    assert run_python(script).strip() == "1"
    drainers = sorted(tmp_path.glob("drainer-*"))
    assert len(drainers) == 2
    assert [path.read_text() for path in drainers] == ["1", "1"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="needs two cores for a multi-threaded BLAS")
def test_two_worker_results_identical_with_and_without_budget(tmp_path):
    """A 2-worker campaign writes byte-identical rows with one BLAS thread
    per process and with two.  The geometry (128-wide layers, 128-sample
    minibatches) is above OpenBLAS's threshold for splitting a GEMM."""
    script = """
        import json
        import sys
        import repro
        from repro._blas import blas_threads
        from repro.experiments.common import ExperimentScale
        from repro.runs import ExperimentSpec

        spec = ExperimentSpec(
            experiment_id="blas-parity",
            driver="repro.experiments.defense_matrix",
            columns=("scenario", "defense", "accuracy", "converged"),
            grid=tuple({"scenario": "guessing/lru-4way-disjoint",
                        "defense": defense}
                       for defense in ("none", "keyed-remap", "plcache",
                                       "way-partition")))
        scale = ExperimentScale(name="tiny", max_updates=2, horizon=64,
                                num_envs=4, eval_episodes=10, runs=1,
                                hidden_sizes=(128, 128), minibatch_size=128,
                                update_epochs=2)
        campaign = repro.run(spec, scale=scale, seed=5, workers=2,
                             root=sys.argv[1])
        print(json.dumps({"threads": blas_threads(),
                          "results": str(campaign.out_dir / "results.json")}))
    """
    digests = {}
    for label, variables in (("budget", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        report = json.loads(run_python(script, str(tmp_path / label),
                                       **variables))
        assert report["threads"] == (1 if label == "budget" else 2)
        digests[label] = hashlib.sha256(
            Path(report["results"]).read_bytes()).hexdigest()
    assert digests["budget"] == digests["two"]


@pytest.mark.parametrize("threads", [None, "2"])
def test_cell_result_records_the_executing_process_threads(tmp_path, threads):
    """Each cell's ``result.json`` carries the BLAS thread count its
    ``elapsed_seconds`` was measured under, read in the process that ran it."""
    if threads is not None and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS caps the count at the cores it sees")
    script = """
        import json
        import sys
        sys.path.insert(0, sys.argv[2])
        import repro
        from repro._blas import blas_threads
        from repro.runs import ExperimentSpec

        spec = ExperimentSpec(experiment_id="chaos", driver="chaos_driver",
                              columns=("name", "value"),
                              grid=({"mode": "ok", "name": "c0", "offset": 0},),
                              default_scale="smoke")
        campaign = repro.run(spec, root=sys.argv[1])
        [result] = (campaign.out_dir / "cells").glob("*/result.json")
        print(json.dumps({"threads": blas_threads(),
                          "result": json.loads(result.read_text())}))
    """
    variables = {} if threads is None else {"OPENBLAS_NUM_THREADS": threads}
    report = json.loads(run_python(script, str(tmp_path),
                                   str(Path(__file__).parent), **variables))
    expected = 1 if threads is None else int(threads)
    assert report["threads"] == expected
    assert report["result"]["blas_threads"] == expected
    assert "elapsed_seconds" in report["result"]
