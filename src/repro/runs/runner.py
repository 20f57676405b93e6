"""The campaign runner behind ``repro.run()``.

A *campaign* is one experiment × one scale × one seed, expanded into
independent *cells* (one per table row).  Every way of running a campaign
goes through one engine: ``repro.run()`` submits the campaign to the lease
queue (:func:`repro.store.worker.submit_campaign`) and drains it locally
with the same :func:`repro.store.worker.work` loop that ``repro work``
runs — in-process for ``workers=1``, in N child processes otherwise.  So
serial, parallel, queue, HTTP, and resumed runs share one submission path,
one executor (:func:`execute_cell`), one heartbeat, and one
``results.json`` writer (:func:`repro.store.queue.finalize_from_catalog`).

* **Artifacts** live under ``out_dir`` (default
  ``runs/<experiment>-<scale>[-seed<seed>]``)::

      runs/table5-smoke/
        manifest.json                 # spec + scale + seed + cell grid
        results.json                  # all rows, written when complete
        faults/                       # fired fault-injection state (if any)
        cells/
          c00-lru/
            result.json               # the finished row, timing, BLAS threads
            error.json                # structured failure record (if failed)
            run0.result.json          # memoized TrainingResult + history
            run0.policy.pkl           # trained policy (for re-evaluation)
            run0.checkpoint.pkl       # only while the training is in flight

  Every artifact is written atomically with a SHA-256 sidecar
  (:mod:`repro.runs.artifacts`); a corrupt file found on load is
  quarantined to ``<name>.corrupt-N`` and its cell re-run from its last
  good checkpoint.  The SQLite catalogue next to ``out_dir`` indexes the
  tree and holds the queue (``catalog=False``: a throw-away catalogue).

* **Failures** are isolated per cell: the executor runs a claimed cell
  once and writes a structured ``error.json`` record when it fails, and an
  opt-in per-cell ``timeout`` — a job property every drainer's executor
  enforces by running the cell in a child process under a watchdog.  A
  retry is a queue re-claim: the job's ``max_attempts``, set at submission,
  is the one budget (:meth:`repro.store.queue.JobQueue.release`).
  ``strict=True`` raises one aggregated error afterwards; ``strict=False``
  returns partial rows with per-cell status.

* **Resume**: an interrupted cell goes back to the queue without spending
  its budget, so any drainer — a sibling inside the same ``run()``, or a
  later ``repro work`` — resumes it.  Re-invoking ``repro.run()`` submits
  the campaign again; cells whose ``result.json`` loads report ``cached``,
  unfinished cells are re-attempted, and in-flight PPO trainings continue
  from their checkpoints, bit-identically.  A run killed hard (SIGKILL,
  out-of-memory) cannot release its leases, so the resumed run waits up to
  one lease TTL (60 s) before it reclaims the cells the dead process held.

* **Fault injection**: a :class:`~repro.runs.faults.FaultPlan`
  (``fault_plan=`` or ``--fault-plan``) kills
  cells at checkpoint boundaries, tears or bit-flips artifacts, and stalls
  cells past the watchdog.  An injected kill ends its drainer the way a
  real one would.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro._blas import blas_threads
# From common, not scales: importing the runner loads the learner, so a
# campaign's first cell does not pay for it inside its run.
from repro.experiments.common import ExperimentScale, ScaleLike, resolve_scale
from repro.runs.artifacts import (
    CorruptArtifactError,
    atomic_write_json,
    clear_quarantine,
    load_json,
    quarantine,
)
from repro.runs.context import CellContext
from repro.runs.faults import CampaignInterrupted, FaultInjector, FaultPlan
from repro.runs.registry import ExperimentLike, get_experiment
from repro.runs.spec import ExperimentSpec

MANIFEST_FORMAT = "repro-campaign"
MANIFEST_VERSION = 1

#: Cell statuses without a row; the others are ``completed`` and ``cached``
#: (``pending``: never claimed, because the campaign was interrupted first).
UNFINISHED_STATUSES = ("failed", "timeout", "interrupted", "pending")

#: Seconds a terminated process gets to exit before an uncatchable kill.
_KILL_GRACE_SECONDS = 2.0

#: Seconds an idle local drainer waits before claiming again while another
#: drainer still holds a lease.
_DRAIN_POLL_SECONDS = 0.1


@dataclass
class CampaignResult:
    """What ``repro.run()`` returns: the rows plus the artifact locations.

    With ``strict=False`` the campaign may be *partial*: ``rows`` holds None
    at the positions of unfinished cells, and each entry of ``cells``
    carries the cell's ``status`` plus its structured ``error`` record.
    """

    spec: ExperimentSpec
    scale: ExperimentScale
    seed: int
    out_dir: Path
    rows: List[Optional[Dict]]
    cells: List[Dict] = field(default_factory=list)
    workers: int = 1
    strict: bool = True

    @property
    def experiment_id(self) -> str:
        return self.spec.experiment_id

    @property
    def completed(self) -> int:
        return sum(1 for cell in self.cells if cell["status"] in ("completed", "cached"))

    @property
    def resumed(self) -> int:
        """Cells whose finished row was loaded from a previous invocation."""
        return sum(1 for cell in self.cells if cell["status"] == "cached")

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def partial(self) -> bool:
        return self.completed < len(self.cells)

    @property
    def errors(self) -> List[Dict]:
        """The per-cell error records of every non-completed cell."""
        return [cell for cell in self.cells
                if cell["status"] in UNFINISHED_STATUSES]

    def format_results(self) -> str:
        return self.spec.format_rows(self.rows, runs=self.scale.runs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment_id,
            "scale": self.scale.name,
            "seed": self.seed,
            "out_dir": str(self.out_dir),
            "workers": self.workers,
            "strict": self.strict,
            "cells": self.cells,
            "rows": self.rows,
        }


def campaign_id(experiment_id: str, scale: ExperimentScale, seed: int) -> str:
    """Deterministic campaign directory name (no timestamps, so resume finds it)."""
    name = f"{experiment_id}-{scale.name}"
    if seed:
        name += f"-seed{seed}"
    return name


def resolve_campaign(experiment: ExperimentLike, scale: Optional[ScaleLike],
                     seed: Optional[int], root: os.PathLike,
                     out_dir: Optional[os.PathLike]
                     ) -> Tuple[ExperimentSpec, ExperimentScale, int, Path]:
    """A campaign's spec, scale, seed, and directory, defaults filled in."""
    spec = get_experiment(experiment)
    scale = resolve_scale(scale if scale is not None else spec.default_scale)
    seed = spec.base_seed if seed is None else int(seed)
    out_dir = (Path(out_dir) if out_dir is not None
               else Path(root) / campaign_id(spec.experiment_id, scale, seed))
    return spec, scale, seed, out_dir


def cell_slug(index: int, params: Dict) -> str:
    """Short stable directory name for one cell."""
    values = "-".join(str(v) for v in params.values() if isinstance(v, (str, int, float)))
    values = "".join(ch if ch.isalnum() or ch in "-._" else "_" for ch in values)
    return f"c{index:02d}" + (f"-{values[:40]}" if values else "")


def _cell_dir(out_dir: Path, index: int, params: Dict) -> Path:
    return out_dir / "cells" / cell_slug(index, params)


def ensure_manifest(out_dir: Path, spec: ExperimentSpec, scale: ExperimentScale,
                    seed: int, cells: List[Dict]) -> Dict[str, Any]:
    """Write the campaign's ``manifest.json``, or check the one already there.

    A torn or corrupt manifest is quarantined and rewritten; a manifest of a
    *different* campaign is refused, so a resume never mixes two campaigns
    in one directory.
    """
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "experiment": spec.to_dict(),
        "scale": scale.to_dict(),
        "seed": seed,
        "cells": [{"index": index, "slug": cell_slug(index, params), "params": params}
                  for index, params in enumerate(cells)],
    }
    manifest_file = out_dir / "manifest.json"
    existing = None
    if manifest_file.exists():
        try:
            existing = load_json(manifest_file)
        except CorruptArtifactError:
            existing = None  # quarantined; rewrite below
    if existing is None:
        atomic_write_json(manifest_file, manifest, indent=2)
        return manifest
    for key in ("experiment", "scale", "seed", "cells"):
        if existing.get(key) != manifest[key]:
            raise ValueError(
                f"{out_dir} already holds a different campaign ({key} differs); "
                "pass a fresh out_dir or delete the old artifact")
    return manifest


# ----------------------------------------------------------- cell execution
def _load_result(result_file: Path) -> Optional[Dict]:
    """A cell's verified ``result.json`` payload (its row + timing), or None
    after quarantining a corrupt file."""
    if not result_file.exists():
        return None
    try:
        payload = load_json(result_file)
    except CorruptArtifactError:
        telemetry.counter("runner.cells.quarantined").inc()
        return None
    if not isinstance(payload, dict) or payload.get("row") is None:
        quarantine(result_file, "result.json without a row")
        telemetry.counter("runner.cells.quarantined").inc()
        return None
    return payload


def _execute_cell(spec_data: Dict, scale_data: Dict, seed: int, index: int,
                  params: Dict, cell_dir: str, out_dir: str,
                  fault_plan: Optional[Dict] = None, **_budget: Any) -> Dict:
    """Run one cell to completion (resuming in-flight training if any).

    Takes and returns plain data so it can cross a process boundary.  The
    queue's job options, and keys that payloads queued by older versions
    still carry, land in ``_budget`` and are ignored.
    """
    spec = ExperimentSpec.from_dict(spec_data)
    scale = ExperimentScale.from_dict(scale_data)
    cell_path = Path(cell_dir)
    result_file = cell_path / "result.json"
    result = _load_result(result_file)
    if result is not None:
        return {"index": index, "row": result["row"], "status": "cached",
                "elapsed_seconds": result.get("elapsed_seconds")}
    cell_path.mkdir(parents=True, exist_ok=True)
    injector = None
    if fault_plan is not None:
        injector = FaultInjector(FaultPlan.from_dict(fault_plan), Path(out_dir), index)
        injector.on_cell_start()
    ctx = CellContext(cell_path, injector=injector)
    started = time.perf_counter()
    row = spec.run_cell(params, scale, seed=seed, ctx=ctx)
    payload = {
        "experiment": spec.experiment_id,
        "scale": scale.name,
        "seed": seed,
        "index": index,
        "params": params,
        "row": row,
        "elapsed_seconds": time.perf_counter() - started,
        # The BLAS thread count the elapsed time was measured under.
        "blas_threads": blas_threads(),
    }
    atomic_write_json(result_file, payload, indent=2)
    # Round-trip the row through the same JSON path that resume uses, so
    # fresh and resumed cells return identical rows.
    payload = load_json(result_file)
    # The cell recovered: retire its failure record and quarantined corpses
    # (the quarantine.jsonl log keeps the history).
    (cell_path / "error.json").unlink(missing_ok=True)
    (cell_path / "error.json.sha256").unlink(missing_ok=True)
    clear_quarantine(cell_path)
    if injector is not None:
        injector.on_artifact_written("result", result_file)
    return {"index": index, "row": payload["row"], "status": "completed",
            "elapsed_seconds": payload["elapsed_seconds"]}


def _error_record(index: int, error: BaseException, elapsed: float,
                  status: str = "failed") -> Dict:
    return {
        "index": index,
        "status": status,
        "error_type": type(error).__name__,
        "error": f"{type(error).__name__}: {error}",
        "traceback": traceback.format_exc(),
        "elapsed_seconds": elapsed,
    }


def _recorded_error(cell_dir: Path) -> Dict:
    """The cell's ``error.json`` record ({} when absent or unreadable)."""
    error_file = Path(cell_dir) / "error.json"
    if not error_file.exists():
        return {}
    try:
        record = load_json(error_file)
    except CorruptArtifactError:
        return {}
    return record if isinstance(record, dict) else {}


def _attempt_cell(payload: Dict) -> Dict:
    """Run one claimed cell once.

    Returns an outcome dict (never raises for ordinary failures: those are
    recorded in ``error.json``, and the queue decides whether the job is
    claimed again).  Control flow — ``KeyboardInterrupt``/``SystemExit`` —
    is re-raised so Ctrl-C tears the drain down promptly; an (injected or
    real) kill comes back as an ``interrupted`` outcome for the caller to
    surface.
    """
    started = time.perf_counter()
    telemetry.counter("runner.cell.attempts").inc()
    try:
        outcome = _execute_cell(**payload)
    except (KeyboardInterrupt, SystemExit):
        raise
    except CampaignInterrupted as error:
        # A (simulated) kill: a real crash would persist nothing, so no
        # error.json — the cell's checkpoint is what resume picks up.
        telemetry.counter("runner.cells.interrupted").inc()
        return _error_record(payload["index"], error,
                             time.perf_counter() - started,
                             status="interrupted")
    except Exception as error:
        telemetry.counter("runner.cells.failed").inc()
        record = _error_record(payload["index"], error,
                               time.perf_counter() - started)
        atomic_write_json(Path(payload["cell_dir"]) / "error.json", record,
                          indent=2)
        return record
    telemetry.counter("runner.cells." + outcome["status"]).inc()
    return outcome


def execute_cell(payload: Dict,
                 sink: Optional[Callable[[List[dict]], None]] = None) -> Dict:
    """Run one claimed cell payload: the executor behind every drain.

    Without a ``timeout`` in the payload the cell runs in-process.  With
    one, it runs in a child process under a watchdog: past its wall-clock
    budget the child is terminated (and killed after a grace period) and
    the cell is recorded as ``timeout``; a child that dies without
    reporting is recorded as ``WorkerDied``.  The child ships its telemetry
    back with its outcome, and the drainer hands it to ``sink``.  A
    ``KeyboardInterrupt`` raised by the cell is re-raised here, in or out
    of the child, so the drainer releases the claim as ``interrupted``.
    """
    timeout = payload.get("timeout")
    if timeout is None:
        return _attempt_cell(payload)
    context = multiprocessing.get_context()
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_cell_child, args=(payload, sender))
    child.start()
    sender.close()
    reply, timed_out = None, False
    try:
        timed_out = not receiver.poll(timeout)
        if not timed_out:
            reply = receiver.recv()
    except EOFError:
        pass  # the child died before reporting
    finally:
        if reply is None:
            child.terminate()
        _reap(child)
        receiver.close()
    if reply is None and timed_out:
        return _watchdog_record(
            payload, "timeout", "CellTimeout",
            f"cell {payload['index']} exceeded the {timeout:g}s wall-clock "
            "budget and was killed", elapsed=timeout)
    if reply is None:
        return _watchdog_record(
            payload, "failed", "WorkerDied",
            f"worker exited with code {child.exitcode} before reporting",
            elapsed=None)
    outcome, points = reply
    if sink is not None and points:
        try:
            sink(points)
        except Exception:
            pass  # telemetry is best-effort
    if outcome is None:  # the cell raised KeyboardInterrupt in the child
        raise KeyboardInterrupt
    return outcome


def _cell_child(payload: Dict, sender: Any) -> None:
    """Watchdog child: run the cell, send back its outcome and telemetry.

    Signals belong to the drainer, which kills this child on any stop.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _forget_inherited_telemetry()
    try:
        outcome: Optional[Dict] = _attempt_cell(payload)
    except KeyboardInterrupt:
        outcome = None  # the parent re-raises it
    sender.send((outcome, telemetry.get_registry().snapshot(reset=True)))


def _forget_inherited_telemetry() -> None:
    """Give a forked child a registry of its own: the inherited one holds
    the parent's unflushed metrics (the parent reports those) and maybe a
    lock that another parent thread held at the fork."""
    telemetry.configure(enabled=telemetry.enabled(), reset=True)


def _reap(process: Any) -> None:
    """Join a process, killing it if it outlives the grace period."""
    process.join(_KILL_GRACE_SECONDS)
    if process.is_alive():
        process.kill()
        process.join()


def _watchdog_record(payload: Dict, status: str, error_type: str,
                     message: str, elapsed: Optional[float]) -> Dict:
    """Record a cell the watchdog lost (written by the parent; the child is
    gone)."""
    cell_dir = Path(payload["cell_dir"])
    record = {
        "index": payload["index"],
        "status": status,
        "error_type": error_type,
        "error": f"{error_type}: {message}",
        "traceback": "",
        "elapsed_seconds": elapsed,
    }
    cell_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_json(cell_dir / "error.json", record, indent=2)
    telemetry.counter("runner.cells." + status).inc()
    return record


def cell_payloads(spec: ExperimentSpec, scale: ExperimentScale, seed: int,
                  out_dir: Path, cells: List[Dict],
                  fault_plan: Optional[FaultPlan] = None,
                  max_attempts: int = 1,
                  timeout: Optional[float] = None) -> List[Dict]:
    """One plain-data execution payload per cell: the unit of work that the
    campaign service enqueues as a catalogue job and every drainer executes
    through :func:`execute_cell` — which is why every drain is bit-identical
    to every other.  The campaign-wide dicts are built once and shared."""
    spec_data, scale_data = spec.to_dict(), scale.to_dict()
    plan_data = fault_plan.to_dict() if fault_plan is not None else None
    return [{
        "spec_data": spec_data,
        "scale_data": scale_data,
        "seed": seed,
        "index": index,
        "params": params,
        "cell_dir": str(_cell_dir(out_dir, index, params)),
        "out_dir": str(out_dir),
        "fault_plan": plan_data,
        "max_attempts": max_attempts,
        "timeout": float(timeout) if timeout is not None else None,
    } for index, params in enumerate(cells)]


# ------------------------------------------------------------ local drains
def _drain(run_id: str, catalog_file: Path, drainers: int) -> None:
    """Drain one campaign's jobs with ``drainers`` local ``work()`` loops.

    One drainer runs in-process; more run as child processes.  Ctrl-C sends
    SIGTERM to child drainers, whose signal guard releases their leases,
    and reaches the caller as ``KeyboardInterrupt``.
    """
    from repro.store.worker import work

    options = {"run_id": run_id, "catalog_file": catalog_file,
               "poll_seconds": _DRAIN_POLL_SECONDS}
    if drainers == 1:
        if work(**options).interrupted:
            raise KeyboardInterrupt
        return
    context = multiprocessing.get_context()
    started: List[Any] = []
    try:
        for _ in range(drainers):
            process = context.Process(target=_drain_child, kwargs=options)
            process.start()
            started.append(process)
        for process in started:
            process.join()
    except BaseException:
        for process in started:
            process.terminate()
        for process in started:
            _reap(process)
        raise


def _drain_child(**options: Any) -> None:
    from repro.store.worker import work

    _forget_inherited_telemetry()
    work(**options)


# -------------------------------------------------------------------- run()
def run(experiment: ExperimentLike, scale: Optional[ScaleLike] = None,
        seed: Optional[int] = None, workers: int = 1,
        out_dir: Optional[os.PathLike] = None, root: os.PathLike = "runs", *,
        strict: bool = True, max_attempts: int = 1,
        timeout: Optional[float] = None,
        fault_plan: Any = None, catalog: Any = None) -> CampaignResult:
    """Run (or resume) an experiment campaign and return its rows.

    Parameters
    ----------
    experiment:
        Registered experiment id or an :class:`ExperimentSpec`.
    scale:
        ``"smoke"`` / ``"bench"`` / ``"paper"`` or an
        :class:`~repro.experiments.scales.ExperimentScale`; defaults to the
        spec's ``default_scale``.
    seed:
        Campaign seed (defaults to the spec's ``base_seed``).  Every cell's
        ``run_cell(params, scale, seed=...)`` gets it, or at ``scale.runs >
        1`` its seed replica's :func:`~repro.runs.spec.replica_seed` of it;
        the drivers derive their training seeds from that.
    workers:
        Number of local drainers.  One drains in-process; more drain in
        child processes, and a sibling resumes a cell whose drainer was
        killed.  Results are row-for-row identical either way.
    out_dir / root:
        Artifact location.  Default: ``<root>/<experiment>-<scale>[-seedN]``.
    strict:
        True (default): raise after the campaign if any cell failed, timed
        out, or was interrupted — with *every* affected cell aggregated into
        one message.  False: return partial rows (None at unfinished
        positions) plus structured per-cell error records; a later
        ``repro.run()`` on the same out_dir re-attempts only the
        non-completed cells.
    max_attempts:
        Each cell's attempt budget: a failed or timed-out cell is claimed
        again until it has been charged ``max_attempts`` claims.  An
        interrupted cell is charged nothing and any drainer resumes it.
        A resubmission starts a fresh budget.
    timeout:
        Opt-in per-cell wall-clock budget in seconds, stored on each job:
        the executor runs the cell in a child process and a watchdog kills
        it past the budget (the cell then reports status ``timeout``).
    fault_plan:
        A :class:`~repro.runs.faults.FaultPlan` (or its dict/JSON/path form)
        of deterministic faults to inject.
    catalog:
        The SQLite catalogue (:mod:`repro.store`) whose queue the campaign
        drains through: ``None`` (default) uses
        ``<out_dir's parent>/catalog.sqlite``, a path selects an explicit
        file, and ``False`` uses a temporary catalogue that is removed when
        ``run()`` returns.
    """
    from repro.store.catalog import Catalog, catalog_path  # late: repro.store imports us
    from repro.store.queue import JobQueue, finalize_from_catalog
    from repro.store.worker import submit_campaign

    spec, scale, seed, out_dir = resolve_campaign(experiment, scale, seed, root,
                                                  out_dir)
    scratch = Path(tempfile.mkdtemp(prefix="repro-catalog-")) if catalog is False else None
    catalog_file = (catalog_path(scratch) if scratch is not None
                    else catalog_path(out_dir.parent) if catalog is None
                    else Path(catalog))
    try:
        with Catalog(catalog_file) as store:
            submission = submit_campaign(
                spec, scale, seed, out_dir=out_dir, max_attempts=max_attempts,
                fault_plan=fault_plan, timeout=timeout, catalog=store)
            run_id, cached = submission.run_id, submission.cached
            queued = JobQueue(store).outstanding(run_id)
        cells = spec.cells(scale)
        if queued:
            _drain(run_id, catalog_file, max(1, min(workers, queued)))
        with Catalog(catalog_file) as store:
            finalize_from_catalog(store, run_id)
            rows = store.rows(run_id)
            statuses = store.cell_statuses(run_id)
    finally:
        # The drainers flushed their own metrics; this reports the caller's.
        telemetry.flush_to_catalog(catalog_file)
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)

    # Each cell's outcome: cached (its result.json loaded before the
    # drain), or as the drain recorded it in the catalogue.
    summaries = []
    for cell in statuses:
        index = int(cell["cell_index"])
        summary = {"index": index, "params": cells[index], "slug": cell["slug"],
                   "status": "cached" if index in cached else cell["status"]}
        if summary["status"] in UNFINISHED_STATUSES:
            summary["error"] = cell["error"] or "not attempted"
            summary["attempt"] = cell["attempts"]
        summaries.append(summary)
        rows[index] = cached.get(index, rows[index])
    if strict:
        _raise_on_failures(summaries, out_dir)
    return CampaignResult(spec=spec, scale=scale, seed=seed, out_dir=out_dir,
                          rows=rows, cells=summaries, workers=workers,
                          strict=strict)


def _raise_on_failures(cells: List[Dict], out_dir: Path) -> None:
    """Aggregate every unfinished cell into one strict-mode error."""
    interrupted = [c for c in cells if c["status"] == "interrupted"]
    unfinished = [c for c in cells
                  if c["status"] in ("failed", "timeout", "pending")]
    if interrupted:
        lines = [f"cell {c['index']}: {c['error']}" for c in interrupted]
        lines += [f"cell {c['index']} ({c['status']}): {c['error']}" for c in unfinished]
        raise CampaignInterrupted(
            f"{len(interrupted)} cell(s) interrupted"
            + (f", {len(unfinished)} not completed" if unfinished else "")
            + ":\n" + "\n".join(lines))
    if unfinished:
        details = "\n\n".join(
            f"cell {c['index']} ({c['status']}, attempt {c['attempt']}): "
            + (_recorded_error(out_dir / "cells" / c["slug"]).get("traceback")
               or c["error"]) for c in unfinished)
        raise RuntimeError(f"{len(unfinished)} campaign cell(s) failed:\n{details}")


# --------------------------------------------------------------- inspection
def load_rows(experiment: ExperimentLike, scale: Optional[ScaleLike] = None,
              seed: Optional[int] = None, root: os.PathLike = "runs",
              out_dir: Optional[os.PathLike] = None) -> List[Dict]:
    """Rows of a finished (or partially finished) campaign artifact."""
    out_dir = resolve_campaign(experiment, scale, seed, root, out_dir)[3]
    return [row for row in cell_rows(out_dir) if row is not None]


def cell_rows(out_dir: Path) -> List[Optional[Dict]]:
    """Each manifest cell's row, in cell order (None where no
    ``result.json`` loads)."""
    manifest_file = out_dir / "manifest.json"
    if not manifest_file.exists():
        raise FileNotFoundError(f"no campaign artifact at {out_dir}")
    manifest = load_json(manifest_file)
    results = (_load_result(out_dir / "cells" / cell["slug"] / "result.json")
               for cell in manifest.get("cells", []))
    return [None if result is None else result["row"] for result in results]
