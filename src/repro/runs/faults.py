"""Deterministic chaos injection for campaign runs.

A :class:`FaultPlan` is a frozen, JSON-round-trippable description of the
faults to inject into one campaign; plans and faults serialise through
:class:`repro.registry.Record`, the base every spec shares.  Four fault
kinds are supported:

``kill``
    Raise :class:`InjectedFault` (a :class:`CampaignInterrupted`) right after
    the checkpoint at ``at_update`` is written — the moral equivalent of
    ``kill -9`` at a checkpoint boundary — or right after a named artifact
    kind is written when ``at_update`` is None.
``torn-write``
    Truncate the just-written artifact to a deterministic prefix (a crash
    mid-``write``), then kill.  The stale checksum sidecar survives, so the
    next load detects the tear and quarantines it.
``bit-flip``
    Flip one deterministic bit of the just-written artifact (silent media
    corruption), then kill by default so the corruption is observed on
    resume.
``stall``
    Sleep ``delay_seconds`` at cell start — long enough to trip the
    executor's per-cell watchdog timeout, which kills the hung cell.

A fault targets one of :data:`ARTIFACT_KINDS`, each reported by the writer
that lands it: ``checkpoint`` (a trainer checkpoint save), ``policy`` and
``training-result`` (a finished training's policy pickle, then its
``TrainingResult``), and ``result`` (the cell's ``result.json``).  A plan
naming any other kind is refused when it is parsed.

Every fault names the cell it targets (``cell=None`` matches any cell) and
fires **once** by default: the injector
records fired faults under ``<out_dir>/faults/`` so a resumed campaign does
not re-inject them — which is exactly what makes "run under a fault plan,
then resume to completion" deterministic.  Plans travel two ways:
``repro.run(fault_plan=...)`` and ``python -m repro run --fault-plan``
(inline JSON or a file path); a submitted plan rides in every job payload.

Network chaos
-------------
The multi-host campaign drain (``repro work --server``) gets its own plan
type: a :class:`NetworkChaosPlan` describes the failures the *transport*
injects, by request index rather than by artifact, with kinds

``reset``
    Connection reset before the request is delivered — the server never
    sees it (always safe to retry).
``http-500``
    A synthetic 5xx response without touching the server (retryable).
``stall``
    Delay the request ``delay_seconds`` — a slow network/server; against
    the TCP proxy this trips the client's per-request deadline.
``drop-response``
    Deliver the request, then lose the response — the dangerous half-open
    case: the mutation *was* applied, the client must retry with the same
    idempotency key, and the server must replay rather than re-apply.
``duplicate``
    Deliver the same request twice — the network-duplication case the
    idempotency-key dedup must absorb.

One enforcement point consumes these plans:
:class:`repro.store.chaos.ChaosProxy`, a real TCP proxy between workers and
``repro serve`` (``python -m repro proxy --plan``, inline JSON or a file
path).  Each fault names the request index it fires at, counted per fault
over the requests matching its ``op`` filter, so a given plan always
perturbs the same protocol steps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.registry import Record
from repro.runs.artifacts import atomic_write_json

FAULT_KINDS = ("kill", "torn-write", "bit-flip", "stall")

#: Transport-level fault kinds injected by the network chaos layer.
NETWORK_FAULT_KINDS = ("reset", "http-500", "stall", "drop-response",
                       "duplicate")

#: Artifact kinds a fault can target: exactly the kinds a writer reports
#: (the trainer checkpoint, a training's policy and ``TrainingResult``, and
#: the cell's ``result.json``), so every kind a plan names can fire.
ARTIFACT_KINDS = ("checkpoint", "result", "training-result", "policy")


class CampaignInterrupted(RuntimeError):
    """Raised when a (real or injected) kill aborts a campaign mid-cell."""


class InjectedFault(CampaignInterrupted):
    """An injected crash: handled exactly like a real mid-campaign kill."""


class _Plan(Record):
    """A seeded, serializable set of ``fault_type`` faults."""

    fault_type: ClassVar[Any]
    faults: Tuple[Any, ...]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(
            fault if isinstance(fault, self.fault_type)
            else self.fault_type.from_dict(fault) for fault in self.faults))
        object.__setattr__(self, "seed", int(self.seed))

    @classmethod
    def resolve(cls, plan: Any) -> Any:
        """The plan from a plan, a mapping, inline JSON text, or a path to a
        JSON file (None stays None)."""
        if plan is None or isinstance(plan, cls):
            return plan
        if isinstance(plan, Mapping):
            return cls.from_dict(plan)
        text = str(plan).strip()
        if not text.startswith("{"):
            text = Path(text).read_text()
        return cls.from_json(text)


@dataclass(frozen=True)
class Fault(Record):
    """One injected fault.

    Fields
    ------
    kind:
        ``"kill"`` / ``"torn-write"`` / ``"bit-flip"`` / ``"stall"``.
    cell:
        Target cell index; None matches every cell.
    artifact:
        Artifact kind the fault targets (see :data:`ARTIFACT_KINDS`).
    at_update:
        For ``artifact="checkpoint"``: the PPO update whose checkpoint
        boundary triggers the fault (a save is forced there if the regular
        cadence would skip it).  None means "on the next write of
        ``artifact``".
    delay_seconds:
        ``stall`` only: how long the cell hangs.
    then_kill:
        For ``torn-write``/``bit-flip``: whether the corruption is followed
        by a kill (a crash mid-write) or stays silent until the next load.
    once:
        Fire a single time across the campaign's whole life (recorded in the
        artifact tree); False re-fires on every match.
    """

    kind: str
    cell: Optional[int] = None
    artifact: str = "checkpoint"
    at_update: Optional[int] = None
    delay_seconds: float = 0.0
    then_kill: bool = True
    once: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.artifact not in ARTIFACT_KINDS:
            raise ValueError(
                f"unknown artifact kind {self.artifact!r}; choose from {ARTIFACT_KINDS}")


@dataclass(frozen=True)
class FaultPlan(_Plan):
    """A seeded, serializable set of faults to inject into one campaign."""

    fault_type: ClassVar[Any] = Fault
    faults: Tuple[Fault, ...] = ()
    seed: int = 0


@dataclass(frozen=True)
class NetworkFault(Record):
    """One transport-level fault.

    Fields
    ------
    kind:
        One of :data:`NETWORK_FAULT_KINDS`.
    at_request:
        0-based index of the request this fault fires at, counted **per
        fault** over the requests matching its ``op`` filter — so two
        faults with the same filter and different indices hit different
        requests deterministically.
    op:
        Substring matched against the request path (``"complete"`` targets
        ``POST /api/jobs/complete``); None matches every request through
        the proxy, heartbeats and telemetry flushes included.
    delay_seconds:
        ``stall`` only: how long the request is delayed.
    """

    kind: str
    at_request: int = 0
    op: Optional[str] = None
    delay_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in NETWORK_FAULT_KINDS:
            raise ValueError(f"unknown network fault kind {self.kind!r};"
                             f" choose from {NETWORK_FAULT_KINDS}")
        if self.at_request < 0:
            raise ValueError("at_request must be a non-negative request index")


@dataclass(frozen=True)
class NetworkChaosPlan(_Plan):
    """A serializable set of transport faults for one campaign drain."""

    fault_type: ClassVar[Any] = NetworkFault
    faults: Tuple[NetworkFault, ...] = ()
    seed: int = 0


class ChaosSchedule:
    """Which faults of a :class:`NetworkChaosPlan` fire on each request.

    Each fault counts the requests whose path matches its ``op`` filter and
    fires when that count reaches ``at_request``, so a plan always perturbs
    the same protocol steps, whatever the timing.  Fired faults are
    recorded in :attr:`fired`.
    """

    def __init__(self, plan: NetworkChaosPlan):
        self.plan = plan
        self.fired: List[Dict[str, Any]] = []
        self._seen = [0] * len(plan.faults)
        self._lock = threading.Lock()

    def faults_for(self, path: str) -> List[NetworkFault]:
        matched = []
        with self._lock:
            for index, fault in enumerate(self.plan.faults):
                if fault.op is not None and fault.op not in path:
                    continue
                if self._seen[index] == fault.at_request:
                    matched.append(fault)
                    self.fired.append({"kind": fault.kind, "path": path})
                self._seen[index] += 1
        return matched


class FaultInjector:
    """Applies one cell's share of a :class:`FaultPlan` at runtime hooks.

    Fired once-only faults are recorded as files under
    ``<out_dir>/faults/`` (atomic writes, safe across pool workers), so the
    injector is crash- and resume-consistent: a fault that killed the
    campaign stays fired when the campaign is re-run on the same artifact
    directory.
    """

    def __init__(self, plan: FaultPlan, out_dir: Optional[Path], cell_index: int):
        self.plan = plan
        self.cell_index = int(cell_index)
        self._state_dir = Path(out_dir) / "faults" if out_dir is not None else None
        self._fired_in_memory: set = set()

    # ------------------------------------------------------------- matching
    def _matches_cell(self, fault: Fault) -> bool:
        return fault.cell is None or fault.cell == self.cell_index

    def _fired(self, index: int) -> bool:
        if self._state_dir is not None:
            return (self._state_dir / f"fired-{index:02d}.json").exists()
        return index in self._fired_in_memory

    def _record(self, index: int, fault: Fault, **detail: Any) -> None:
        if not fault.once:
            return
        if self._state_dir is not None:
            atomic_write_json(self._state_dir / f"fired-{index:02d}.json",
                              {"fault": fault.to_dict(), "cell": self.cell_index,
                               **detail}, checksum=False)
        else:
            self._fired_in_memory.add(index)

    def _pending(self, kinds: Iterable[str], artifact: Optional[str] = None,
                 at_update: Optional[int] = None) -> List[Tuple[int, Fault]]:
        matched = []
        for index, fault in enumerate(self.plan.faults):
            if fault.kind not in kinds or not self._matches_cell(fault):
                continue
            if artifact is not None and fault.artifact != artifact:
                continue
            if fault.at_update != at_update:
                continue
            if fault.once and self._fired(index):
                continue
            matched.append((index, fault))
        return matched

    # ---------------------------------------------------------------- hooks
    def on_cell_start(self) -> None:
        """Stall faults: hang the cell long enough to trip the watchdog."""
        for index, fault in self._pending(("stall",), at_update=None):
            self._record(index, fault, hook="cell-start")
            time.sleep(fault.delay_seconds)

    def wants_checkpoint(self, update: int) -> bool:
        """Whether a checkpoint save must be forced at this update boundary."""
        return bool(self._pending(("kill", "torn-write", "bit-flip"),
                                  artifact="checkpoint", at_update=update))

    def on_checkpoint_saved(self, update: int, path: Path) -> None:
        """Kill/corrupt at a checkpoint boundary.

        ``at_update`` faults fire at their exact boundary (the save is forced
        there via :meth:`wants_checkpoint`); ``at_update=None`` checkpoint
        faults fire at the next regular-cadence save.
        """
        kinds = ("kill", "torn-write", "bit-flip")
        matched = (self._pending(kinds, artifact="checkpoint", at_update=update)
                   + self._pending(kinds, artifact="checkpoint", at_update=None))
        self._inject(matched, path, f"checkpoint boundary at update {update}")

    def on_artifact_written(self, artifact: str, path: Path) -> None:
        """Kill/corrupt right after an artifact of ``artifact`` kind lands."""
        self._inject(self._pending(("kill", "torn-write", "bit-flip"),
                                   artifact=artifact, at_update=None),
                     path, f"after writing {artifact} artifact")

    # ------------------------------------------------------------ injection
    def _inject(self, matched: List[Tuple[int, Fault]], path: Path,
                where: str) -> None:
        kill_message = None
        for index, fault in matched:
            self._record(index, fault, hook=where, path=str(path))
            if fault.kind == "torn-write":
                self._truncate(path)
            elif fault.kind == "bit-flip":
                self._flip_bit(path)
            if fault.kind == "kill" or fault.then_kill:
                kill_message = (f"injected {fault.kind} fault at {where} "
                                f"(cell {self.cell_index}, {Path(path).name})")
        if kill_message is not None:
            raise InjectedFault(kill_message)

    def _truncate(self, path: Path) -> None:
        """Deterministically tear the file: keep a seed-derived prefix."""
        path = Path(path)
        size = path.stat().st_size
        keep = 1 + (size // 2 + self.plan.seed) % max(1, size - 1)
        with open(path, "r+b") as stream:
            stream.truncate(keep)

    def _flip_bit(self, path: Path) -> None:
        """Deterministically flip one seed-derived bit of the file."""
        path = Path(path)
        size = path.stat().st_size
        bit = (self.plan.seed * 2654435761 + size) % max(1, size * 8)
        offset, mask = bit // 8, 1 << (bit % 8)
        with open(path, "r+b") as stream:
            stream.seek(offset)
            byte = stream.read(1)[0]
            stream.seek(offset)
            stream.write(bytes((byte ^ mask,)))
