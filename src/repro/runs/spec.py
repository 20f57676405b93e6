"""Declarative, serializable experiment descriptions.

An :class:`ExperimentSpec` is the campaign-level sibling of
:class:`repro.scenarios.ScenarioSpec`: a frozen value object that fully
describes one of the paper's experiments — the driver module that knows how to
compute one table row, the grid of cells the experiment expands into, the
metric schema (column order) of its rows, and the default scale/seed.  Specs
round-trip losslessly through ``to_dict``/``from_dict`` and JSON (the
:class:`repro.registry.Record` base), so they can be stored in campaign
manifests, shipped to worker processes, and compared for resume-compatibility.

The *driver* is a module dotted path (e.g. ``"repro.experiments.table5"``)
implementing the cell protocol:

``run_cell(params, scale, seed=0, ctx=None) -> dict``
    Compute one row of the experiment.  ``params`` is one grid entry,
    ``scale`` an :class:`~repro.experiments.scales.ExperimentScale`, and
    ``ctx`` an optional :class:`repro.runs.CellContext` enabling
    checkpoint/resume and per-cell artifacts.  Drivers must be
    deterministic in ``(params, scale, seed)`` — the fault-tolerance
    machinery relies on a re-run (after a crash, timeout, or quarantined
    artifact) reproducing the same row bit-for-bit.  Exceptions raised here
    are recorded per-cell (``error.json``) and retried within the campaign's
    budget; ``KeyboardInterrupt``/``SystemExit`` always propagate.  A driver
    trains once per call: the spec owns the seed replicas (below).

``cells(scale) -> list[dict]`` (optional)
    The grid for scale-dependent experiments (e.g. Table III trains on more
    machines at paper scale).  Specs with a static ``grid`` don't need it.

``format_results(rows) -> str`` (optional)
    An override for experiments whose layout is not one table over
    ``columns`` (only ``defense_matrix``, which adds per-metric pivots).
    Without it, rows render as a table over ``columns`` titled with the
    spec's ``description``.

Replicas
--------
A scale with ``runs = N > 1`` repeats the whole grid over N training seeds.
:meth:`ExperimentSpec.cells` expands each grid entry into N consecutive
cells that carry a ``replica`` index (``0 .. N-1``; no key at all when
``N == 1``), so every seed is its own queue job, cell directory and
catalogue row: it runs in parallel with its siblings, resumes on its own,
and ``repro query <metric> --by replica`` compares seeds.
:meth:`ExperimentSpec.run_cell` removes the index and hands the driver
:func:`replica_seed` of the campaign seed, so no driver sees a replica, and
:meth:`ExperimentSpec.format_rows` collapses each entry's replica rows into
one display line.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments.scales import ScaleLike, format_table, resolve_scale
from repro.registry import Record

#: The cell parameter that numbers a grid entry's seed replicas.
REPLICA_KEY = "replica"

#: Seed distance between consecutive replicas of one cell.  A prime far
#: above every offset a driver adds to its seed (at most 9,973), so no two
#: replicas of one campaign train with the same seed.
REPLICA_SEED_STRIDE = 1_000_003


def replica_seed(seed: int, replica: int) -> int:
    """The seed replica ``replica`` of a cell runs with: replica 0 keeps the
    campaign seed, replica ``r`` adds ``r * REPLICA_SEED_STRIDE``."""
    return seed + REPLICA_SEED_STRIDE * replica


@dataclass(frozen=True)
class ExperimentSpec(Record):
    """Frozen description of one registered experiment.

    Fields
    ------
    experiment_id:
        Registry key (``"table5"``, ``"fig4"``, ...).
    description:
        One-line summary shown by ``python -m repro list``.
    driver:
        Dotted module path implementing the cell protocol (see module docs).
    columns:
        Metric schema: the row keys, in the paper's column order.
    grid:
        Static cell grid (one mapping per cell).  Empty means the grid is
        scale-dependent and comes from ``driver.cells(scale)``.
    default_scale / base_seed:
        Defaults applied when ``repro.run()`` is called without them.
    tags:
        Free-form labels (``"rl"``, ``"fast"``) used for listing/filtering.
    """

    experiment_id: str
    description: str = ""
    driver: str = ""
    columns: Tuple[str, ...] = ()
    grid: Tuple[Dict, ...] = ()
    default_scale: str = "bench"
    base_seed: int = 0
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ValueError("experiment_id must be non-empty")
        if not self.driver:
            raise ValueError(f"experiment {self.experiment_id!r} needs a driver module path")
        object.__setattr__(self, "columns", tuple(str(c) for c in self.columns))
        object.__setattr__(self, "tags", tuple(str(t) for t in self.tags))
        grid = tuple(dict(cell) for cell in self.grid)
        for cell in grid:
            for key in cell:
                if not isinstance(key, str):
                    raise ValueError(f"grid cell keys must be strings, got {key!r}")
        object.__setattr__(self, "grid", grid)

    def derive(self, experiment_id: str, **overrides: Any) -> "ExperimentSpec":
        """A renamed copy with field overrides applied."""
        return replace(self, experiment_id=experiment_id, **overrides)

    # -------------------------------------------------------------- expansion
    def resolve_driver(self) -> Any:
        """Import and return the driver module."""
        return importlib.import_module(self.driver)

    def cells(self, scale: ScaleLike) -> List[Dict]:
        """The cell grid at a given scale (static grid or driver-provided),
        each entry repeated over the scale's ``runs`` seed replicas."""
        scale = resolve_scale(scale)
        if self.grid:
            grid = [dict(cell) for cell in self.grid]
        else:
            cells_fn = getattr(self.resolve_driver(), "cells", None)
            if cells_fn is None:
                raise ValueError(f"experiment {self.experiment_id!r} has no static grid and "
                                 f"its driver {self.driver!r} defines no cells(scale)")
            grid = [dict(cell) for cell in cells_fn(scale)]
        if scale.runs == 1:
            return grid
        if any(REPLICA_KEY in cell for cell in grid):
            raise ValueError(f"experiment {self.experiment_id!r}: {REPLICA_KEY!r} "
                             "is reserved for the runner's seed replicas")
        return [dict(cell, **{REPLICA_KEY: replica})
                for cell in grid for replica in range(scale.runs)]

    def run_cell(self, params: Mapping, scale: ScaleLike, seed: int = 0,
                 ctx: Optional[Any] = None) -> Dict:
        """Execute one cell through the driver, with its replica's seed."""
        params = dict(params)
        replica = int(params.pop(REPLICA_KEY, 0))
        return self.resolve_driver().run_cell(params, resolve_scale(scale),
                                              seed=replica_seed(seed, replica),
                                              ctx=ctx)

    def format_rows(self, rows: List[Optional[Dict]], runs: int = 1) -> str:
        """Render rows as a table over ``columns`` (or the driver's override).

        ``rows`` are positional, one per cell of a scale with ``runs``
        replicas; each grid entry's replica rows collapse into one line
        (:func:`collapse_replicas`) before any driver override sees them.
        A partial campaign (``strict=False`` with failed cells) carries None
        at the failed positions; those rows are dropped from the rendering
        and counted in a trailing note, so the driver override only ever sees
        real rows.
        """
        present = [row for row in rows if row is not None]
        missing = len(rows) - len(present)
        columns = list(self.columns or sorted({k for row in present for k in row}))
        if runs > 1:
            present = collapse_replicas(rows, runs)
            columns.append("replicas")
        module = self.resolve_driver()
        formatter = getattr(module, "format_results", None)
        if formatter is not None:
            text = formatter(present)
        else:
            text = format_table(present, columns,
                                title=self.description or self.experiment_id)
        if missing:
            text += f"\n({missing} cell(s) failed; rows missing — see error.json)"
        return text


def collapse_replicas(rows: List[Optional[Dict]], runs: int) -> List[Dict]:
    """One display row per grid entry from its ``runs`` consecutive replica
    rows (None for a replica without a row; an entry with none is dropped).

    A column whose replicas agree keeps its value.  Otherwise a numeric
    column shows its mean over the replicas that report it (None is
    skipped), and any other column its first non-empty value.  ``replicas``
    counts the rows behind the line.
    """
    collapsed: List[Dict] = []
    for start in range(0, len(rows), runs):
        replicas = [row for row in rows[start:start + runs] if row is not None]
        if not replicas:
            continue
        line: Dict[str, Any] = {}
        for key in dict.fromkeys(key for row in replicas for key in row):
            values = [row.get(key) for row in replicas]
            known = [value for value in values if value is not None]
            if known and all(value == known[0] for value in known):
                line[key] = known[0]
            elif known and all(isinstance(value, (int, float)) for value in known):
                line[key] = sum(known) / len(known)
            else:
                line[key] = next((value for value in values if value), values[0])
        line["replicas"] = len(replicas)
        collapsed.append(line)
    return collapsed
