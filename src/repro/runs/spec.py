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
    budget; ``KeyboardInterrupt``/``SystemExit`` always propagate.

``cells(scale) -> list[dict]`` (optional)
    The grid for scale-dependent experiments (e.g. Table III trains on more
    machines at paper scale).  Specs with a static ``grid`` don't need it.

``format_results(rows) -> str`` (optional)
    An override for experiments whose layout is not one table over
    ``columns`` (only ``defense_matrix``, which adds per-metric pivots).
    Without it, rows render as a table over ``columns`` titled with the
    spec's ``description``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.experiments.scales import ScaleLike, format_table, resolve_scale
from repro.registry import Record


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
        """The cell grid at a given scale (static grid or driver-provided)."""
        if self.grid:
            return [dict(cell) for cell in self.grid]
        module = self.resolve_driver()
        cells_fn = getattr(module, "cells", None)
        if cells_fn is None:
            raise ValueError(f"experiment {self.experiment_id!r} has no static grid and "
                             f"its driver {self.driver!r} defines no cells(scale)")
        return [dict(cell) for cell in cells_fn(resolve_scale(scale))]

    def run_cell(self, params: Mapping, scale: ScaleLike, seed: int = 0,
                 ctx: Optional[Any] = None) -> Dict:
        """Execute one cell through the driver."""
        return self.resolve_driver().run_cell(dict(params), resolve_scale(scale),
                                              seed=seed, ctx=ctx)

    def format_rows(self, rows: List[Optional[Dict]]) -> str:
        """Render rows as a table over ``columns`` (or the driver's override).

        A partial campaign (``strict=False`` with failed cells) carries None
        at the failed positions; those rows are dropped from the rendering
        and counted in a trailing note, so the driver override only ever sees
        real rows.
        """
        present = [row for row in rows if row is not None]
        missing = len(rows) - len(present)
        module = self.resolve_driver()
        formatter = getattr(module, "format_results", None)
        if formatter is not None:
            text = formatter(present)
        else:
            text = format_table(present,
                                self.columns or sorted({k for row in present for k in row}),
                                title=self.description or self.experiment_id)
        if missing:
            text += f"\n({missing} cell(s) failed; rows missing — see error.json)"
        return text
