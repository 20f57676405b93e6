"""Experiment drivers regenerating every table and figure of the paper.

Each module implements the cell protocol of one registered experiment
(:mod:`repro.runs.builtin`): ``run_cell(params, scale, seed=0, ctx=None)``
computes one table row, and ``repro.run(<id>)`` expands the registered grid
into a campaign and renders its rows in the paper's column order.  The
:class:`repro.experiments.scales.ExperimentScale` controls the training budget
so the same driver powers quick tests, the benchmark harness, and full
paper-scale runs.  Importing the package loads only the scales; the drivers
and :mod:`repro.experiments.common` load the learner.
"""

from repro.experiments.scales import ExperimentScale, SMOKE, BENCH, PAPER

__all__ = ["ExperimentScale", "SMOKE", "BENCH", "PAPER"]
