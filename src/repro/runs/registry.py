"""The experiment registry behind ``repro.run()``.

Mirrors the scenario registry one layer up: experiments are registered once
(the built-in catalogue — every table and figure of the paper — lives in
:mod:`repro.runs.builtin`) and addressed by id::

    import repro

    repro.list_experiments()              # ["fig4", "search", "table1", ...]
    spec = repro.get_experiment("table5")
    campaign = repro.run("table5", scale="smoke", workers=4)

The public names are the methods of :data:`EXPERIMENTS`, a
:class:`repro.registry.Registry`.
"""

from __future__ import annotations

from typing import Union

from repro.registry import Registry
from repro.runs.spec import ExperimentSpec

ExperimentLike = Union[str, ExperimentSpec]

EXPERIMENTS: Registry[ExperimentSpec] = Registry(ExperimentSpec, "experiment_id",
                                                 "experiment")

register_experiment = EXPERIMENTS.register
unregister_experiment = EXPERIMENTS.unregister
is_experiment_registered = EXPERIMENTS.is_registered
list_experiments = EXPERIMENTS.list
get_experiment = EXPERIMENTS.get
