"""Experiment registry + campaign runner: the ``repro.run()`` API.

This package is the campaign-level sibling of :mod:`repro.scenarios`: where
the scenario registry makes *environments* first-class, addressable objects,
the experiment registry does the same for *training campaigns* — every table
and figure of the paper becomes a registered :class:`ExperimentSpec` whose
cells execute (in-process or across local drainer processes) with
persistent, resumable run artifacts::

    import repro

    repro.list_experiments()
    campaign = repro.run("table5", scale="smoke", workers=4)
    print(campaign.format_results())
    print(campaign.out_dir)            # runs/table5-smoke/...

or from the command line::

    python -m repro run table5 --scale smoke --workers 4
    python -m repro status
    python -m repro results table5 --scale smoke --format json

``repro status`` reads each campaign's progress from the ``catalog.sqlite``
that every run records into; :func:`load_rows` and ``repro results`` read
the rows back from the artifact tree.
"""

from repro.runs.artifacts import (
    CorruptArtifactError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_pickle,
    atomic_write_text,
    quarantined_files,
    stray_tmp_files,
)
from repro.runs.context import CampaignInterrupted, CellContext
from repro.runs.faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    NetworkChaosPlan,
    NetworkFault,
)
from repro.runs.registry import (
    ExperimentLike,
    get_experiment,
    is_experiment_registered,
    list_experiments,
    register_experiment,
    unregister_experiment,
)
from repro.runs.runner import (
    CampaignResult,
    campaign_id,
    load_rows,
    run,
)
from repro.runs.spec import ExperimentSpec

# Register the built-in catalogue (all tables/figures of the paper).
import repro.runs.builtin  # noqa: E402,F401  (registration side effect)

__all__ = [
    "CampaignInterrupted",
    "CampaignResult",
    "CellContext",
    "CorruptArtifactError",
    "ExperimentLike",
    "ExperimentSpec",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedFault",
    "NetworkChaosPlan",
    "NetworkFault",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_pickle",
    "atomic_write_text",
    "campaign_id",
    "get_experiment",
    "is_experiment_registered",
    "list_experiments",
    "load_rows",
    "quarantined_files",
    "register_experiment",
    "run",
    "stray_tmp_files",
    "unregister_experiment",
]
