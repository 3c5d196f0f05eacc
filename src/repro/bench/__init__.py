"""Experiment harness: regenerates every table and figure of Sec. 5.

Each ``fig*``/``table*`` function in :mod:`repro.bench.experiments` builds
a fresh scenario, runs the corresponding experiment at the paper's
parameters (scaled where noted), and returns an
:class:`~repro.bench.harness.ExperimentResult` whose rows mirror the
figure's series. :mod:`repro.bench.reporting` renders those results as the
text tables recorded in EXPERIMENTS.md.
"""

from repro._exports import export_table

__getattr__, __all__ = export_table(__name__, {
    "repro.bench.harness": ("ExperimentResult", "Scenario", "build_scenario"),
    "repro.bench.reporting": ("format_result", "render_markdown"),
})
