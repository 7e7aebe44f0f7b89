"""Experiment harnesses reproducing the paper's evaluation (Section 6).

* :mod:`repro.experiments.table3` — sparse vs. dense BDD encodings.
* :mod:`repro.experiments.table4` — sparse ZDD vs. dense BDD.
* :mod:`repro.experiments.figure2` — encoding schemes on the example.
* :mod:`repro.experiments.ablation` — design-choice ablations.

Each module has a ``main()`` entry point (``python -m ...``) and pure
``run()`` functions used by the pytest benchmarks.
"""

from .runner import ExperimentRow, engine_label, format_table, full_scale, run

__all__ = [
    "ExperimentRow", "run", "engine_label",
    "format_table", "full_scale",
]
