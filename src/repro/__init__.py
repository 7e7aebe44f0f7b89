"""repro — efficient encoding schemes for symbolic analysis of Petri nets.

A from-scratch reproduction of Pastor & Cortadella, *Efficient Encoding
Schemes for Symbolic Analysis of Petri Nets* (DATE 1998): SMC-based dense
encodings of safe Petri-net markings, with the full stack they sit on —
a BDD package with dynamic reordering, a ZDD package, Petri-net structure
theory (P-invariants, State Machine Components), symbolic reachability
and model checking, and the paper's benchmark families.

Layer map (see ``docs/architecture.md`` for the full inventory):

* :mod:`repro.dd` — the shared decision-diagram kernel (node tables,
  reference counting/GC, level swaps, sifting, reorder hooks) both
  managers are built on.
* :mod:`repro.bdd` — decision diagrams (BDD manager, sifting, ZDDs).
* :mod:`repro.petri` — nets, markings, invariants, SMCs, generators.
* :mod:`repro.encoding` — sparse / dense / improved encoding schemes.
* :mod:`repro.symbolic` — encoded nets, image engines and the model
  checker (the building blocks; no fixpoint loop of their own).
* :mod:`repro.analysis` — ``analyze(net, spec)`` and the ``Analysis``
  session, the one way to run a reachability fixpoint; every entry
  point (CLI, experiments, service, examples) routes through it.
* :mod:`repro.experiments` — Table 3 / Table 4 / Figure 2 harnesses.
"""

from .analysis import (Analysis, AnalysisResult, AnalysisSpec, SpecError,
                       SpecWarning, analyze)
from .bdd import BDD, Function, ZDD
from .encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from .petri import Marking, PetriNet, ReachabilityGraph, find_smcs
from .symbolic import ModelChecker, SymbolicNet, ZddNet

__version__ = "1.0.0"

__all__ = [
    "BDD", "Function", "ZDD",
    "PetriNet", "Marking", "ReachabilityGraph", "find_smcs",
    "SparseEncoding", "DenseEncoding", "ImprovedEncoding",
    "SymbolicNet", "ModelChecker", "ZddNet",
    "AnalysisSpec", "AnalysisResult", "Analysis", "analyze",
    "SpecError", "SpecWarning",
    "__version__",
]
