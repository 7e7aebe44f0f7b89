"""Encoding schemes for safe Petri-net markings (the paper's contribution).

* :class:`SparseEncoding` — one variable per place (the baseline).
* :class:`DenseEncoding` — SMC-based with unate-covering selection
  (Sections 4.1-4.3).
* :class:`ImprovedEncoding` — overlap-aware greedy scheme (Section 4.4).
* :mod:`repro.encoding.gray` — Gray-like code assignment (Section 5.2).
* :mod:`repro.encoding.characteristic` — Eq. 4/5 BDD construction.
* :mod:`repro.encoding.optimal` — marking-level yardstick encodings
  (Section 3 / Figure 2).
"""

from .characteristic import (declare_variables, enabling_functions,
                             initial_function, marking_function,
                             place_functions, variable_order)
from .covering import CoverOption, CoveringError, solve_cover
from .dense import DenseEncoding
from .improved import ImprovedEncoding, encoding_variable_summary
from .scheme import (EncodedComponent, Encoding, EncodingError,
                     TransitionSpec)
from .sparse import SparseEncoding

__all__ = [
    "Encoding", "EncodingError", "EncodedComponent", "TransitionSpec",
    "SparseEncoding", "DenseEncoding", "ImprovedEncoding",
    "encoding_variable_summary",
    "CoverOption", "CoveringError", "solve_cover",
    "declare_variables", "place_functions", "enabling_functions",
    "marking_function", "initial_function", "variable_order",
]
