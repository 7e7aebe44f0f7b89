"""Benchmark Petri-net families (Section 6 of the paper).

* :func:`figure1_net` — the running example (Figure 1).
* :func:`philosophers` / :func:`figure4_net` — dining philosophers
  (``phil-n``, Figure 4).
* :func:`muller` — Muller C-element pipelines (``muller-n``).
* :func:`slotted_ring` — slotted-ring protocol (``slot-n``).
* :func:`dme_spec` / :func:`dme_circuit` — DME ring substitutes
  (``DMEspec-n`` / ``DMEcir-n``).
* :func:`jj_register` — register-control substitutes (``JJreg-a/b``).
"""

from .dme import dme_circuit, dme_spec
from .figure1 import FIGURE1_MARKINGS, FIGURE1_SMC_PLACES, figure1_net
from .jjreg import jj_register
from .muller import muller, muller_ring
from .philosophers import FIGURE3_SMC_PLACES, figure4_net, philosophers
from .slotted_ring import slotted_ring

__all__ = [
    "figure1_net", "FIGURE1_MARKINGS", "FIGURE1_SMC_PLACES",
    "philosophers", "figure4_net", "FIGURE3_SMC_PLACES",
    "muller", "muller_ring",
    "slotted_ring",
    "dme_spec", "dme_circuit",
    "jj_register",
]
