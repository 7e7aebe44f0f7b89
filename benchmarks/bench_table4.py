"""Table 4 benchmarks: sparse-ZDD baseline vs. dense BDD.

One benchmark per (instance, engine) cell of the paper's Table 4, on the
DME-spec / DME-circuit / JJreg substitute nets.  Assertions pin the
shape: the dense encoding uses ~half the variables, and both engines
agree on the marking count.

Regenerate the printed table with ``python -m repro.experiments.table4``.
"""

import pytest

from repro.analysis import AnalysisSpec
from repro.experiments.runner import run
from repro.experiments.table4 import instances

CASES = instances()
IDS = [name for name, _ in CASES]

_results = {}

# The project-default ZDD engine and the Table 3 dense BDD cell.
ZDD = AnalysisSpec(backend="zdd")
DENSE = AnalysisSpec(scheme="improved", strategy="bfs")


@pytest.mark.parametrize("name,net", CASES, ids=IDS)
def test_zdd_traversal(once, name, net):
    row = once(run, name, net, ZDD)
    _results[(name, "zdd")] = row
    assert row.markings > 0
    assert row.variables == len(net.places)


@pytest.mark.parametrize("name,net", CASES, ids=IDS)
def test_dense_traversal(once, name, net):
    row = once(run, name, net, DENSE, label="dense")
    _results[(name, "dense")] = row
    assert row.markings > 0
    # Table 4 shape: the dense encoding cuts the variable count by
    # 40-50 % against the one-element-per-place ZDD universe.
    assert row.variables <= 0.6 * len(net.places)


@pytest.mark.parametrize("name,net", CASES, ids=IDS)
def test_engines_agree(name, net):
    zdd = _results.get((name, "zdd"))
    dense = _results.get((name, "dense"))
    if zdd is None or dense is None:
        pytest.skip("timed cells did not run")
    assert zdd.markings == dense.markings
