"""Generated-net differential: every engine against the explicit oracle.

The generator families are nets this project wrote; these are not.
Hypothesis composes small safe nets (one to four one-token state
machines with free-choice branches and two-machine synchronisations,
:func:`net_strategies.safe_nets`) and every surviving backend × form ×
engine must count exactly the markings explicit enumeration finds.
Every run sifts from a low threshold, so dynamic reordering and the
relational sweep's re-sort by the new order run on these nets too.

The tier-1 profile draws a fixed-seed sample; the ``slow`` profile
(``-m slow``) draws many more.
"""

import pytest
from hypothesis import given, settings
from net_strategies import compose_state_machines, safe_nets

from repro.analysis import AnalysisSpec, analyze
from repro.petri.reachability import count_reachable_markings

# Low enough that sifting (and with it the relational partition
# refresh) fires on most generated nets.
SIFTING = dict(reorder_threshold=20)

SPECS = {
    **{f"functional-{scheme}": AnalysisSpec(scheme=scheme, **SIFTING)
       for scheme in ("sparse", "dense", "improved")},
    "functional-quantify": AnalysisSpec(use_toggle=False, **SIFTING),
    "functional-bfs": AnalysisSpec(strategy="bfs", **SIFTING),
    "functional-bfs-quantify": AnalysisSpec(strategy="bfs",
                                            use_toggle=False, **SIFTING),
    **{f"relational-chained-{scheme}": AnalysisSpec(
        scheme=scheme, form="relational", engine="chained", **SIFTING)
       for scheme in ("sparse", "dense", "improved")},
    "relational-monolithic": AnalysisSpec(form="relational",
                                          engine="monolithic", **SIFTING),
    "zdd-chained": AnalysisSpec(backend="zdd", engine="chained", **SIFTING),
    "zdd-classic": AnalysisSpec(backend="zdd", form="functional",
                                **SIFTING),
    "kbounded-1": AnalysisSpec(k_bound=1, **SIFTING),
}


def assert_matches_oracle(net, spec):
    result = analyze(net, spec)
    assert result.status == "complete"
    assert result.markings == count_reachable_markings(net)


@pytest.mark.parametrize("label", sorted(SPECS))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_match_explicit_count(label, net):
    assert_matches_oracle(net, SPECS[label])


@pytest.mark.slow
@pytest.mark.parametrize("label", sorted(SPECS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(net=safe_nets())
def test_generated_nets_match_explicit_count_long(label, net):
    assert_matches_oracle(net, SPECS[label])


def four_machine_ring():
    """Four three-state machines, each with a free-choice branch, and a
    synchronisation between each neighbouring pair."""
    machine = (3, 0, [(0, 1), (0, 2), (1, 2), (2, 0)])
    syncs = [((i, 1, 0), ((i + 1) % 4, 2, 1)) for i in range(4)]
    return compose_state_machines([machine] * 4, syncs, name="ring4")


@pytest.mark.parametrize("label", ["relational-chained-improved",
                                   "zdd-chained"])
def test_generated_ring_sifts_and_refreshes_the_partition(label):
    """The threshold really does make the relational sessions sift on a
    generated net, and the refreshed partition still lands on the
    oracle."""
    net = four_machine_ring()
    result = analyze(net, SPECS[label])
    assert result.reorder_count > 0
    assert result.markings == count_reachable_markings(net)
