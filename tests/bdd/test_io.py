"""Unit tests for BDD serialization."""

import itertools
from pathlib import Path

import pytest

from repro.bdd import BDD, BDDError, ZDD, ZDDError, variable
from repro.bdd.io import (dump_functions, dump_zdd_nodes, load_functions,
                          load_zdd_nodes)


@pytest.fixture
def source():
    bdd = BDD(var_names=["a", "b", "c"])
    a, b, c = (variable(bdd, n) for n in "abc")
    return bdd, {"f": (a & b) | c, "g": a ^ c}


def eval_everywhere(func, names):
    return tuple(func(dict(zip(names, values)))
                 for values in itertools.product([False, True],
                                                 repeat=len(names)))


class TestRoundTrip:
    def test_same_order(self, source):
        bdd, funcs = source
        text = dump_functions(funcs)
        target = BDD(var_names=["a", "b", "c"])
        loaded = load_functions(text, target)
        for label in funcs:
            assert (eval_everywhere(loaded[label], ["a", "b", "c"])
                    == eval_everywhere(funcs[label], ["a", "b", "c"]))

    def test_different_target_order(self, source):
        bdd, funcs = source
        text = dump_functions(funcs)
        target = BDD(var_names=["c", "a", "b"])
        loaded = load_functions(text, target)
        for label in funcs:
            assert (eval_everywhere(loaded[label], ["a", "b", "c"])
                    == eval_everywhere(funcs[label], ["a", "b", "c"]))

    def test_constants(self):
        bdd = BDD(var_names=["a"])
        from repro.bdd import false, true
        text = dump_functions({"t": true(bdd), "f": false(bdd)})
        target = BDD(var_names=["a"])
        loaded = load_functions(text, target)
        assert loaded["t"] == true(target)
        assert loaded["f"].is_zero()

    def test_shared_structure_written_once(self, source):
        bdd, funcs = source
        text = dump_functions({"f": funcs["f"], "f2": funcs["f"]})
        assert text.count("root") == 2
        # Identical roots reuse the same node records (size includes the
        # single terminal, which is not written as a node record).
        assert text.count("node") == funcs["f"].size() - 1

    def test_reachable_set_round_trip(self):
        """The practical use: persist a computed reachability set."""
        from repro.analysis import Analysis, AnalysisSpec
        from repro.petri.generators import figure4_net
        analysis = Analysis(figure4_net(), AnalysisSpec(
            strategy="bfs", use_toggle=False, reorder=False))
        symnet = analysis.symbolic_net
        reached = analysis.reachable
        text = dump_functions({"reachable": reached})
        target = BDD(var_names=list(symnet.encoding.variables))
        loaded = load_functions(text, target)["reachable"]
        assert loaded.satcount(symnet.encoding.num_variables) == 22


class TestErrors:
    def test_empty_dump_rejected(self):
        with pytest.raises(BDDError):
            dump_functions({})

    def test_mixed_managers_rejected(self):
        bdd1 = BDD(var_names=["a"])
        bdd2 = BDD(var_names=["a"])
        with pytest.raises(BDDError):
            dump_functions({"f": variable(bdd1, "a"),
                            "g": variable(bdd2, "a")})

    def test_label_with_space_rejected(self, source):
        bdd, funcs = source
        with pytest.raises(BDDError):
            dump_functions({"bad label": funcs["f"]})

    def test_bad_header(self):
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError):
            load_functions("garbage", bdd)

    @pytest.mark.parametrize("text", ["", "   \n\t\n  "])
    def test_empty_stream_has_clear_structured_error(self, text):
        """An empty or whitespace-only dump (truncated ship, zero-byte
        file) must raise the structured format error naming the
        problem — never an IndexError/KeyError escape."""
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError, match="empty bddio stream"):
            load_functions(text, bdd)

    @pytest.mark.parametrize("text", ["", "   \n\t\n  "])
    def test_empty_zdd_stream_has_clear_structured_error(self, text):
        zdd = ZDD(var_names=["a"])
        with pytest.raises(ZDDError, match="empty zddio stream"):
            load_zdd_nodes(text, zdd)

    def test_missing_variable_in_target(self, source):
        bdd, funcs = source
        text = dump_functions(funcs)
        target = BDD(var_names=["a", "b"])  # no c
        with pytest.raises(BDDError):
            load_functions(text, target)

    def test_forward_reference_rejected(self):
        bdd = BDD(var_names=["a"])
        text = "bddio 1\nvar a\nnode 2 a 3 1\nroot f 2\n"
        with pytest.raises(BDDError):
            load_functions(text, bdd)

    def test_no_roots_rejected(self):
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError):
            load_functions("bddio 1\nvar a\n", bdd)

    def test_unknown_record_rejected(self):
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError):
            load_functions("bddio 1\nfrob x\n", bdd)


class TestReorderedManagerReload:
    def test_reload_into_a_sifted_manager(self, source):
        """Satellite: dump, let dynamic reordering permute the target,
        reload — the rebuilt functions are semantically identical."""
        from repro.dd import sift
        bdd, funcs = source
        text = dump_functions(funcs)
        target = BDD(var_names=["a", "b", "c"])
        # Populate the target and sift it so its level permutation no
        # longer matches the dump's.
        junk = (variable(target, "c") & variable(target, "a")) \
            | variable(target, "b")
        sift(target)
        target.set_order(["b", "c", "a"])
        loaded = load_functions(text, target)
        for label in funcs:
            assert (eval_everywhere(loaded[label], ["a", "b", "c"])
                    == eval_everywhere(funcs[label], ["a", "b", "c"]))
        target.assert_consistent()

    def test_dump_from_a_reordered_source(self, source):
        bdd, funcs = source
        bdd.set_order(["c", "b", "a"])
        text = dump_functions(funcs)
        target = BDD(var_names=["a", "b", "c"])
        loaded = load_functions(text, target)
        for label in funcs:
            assert (eval_everywhere(loaded[label], ["a", "b", "c"])
                    == eval_everywhere(funcs[label], ["a", "b", "c"]))


class TestMalformedRecords:
    """Satellite: corrupt integer fields fail with a clear error."""

    GOOD = "bddio 1\nvar a\nnode 2 a 0 1\nroot f 2\n"

    def test_good_baseline_loads(self):
        bdd = BDD(var_names=["a"])
        loaded = load_functions(self.GOOD, bdd)["f"]
        assert eval_everywhere(loaded, ["a"]) == (False, True)

    @pytest.mark.parametrize("bad_line", [
        "node x a 0 1",       # non-integer node id
        "node 2 a zero 1",    # non-integer low child
        "node 2 a 0 one",     # non-integer high child
    ])
    def test_malformed_node_record(self, bad_line):
        bdd = BDD(var_names=["a"])
        text = self.GOOD.replace("node 2 a 0 1", bad_line)
        with pytest.raises(BDDError) as excinfo:
            load_functions(text, bdd)
        assert "malformed integer field" in str(excinfo.value)
        assert bad_line in str(excinfo.value)

    def test_malformed_root_record(self):
        bdd = BDD(var_names=["a"])
        text = self.GOOD.replace("root f 2", "root f two")
        with pytest.raises(BDDError) as excinfo:
            load_functions(text, bdd)
        assert "malformed integer field" in str(excinfo.value)

    def test_malformed_zdd_node_record(self):
        from repro.bdd import ZDD, ZDDError
        from repro.bdd.io import load_zdd_nodes
        zdd = ZDD(var_names=["e"])
        text = "zddio 1\nelem e\nnode 2 e 0 NaN\nroot s 2\n"
        with pytest.raises(ZDDError) as excinfo:
            load_zdd_nodes(text, zdd)
        assert "malformed integer field" in str(excinfo.value)


class TestWireFormatV2:
    """The complement-edge wire format: explicit bits, version pinning."""

    def test_dump_writes_v2_header(self, source):
        bdd, funcs = source
        text = dump_functions(funcs)
        assert text.startswith("bddio 2\n")

    def test_complemented_root_round_trips(self, source):
        bdd, funcs = source
        nf = ~funcs["f"]
        text = dump_functions({"f": funcs["f"], "nf": nf})
        target = BDD(var_names=["a", "b", "c"])
        loaded = load_functions(text, target)
        assert (eval_everywhere(loaded["nf"], ["a", "b", "c"])
                == eval_everywhere(nf, ["a", "b", "c"]))
        # The complement relationship survives the wire structurally.
        assert loaded["nf"].node == target.apply_not(loaded["f"].node)

    def test_v2_dump_structurally_identical_after_reload(self, source):
        bdd, funcs = source
        text = dump_functions(funcs)
        target = BDD(var_names=["a", "b", "c"])
        loaded = load_functions(text, target)
        assert dump_functions(loaded) == text

    GOOD_V2 = ("bddio 2\nvar a\nnode 2 a 1 1 1\nroot f 2 0\n")

    def test_good_v2_baseline_loads(self):
        bdd = BDD(var_names=["a"])
        loaded = load_functions(self.GOOD_V2, bdd)["f"]
        assert eval_everywhere(loaded, ["a"]) == (True, False)

    @pytest.mark.parametrize("bad, message", [
        ("node 2 a 1 1 x", "non-boolean complement bit"),
        ("node 2 a 1 1 2", "out-of-range complement bit"),
        ("node 2 a 1 1 -1", "out-of-range complement bit"),
    ])
    def test_bad_node_complement_bit(self, bad, message):
        bdd = BDD(var_names=["a"])
        text = self.GOOD_V2.replace("node 2 a 1 1 1", bad)
        with pytest.raises(BDDError, match=message):
            load_functions(text, bdd)

    @pytest.mark.parametrize("bad, message", [
        ("root f 2 yes", "non-boolean complement bit"),
        ("root f 2 7", "out-of-range complement bit"),
    ])
    def test_bad_root_complement_bit(self, bad, message):
        bdd = BDD(var_names=["a"])
        text = self.GOOD_V2.replace("root f 2 0", bad)
        with pytest.raises(BDDError, match=message):
            load_functions(text, bdd)

    def test_unknown_future_version_rejected(self):
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError, match="unsupported bddio version 3"):
            load_functions("bddio 3\nvar a\nroot f 1 0\n", bdd)

    def test_v2_node_line_with_v1_field_count_rejected(self):
        """A v2 node record missing its complement bit (e.g. a v1 writer
        stamped the wrong header) is malformed, not silently guessed."""
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError, match="malformed node line"):
            load_functions("bddio 2\nvar a\nnode 2 a 1 1\nroot f 2 0\n",
                           bdd)

    def test_truncation_at_every_byte_boundary(self, source):
        """Chopping a v2 dump at any byte yields either a structured
        BDDError or a correct prefix of the roots — never a bare
        parser exception and never a wrong function."""
        bdd, funcs = source
        text = dump_functions(funcs)
        names = ["a", "b", "c"]
        want = {label: eval_everywhere(func, names)
                for label, func in funcs.items()}
        for cut in range(len(text)):
            target = BDD(var_names=names)
            try:
                loaded = load_functions(text[:cut], target)
            except BDDError:
                continue
            assert set(loaded) <= set(want)
            for label, func in loaded.items():
                assert eval_everywhere(func, names) == want[label]


class TestV1FixtureCompat:
    """The committed pre-complement dump must stay loadable forever."""

    FIXTURE = Path(__file__).parent / "fixtures" / "phil4_reachable_v1.bddio"

    def _target(self, text):
        var_line = next(line for line in text.splitlines()
                        if line.startswith("var "))
        return BDD(var_names=var_line.split()[1:])

    def test_fixture_is_a_v1_stream(self):
        assert self.FIXTURE.read_text().startswith("bddio 1\n")

    def test_fixture_loads_through_the_v2_reader(self):
        text = self.FIXTURE.read_text()
        target = self._target(text)
        reachable = load_functions(text, target)["reachable"]
        assert reachable.satcount(target.num_vars) == 466

    def test_fixture_round_trips_into_v2(self):
        """Load the v1 dump, re-dump (v2), reload: same function."""
        text = self.FIXTURE.read_text()
        target = self._target(text)
        reachable = load_functions(text, target)["reachable"]
        v2_text = dump_functions({"reachable": reachable})
        assert v2_text.startswith("bddio 2\n")
        fresh = self._target(text)
        again = load_functions(v2_text, fresh)["reachable"]
        assert again.satcount(fresh.num_vars) == 466


class TestZddRoundTrip:
    FAMILY = frozenset([
        frozenset(), frozenset(["a"]), frozenset(["a", "c"]),
        frozenset(["b", "c"]), frozenset(["a", "b", "c"])])

    def _zdd_with_family(self, names):
        from repro.bdd import ZDD
        zdd = ZDD(var_names=names)
        sets = frozenset(
            frozenset(zdd.var_index(n) for n in s) for s in self.FAMILY)
        return zdd, zdd.ref(zdd.from_sets(sets)), sets

    def _extract(self, zdd, node):
        names = zdd.order()
        return frozenset(frozenset(s) for s in zdd.iter_sets(node))

    def test_same_order(self):
        from repro.bdd import ZDD
        from repro.bdd.io import dump_zdd_nodes, load_zdd_nodes
        zdd, node, sets = self._zdd_with_family(["a", "b", "c"])
        text = dump_zdd_nodes(zdd, {"fam": node})
        target = ZDD(var_names=["a", "b", "c"])
        loaded = load_zdd_nodes(text, target)["fam"]
        target.ref(loaded)
        by_name = frozenset(
            frozenset(target.var_name(v) for v in s)
            for s in target.iter_sets(loaded))
        want = frozenset(
            frozenset(zdd.var_name(v) for v in s)
            for s in zdd.iter_sets(node))
        assert by_name == want

    def test_different_target_order(self):
        from repro.bdd import ZDD
        from repro.bdd.io import dump_zdd_nodes, load_zdd_nodes
        zdd, node, sets = self._zdd_with_family(["a", "b", "c"])
        text = dump_zdd_nodes(zdd, {"fam": node})
        target = ZDD(var_names=["c", "a", "b"])
        loaded = load_zdd_nodes(text, target)["fam"]
        target.ref(loaded)
        by_name = frozenset(
            frozenset(target.var_name(v) for v in s)
            for s in target.iter_sets(loaded))
        want = frozenset(
            frozenset(zdd.var_name(v) for v in s)
            for s in zdd.iter_sets(node))
        assert by_name == want
        target.assert_consistent()

    def test_zdd_header_rejected_by_bdd_loader(self):
        bdd = BDD(var_names=["a"])
        with pytest.raises(BDDError):
            load_functions("zddio 1\nelem a\nroot f 0\n", bdd)
