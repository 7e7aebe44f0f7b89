"""Unit tests for the experiment harness (runner, tables, figure)."""

import pytest

from repro.experiments.figure2 import run as figure2_run
from repro.analysis import AnalysisSpec
from repro.experiments.runner import (ExperimentRow, compare_engines,
                                      format_table, run)
from repro.experiments.table3 import (HARNESS_SIZES, PAPER_SIZES,
                                      PAPER_TABLE3, instances)
from repro.experiments.table4 import PAPER_TABLE4
from repro.petri.generators import figure1_net, muller


# The Table 3 specs: BFS with toggle firing, per scheme.
SPARSE = AnalysisSpec(scheme="sparse", strategy="bfs", reorder=False)
DENSE = AnalysisSpec(scheme="improved", strategy="bfs", reorder=False)


def sparse_row(name, net):
    return run(name, net, SPARSE, label="sparse")


def dense_row(name, net, **options):
    return run(name, net, DENSE, label="dense", **options)


class TestRunner:
    def test_run_sparse_row(self):
        row = sparse_row("fig1", figure1_net())
        assert row.engine == "sparse"
        assert row.markings == 8
        assert row.variables == 7
        assert row.nodes > 2
        assert row.seconds >= 0

    def test_run_dense_row(self):
        row = dense_row("fig1", figure1_net())
        assert row.engine == "dense"
        assert row.markings == 8
        assert row.variables == 4

    def test_run_zdd_row_default_is_project_default(self):
        # The default ZDD engine comes from AnalysisSpec (saturation),
        # the same default the CLI's --engine zdd resolves to — the old
        # classic-vs-chained skew between runner and CLI is gone.
        default = AnalysisSpec(backend="zdd")
        row = run("fig1", figure1_net(), default)
        assert row.engine == f"zdd-{default.resolved_engine}"
        assert row.engine == "zdd-saturation"
        assert row.markings == 8
        assert row.variables == 7

    def test_run_zdd_row_classic_baseline(self):
        row = run("fig1", figure1_net(),
                  AnalysisSpec(backend="zdd", form="functional"))
        assert row.engine == "zdd"
        assert row.markings == 8
        assert row.variables == 7
        assert row.peak_nodes > 0

    def test_density(self):
        row = ExperimentRow("x", "dense", markings=22, variables=10,
                            nodes=5, seconds=0.0)
        assert row.density() == pytest.approx(0.5)

    def test_dense_supports_custom_factory(self):
        from repro.encoding import DenseEncoding
        from repro.petri.smc import find_smcs
        row = dense_row(
            "fig1", figure1_net(),
            encoding_factory=lambda net: DenseEncoding(
                net, components=find_smcs(net)))
        assert row.variables == 4


class TestFormatting:
    def test_format_table_groups_instances(self):
        rows = [sparse_row("fig1", figure1_net()),
                dense_row("fig1", figure1_net())]
        text = format_table("demo", rows, engines=("sparse", "dense"))
        assert "demo" in text
        assert "fig1" in text
        assert text.count("fig1") == 1  # one line per instance

    def test_format_table_missing_engine(self):
        rows = [sparse_row("fig1", figure1_net())]
        text = format_table("demo", rows, engines=("sparse", "dense"))
        assert "-" in text

    def test_compare_engines(self):
        rows = [sparse_row("fig1", figure1_net()),
                dense_row("fig1", figure1_net())]
        ratios = compare_engines(rows, "sparse", "dense")
        assert ratios["fig1"]["variables"] == pytest.approx(7 / 4)
        assert ratios["fig1"]["nodes"] > 1


class TestTable3Config:
    def test_instances_cover_three_families(self):
        pairs = instances(HARNESS_SIZES)
        families = {name.split("-")[0] for name, _ in pairs}
        assert families == {"muller", "phil", "slot"}

    def test_paper_sizes_match_table(self):
        for family, sizes in PAPER_SIZES.items():
            for size in sizes:
                assert f"{family}-{size}" in PAPER_TABLE3

    def test_paper_table3_shapes(self):
        """The paper's own numbers: dense V is half sparse V."""
        for name, (markings, sparse, dense) in PAPER_TABLE3.items():
            assert dense[0] <= 0.55 * sparse[0]

    def test_paper_table4_shapes(self):
        """The paper's own numbers: dense nodes below ZDD nodes."""
        for name, (markings, zdd, dense) in PAPER_TABLE4.items():
            assert dense[0] < zdd[0]
            assert dense[1] < zdd[1]


class TestFigure2:
    def test_summaries(self):
        summaries = figure2_run()
        assert [s.variables for s in summaries] == [7, 4, 3, 3]
        toggle_aware = summaries[2]
        arbitrary = summaries[3]
        assert toggle_aware.toggle_cost <= 15 / 11 + 1e-9
        assert arbitrary.toggle_cost > toggle_aware.toggle_cost


class TestAblation:
    def test_variable_ablation_monotone(self):
        from repro.experiments.ablation import encoding_variable_ablation
        rows = encoding_variable_ablation()
        by_config = {}
        for row in rows:
            by_config.setdefault(row.instance, {})[row.configuration] = \
                row.value
        for instance, values in by_config.items():
            assert values["dense/improved"] <= values["dense/covering"]
            assert values["dense/covering"] < values["sparse"]
            assert values["dense/zero-var"] <= values["dense/improved"]

    def test_gray_ablation_not_worse(self):
        from repro.experiments.ablation import gray_code_ablation
        rows = gray_code_ablation()
        by_instance = {}
        for row in rows:
            key = "gray" if "gray" in row.configuration else "binary"
            by_instance.setdefault(row.instance, {})[key] = row.value
        for instance, values in by_instance.items():
            assert values["gray"] <= values["binary"]


class TestTable3Run:
    SMALL = {"muller": (2,), "phil": (2,), "slot": (2,)}

    def test_every_instance_gets_a_sparse_and_a_dense_row(self):
        from repro.experiments import table3
        rows = table3.run(self.SMALL, reorder=False)
        by_instance = {}
        for row in rows:
            by_instance.setdefault(row.instance, {})[row.engine] = row
        assert set(by_instance) == {"muller-2", "phil-2", "slot-2"}
        for engines in by_instance.values():
            assert set(engines) == {"sparse", "dense"}
            sparse, dense = engines["sparse"], engines["dense"]
            assert sparse.markings == dense.markings
            assert dense.variables < sparse.variables

    def test_rows_count_the_reachable_markings(self):
        from repro.experiments import table3
        from repro.petri import count_reachable_markings
        nets = dict(table3.instances(self.SMALL))
        for row in table3.run(self.SMALL, reorder=False):
            assert row.markings == count_reachable_markings(
                nets[row.instance])

    @pytest.mark.parametrize("name",
                             ["muller-30", "muller-50", "slot-5", "slot-7"])
    def test_paper_sizes_use_the_papers_variable_counts(self, name):
        """Muller and slotted-ring nets at the paper's sizes have the
        sparse and dense variable counts Table 3 reports."""
        from repro.encoding import ImprovedEncoding, SparseEncoding
        from repro.experiments.table3 import FACTORIES
        family, size = name.split("-")
        net = FACTORIES[family](int(size))
        _markings, sparse, dense = PAPER_TABLE3[name]
        assert SparseEncoding(net).num_variables == sparse[0]
        assert ImprovedEncoding(net).num_variables == dense[0]

    def test_full_scale_switches_to_the_paper_sizes(self, monkeypatch):
        from repro.experiments import table3
        monkeypatch.setenv("REPRO_FULL", "1")
        names = [name for name, _ in table3.instances()]
        assert names == [f"{family}-{size}"
                         for family, sizes in PAPER_SIZES.items()
                         for size in sizes]

    def test_main_prints_every_harness_instance(self, capsys,
                                                monkeypatch):
        from repro.experiments import table3
        monkeypatch.delenv("REPRO_FULL", raising=False)
        table3.main()
        out = capsys.readouterr().out
        assert out.startswith("Table 3")
        for name, _ in instances(HARNESS_SIZES):
            assert name in out


class TestTable4Instances:
    def test_harness_instances(self, monkeypatch):
        from repro.experiments import table4
        monkeypatch.delenv("REPRO_FULL", raising=False)
        names = [name for name, _ in table4.instances()]
        assert names == ["DMEspec-3", "DMEspec-4", "DMEcir-2", "DMEcir-3",
                         "JJreg-a", "JJreg-b"]

    def test_full_scale_builds_the_paper_regime(self, monkeypatch):
        from repro.experiments import table4
        monkeypatch.setenv("REPRO_FULL", "1")
        nets = dict(table4.instances())
        assert list(nets) == ["DMEspec-8", "DMEspec-9", "DMEcir-5",
                              "DMEcir-7", "JJreg-a", "JJreg-b"]
        # 40-bit registers: the ~250-place regime of the paper's JJreg.
        assert len(nets["JJreg-a"].places) == 248
        assert len(nets["JJreg-b"].places) == 248
        # Gate-level wires make a five-cell circuit several times the
        # size of a nine-cell spec, as in the paper (491 to 154 places).
        assert len(nets["DMEcir-5"].places) > 3 * len(
            nets["DMEspec-9"].places)


class TestAblationGrid:
    def test_image_ablation_times_every_configuration(self):
        from repro.experiments.ablation import (IMAGE_CONFIGURATIONS,
                                                INSTANCES,
                                                image_implementation_ablation)
        rows = image_implementation_ablation()
        assert [(row.instance, row.configuration) for row in rows] == [
            (name, label) for name, _ in INSTANCES
            for label, _ in IMAGE_CONFIGURATIONS]
        assert all(row.unit == "s" and row.value >= 0 for row in rows)

    def test_reordering_ablation_reports_final_nodes(self):
        from repro.analysis import analyze
        from repro.experiments.ablation import INSTANCES, reordering_ablation
        rows = reordering_ablation()
        assert [(row.instance, row.configuration) for row in rows] == [
            (name, label) for name, _ in INSTANCES
            for label in ("reorder=on", "reorder=off")]
        off = {row.instance: row.value for row in rows
               if row.configuration == "reorder=off"}
        for name, factory in INSTANCES:
            result = analyze(factory(), AnalysisSpec(strategy="bfs",
                                                     reorder=False))
            assert off[name] == result.final_nodes
        # The trigger is one the instances cross: sifting moves at least
        # one final size.
        on = {row.instance: row.value for row in rows
              if row.configuration == "reorder=on"}
        assert any(on[name] != off[name] for name in off)

    def test_main_prints_the_four_sections(self, capsys):
        from repro.experiments import ablation
        ablation.main()
        out = capsys.readouterr().out
        for number in range(1, 5):
            assert f"\n{number}. " in f"\n{out}"


def test_figure2_main_prints_the_four_schemes(capsys):
    from repro.experiments import figure2
    figure2.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("Figure 2")
    for label in ("(a)", "(b)", "(c)", "(d)"):
        assert any(line.startswith(label) for line in lines)
