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
        # The default ZDD engine comes from AnalysisSpec (chained), the
        # same default the CLI's --engine zdd resolves to — the old
        # classic-vs-chained skew between runner and CLI is gone.
        default = AnalysisSpec(backend="zdd")
        row = run("fig1", figure1_net(), default)
        assert row.engine == f"zdd-{default.resolved_engine}"
        assert row.engine == "zdd-chained"
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


class TestScaling:
    def test_measure_muller_uses_closed_form(self):
        from repro.experiments.scaling import measure
        row = measure("muller", 3)
        assert row.markings == 30
        assert row.sparse_variables == 12
        assert row.dense_variables == 6
        assert row.reduction == 0.5

    def test_density_ordering(self):
        from repro.experiments.scaling import measure
        row = measure("slot", 2)
        assert row.dense_density() > row.sparse_density()
        assert row.dense_density() <= 1.0

    def test_run_covers_all_families(self):
        from repro.experiments.scaling import run
        rows = run({"muller": (2,), "phil": (2,), "slot": (2,),
                    "dmespec": (2,)})
        assert len(rows) == 4
        assert all(r.reduction <= 0.6 for r in rows)
