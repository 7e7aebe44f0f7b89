"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def muller_file(tmp_path):
    path = tmp_path / "m3.pnet"
    assert main(["generate", "muller", "3", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_generate_to_stdout(self, capsys):
        assert main(["generate", "slot", "2"]) == 0
        out = capsys.readouterr().out
        assert "net slot-2" in out
        assert "place s0_c0 1" in out

    def test_generate_to_file(self, muller_file):
        assert muller_file.exists()
        text = muller_file.read_text()
        assert "net muller-3" in text
        assert "place y0_0" in text

    def test_generate_jjreg_variant(self, tmp_path, capsys):
        path = tmp_path / "jj.pnet"
        assert main(["generate", "jjreg", "3", "--variant", "b",
                     "-o", str(path)]) == 0
        assert "jjreg-b-3" in capsys.readouterr().out

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "nosuch", "3"])


class TestInfo:
    def test_structure_report(self, muller_file, capsys):
        assert main(["info", str(muller_file)]) == 0
        out = capsys.readouterr().out
        assert "12 places" in out
        assert "single-token SMCs: 6" in out
        assert "free_choice" in out

    def test_invariants_flag(self, muller_file, capsys):
        assert main(["info", str(muller_file), "--invariants"]) == 0
        out = capsys.readouterr().out
        assert "P-invariants" in out
        assert "T-invariants" in out


class TestEncode:
    @pytest.mark.parametrize("scheme,expected", [
        ("sparse", "12 variables"),
        ("improved", "6 variables"),
        ("dense", "6 variables"),
    ])
    def test_schemes(self, muller_file, capsys, scheme, expected):
        assert main(["encode", str(muller_file), "--scheme", scheme]) == 0
        assert expected in capsys.readouterr().out


class TestAnalyze:
    def test_bdd_engine(self, muller_file, capsys):
        assert main(["analyze", str(muller_file)]) == 0
        out = capsys.readouterr().out
        assert "markings=30" in out
        assert "scheme=improved" in out

    def test_default_strategy_is_the_spec_default(self, muller_file,
                                                  capsys):
        """With no ``--strategy`` the CLI runs ``AnalysisSpec()`` itself,
        so it shares that spec's cache and checkpoint key."""
        from repro.analysis import AnalysisSpec
        assert main(["analyze", str(muller_file)]) == 0
        out = capsys.readouterr().out
        assert f"spec={AnalysisSpec().semantic_fingerprint()}" in out
        assert main(["analyze", str(muller_file), "--strategy",
                     "bfs"]) == 0
        bfs = AnalysisSpec(strategy="bfs").semantic_fingerprint()
        assert f"spec={bfs}" in capsys.readouterr().out

    @pytest.mark.parametrize("strategy, message", [
        ("chaining", "retired"), ("dfs", "unknown strategy")])
    def test_strategy_outside_the_catalogue_exits_2(self, muller_file,
                                                    capsys, strategy,
                                                    message):
        """``AnalysisSpec`` validates ``--strategy``: the retired
        chaining sweep names its replacement, a typo the catalogue."""
        assert main(["analyze", str(muller_file), "--strategy",
                     strategy]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "'saturation'" in err

    def test_zdd_engine(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--engine", "zdd"]) == 0
        assert "markings=30" in capsys.readouterr().out

    def test_sparse_bfs_no_reorder(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--scheme", "sparse",
                     "--strategy", "bfs", "--no-reorder"]) == 0
        out = capsys.readouterr().out
        assert "variables=12" in out
        assert "markings=30" in out

    @pytest.mark.parametrize("image", ["monolithic", "chained",
                                       "saturation"])
    def test_relational_image_engines(self, muller_file, capsys, image):
        """Saturation is the BDD relational form's one image engine; the
        retired sweeps exit 2 instead of running: ``chained`` names the
        ZDD-only sweep, ``monolithic`` is no longer a choice at all."""
        try:
            code = main(["analyze", str(muller_file), "--image", image])
        except SystemExit as exit:
            code = exit.code
        captured = capsys.readouterr()
        if image == "saturation":
            assert code == 0
            assert "markings=30" in captured.out
            assert "image=relational/saturation" in captured.out
        else:
            assert code == 2
            assert ("retired" if image == "chained"
                    else "invalid choice") in captured.err

    @pytest.mark.parametrize("engine, image_id", [("zdd", "zdd/chained")])
    def test_chained_image_on_a_fixed_order(self, muller_file, capsys,
                                            engine, image_id):
        assert main(["analyze", str(muller_file), "--engine", engine,
                     "--image", "chained", "--no-reorder"]) == 0
        out = capsys.readouterr().out
        assert "markings=30" in out
        assert f"image={image_id}" in out

    @pytest.mark.parametrize("engine, image_id", [
        ("bdd", "relational/saturation"), ("zdd", "zdd/saturation")])
    def test_saturation_image_is_the_relational_default(
            self, muller_file, capsys, engine, image_id):
        """``--image saturation`` names the engine ``--engine zdd`` and
        the relational form run by default, under the same spec key."""
        from repro.analysis import AnalysisSpec
        assert main(["analyze", str(muller_file), "--engine", engine,
                     "--image", "saturation"]) == 0
        out = capsys.readouterr().out
        assert "markings=30" in out
        assert f"image={image_id}" in out
        default = AnalysisSpec(backend=engine, form="relational")
        assert f"spec={default.semantic_fingerprint()}" in out

    @pytest.mark.parametrize("flags", [["--engine", "zdd"],
                                       ["--k-bound", "2"]],
                             ids=["zdd", "kbounded"])
    def test_deadlocks_require_a_bdd_backend(self, muller_file, capsys,
                                             flags):
        assert main(["analyze", str(muller_file), *flags,
                     "--deadlocks"]) == 2
        assert "only supported" in capsys.readouterr().err

    def test_deadlocks_on_the_relational_image(self, tmp_path, capsys):
        path = tmp_path / "phil.pnet"
        main(["generate", "phil", "2", "-o", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path), "--image", "saturation",
                     "--deadlocks"]) == 0
        out = capsys.readouterr().out
        assert "image=relational/saturation" in out
        assert "markings=22" in out
        assert "deadlocks: 2 deadlocked marking(s)" in out

    def test_deadlock_report(self, tmp_path, capsys):
        path = tmp_path / "phil.pnet"
        main(["generate", "phil", "2", "-o", str(path)])
        capsys.readouterr()
        assert main(["analyze", str(path), "--deadlocks"]) == 0
        out = capsys.readouterr().out
        assert "markings=22" in out
        assert "deadlocked" in out

    def test_k_bound_analysis(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--k-bound", "2"]) == 0
        out = capsys.readouterr().out
        assert "markings=30" in out
        assert "image=kbounded/2" in out

    def test_structured_warnings_go_to_stderr(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--engine", "zdd",
                     "--scheme", "sparse", "--strategy", "bfs"]) == 0
        err = capsys.readouterr().err
        assert "warning: scheme='sparse' ignored" in err
        assert "warning: strategy='bfs' ignored" in err

    def test_no_reorder_applies_to_zdd(self, muller_file, capsys):
        # --no-reorder is a real knob on the ZDD backend now (shared
        # repro.dd kernel): no inapplicable-option warning.
        assert main(["analyze", str(muller_file), "--engine", "zdd",
                     "--no-reorder"]) == 0
        assert capsys.readouterr().err == ""

    def test_default_configurations_warn_nothing(self, muller_file,
                                                 capsys):
        for extra in ([], ["--engine", "zdd"], ["--image", "saturation"],
                      ["--engine", "zdd", "--image", "chained"]):
            assert main(["analyze", str(muller_file)] + extra) == 0
            assert capsys.readouterr().err == ""

    def test_invalid_spec_combination_exits_2(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--engine", "zdd",
                     "--k-bound", "2"]) == 2
        assert "only supported on the BDD backend" \
            in capsys.readouterr().err


class TestAnalyzePortfolio:
    def test_race_reports_winner_and_members(self, capsys):
        assert main(["analyze", "--net", "phil", "--n", "3",
                     "--backend", "portfolio"]) == 0
        out = capsys.readouterr().out
        assert "engine=portfolio" in out
        assert "image=portfolio/" in out
        assert "markings=" in out
        assert "portfolio: winner=" in out
        # One status line per default member.
        for member in ("bdd-functional", "zdd-chained", "kbounded"):
            assert f"  {member}: " in out

    def test_generated_net_flag(self, capsys):
        assert main(["analyze", "--net", "figure1"]) == 0
        assert "markings=8" in capsys.readouterr().out

    def test_file_and_net_flag_conflict(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--net", "phil",
                     "--n", "3"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_net_flag_requires_size(self, capsys):
        assert main(["analyze", "--net", "phil"]) == 2
        assert "--n" in capsys.readouterr().err

    def test_no_net_at_all(self, capsys):
        assert main(["analyze"]) == 2
        assert "net.pnet" in capsys.readouterr().err

    def test_timeout_needs_portfolio_backend(self, muller_file, capsys):
        assert main(["analyze", str(muller_file),
                     "--timeout", "60"]) == 2
        assert "worker processes" in capsys.readouterr().err

    def test_exhausted_race_exits_1(self, capsys):
        # A sub-millisecond global budget expires before any worker can
        # report, so the race fails with every member's status listed.
        assert main(["analyze", "--net", "phil", "--n", "3",
                     "--backend", "portfolio",
                     "--timeout", "0.001"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "timeout" in err


class TestDurabilityFlags:
    def test_checkpoint_then_resume(self, muller_file, tmp_path, capsys):
        path = str(tmp_path / "run.ckpt")
        assert main(["analyze", str(muller_file),
                     "--checkpoint", path]) == 0
        import os
        assert os.path.exists(path)
        first = capsys.readouterr().out
        assert main(["analyze", str(muller_file),
                     "--checkpoint", path, "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: continued from" in out
        # Same verdict either way.
        assert (first.split("markings=")[1].split()[0]
                == out.split("markings=")[1].split()[0])

    def test_resume_from_damaged_checkpoint_cold_starts(
            self, muller_file, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_text("garbage\n")
        assert main(["analyze", str(muller_file),
                     "--checkpoint", str(path), "--resume"]) == 0
        captured = capsys.readouterr()
        assert "cold start" in captured.err
        assert "markings=" in captured.out

    def test_node_budget_partial_exits_3(self, tmp_path, capsys):
        net = str(tmp_path / "phil6.pnet")
        main(["generate", "phil", "6", "-o", net])
        capsys.readouterr()
        path = str(tmp_path / "phil6.ckpt")
        assert main(["analyze", net, "--node-budget", "50",
                     "--checkpoint", path]) == 3
        captured = capsys.readouterr()
        assert "partial" in captured.err
        assert "lower bound" in captured.err
        import os
        assert os.path.exists(path)
        # Resuming with the budget lifted completes with exit 0.
        assert main(["analyze", net, "--checkpoint", path,
                     "--resume"]) == 0

    def test_deadline_partial_exits_3(self, muller_file, capsys):
        assert main(["analyze", str(muller_file),
                     "--deadline", "0.000001"]) == 3
        assert "deadline" in capsys.readouterr().err

    def test_checkpoint_every_requires_checkpoint(self, muller_file,
                                                  capsys):
        assert main(["analyze", str(muller_file),
                     "--checkpoint-every", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, muller_file, capsys):
        assert main(["analyze", str(muller_file), "--resume"]) == 2
        assert "error" in capsys.readouterr().err
