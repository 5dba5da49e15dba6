import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from panelrank import cli, make_panel, panel_to_csv
from panelrank.cli import main

WORKED_3X2 = "entity,g1,g2\na,2,0\nb,1,1\nc,0,2\n"
WORKED_2X2 = "entity,g1,g2\na,1,1\nb,1,0\n"
INDICATORS_2X2 = ("entity,category,indicator,value\n"
                  "a,g1,k1,40\na,g1,k2,60\na,g2,k1,10\n"
                  "b,g1,k1,20\nb,g2,k1,30\n")
DISTINCT_3X2 = "entity,g1,g2\na,50,40\nb,30,20\nc,10,5\n"
# One field longer than the csv module's default limit of 128 KiB.
BIG_FIELD = "x" * (128 * 1024 + 1)
# sha256 of every file `compute` writes for the bundled dataset, recorded
# from the code before any rewrite of the scoring or emit paths.
FIXTURE_DIGESTS = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "fixture_sha256.json")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    return [line.split(",") for line in path.read_text().strip().split("\n")]


def run_cli(*args):
    """Run the CLI in a fresh interpreter, so stderr is exactly what a
    user would see."""
    return subprocess.run([sys.executable, "-m", "panelrank.cli", *args],
                          capture_output=True, text=True)


class TestCompute:
    def test_worked_panel_spectral_scores(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compute", "--panel", "2024=" + panel, "--method",
                   "spectral", "--out", str(tmp_path / "out"),
                   "--charts", "none"])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "scores_entities_2024.csv")
        assert rows[0] == ["entity", "total_score", "applicable_count",
                           "composite_mean", "complexity_spectral"]
        assert [r[4] for r in rows[1:]] == ["1.000000"] * 3

    def test_zero_row_exits_2_naming_entity(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv",
                      "entity,g1,g2\na,0,0\nb,1,1\nc,2,0\n")
        rc = main(["compute", "--panel", "2024=" + panel,
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "entity: a" in capsys.readouterr().err

    def test_all_zero_matrix_exits_1(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", "entity,g1,g2\na,0,0\nb,0,0\n")
        rc = main(["compute", "--panel", "2024=" + panel,
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = main(["compute", "--panel", "2024=" + str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_bad_panel_flag_exits_1(self, tmp_path, capsys):
        rc = main(["compute", "--panel", "whoops", "--out", str(tmp_path)])
        assert rc == 1
        assert "YEAR=PATH" in capsys.readouterr().err

    def test_bad_chart_kind_exits_1(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compute", "--panel", "2024=" + panel,
                   "--out", str(tmp_path / "out"), "--charts", "pie"])
        assert rc == 1

    def test_charts_none_writes_tables_only(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compute", "--panel", "2024=" + panel,
                   "--out", str(tmp_path / "out"), "--charts", "none"])
        assert rc == 0
        assert not list((tmp_path / "out").glob("*.svg"))
        assert (tmp_path / "out" / "method_agreement.csv").exists()

    def test_nonconvergence_exits_3(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compute", "--panel", "2024=" + panel, "--method",
                   "iterative", "--max-steps", "40",
                   "--out", str(tmp_path / "out"), "--charts", "none"])
        assert rc == 3
        assert "did not reach" in capsys.readouterr().err

    def test_allow_nonconverged_continues(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compute", "--panel", "2024=" + panel, "--method",
                   "iterative", "--max-steps", "40", "--allow-nonconverged",
                   "--out", str(tmp_path / "out"), "--charts", "none"])
        assert rc == 0
        assert (tmp_path / "out" / "ranks_D_s_2024.csv").exists()
        assert "did not converge" in capsys.readouterr().err

    def test_structural_zeros_allow_nonconverged_exits_0(self, tmp_path,
                                                          structural_zeros):
        panel = write(tmp_path, "p.csv", panel_to_csv(structural_zeros))
        result = run_cli("compute", "--panel", "2024=" + panel,
                         "--allow-nonconverged", "--max-steps", "5000",
                         "--out", str(tmp_path / "out"), "--charts", "none")
        assert result.returncode == 0, result.stderr
        assert result.stderr == (
            "warning: year 2024: fixed-point iteration did not converge; "
            "using last iterate (--allow-nonconverged)\n")
        assert (tmp_path / "out" / "ranks_D_s_iterative_2024.csv").exists()

    def test_structural_zeros_exit_3_with_finite_residual(self, tmp_path,
                                                           structural_zeros):
        panel = write(tmp_path, "p.csv", panel_to_csv(structural_zeros))
        result = run_cli("compute", "--panel", "2024=" + panel,
                         "--max-steps", "5000",
                         "--out", str(tmp_path / "out"), "--charts", "none")
        assert result.returncode == 3
        assert "RuntimeWarning" not in result.stderr
        found = re.search(r"after (\d+) steps \(last residual (\S+?)[;)]",
                          result.stderr)
        assert found, result.stderr
        assert int(found[1]) < 5000
        assert math.isfinite(float(found[2]))

    @pytest.mark.parametrize("flag, text", [
        ("--panel", f"entity,g1,g2\n{BIG_FIELD},1,2\nb,3,4\n"),
        ("--indicators", "entity,category,indicator,value\n"
                         f"a,g1,{BIG_FIELD},10\n")], ids=["panel", "indicators"])
    def test_oversized_csv_field_exits_1(self, tmp_path, capsys, flag, text):
        path = write(tmp_path, "in.csv", text)
        rc = main(["compute", flag, "2024=" + path,
                   "--out", str(tmp_path / "out")])
        assert rc == 1  # main returned: no exception escaped
        assert capsys.readouterr().err.startswith(
            "error: unreadable CSV at line 2: field larger")

    @pytest.mark.parametrize("route", ["panel", "indicators", "entity-map"])
    def test_byte_order_mark_ignored(self, tmp_path, capsys, data_dir, route):
        # Excel's "CSV UTF-8" export starts the file with one.
        def outputs(bom):
            prefix = "\ufeff" if bom else ""
            label = "bom" if bom else "plain"
            if route == "panel":
                args = ["--panel", "2024=" + write(
                    tmp_path, f"p_{label}.csv", prefix + WORKED_3X2)]
            elif route == "indicators":
                args = ["--indicators", "2024=" + write(
                    tmp_path, f"i_{label}.csv", prefix + INDICATORS_2X2)]
            else:
                emap = (data_dir / "map_2019_2020.json").read_text()
                args = ["--panel", f"2019={data_dir / 'panel_2019.csv'}",
                        "--panel", f"2020={data_dir / 'panel_2020.csv'}",
                        "--entity-map", "2019->2020=" + write(
                            tmp_path, f"m_{label}.json", prefix + emap)]
            out = tmp_path / label
            assert main(["compute", *args, "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        assert outputs(bom=True) == outputs(bom=False)

    @pytest.mark.parametrize("flag, text", [
        ("--panel", "entity,g1,g2\n,1,2\nb,3,4\n"),
        ("--panel", "entity,,g2\na,1,2\nb,3,4\n"),
        ("--indicators", "entity,category,indicator,value\n"
                         "a,g1,k1,10\na,g2,k1,20\n,g1,k1,30\n,g2,k1,40\n")],
        ids=["entity", "category", "indicators"])
    def test_empty_id_exits_1(self, tmp_path, capsys, flag, text):
        path = write(tmp_path, "in.csv", text)
        rc = main(["compute", flag, "2024=" + path,
                   "--out", str(tmp_path / "out")])
        assert rc == 1  # main returned: no exception escaped
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: an? (entity|category) id is empty\n", err)

    def test_indicator_input(self, tmp_path, capsys):
        indicators = write(tmp_path, "ind.csv", INDICATORS_2X2)
        rc = main(["compute", "--indicators", "2019=" + indicators,
                   "--out", str(tmp_path / "out"), "--charts", "none"])
        assert rc == 0
        rows = read_csv(tmp_path / "out" / "scores_entities_2019.csv")
        assert rows[1][0] == "a"
        assert rows[1][1] == "60.000000"  # mean(40, 60) + 10

    def test_mixed_inputs_keep_command_line_order(self, tmp_path, capsys):
        indicators = write(tmp_path, "ind.csv", INDICATORS_2X2)
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compute", "--indicators", "2024=" + indicators,
                   "--panel", "2018=" + panel, "--method", "spectral",
                   "--out", str(tmp_path / "out"), "--charts", "rank_bump"])
        assert rc == 0
        bump = ET.parse(tmp_path / "out" / "rank_bump_k_s.svg").getroot()
        ticks = [el.text for el in bump.iter() if el.get("class") == "x-tick"]
        assert ticks == ["2024", "2018"]

    @pytest.mark.parametrize("labels", [("2019", "2019"), ("2019/a", "2019_a")])
    def test_colliding_year_labels_exit_1(self, tmp_path, capsys, labels):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compute", "--panel", f"{labels[0]}={panel}",
                   "--panel", f"{labels[1]}={panel}",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "year labels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_near_block_fixed_point_exits_3(self, tmp_path, capsys,
                                             near_block):
        panel = write(tmp_path, "p.csv", panel_to_csv(near_block))
        rc = main(["compute", "--panel", "2024=" + panel, "--method", "both",
                   "--out", str(tmp_path / "out"), "--charts", "none"])
        assert rc == 3
        assert "fixed-point iteration did not reach" in capsys.readouterr().err

    def test_near_block_allow_nonconverged(self, tmp_path, capsys,
                                           near_block):
        panel = write(tmp_path, "p.csv", panel_to_csv(near_block))
        rc = main(["compute", "--panel", "2024=" + panel, "--method", "both",
                   "--allow-nonconverged",
                   "--out", str(tmp_path / "out"), "--charts", "none"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "warning: year 2024: fixed-point iteration did not converge" in err
        assert "spectral" not in err
        rows = read_csv(tmp_path / "out" / "scores_entities_2024.csv")
        assert rows[0][4:] == ["complexity_spectral", "complexity_iterative"]

    def test_four_year_fixture_with_maps(self, tmp_path, capsys, data_dir):
        rc = main([
            "compute",
            "--panel", f"2018={data_dir / 'panel_2018.csv'}",
            "--panel", f"2019={data_dir / 'panel_2019.csv'}",
            "--panel", f"2020={data_dir / 'panel_2020.csv'}",
            "--panel", f"2024={data_dir / 'panel_2024.csv'}",
            "--entity-map", f"2019->2020={data_dir / 'map_2019_2020.json'}",
            "--out", str(tmp_path / "out"),
            "--charts", "rank_bump,grouped_bars"])
        assert rc == 0
        bump = (tmp_path / "out" / "rank_bump_k_s.svg").read_text()
        assert bump.count('class="x-tick"') == 4
        assert (tmp_path / "out" / "grouped_bars_weights.svg").exists()

    def test_fixture_outputs_match_recorded_digests(self, tmp_path, capsys,
                                                    data_dir):
        out = tmp_path / "out"
        panels = [arg for year in ("2018", "2019", "2020", "2024")
                  for arg in ("--panel",
                              f"{year}={data_dir / f'panel_{year}.csv'}")]
        rc = main(["compute", *panels,
                   "--entity-map", f"2019->2020={data_dir / 'map_2019_2020.json'}",
                   "--method", "both", "--charts", "all", "--out", str(out)])
        assert rc == 0
        expected = json.loads(FIXTURE_DIGESTS.read_text())
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir()}
        assert len(expected) == 44
        assert got == expected


class TestCompare:
    def test_same_basis_rho_one(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", DISTINCT_3X2)
        rc = main(["compare", "k_s", "k_s", "--panel", "2024=" + panel])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spearman rho (k_s vs k_s) = 1.000000" in out

    def test_ks_vs_ds_on_worked_2x2(self, tmp_path, capsys):
        # both bases rank entity 'a' first, so rho = 1
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compare", "k_s", "D_s", "--panel", "2024=" + panel,
                   "--method", "spectral"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spearman rho (k_s vs D_s) = 1.000000" in out
        assert "score_k_s" in out

    @pytest.mark.parametrize("bases", [("k_s", "composite_mean"),
                                       ("k_s", "D_s")])
    def test_runs_only_the_solver_its_bases_read(self, tmp_path, capsys,
                                                 bases):
        # the fixed point does not converge on this panel; neither basis
        # reads it (D_s reads the spectral scores under --method both)
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compare", *bases, "--panel", "2024=" + panel])
        assert rc == 0
        assert f"spearman rho ({bases[0]} vs {bases[1]})" in capsys.readouterr().out

    def test_ds_iterative_nonconvergence_exits_3(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compare", "k_s", "D_s", "--panel", "2024=" + panel,
                   "--method", "iterative"])
        assert rc == 3
        assert "fixed-point iteration did not reach" in capsys.readouterr().err

    def test_writes_side_by_side(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "composite_mean",
                   "--panel", "2024=" + panel, "--out", str(tmp_path / "out")])
        assert rc == 0
        path = tmp_path / "out" / "compare_k_s_vs_composite_mean_2024.csv"
        rows = read_csv(path)
        assert rows[0] == ["entity", "score_k_s", "rank_k_s",
                           "score_composite_mean", "rank_composite_mean"]
        assert len(rows) == 4

    def test_written_file_equals_printed_table(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "composite_mean",
                   "--panel", "2024=" + panel, "--out", str(tmp_path / "out")])
        assert rc == 0
        path = tmp_path / "out" / "compare_k_s_vs_composite_mean_2024.csv"
        rho_line, table = capsys.readouterr().out.split("\n", 1)
        assert rho_line.startswith("spearman rho")
        assert table == path.read_text(encoding="utf-8") + f"{path}\n"

    def test_mismatched_rosters_without_map_exit_1(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", WORKED_3X2)
        b = write(tmp_path, "b.csv", "entity,g1,g2\nx,2,0\ny,1,1\nz,0,2\n")
        rc = main(["compare", "k_s", "k_s", "--panel", "2018=" + a,
                   "--panel", "2024=" + b])
        assert rc == 1
        assert "one-to-one" in capsys.readouterr().err

    def test_across_years_with_rename_map(self, tmp_path, capsys):
        a = write(tmp_path, "a.csv", DISTINCT_3X2)
        b = write(tmp_path, "b.csv", "entity,g1,g2\naa,50,40\nb,30,20\nc,10,5\n")
        emap = write(tmp_path, "map.json",
                     '{"renames": [{"from": ["a"], "to": ["aa"]}]}')
        rc = main(["compare", "k_s", "k_s", "--panel", "2018=" + a,
                   "--panel", "2024=" + b,
                   "--entity-map", "2018->2024=" + emap])
        assert rc == 0
        assert "= 1.000000" in capsys.readouterr().out

    def test_three_panels_rejected(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "k_s", "--panel", "1=" + panel,
                   "--panel", "2=" + panel, "--panel", "3=" + panel])
        assert rc == 1


class TestValidate:
    def test_clean_fixture(self, tmp_path, capsys, data_dir):
        rc = main(["validate",
                   "--panel", f"2024={data_dir / 'panel_2024.csv'}"])
        assert rc == 0

    def test_out_of_range_cell_exit_1_with_coordinates(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", "entity,g1,g2\na,10,20\nb,30,105\n")
        rc = main(["validate", "--panel", "2024=" + panel])
        assert rc == 1
        out = capsys.readouterr().out
        assert "row 3" in out and "g2" in out

    def test_high_missingness_warns_exit_0(self, tmp_path, capsys):
        rows = ["entity,g1,g2"]
        for i in range(36):
            g1 = "" if i < 30 else f"{40 + i}"
            rows.append(f"e{i:02d},{g1},{50 + i}")
        panel = write(tmp_path, "p.csv", "\n".join(rows) + "\n")
        rc = main(["validate", "--panel", "2024=" + panel])
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning" in out and "0.833" in out

    def test_indicator_zero_entity_exit_1(self, tmp_path, capsys):
        indicators = write(tmp_path, "ind.csv",
                           "entity,category,indicator,value\n"
                           "a,g1,k1,0\na,g2,k1,0\nb,g1,k1,20\nb,g2,k1,30\n")
        rc = main(["validate", "--indicators", "2019=" + indicators])
        assert rc == 1
        assert "2019: error:" in capsys.readouterr().out

    def test_oversized_csv_field_reported_and_next_input_checked(
            self, tmp_path, capsys, data_dir):
        panel = write(tmp_path, "p.csv", f"entity,g1,g2\n{BIG_FIELD},1,2\n")
        indicators = write(tmp_path, "ind.csv",
                           "entity,category,indicator,value\n"
                           f"a,g1,k1,{BIG_FIELD}\n")
        rc = main(["validate", "--panel", "2022=" + panel,
                   "--indicators", "2023=" + indicators,
                   "--panel", f"2024={data_dir / 'panel_2024.csv'}"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[:2] for line in lines] == [
            ["2022", "error"], ["2023", "error"], ["2024", "ok"]]
        assert all("field larger than field limit" in line
                   for line in lines[:2])

    def test_no_inputs_exit_1(self, capsys):
        rc = main(["validate"])
        assert rc == 1


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "panelrank.cli", "validate", "--panel",
             "x=does_not_exist.csv"],
            capture_output=True, text=True)
        assert result.returncode == 1

    def test_help(self):
        result = subprocess.run(
            [sys.executable, "-m", "panelrank.cli", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "compute" in result.stdout

    @pytest.mark.parametrize("code", [0, 3])
    def test_run_freezes_collector_then_exits_with_main_code(self, monkeypatch,
                                                             code):
        calls = []
        monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert calls == ["freeze", "main"]
        assert exc.value.code == code


class TestFootprint:
    def test_memory_peak_is_a_small_multiple_of_the_panel(self):
        # A deterministic gate instead of a timing one: solving and ranking
        # a 20,000 x 17 panel peaks at about 2.4 x n m 8 bytes. Any n x n
        # array or extra full copy breaks the 4x bound.
        n, m = 20_000, 17
        row, col = np.arange(n)[:, None], np.arange(m)
        panel = make_panel("y", [f"e{i:05d}" for i in range(n)],
                           [f"c{j:02d}" for j in range(m)],
                           1.0 + (row * 37 + col * 11) % 97)
        tracemalloc.start()
        try:
            result = cli.compute_year(panel, cli.RunConfig(), lambda m: None)
            cli._rank_tables(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.trace.converged
        assert peak < 4 * n * m * 8
