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

from panelrank import (InputError, cli, emit_heatmap, make_panel,
                       parse_panel, report)
from panelrank.cli import main

from conftest import formula_panel, structural_zeros_panel
from oracles import panel_to_csv

WORKED_3X2 = "entity,g1,g2\na,2,0\nb,1,1\nc,0,2\n"
WORKED_2X2 = "entity,g1,g2\na,1,1\nb,1,0\n"
INDICATORS_2X2 = ("entity,category,indicator,value\n"
                  "a,g1,k1,40\na,g1,k2,60\na,g2,k1,10\n"
                  "b,g1,k1,20\nb,g2,k1,30\n")
DISTINCT_3X2 = "entity,g1,g2\na,50,40\nb,30,20\nc,10,5\n"
# One field longer than the csv module's default limit of 128 KiB.
BIG_FIELD = "x" * (128 * 1024 + 1)
# JSON nested deeper than the parser's recursion limit.
NESTED_MAP = "[" * 100000 + "]" * 100000
# Entity maps between the bundled 2019 and 2020 panels that fail, by test id.
BAD_MAPS = {
    "bad-shape": [("2019->2020",
                   '{"renames": [{"from": ["AA"], "to": ["AA", "AZ"]}]}')],
    "unknown-ids": [("2019->2020",
                     '{"renames": [{"from": ["nope"], "to": ["zzz"]}]}')],
    "not-consecutive": [("2019->2021", "{}")],
    "same-key-twice": [("2019->2020", "{}"), ("2019->2020", "{}")],
    "misspelled-field": [("2019->2020",
                          '{"rename": [{"from": ["AA"], "to": ["AZ"]}]}')],
    "nested-too-deeply": [("2019->2020", NESTED_MAP)]}
# A map holding an integer literal longer than the interpreter converts
# (4,300 digits by default), which the JSON parser refuses with a bare
# ValueError rather than a JSONDecodeError.
INT_DIGITS_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG_INT_MAP = '{"renames": ' + "1" * (INT_DIGITS_LIMIT + 1) + "}"
needs_int_limit = pytest.mark.skipif(
    INT_DIGITS_LIMIT == 0, reason="this interpreter converts integers of "
    "any length")
# Latin-1 text, whose 0xE9 byte is not UTF-8, for each input route.
NOT_UTF8 = {
    "panel": b"entity,g1,g2\n\xe9,1,2\nb,3,4\n",
    "indicators": b"entity,category,indicator,value\n\xe9,g1,k1,10\n",
    "entity-map": b'{"renames": [{"from": ["\xe9"], "to": ["AA"]}]}'}
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


def panels_2019_2020(data_dir):
    return ["--panel", f"2019={data_dir / 'panel_2019.csv'}",
            "--panel", f"2020={data_dir / 'panel_2020.csv'}"]


def map_args(tmp_path, maps):
    """``--entity-map`` flags for (key, JSON text) pairs, each text
    written to its own file."""
    return [arg for i, (key, text) in enumerate(maps)
            for arg in ("--entity-map",
                        f"{key}={write(tmp_path, f'm{i}.json', text)}")]


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

    def test_year_tables_bypass_emit_table(self, tmp_path, capsys,
                                          monkeypatch):
        # The year tables are joined from cells the CLI builds itself, so
        # neither the public writer nor its per-column type scan sees them;
        # only the run-wide method_agreement.csv goes through emit_table.
        tables, columns = [], []
        emit_table, text_cells = report.emit_table, report._text_cells

        def counted_table(header, cols):
            tables.append(tuple(header))
            return emit_table(header, cols)

        def counted_cells(name, column, lead):
            columns.append(name)
            return text_cells(name, column, lead)

        monkeypatch.setattr(report, "emit_table", counted_table)
        monkeypatch.setattr(report, "_text_cells", counted_cells)
        args = [arg for year in ("2023", "2024") for arg in (
            "--panel", f"{year}=" + write(tmp_path, f"{year}.csv",
                                          panel_to_csv(formula_panel(40, 5))))]
        assert main(["compute", *args, "--out", str(tmp_path / "out"),
                     "--charts", "none"]) == 0
        assert tables == [("year", "spearman_rho")]
        assert columns == ["year", "spearman_rho"]
        assert len(list((tmp_path / "out").glob("*.csv"))) == 13

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

    @pytest.mark.parametrize("zeroed, code", [(175, 0), (180, 3)])
    def test_structural_boundary_exit_codes(self, tmp_path, capsys, zeroed,
                                            code):
        # 175 zeroed entities lie inside the boundary of 176 that a
        # positive fixed point needs and converge within the default
        # --max-steps; 180 lie outside it and exit 3 with one error line.
        panel = write(tmp_path, "p.csv",
                      panel_to_csv(structural_zeros_panel(zeroed)))
        rc = main(["compute", "--panel", "2024=" + panel, "--method",
                   "iterative", "--out", str(tmp_path / "out"),
                   "--charts", "none"])
        assert rc == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == ""

    def test_skipped_weighted_lines_warning(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_2X2)
        rc = main(["compute", "--panel", "2024=" + panel, "--method",
                   "spectral", "--charts", "weighted_lines",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: year 2024: skipping weighted_lines chart "
            "(needs at least 3 entities)\n")
        assert not (tmp_path / "out" / "weighted_lines_2024.svg").exists()

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

    @pytest.mark.parametrize("flag, text", [
        ("--panel", "entity,g1,g2\ne\x01x,1,2\nb,3,4\n"),
        ("--panel", 'entity,g1,g2\n"e\x01x",1,2\nb,3,4\n'),
        ("--indicators", "entity,category,indicator,value\n"
                         "e\x01x,g1,k1,10\nb,g2,k1,20\n"),
        ("--panel", "entity,g1,g2\ne\x00x,1,2\nb,3,4\n")],
        ids=["panel", "quoted-panel", "indicators", "nul"])
    def test_id_xml_forbids_exits_1(self, tmp_path, capsys, flag, text):
        # Its SVG charts would not be well-formed.
        path = write(tmp_path, "in.csv", text)
        rc = main(["compute", flag, "2024=" + path,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        if "\0" not in text:  # Python 3.10's csv.reader refuses a NUL
            assert err == [
                r"error: id 'e\x01x' contains a character XML does not allow"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compute", "compare", "validate"])
    def test_year_label_xml_forbids_exits_1(self, tmp_path, capsys, data_dir,
                                            command):
        # Charts write the label into their text; it is refused before
        # any input is read or any output written.
        panel = data_dir / "panel_2024.csv"
        args = {"compute": ["compute", "--out", str(tmp_path / "out")],
                "compare": ["compare", "k_s", "D_s",
                            "--out", str(tmp_path / "out")],
                "validate": ["validate"]}[command]
        rc = main([*args, "--panel", f"20\x0124={panel}",
                   "--panel", f"2025={panel}"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            r"error: year label '20\x0124' contains a character XML does "
            "not allow"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--panel", "--indicators"])
    @pytest.mark.parametrize("command", ["compute", "compare", "validate"])
    def test_empty_year_label_exits_1(self, tmp_path, capsys, command, flag):
        # An empty label would name files such as ranks_k_s_.csv and end
        # chart titles in a space; it is refused before any input is read.
        path = write(tmp_path, "p.csv",
                     WORKED_3X2 if flag == "--panel" else INDICATORS_2X2)
        args = {"compute": ["compute", "--out", str(tmp_path / "out")],
                "compare": ["compare", "k_s", "D_s",
                            "--out", str(tmp_path / "out")],
                "validate": ["validate"]}[command]
        assert main([*args, flag, f"={path}"]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: a year label is empty"]
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_streamed_heatmap_bytes(self, tmp_path, capsys):
        # 2,000 rows go to disk one grid row at a time; the file holds
        # exactly the library's text.
        path = write(tmp_path, "p.csv",
                     panel_to_csv(formula_panel(2000, 17, "2024")))
        out = tmp_path / "out"
        assert main(["compute", "--panel", "2024=" + path,
                     "--method", "spectral", "--charts", "heatmap",
                     "--out", str(out)]) == 0
        read = parse_panel(Path(path).read_text(encoding="utf-8"), "2024")
        assert (out / "heatmap_2024.svg").read_bytes() == emit_heatmap(
            read, "Scores 2024").encode("utf-8")

    def test_heatmap_set_up_fault_leaves_no_file(self, tmp_path, capsys,
                                                 monkeypatch):
        # The writer takes the chart's first piece before it opens the file.
        def refuse(t):
            raise InputError("no colours")

        monkeypatch.setattr(report, "ramp_color", refuse)
        out = tmp_path / "out"
        rc = main(["compute", "--panel",
                   "2024=" + write(tmp_path, "p.csv", WORKED_3X2),
                   "--charts", "heatmap", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no colours\n"
        assert not (out / "heatmap_2024.svg").exists()

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

    def test_signed_zero_score_writes_as_zero(self, tmp_path, capsys):
        # float("-0") keeps its sign; the panel stores it as 0.0, as the
        # long-form route's mean already does.
        def outputs(zero):
            text = f"entity,g1,g2\na,50,{zero}\nb,30,20\nc,{zero},5\n"
            out = tmp_path / zero
            assert main(["compute", "--panel",
                         "2024=" + write(tmp_path, f"p{zero}.csv", text),
                         "--charts", "all", "--out", str(out)]) == 0
            return {path.name: path.read_bytes() for path in out.iterdir()}

        signed = outputs("-0")
        assert signed == outputs("0")
        assert b'data-value="0.000"' in signed["heatmap_2024.svg"]

    @pytest.mark.parametrize("route", NOT_UTF8)
    def test_non_utf8_input_exits_1(self, tmp_path, capsys, data_dir, route):
        path = tmp_path / "latin1"
        path.write_bytes(NOT_UTF8[route])
        args = {"panel": ["--panel", f"2024={path}"],
                "indicators": ["--indicators", f"2024={path}"],
                "entity-map": [*panels_2019_2020(data_dir),
                               "--entity-map", f"2019->2020={path}"]}[route]
        rc = main(["compute", *args, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {path}: not UTF-8 text (byte 0xe9 ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["0", "-1e-10", "nan", "inf"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, tol):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compute", "--panel", "2024=" + panel, f"--tol={tol}",
                   "--max-steps", "50", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: --tol must be positive")
        assert not (tmp_path / "out").exists()

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        out = write(tmp_path, "out", "")
        rc = main(["compute", "--panel", "2024=" + panel, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

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

    # Output names are compared ignoring case, as some file systems do.
    # The last two pairs collide through output names: 2019's iterative
    # table and iterative_2019's D_s table are both
    # ranks_D_s_iterative_2019.csv.
    @pytest.mark.parametrize("labels", [("2019", "2019"), ("2019/a", "2019_a"),
                                        ("2019", "iterative_2019"),
                                        ("2019a", "2019A"),
                                        ("2019", "ITERATIVE_2019")])
    def test_colliding_year_labels_exit_1(self, tmp_path, capsys, labels):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compute", "--panel", f"{labels[0]}={panel}",
                   "--panel", f"{labels[1]}={panel}",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "year labels" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("maps", BAD_MAPS.values(), ids=BAD_MAPS.keys())
    def test_bad_entity_map_writes_nothing(self, tmp_path, capsys, data_dir,
                                           maps):
        rc = main(["compute", *panels_2019_2020(data_dir),
                   *map_args(tmp_path, maps),
                   "--charts", "none", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @needs_int_limit
    def test_map_with_too_long_integer_exits_1(self, tmp_path, data_dir):
        out = tmp_path / "out"
        result = run_cli("compute", *panels_2019_2020(data_dir),
                         *map_args(tmp_path, [("2019->2020", LONG_INT_MAP)]),
                         "--charts", "none", "--out", str(out))
        assert result.returncode == 1
        assert result.stderr.startswith(
            "error: entity map is not valid JSON: ")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("source, name", [
        ("panel_2019.csv", "ranks_k_s_2019.csv"),
        ("map_2019_2020.json", "method_agreement.csv"),
        ("panel_2019.csv", "heatmap_2019.svg")])
    def test_never_overwrites_an_input(self, tmp_path, capsys, data_dir,
                                       source, name):
        # A chart target is refused on the streamed path too.
        charts = "heatmap" if name.endswith(".svg") else "none"
        target = tmp_path / name
        target.write_bytes((data_dir / source).read_bytes())
        path = {f: data_dir / f for f in ("panel_2019.csv", "panel_2020.csv",
                                          "map_2019_2020.json")}
        path[source] = target
        rc = main(["compute", "--panel", f"2019={path['panel_2019.csv']}",
                   "--panel", f"2020={path['panel_2020.csv']}",
                   "--entity-map", f"2019->2020={path['map_2019_2020.json']}",
                   "--charts", charts, "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {target}: it is an input of this run\n")
        assert target.read_bytes() == (data_dir / source).read_bytes()

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

    def test_ds_iterative_allow_nonconverged_warning(self, tmp_path, capsys,
                                                     structural_zeros):
        panel = write(tmp_path, "p.csv", panel_to_csv(structural_zeros))
        rc = main(["compare", "D_s", "D_s", "--panel", "2024=" + panel,
                   "--method", "iterative", "--allow-nonconverged"])
        assert rc == 0
        assert capsys.readouterr().err == (
            "warning: year 2024: fixed-point iteration did not converge; "
            "using last iterate (--allow-nonconverged)\n")

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

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        out = write(tmp_path, "out", "")
        rc = main(["compare", "k_s", "composite_mean",
                   "--panel", "2024=" + panel, "--out", out])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_never_overwrites_its_input(self, tmp_path, capsys):
        panel = write(tmp_path, "compare_k_s_vs_D_s_2019.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "D_s", "--panel", "2019=" + panel,
                   "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: cannot write {panel}: it is an input of this run\n")
        assert Path(panel).read_text(encoding="utf-8") == WORKED_3X2

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

    def test_across_years_side_by_side_table(self, tmp_path, capsys):
        # The later roster is reordered and renames b to bb; k_s ties b
        # with c in 2018 and bb with c in 2024. Rows follow the 2018 rank
        # order, and each row carries its partner's 2024 score and rank.
        a = write(tmp_path, "a.csv",
                  "entity,g1,g2\na,50,40\nb,30,20\nc,20,30\nd,10,5\n")
        b = write(tmp_path, "b.csv",
                  "entity,g1,g2\nd,40,30\nbb,10,10\na,45,35\nc,15,5\n")
        out = tmp_path / "out"
        rc = main(["compare", "k_s", "k_s", "--panel", "2018=" + a,
                   "--panel", "2024=" + b, "--out", str(out),
                   *map_args(tmp_path, [("2018->2024", '{"renames": '
                                         '[{"from": ["b"], "to": ["bb"]}]}')])])
        assert rc == 0
        table = ("entity,score_k_s,rank_k_s,score_k_s,rank_k_s\n"
                 "a,90.000000,1,80.000000,1\n"
                 "b,50.000000,2,20.000000,3\n"
                 "c,50.000000,3,20.000000,4\n"
                 "d,15.000000,4,70.000000,2\n")
        path = out / "compare_k_s_vs_k_s_2018_2024.csv"
        assert capsys.readouterr().out == (
            "spearman rho (k_s vs k_s) = 0.333333\n" + table + f"{path}\n")
        assert path.read_text(encoding="utf-8") == table

    @pytest.mark.parametrize("years", [("2024",), ("2024", "2018")])
    def test_map_must_name_first_and_last_input(self, tmp_path, capsys,
                                                years):
        panel = write(tmp_path, "p.csv", DISTINCT_3X2)
        emap = write(tmp_path, "map.json", "{}")
        rc = main(["compare", "k_s", "k_s",
                   *[arg for year in years for arg in ("--panel",
                                                       f"{year}={panel}")],
                   "--entity-map", "2018->2024=" + emap,
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "consecutive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_three_panels_rejected(self, tmp_path, capsys):
        panel = write(tmp_path, "p.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "k_s", "--panel", "1=" + panel,
                   "--panel", "2=" + panel, "--panel", "3=" + panel])
        assert rc == 1

    def test_three_inputs_rejected_before_any_is_read(self, tmp_path, capsys):
        panel = write(tmp_path, "a.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "k_s", "--panel", "1=" + panel,
                   "--panel", "2=" + panel,
                   "--panel", f"3={tmp_path / 'nonexistent.csv'}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "compare takes one panel (within-year) or two" in err
        assert "cannot read" not in err


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

    @pytest.mark.parametrize("name", ["k\x00x", "k\x01x"])
    def test_indicator_name_xml_forbids_exit_1(self, tmp_path, capsys, name):
        # Python 3.10's csv.reader refuses a NUL on its own; every Python
        # exits 1.
        path = write(tmp_path, "ind.csv", "entity,category,indicator,value\n"
                     f"a,g1,{name},10\nb,g2,k,20\n")
        rc = main(["validate", "--indicators", "2024=" + path])
        assert rc == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1 and out[0].startswith("2024: error: ")
        if "\0" not in name:
            assert out == [r"2024: error: indicator 'k\x01x' contains a "
                           "character XML does not allow"]

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

    def test_non_utf8_reported_and_next_input_checked(self, tmp_path, capsys,
                                                      data_dir):
        path = tmp_path / "latin1.csv"
        path.write_bytes(NOT_UTF8["panel"])
        rc = main(["validate", "--panel", f"2020={path}",
                   "--panel", f"2024={data_dir / 'panel_2024.csv'}"])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            f"2020: error: cannot read {path}: not UTF-8 text "
            "(byte 0xe9 at offset 13)", "2024: ok"]

    def test_no_inputs_exit_1(self, capsys):
        rc = main(["validate"])
        assert rc == 1

    def test_bundled_map_ok(self, capsys, data_dir):
        rc = main(["validate", *panels_2019_2020(data_dir), "--entity-map",
                   f"2019->2020={data_dir / 'map_2019_2020.json'}"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "2019: ok", "2020: ok", "2019->2020: ok"]

    def test_unreadable_map_exit_1(self, tmp_path, capsys, data_dir):
        rc = main(["validate", *panels_2019_2020(data_dir), "--entity-map",
                   f"2019->2020={tmp_path / 'nonexistent.json'}"])
        assert rc == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("2019->2020: error: cannot read")

    @pytest.mark.parametrize("maps", BAD_MAPS.values(), ids=BAD_MAPS.keys())
    def test_bad_map_exit_1(self, tmp_path, capsys, data_dir, maps):
        rc = main(["validate", *panels_2019_2020(data_dir),
                   *map_args(tmp_path, maps)])
        assert rc == 1
        out, err = capsys.readouterr()
        # Maps that name no consecutive pair, or one pair twice, are
        # usage errors; the others are reported beside the panels.
        assert "2019->2020: error: " in out or err.startswith("error: ")

    def test_nested_map_exit_1(self, tmp_path, capsys, data_dir):
        rc = main(["validate", *panels_2019_2020(data_dir),
                   *map_args(tmp_path, [("2019->2020", NESTED_MAP)])])
        assert rc == 1
        assert capsys.readouterr().out.splitlines() == [
            "2019: ok", "2020: ok",
            "2019->2020: error: entity map is nested too deeply"]

    @needs_int_limit
    def test_map_with_too_long_integer_exit_1(self, tmp_path, capsys,
                                              data_dir):
        rc = main(["validate", *panels_2019_2020(data_dir),
                   *map_args(tmp_path, [("2019->2020", LONG_INT_MAP)])])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["2019: ok", "2020: ok"]
        assert len(lines) == 3
        assert lines[2].startswith(
            "2019->2020: error: entity map is not valid JSON: ")

    def test_map_of_unloadable_panel_skipped(self, tmp_path, capsys,
                                             data_dir):
        rc = main(["validate",
                   "--panel", f"2019={tmp_path / 'nonexistent.csv'}",
                   "--panel", f"2020={data_dir / 'panel_2020.csv'}",
                   *map_args(tmp_path, [("2019->2020", "not json")])])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ")[0] for line in lines] == ["2019", "2020"]


class TestLoadingStage:
    """`compute` and `compare` align each consecutive roster pair at most
    once: a pair with a map before anything is solved or written, a pair
    without one only for an output that reads it."""

    @pytest.fixture
    def align_calls(self, monkeypatch):
        calls = []
        align_rosters = cli.align_rosters

        def counted(*args):
            calls.append(args)
            return align_rosters(*args)

        monkeypatch.setattr(cli, "align_rosters", counted)
        return calls

    def test_compute_aligns_each_pair_once(self, tmp_path, capsys, data_dir,
                                           align_calls):
        panels = [arg for year in ("2018", "2019", "2020", "2024")
                  for arg in ("--panel",
                              f"{year}={data_dir / f'panel_{year}.csv'}")]
        rc = main(["compute", *panels,
                   "--entity-map", f"2019->2020={data_dir / 'map_2019_2020.json'}",
                   "--charts", "all", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(align_calls) == 3

    @pytest.mark.parametrize("charts, maps, expected", [
        ("none", [], 0), ("none", ["2019->2020"], 1),
        ("heatmap", [], 0), ("rank_bump", [], 3)])
    def test_compute_aligns_only_what_is_read(self, tmp_path, capsys,
                                              data_dir, align_calls, charts,
                                              maps, expected):
        panels = [arg for year in ("2018", "2019", "2020", "2024")
                  for arg in ("--panel",
                              f"{year}={data_dir / f'panel_{year}.csv'}")]
        rc = main(["compute", *panels,
                   *[arg for key in maps for arg in (
                       "--entity-map", f"{key}={data_dir / 'map_2019_2020.json'}")],
                   "--charts", charts, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert len(align_calls) == expected

    def test_compare_without_map_aligns_once(self, tmp_path, capsys,
                                             align_calls):
        a = write(tmp_path, "a.csv", DISTINCT_3X2)
        b = write(tmp_path, "b.csv", WORKED_3X2)
        rc = main(["compare", "k_s", "k_s", "--panel", "2018=" + a,
                   "--panel", "2024=" + b])
        assert rc == 0
        assert len(align_calls) == 1

    def test_compare_aligns_once(self, tmp_path, capsys, align_calls):
        a = write(tmp_path, "a.csv", DISTINCT_3X2)
        b = write(tmp_path, "b.csv", "entity,g1,g2\naa,50,40\nb,30,20\nc,10,5\n")
        rc = main(["compare", "k_s", "k_s", "--panel", "2018=" + a,
                   "--panel", "2024=" + b,
                   *map_args(tmp_path, [("2018->2024", '{"renames": '
                                         '[{"from": ["a"], "to": ["aa"]}]}')])])
        assert rc == 0
        assert len(align_calls) == 1

    def test_compare_checks_rosters_before_solving(self, tmp_path, capsys,
                                                   monkeypatch, near_block):
        solves = []
        run_fitness = cli.core.run_fitness

        def counted(*args):
            solves.append(args)
            return run_fitness(*args)

        monkeypatch.setattr(cli.core, "run_fitness", counted)
        # The fixed point does not converge on near_block: solving it
        # first would exit 3.
        a = write(tmp_path, "a.csv", panel_to_csv(near_block))
        b = write(tmp_path, "b.csv", WORKED_3X2)
        rc = main(["compare", "D_s", "D_s", "--method", "iterative",
                   "--panel", "2018=" + a, "--panel", "2024=" + b])
        assert rc == 1
        assert "one-to-one" in capsys.readouterr().err
        assert solves == []


class TestYearlyWork:
    """`compute` builds each year's goal weights once per solver and its
    weighted-performance matrix once."""

    def test_bundled_run_call_counts(self, tmp_path, capsys, data_dir,
                                     monkeypatch):
        calls = {"goal_weights": 0, "weighted_performance": 0}
        for name in calls:
            def counted(*args, name=name, fn=getattr(cli.analytics, name)):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(cli.analytics, name, counted)
        panels = [arg for year in ("2018", "2019", "2020", "2024")
                  for arg in ("--panel",
                              f"{year}={data_dir / f'panel_{year}.csv'}")]
        rc = main(["compute", *panels,
                   "--entity-map", f"2019->2020={data_dir / 'map_2019_2020.json'}",
                   "--method", "both", "--charts", "all",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert calls == {"goal_weights": 8, "weighted_performance": 4}


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


class TestImports:
    """Importing the CLI loads no module only some runs read: ``html``
    (the charts escape text themselves) and ``json`` (read only for an
    entity map); nor ``dataclasses``, which no record is built with."""

    @staticmethod
    def loaded_after(code, modules=("html", "html.entities", "json")):
        result = subprocess.run(
            [sys.executable, "-c", code + "\nimport sys\nprint(sorted("
             f"{set(modules)!r} & set(sys.modules)))"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return result.stdout.splitlines()[-1]

    def test_import_loads_neither_html_nor_json(self):
        assert self.loaded_after("import panelrank.cli") == "[]"

    def test_import_loads_no_dataclasses(self):
        assert self.loaded_after("import panelrank.cli", ["dataclasses"]) == "[]"

    @pytest.mark.parametrize("maps, loaded", [
        ([], "[]"), (["2019->2020"], "['json']")])
    def test_compute_loads_json_only_for_a_map(self, tmp_path, data_dir, maps,
                                                loaded):
        argv = ["compute", *panels_2019_2020(data_dir),
                *[arg for key in maps for arg in (
                    "--entity-map", f"{key}={data_dir / 'map_2019_2020.json'}")],
                "--out", str(tmp_path / "out")]
        assert self.loaded_after(
            "from panelrank.cli import main\n"
            f"assert main({argv!r}) == 0") == loaded


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
            result = cli.compute_year(panel, cli.RunConfig())
            cli._rank_tables(result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.trace.converged
        assert peak < 4 * n * m * 8
