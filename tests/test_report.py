import csv
import hashlib
import io
import re
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from panelrank import cli, report
from panelrank import (GoalWeights, GroupProfile, InputError, RankSeries,
                       RankTrajectory, degree_index, emit_bipartite,
                       emit_grouped_bars, emit_heatmap, emit_rank_bump,
                       emit_table, emit_weight_bars, emit_weighted_lines,
                       make_panel, ramp_color, rank_entities, rank_evolution,
                       tertile_groups, weighted_performance,
                       weights_evolution)
from panelrank.analytics import tertile_sizes

import oracles
from conftest import aligned, all_charts, formula_panel, random_panel


def elements_with_class(svg_text: str, token: str):
    root = ET.fromstring(svg_text)  # also proves well-formed XML, single root
    return [el for el in root.iter()
            if token in (el.get("class") or "").split()]


def weights_for(categories, values, year="y"):
    return GoalWeights(year, tuple(categories), np.asarray(values, dtype=float))


def rank_csv(table) -> str:
    return emit_table(*oracles.rank_table_columns(table))


class TestEmitTable:
    def test_rank_table_rows(self):
        table = rank_entities(["a", "b", "c"], [3.0, 2.0, 1.0], "k_s", "y")
        lines = rank_csv(table).strip().split("\n")
        assert lines[0] == "entity,score,rank,tied"
        assert len(lines) == 4
        assert lines[1] == "a,3.000000,1,false"

    def test_goal_weights_six_decimals(self):
        text = emit_table(("category", "weight"),
                          (("g1", "g2"), np.array([2 / 3, 2.0])))
        assert "0.666667" in text
        assert "2.000000" in text

    def test_empty_findings_header_only(self):
        header = ("severity", "code", "message", "entity", "category")
        assert (emit_table(header, ((),) * len(header))
                == "severity,code,message,entity,category\n")

    def test_findings_rows(self):
        # A None cell, like a finding's absent category, is no str.
        with pytest.raises(InputError, match="column 'category' .*NoneType"):
            emit_table(("severity", "code", "message", "entity", "category"),
                       (("warning",), ("x",), ("msg",), ("e",), (None,)))

    def test_carriage_return_cell_quoted(self):
        text = emit_table(("a", "b"), (["x\ry", "z"], ["p", "q"]))
        assert text == 'a,b\n"x\ry",p\nz,q\n'
        assert list(csv.reader(io.StringIO(text))) == [
            ["a", "b"], ["x\ry", "p"], ["z", "q"]]

    def test_deterministic(self):
        table = rank_entities(["a", "b"], [1.0, 2.0], "k_s", "y")
        assert rank_csv(table) == rank_csv(table)

    # A numpy bool array is read as Python bools; a numpy bool scalar in a
    # tuple is no bool, so the column is rejected.
    @pytest.mark.parametrize("column, text, rows", [
        ((np.True_,), None, None),
        (np.array([True, False]), "a\ntrue\nfalse\n", [["true"], ["false"]])])
    def test_numpy_bools(self, column, text, rows):
        if text is None:
            with pytest.raises(InputError, match="found numpy.bool_?$"):
                emit_table(("a",), (column,))
            return
        emitted = emit_table(("a",), (column,))
        assert emitted == text
        assert list(csv.reader(io.StringIO(emitted)))[1:] == rows

    # The row template's edges: a lone NaN or empty cell, no columns at
    # all, the %d and bool conversions, and a % in a name or a cell.
    @pytest.mark.parametrize("header, columns, text", [
        (("a",), ([float("nan")],), 'a\n""\n'),
        (("",), ([],), '""\n'),
        ((), (), "\n"),
        (("n",), ([3, -2 ** 70],), "n\n3\n-1180591620717411303424\n"),
        (("b",), ([False, True],), "b\nfalse\ntrue\n"),
        (("p%d",), (["%s", "100%"],), "p%d\n%s\n100%\n")])
    def test_template_edges(self, header, columns, text):
        assert emit_table(header, columns) == text

    def test_nul_written_as_is(self):
        # Python 3.10's csv.writer raised on a NUL instead of writing it.
        assert emit_table(("a",), (["a\x00b"],)) == "a\na\x00b\n"

    @pytest.mark.parametrize("header, found", [
        ((None,), "NoneType"),
        (("a", 3), "int, str"),
        ((np.str_("a"),), "numpy.str_")])
    def test_header_names_must_be_strings(self, header, found):
        with pytest.raises(InputError) as exc:
            emit_table(header, ((1,),) * len(header))
        assert str(exc.value) == f"table header must hold strings; found {found}"

    @pytest.mark.parametrize("header, columns", [
        (("a", "b"), (("x",),)),
        (("a", "b"), (("x",), ("y", "z")))])
    def test_malformed_columns_rejected(self, header, columns):
        with pytest.raises(InputError, match="columns"):
            emit_table(header, columns)


class TestRampColor:
    def test_ramp_endpoints(self):
        assert ramp_color([0.0])[0] == "#ffff00"
        assert ramp_color([1.0])[0] == "#008000"

    def test_ramp_midpoint_componentwise_mean(self):
        # componentwise mean of (255,255,0) and (0,128,0), ties to even:
        # 127.5 rounds to 128 and 191.5 to 192
        assert ramp_color([0.5])[0] == "#80c000"

    def test_green_channel_monotone(self):
        greens = [int(ramp_color([v / 100])[0][3:5], 16) for v in range(101)]
        assert all(g1 >= g2 for g1, g2 in zip(greens, greens[1:]))

    def test_ramp_array_flattened_in_c_order(self):
        t = np.array([[0.0, np.nan, 1.0], [np.inf, -np.inf, 0.5]])
        assert ramp_color(t) == ["#ffff00", "#ffff00", "#008000",
                                 "#008000", "#ffff00", "#80c000"]

    def test_one_colour_call_per_chart(self, monkeypatch):
        callers = []
        ramp = report.ramp_color

        def counted(t):
            callers.append(sys._getframe(1).f_code.co_name)
            return ramp(t)

        monkeypatch.setattr(report, "ramp_color", counted)
        panel = random_panel(np.random.default_rng(36), 9, 4)
        all_charts(panel, weights_for(panel.categories, [0.5, 1.0, 1.5, 2.0]))
        assert sorted(callers) == sorted(f"emit_{kind}"
                                         for kind in cli.CHART_KINDS)


class TestHeatmap:
    def test_cell_count_paper_scale(self):
        rng = np.random.default_rng(30)
        panel = random_panel(rng, 36, 15)
        svg = emit_heatmap(panel)
        assert len(elements_with_class(svg, "cell")) == 540

    def test_endpoint_and_midpoint_fills(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[100.0, 0.0], [50.0, 25.0]]))
        svg = emit_heatmap(panel)
        cells = {(el.get("data-entity"), el.get("data-category")): el
                 for el in elements_with_class(svg, "cell")}
        assert cells[("a", "c1")].get("fill") == "#008000"
        assert cells[("a", "c2")].get("fill") == "#ffff00"
        assert cells[("b", "c1")].get("fill") == "#80c000"

    def test_missing_cells_hatched(self):
        scores = np.array([[50.0, 0.0], [20.0, 30.0]])
        mask = np.array([[False, True], [False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        svg = emit_heatmap(panel)
        missing = elements_with_class(svg, "missing")
        assert len(missing) == 1
        assert missing[0].get("fill") == "url(#hatch)"

    def test_deterministic(self, worked_3x2):
        assert emit_heatmap(worked_3x2, "t") == emit_heatmap(worked_3x2, "t")


class TestBipartite:
    def test_edge_count(self):
        rng = np.random.default_rng(31)
        panel = random_panel(rng, 10, 15)
        subset = panel.entities[:8]
        svg = emit_bipartite(panel, subset)
        assert len(elements_with_class(svg, "edge")) == 120

    def test_zero_score_minimum_edge(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[0.0, 100.0], [50.0, 50.0]]))
        svg = emit_bipartite(panel, ["a"])
        edges = {el.get("data-category"): el
                 for el in elements_with_class(svg, "edge")}
        assert edges["c1"].get("stroke-width") == "0.50"
        assert edges["c1"].get("stroke") == "#ffff00"
        assert edges["c2"].get("stroke-width") == "4.00"
        assert edges["c2"].get("stroke") == "#008000"

    def test_single_entity_star(self):
        rng = np.random.default_rng(32)
        panel = random_panel(rng, 4, 7)
        svg = emit_bipartite(panel, [panel.entities[0]])
        assert len(elements_with_class(svg, "edge")) == 7

    def test_single_entity_centred(self, worked_3x2):
        svg = emit_bipartite(worked_3x2, ["a"])
        node, = elements_with_class(svg, "entity-node")
        assert node.get("cy") == "300.00"

    def test_missing_cells_skipped(self):
        scores = np.array([[50.0, 0.0], [20.0, 30.0]])
        mask = np.array([[False, True], [False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        svg = emit_bipartite(panel, ["a", "b"])
        assert len(elements_with_class(svg, "edge")) == 3

    def test_unknown_entity(self, worked_3x2):
        with pytest.raises(InputError, match="unknown"):
            emit_bipartite(worked_3x2, ["nope"])

    def test_empty_subset(self, worked_3x2):
        with pytest.raises(InputError, match="nonempty"):
            emit_bipartite(worked_3x2, [])


class TestWeightBars:
    def test_bar_count(self):
        rng = np.random.default_rng(33)
        values = rng.uniform(0.5, 2.0, size=15)
        svg = emit_weight_bars(weights_for([f"g{i:02d}" for i in range(15)],
                                           values))
        assert len(elements_with_class(svg, "bar")) == 15

    def test_equal_weights_equal_lengths(self):
        svg = emit_weight_bars(weights_for(["g1", "g2"], [1.3, 1.3]))
        widths = {el.get("width") for el in elements_with_class(svg, "bar")}
        assert len(widths) == 1

    def test_length_ratio_one_to_three(self):
        svg = emit_weight_bars(weights_for(["g1", "g2"], [2 / 3, 2.0]))
        bars = {el.get("data-category"): float(el.get("width"))
                for el in elements_with_class(svg, "bar")}
        assert bars["g2"] / bars["g1"] == pytest.approx(3.0, rel=1e-3)

    def test_three_decimal_labels(self):
        svg = emit_weight_bars(weights_for(["g1", "g2"], [2 / 3, 2.0]))
        labels = [el.text for el in elements_with_class(svg, "bar-label")]
        assert labels == ["0.667", "2.000"]


class TestWeightedLines:
    def profile_for(self, panel, weights):
        deg = degree_index(panel)
        table = rank_entities(panel.entities, deg.totals, "k_s", panel.year)
        return tertile_groups(table, panel,
                              weighted_performance(panel, weights))

    def test_line_count_paper_scale(self):
        rng = np.random.default_rng(34)
        panel = random_panel(rng, 36, 15)
        weights = weights_for(panel.categories, np.ones(15))
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities)
        assert len(elements_with_class(svg, "entity-line")) == 36
        assert len(elements_with_class(svg, "group-line")) == 3
        assert len(elements_with_class(svg, "national-line")) == 1

    def test_identical_rows_collapse_to_national(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.array([[50.0, 60.0]] * 3))
        weights = weights_for(panel.categories, [1.0, 1.0])
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities)
        national = elements_with_class(svg, "national-line")[0].get("d")
        for el in elements_with_class(svg, "group-line"):
            assert el.get("d") == national

    def test_constant_curves_horizontal(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2", "c3"],
                           np.array([[40.0] * 3, [50.0] * 3, [60.0] * 3]))
        weights = weights_for(panel.categories, [1.0, 1.0, 1.0])
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities)
        for el in elements_with_class(svg, "entity-line"):
            ys = {seg.split(",")[1] for seg in el.get("d").split(" ")}
            assert len(ys) == 1

    def test_single_category_centred(self):
        curves = np.array([[3.0], [2.0], [1.0]])
        profile = GroupProfile(("c1",), (("a",), ("b",), ("c",)), curves,
                               np.array([2.0]))
        svg = emit_weighted_lines(curves, profile, ["a", "b", "c"])
        tick, = elements_with_class(svg, "x-tick")
        assert tick.get("x") == "500.00"
        lines = {el.get("data-entity"): el.get("d")
                 for el in elements_with_class(svg, "entity-line")}
        assert lines["a"] == "M500.00,40.00"

    @pytest.mark.parametrize("m", [0, 2])
    def test_nothing_finite_refused(self, m):
        curves = np.full((3, m), np.nan)
        profile = GroupProfile(tuple(f"c{j}" for j in range(m)),
                               (("a",), ("b",), ("c",)), curves,
                               np.full(m, np.nan))
        with pytest.raises(InputError, match="^no finite value to draw$"):
            emit_weighted_lines(curves, profile, ["a", "b", "c"])

    def test_best_worst_annotated(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.array([[90.0, 10.0], [50.0, 50.0], [10.0, 90.0]]))
        weights = weights_for(panel.categories, [1.0, 1.0])
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities)
        best = [el.text for el in elements_with_class(svg, "best-label")]
        worst = [el.text for el in elements_with_class(svg, "worst-label")]
        assert best == ["a 90.000", "c 90.000"]
        assert worst == ["c 10.000", "a 10.000"]


class TestRankBump:
    def series_for(self, rows):
        tables = [rank_entities(entities, values, "k_s", year)
                  for year, entities, values in rows]
        return rank_evolution(tables, aligned(tables))

    def test_four_year_ticks(self):
        series = self.series_for([
            (year, ["a", "b"], [2.0, 1.0])
            for year in ("2018", "2019", "2020", "2024")])
        svg = emit_rank_bump(series)
        ticks = [el.text for el in elements_with_class(svg, "x-tick")]
        assert ticks == ["2018", "2019", "2020", "2024"]

    def test_constant_ranks_horizontal(self):
        series = self.series_for([
            ("2018", ["a", "b"], [2.0, 1.0]), ("2019", ["a", "b"], [2.0, 1.0])])
        svg = emit_rank_bump(series)
        for el in elements_with_class(svg, "rank-line"):
            ys = {seg.split(",")[1] for seg in el.get("d").split(" ")}
            assert len(ys) == 1

    def test_swapped_ranks_cross(self):
        series = self.series_for([
            ("2018", ["a", "b"], [2.0, 1.0]), ("2019", ["a", "b"], [1.0, 2.0])])
        svg = emit_rank_bump(series)
        lines = {el.get("data-entity"): el.get("d")
                 for el in elements_with_class(svg, "rank-line")}
        a_y = [seg.split(",")[1] for seg in lines["a"].split(" ")]
        b_y = [seg.split(",")[1] for seg in lines["b"].split(" ")]
        assert a_y[0] != a_y[1]
        assert a_y[0] == b_y[1] and a_y[1] == b_y[0]

    def test_single_year_single_entity_centred(self):
        svg = emit_rank_bump(self.series_for([("2024", ["a"], [1.0])]))
        tick, = elements_with_class(svg, "x-tick")
        assert tick.get("x") == "450.00"
        line, = elements_with_class(svg, "rank-line")
        assert line.get("d") == "M450.00,300.00"

    def test_gap_breaks_path(self):
        from panelrank import EntityMap
        emap = EntityMap.from_json(
            '{"merges": [{"from": ["p", "q"], "to": ["pq"]}]}')
        tables = [rank_entities(["p", "q", "x"], [3.0, 2.0, 1.0], "k_s", "2019"),
                  rank_entities(["pq", "x"], [2.0, 1.0], "k_s", "2020")]
        series = rank_evolution(tables, aligned(tables, [emap]))
        svg = emit_rank_bump(series)
        lines = {el.get("data-entity"): el.get("d")
                 for el in elements_with_class(svg, "rank-line")}
        assert lines["pq"].count("M") == 1
        assert "L" not in lines["pq"]

    def test_no_final_rank_rejected(self):
        series = RankSeries(("2023", "2024"), (
            RankTrajectory("a", (2, 1), "own"),
            RankTrajectory("x", (1, None), "own")))
        with pytest.raises(InputError, match="'x' has no rank in the final "
                                             "year '2024'"):
            emit_rank_bump(series)


class TestGroupedBars:
    def test_bars_and_gaps(self):
        early = weights_for(["g1", "g2"], [1.0, 2.0], year="2018")
        full = [weights_for(["g1", "g2", "g3"], [1.0, 2.0, 3.0], year=str(y))
                for y in (2019, 2020, 2024)]
        evolution = weights_evolution([early, *full])
        svg = emit_grouped_bars(evolution)
        bars = elements_with_class(svg, "bar")
        per_category = {}
        for el in bars:
            per_category.setdefault(el.get("data-category"), []).append(
                el.get("data-year"))
        assert len(per_category["g1"]) == 4
        assert len(per_category["g3"]) == 3
        assert "2018" not in per_category["g3"]

    def test_single_category_single_year(self):
        evolution = weights_evolution([weights_for(["g1"], [1.0], year="2024")])
        svg = emit_grouped_bars(evolution)
        assert len(elements_with_class(svg, "bar")) == 1

    def test_deterministic(self):
        evolution = weights_evolution(
            [weights_for(["g1", "g2"], [1.0, 2.0], year="2018")])
        assert emit_grouped_bars(evolution) == emit_grouped_bars(evolution)


class TestAllEmittersWellFormed:
    def test_well_formed_outputs(self, data_dir):
        from panelrank import parse_panel
        panel = parse_panel((data_dir / "panel_2024.csv").read_text(), "2024")
        weights = weights_for(panel.categories, np.ones(panel.n_categories),
                              year="2024")
        deg = degree_index(panel)
        table = rank_entities(panel.entities, deg.totals, "k_s", "2024")
        performance = weighted_performance(panel, weights)
        profile = tertile_groups(table, panel, performance)
        series = rank_evolution([table], [])
        evolution = weights_evolution([weights])
        outputs = [
            emit_heatmap(panel, "A & B"),
            emit_bipartite(panel, panel.entities[:3]),
            emit_weight_bars(weights),
            emit_weighted_lines(performance, profile, panel.entities),
            emit_rank_bump(series),
            emit_grouped_bars(evolution),
        ]
        for svg in outputs:
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")


class TestMarkupInIds:
    ENTITIES = ['a"b', "c'd", "e<f", "g&h"]
    CATEGORIES = ['q"1', "q'2", "q<3", "q&4"]

    def test_escape_is_html_escape_on_every_code_point(self):
        import html
        text = "".join(map(chr, range(sys.maxunicode + 1)))
        assert report._escape(text) == html.escape(text)
        # Each replacement on its own, and "&" replaced before the others
        # insert one.
        for text in ["&", "<", ">", '"', "'", "&lt;", "<&>\"'", "é&\u3000"]:
            assert report._escape(text) == html.escape(text)

    def test_escaped_is_escape_per_id_on_every_code_point(self):
        code_points = "".join(map(chr, range(sys.maxunicode + 1)))
        ids = [code_points[k:k + 64] for k in range(0, len(code_points), 64)]
        assert report._escaped(ids) == list(map(report._escape, ids))
        # Without the five markup characters the roster comes back as it
        # is, which is what escaping each id gives.
        plain = [re.sub("[&<>\"']", "", text) for text in ids]
        assert report._escaped(plain) == list(map(report._escape, plain))
        for mark in "&<>\"'":
            roster = (*plain[:3], f"a{mark}b", plain[3])
            assert report._escaped(roster) == list(map(report._escape, roster))

    @pytest.mark.parametrize("marked", [False, True])
    def test_ids_escaped_once_per_roster(self, marked, tmp_path, monkeypatch):
        # A run of plain ids calls _escape not once; an id holding "&"
        # is escaped, and every chart parses and keeps it.
        calls = []
        escape = report._escape

        def counted(text):
            calls.append(text)
            return escape(text)

        monkeypatch.setattr(report, "_escape", counted)
        args = []
        # At the chart row bound, so every chart draws every entity.
        for year in ("2023", "2024"):
            panel = formula_panel(cli._CHART_ROWS, 17, year)
            if marked:
                # First by k_s, so the bipartite subset holds it.
                entities = ("a&b", *panel.entities[1:])
                scores = panel.scores.copy()
                scores[0] = 100.0
                panel = make_panel(year, entities, panel.categories, scores,
                                   panel.missing_mask)
            path = tmp_path / f"panel_{year}.csv"
            path.write_text(oracles.panel_to_csv(panel), encoding="utf-8")
            args += ["--panel", f"{year}={path}"]
        out = tmp_path / "out"
        assert cli.main(["compute", *args, "--charts", "all",
                         "--out", str(out)]) == 0
        svgs = sorted(out.glob("*.svg"))
        assert len(svgs) == 11
        assert bool(calls) == marked
        for path in svgs:
            root = ET.parse(path).getroot()
            entities = {el.get("data-entity") for el in root.iter()} - {None}
            if marked and not path.name.startswith(("weight_bars",
                                                    "grouped_bars")):
                assert "a&b" in entities, path.name

    def test_every_chart_parses_and_keeps_ids(self):
        from xml.dom import minidom
        rng = np.random.default_rng(35)
        panel = make_panel('y"1', self.ENTITIES, self.CATEGORIES,
                           rng.uniform(1, 100, size=(4, 4)))
        weights = weights_for(panel.categories, [1.0, 2.0, 3.0, 4.0],
                              year=panel.year)
        outputs = all_charts(panel, weights, title="<\"'&>").values()
        for svg in outputs:
            doc = minidom.parseString(svg)
            ids = set()
            for name in ("data-entity", "data-category"):
                for el in doc.getElementsByTagName("*"):
                    if el.hasAttribute(name):
                        ids.add(el.getAttribute(name))
            assert ids, svg[:200]
            assert ids <= set(self.ENTITIES) | set(self.CATEGORIES)


def recorded_outputs() -> dict[str, str]:
    """Every chart and table of a 201 x 9 panel, by name.

    The data come from fixed integer formulas, not a random generator, so
    the digests do not depend on the numpy version. The panel has about 5%
    missing cells, integer scores (so ties, and t = 0.5 colour ties), one
    category missing for the whole bottom tertile (a NaN group curve), and
    ids holding ``&``, ``<`` and ``"``.
    The rank bump has entities introduced in later years (path gaps) and
    the grouped bars a category absent in one year.
    """
    n, m = 201, 9
    row, col = np.arange(n)[:, None], np.arange(m)
    entities = [f"e{i:03d}" for i in range(n)]
    entities[3], entities[7], entities[11] = "a&b", "<c>", 'q"d'
    categories = [f"c{j}" for j in range(m)]
    categories[2], categories[5] = "x&y", '<z>"'

    values = (row[:, 0] * 37 % 60).astype(float)  # tied rank values
    table = rank_entities(entities, values, "k_s", "2024")
    bottom = set(table.entities[-tertile_sizes(n)[2]:])
    scores = ((row * 37 + col * 11) % 101).astype(float)
    mask = (row * 13 + col * 7) % 20 == 0
    mask[:, 0] = False
    mask[[i for i, e in enumerate(entities) if e in bottom], 6] = True
    # Crafted so that this cell's weighted-lines y, computed as
    # margin_top + plot_h * (1 - (v - lo) / span), formats differently
    # to two decimals when those operations are reordered.
    scores[20, 1] = 38.28899167437558
    mask[20, 1] = False
    panel = make_panel("2024", entities, categories, scores, mask)

    weights = weights_for(categories, 0.5 + 1.5 * (col * 5 % m) / (m - 1),
                          "2024")
    performance = weighted_performance(panel, weights)
    profile = tertile_groups(table, panel, performance)
    assert np.isnan(profile.group_curves[2, 6])
    early = [rank_entities(entities[:150 + 20 * k], values[:150 + 20 * k],
                           "k_s", str(2022 + k)) for k in range(2)]
    evolution = weights_evolution([
        weights_for(categories[:8], weights.values[:8] * 0.9, "2022"),
        weights_for(categories, weights.values * 1.1, "2023"), weights])
    typed = tuple(zip(*((e, float(v) if i % 17 else float("nan"), float(v / 7),
                         i, i % 2 == 0, "" if i % 3 else "x,y")
                        for i, (e, v) in enumerate(zip(entities, values)))))

    return {
        "heatmap": emit_heatmap(panel, 'T & <"q">'),
        "bipartite": emit_bipartite(panel, entities[:12]),
        "weight_bars": emit_weight_bars(weights),
        "weighted_lines": emit_weighted_lines(performance, profile,
                                              panel.entities),
        "rank_bump": emit_rank_bump(rank_evolution([*early, table],
                                                   aligned([*early, table]))),
        "grouped_bars": emit_grouped_bars(evolution),
        "ranks.csv": emit_table(*oracles.rank_table_columns(table)),
        "weights.csv": emit_table(("category", *evolution.years),
                                  (evolution.categories, *evolution.values.T)),
        "typed.csv": emit_table(
            ("entity", "score", "np_score", "rank", "tied", "note"), typed),
    }


class TestRecordedDigests:
    # Recorded from the per-cell emitters, before colours, coordinates and
    # escaping moved out of the cell loops.
    DIGESTS = {
        "heatmap":
            "31b0b1f4933fc739e9fe67fc4105741df3081cd1b7de8a5d8ddd8f85058880bf",
        "bipartite":
            "fa379574dfb66053752652cf4a9158ab2bbc74f5982e455f01710bd28e2f69d6",
        "weight_bars":
            "0afc22b3d920fcba04f1376c98e34df166e0bbe844e65322749eebcb7dec5a19",
        "weighted_lines":
            "ba303994d5b970880afbb8df245020702d57fc7fd377240482f7632ca79481e8",
        "rank_bump":
            "69eb144dd0b0d397d91dc1e26ee9d74c0b4611daa970d3c653a5b28838d04a3a",
        "grouped_bars":
            "26a2183b0aa3638e1f4e4328818caa93e5f2abd9f9fb0097c017ac45d0cb3a9e",
        "ranks.csv":
            "bae8f7cb13a4c305a5225ab015b03c386ea182e272a3678f77705f4b36d8cb9f",
        "weights.csv":
            "c75cc8679360206a6afe78bb6a7b420593ce00aa7cd2531023dbb6e714f3bc61",
        "typed.csv":
            "6945b1a4fafc7a05659123e7f76f39f0d39de456a28bae9aee678c37ac077e42",
    }

    def test_outputs_match_recorded_digests(self):
        got = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in recorded_outputs().items()}
        assert got == self.DIGESTS

    @pytest.mark.parametrize("t, low, high, expected", [
        (float("nan"), "#ffff00", "#008000", "#ffff00"),   # NaN: low end
        (float("inf"), "#ffff00", "#008000", "#008000"),   # clamped to 1
        (float("-inf"), "#ffff00", "#008000", "#ffff00"),  # clamped to 0
        (-0.0, "#ffff00", "#008000", "#ffff00"),
        (1.5, "#ffff00", "#008000", "#008000"),
    ])
    def test_ramp_color_hand_values(self, t, low, high, expected):
        assert ramp_color([0.0, 1.0]) == [low, high]
        assert ramp_color([t])[0] == expected
