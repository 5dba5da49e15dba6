import xml.etree.ElementTree as ET

import numpy as np
import pytest

from panelrank import (ChartSpec, GoalWeights, InputError, TableData,
                       degree_index, emit_bipartite, emit_grouped_bars,
                       emit_heatmap, emit_rank_bump, emit_table,
                       emit_weight_bars, emit_weighted_lines, make_panel,
                       ramp_color, rank_entities, rank_evolution,
                       tertile_groups, weighted_performance,
                       weights_evolution)
from panelrank.panel import Finding

from conftest import random_panel


def elements_with_class(svg_text: str, token: str):
    root = ET.fromstring(svg_text)  # also proves well-formed XML, single root
    return [el for el in root.iter()
            if token in (el.get("class") or "").split()]


def weights_for(categories, values, year="y"):
    return GoalWeights(year, tuple(categories), np.asarray(values, dtype=float))


class TestEmitTable:
    def test_rank_table_rows(self):
        table = rank_entities(["a", "b", "c"], [3.0, 2.0, 1.0], "k_s", "y")
        text = emit_table(table)
        lines = text.strip().split("\n")
        assert lines[0] == "entity,score,rank,tied"
        assert len(lines) == 4
        assert lines[1] == "a,3.000000,1,false"

    def test_goal_weights_six_decimals(self):
        text = emit_table(weights_for(["g1", "g2"], [2 / 3, 2.0]))
        assert "0.666667" in text
        assert "2.000000" in text

    def test_empty_findings_header_only(self):
        assert emit_table([]) == "severity,code,message,entity,category\n"

    def test_findings_rows(self):
        findings = [Finding("warning", "x", "msg", entity="e")]
        lines = emit_table(findings).strip().split("\n")
        assert lines[1] == "warning,x,msg,e,"

    def test_json_format(self):
        import json
        table = TableData(("a", "b"), ((1, 2 / 3), (2, float("nan"))))
        doc = json.loads(emit_table(table, "json"))
        assert doc["columns"] == ["a", "b"]
        assert doc["rows"][0] == [1, 0.666667]
        assert doc["rows"][1][1] is None

    def test_deterministic(self):
        table = rank_entities(["a", "b"], [1.0, 2.0], "k_s", "y")
        assert emit_table(table) == emit_table(table)

    def test_unknown_format(self):
        with pytest.raises(InputError, match="format"):
            emit_table(TableData(("a",), ()), "xml")


class TestChartSpec:
    def test_unknown_kind(self):
        with pytest.raises(InputError, match="kind"):
            ChartSpec("pie")

    def test_bad_dimensions(self):
        with pytest.raises(InputError, match="dimensions"):
            ChartSpec("heatmap", width=0)

    def test_bad_color(self):
        with pytest.raises(InputError, match="rrggbb"):
            ChartSpec("heatmap", color_low="yellow")

    def test_ramp_endpoints(self):
        spec = ChartSpec("heatmap")
        assert ramp_color(spec, 0.0) == "#ffff00"
        assert ramp_color(spec, 1.0) == "#008000"

    def test_ramp_midpoint_componentwise_mean(self):
        spec = ChartSpec("heatmap")
        # componentwise mean of (255,255,0) and (0,128,0), ties to even
        assert ramp_color(spec, 0.5) == "#80c000"

    def test_green_channel_monotone(self):
        spec = ChartSpec("heatmap")
        greens = [int(ramp_color(spec, v / 100)[3:5], 16) for v in range(101)]
        assert all(g1 >= g2 for g1, g2 in zip(greens, greens[1:]))


class TestHeatmap:
    def test_cell_count_paper_scale(self):
        rng = np.random.default_rng(30)
        panel = random_panel(rng, 36, 15)
        svg = emit_heatmap(panel, ChartSpec("heatmap"))
        assert len(elements_with_class(svg, "cell")) == 540

    def test_endpoint_and_midpoint_fills(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[100.0, 0.0], [50.0, 25.0]]))
        svg = emit_heatmap(panel, ChartSpec("heatmap"))
        cells = {(el.get("data-entity"), el.get("data-category")): el
                 for el in elements_with_class(svg, "cell")}
        assert cells[("a", "c1")].get("fill") == "#008000"
        assert cells[("a", "c2")].get("fill") == "#ffff00"
        assert cells[("b", "c1")].get("fill") == "#80c000"

    def test_missing_cells_hatched(self):
        scores = np.array([[50.0, 0.0], [20.0, 30.0]])
        mask = np.array([[False, True], [False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        svg = emit_heatmap(panel, ChartSpec("heatmap"))
        missing = elements_with_class(svg, "missing")
        assert len(missing) == 1
        assert missing[0].get("fill") == "url(#hatch)"

    def test_wrong_kind_rejected(self, worked_3x2):
        with pytest.raises(InputError, match="match"):
            emit_heatmap(worked_3x2, ChartSpec("bipartite"))

    def test_deterministic(self, worked_3x2):
        spec = ChartSpec("heatmap", title="t")
        assert emit_heatmap(worked_3x2, spec) == emit_heatmap(worked_3x2, spec)


class TestBipartite:
    def test_edge_count(self):
        rng = np.random.default_rng(31)
        panel = random_panel(rng, 10, 15)
        subset = panel.entities[:8]
        svg = emit_bipartite(panel, subset, ChartSpec("bipartite"))
        assert len(elements_with_class(svg, "edge")) == 120

    def test_zero_score_minimum_edge(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[0.0, 100.0], [50.0, 50.0]]))
        svg = emit_bipartite(panel, ["a"], ChartSpec("bipartite"))
        edges = {el.get("data-category"): el
                 for el in elements_with_class(svg, "edge")}
        assert edges["c1"].get("stroke-width") == "0.50"
        assert edges["c1"].get("stroke") == "#ffff00"
        assert edges["c2"].get("stroke-width") == "4.00"
        assert edges["c2"].get("stroke") == "#008000"

    def test_single_entity_star(self):
        rng = np.random.default_rng(32)
        panel = random_panel(rng, 4, 7)
        svg = emit_bipartite(panel, [panel.entities[0]], ChartSpec("bipartite"))
        assert len(elements_with_class(svg, "edge")) == 7

    def test_missing_cells_skipped(self):
        scores = np.array([[50.0, 0.0], [20.0, 30.0]])
        mask = np.array([[False, True], [False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        svg = emit_bipartite(panel, ["a", "b"], ChartSpec("bipartite"))
        assert len(elements_with_class(svg, "edge")) == 3

    def test_unknown_entity(self, worked_3x2):
        with pytest.raises(InputError, match="unknown"):
            emit_bipartite(worked_3x2, ["nope"], ChartSpec("bipartite"))

    def test_empty_subset(self, worked_3x2):
        with pytest.raises(InputError, match="nonempty"):
            emit_bipartite(worked_3x2, [], ChartSpec("bipartite"))


class TestWeightBars:
    def test_bar_count(self):
        rng = np.random.default_rng(33)
        values = rng.uniform(0.5, 2.0, size=15)
        svg = emit_weight_bars(weights_for([f"g{i:02d}" for i in range(15)],
                                           values), ChartSpec("weight_bars"))
        assert len(elements_with_class(svg, "bar")) == 15

    def test_equal_weights_equal_lengths(self):
        svg = emit_weight_bars(weights_for(["g1", "g2"], [1.3, 1.3]),
                               ChartSpec("weight_bars"))
        widths = {el.get("width") for el in elements_with_class(svg, "bar")}
        assert len(widths) == 1

    def test_length_ratio_one_to_three(self):
        svg = emit_weight_bars(weights_for(["g1", "g2"], [2 / 3, 2.0]),
                               ChartSpec("weight_bars"))
        bars = {el.get("data-category"): float(el.get("width"))
                for el in elements_with_class(svg, "bar")}
        assert bars["g2"] / bars["g1"] == pytest.approx(3.0, rel=1e-3)

    def test_three_decimal_labels(self):
        svg = emit_weight_bars(weights_for(["g1", "g2"], [2 / 3, 2.0]),
                               ChartSpec("weight_bars"))
        labels = [el.text for el in elements_with_class(svg, "bar-label")]
        assert labels == ["0.667", "2.000"]


class TestWeightedLines:
    def profile_for(self, panel, weights):
        deg = degree_index(panel)
        table = rank_entities(panel.entities, deg.totals, "k_s", panel.year)
        return tertile_groups(table, panel, weights)

    def test_line_count_paper_scale(self):
        rng = np.random.default_rng(34)
        panel = random_panel(rng, 36, 15)
        weights = weights_for(panel.categories, np.ones(15))
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities,
                                  ChartSpec("weighted_lines"))
        assert len(elements_with_class(svg, "entity-line")) == 36
        assert len(elements_with_class(svg, "group-line")) == 3
        assert len(elements_with_class(svg, "national-line")) == 1

    def test_identical_rows_collapse_to_national(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.array([[50.0, 60.0]] * 3))
        weights = weights_for(panel.categories, [1.0, 1.0])
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities,
                                  ChartSpec("weighted_lines"))
        national = elements_with_class(svg, "national-line")[0].get("d")
        for el in elements_with_class(svg, "group-line"):
            assert el.get("d") == national

    def test_constant_curves_horizontal(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2", "c3"],
                           np.array([[40.0] * 3, [50.0] * 3, [60.0] * 3]))
        weights = weights_for(panel.categories, [1.0, 1.0, 1.0])
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities,
                                  ChartSpec("weighted_lines"))
        for el in elements_with_class(svg, "entity-line"):
            ys = {seg.split(",")[1] for seg in el.get("d").split(" ")}
            assert len(ys) == 1

    def test_best_worst_annotated(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.array([[90.0, 10.0], [50.0, 50.0], [10.0, 90.0]]))
        weights = weights_for(panel.categories, [1.0, 1.0])
        profile = self.profile_for(panel, weights)
        performance = weighted_performance(panel, weights)
        svg = emit_weighted_lines(performance, profile, panel.entities,
                                  ChartSpec("weighted_lines"))
        best = [el.text for el in elements_with_class(svg, "best-label")]
        worst = [el.text for el in elements_with_class(svg, "worst-label")]
        assert best == ["a 90.000", "c 90.000"]
        assert worst == ["c 10.000", "a 10.000"]


class TestRankBump:
    def series_for(self, rows):
        tables = [rank_entities(entities, values, "k_s", year)
                  for year, entities, values in rows]
        return rank_evolution(tables)

    def test_four_year_ticks(self):
        series = self.series_for([
            (year, ["a", "b"], [2.0, 1.0])
            for year in ("2018", "2019", "2020", "2024")])
        svg = emit_rank_bump(series, ChartSpec("rank_bump"))
        ticks = [el.text for el in elements_with_class(svg, "x-tick")]
        assert ticks == ["2018", "2019", "2020", "2024"]

    def test_constant_ranks_horizontal(self):
        series = self.series_for([
            ("2018", ["a", "b"], [2.0, 1.0]), ("2019", ["a", "b"], [2.0, 1.0])])
        svg = emit_rank_bump(series, ChartSpec("rank_bump"))
        for el in elements_with_class(svg, "rank-line"):
            ys = {seg.split(",")[1] for seg in el.get("d").split(" ")}
            assert len(ys) == 1

    def test_swapped_ranks_cross(self):
        series = self.series_for([
            ("2018", ["a", "b"], [2.0, 1.0]), ("2019", ["a", "b"], [1.0, 2.0])])
        svg = emit_rank_bump(series, ChartSpec("rank_bump"))
        lines = {el.get("data-entity"): el.get("d")
                 for el in elements_with_class(svg, "rank-line")}
        a_y = [seg.split(",")[1] for seg in lines["a"].split(" ")]
        b_y = [seg.split(",")[1] for seg in lines["b"].split(" ")]
        assert a_y[0] != a_y[1]
        assert a_y[0] == b_y[1] and a_y[1] == b_y[0]

    def test_gap_breaks_path(self):
        from panelrank import EntityMap
        emap = EntityMap.from_json(
            '{"merges": [{"from": ["p", "q"], "to": ["pq"]}]}')
        tables = [rank_entities(["p", "q", "x"], [3.0, 2.0, 1.0], "k_s", "2019"),
                  rank_entities(["pq", "x"], [2.0, 1.0], "k_s", "2020")]
        series = rank_evolution(tables, [emap])
        svg = emit_rank_bump(series, ChartSpec("rank_bump"))
        lines = {el.get("data-entity"): el.get("d")
                 for el in elements_with_class(svg, "rank-line")}
        assert lines["pq"].count("M") == 1
        assert "L" not in lines["pq"]


class TestGroupedBars:
    def test_bars_and_gaps(self):
        early = weights_for(["g1", "g2"], [1.0, 2.0], year="2018")
        full = [weights_for(["g1", "g2", "g3"], [1.0, 2.0, 3.0], year=str(y))
                for y in (2019, 2020, 2024)]
        evolution = weights_evolution([early, *full])
        svg = emit_grouped_bars(evolution, ChartSpec("grouped_bars"))
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
        svg = emit_grouped_bars(evolution, ChartSpec("grouped_bars"))
        assert len(elements_with_class(svg, "bar")) == 1

    def test_deterministic(self):
        evolution = weights_evolution(
            [weights_for(["g1", "g2"], [1.0, 2.0], year="2018")])
        spec = ChartSpec("grouped_bars")
        assert emit_grouped_bars(evolution, spec) == emit_grouped_bars(
            evolution, spec)


class TestAllEmittersWellFormed:
    def test_well_formed_outputs(self, data_dir):
        from panelrank import parse_panel
        panel = parse_panel((data_dir / "panel_2024.csv").read_text(), "2024")
        weights = weights_for(panel.categories, np.ones(panel.n_categories),
                              year="2024")
        deg = degree_index(panel)
        table = rank_entities(panel.entities, deg.totals, "k_s", "2024")
        profile = tertile_groups(table, panel, weights)
        performance = weighted_performance(panel, weights)
        series = rank_evolution([table])
        evolution = weights_evolution([weights])
        outputs = [
            emit_heatmap(panel, ChartSpec("heatmap", title="A & B")),
            emit_bipartite(panel, panel.entities[:3], ChartSpec("bipartite")),
            emit_weight_bars(weights, ChartSpec("weight_bars")),
            emit_weighted_lines(performance, profile, panel.entities,
                                ChartSpec("weighted_lines")),
            emit_rank_bump(series, ChartSpec("rank_bump")),
            emit_grouped_bars(evolution, ChartSpec("grouped_bars")),
        ]
        for svg in outputs:
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")


class TestMarkupInIds:
    ENTITIES = ['a"b', "c'd", "e<f", "g&h"]
    CATEGORIES = ['q"1', "q'2", "q<3", "q&4"]

    def test_every_chart_parses_and_keeps_ids(self):
        from xml.dom import minidom
        rng = np.random.default_rng(35)
        panel = make_panel('y"1', self.ENTITIES, self.CATEGORIES,
                           rng.uniform(1, 100, size=(4, 4)))
        weights = weights_for(panel.categories, [1.0, 2.0, 3.0, 4.0],
                              year=panel.year)
        table = rank_entities(panel.entities, degree_index(panel).totals,
                              "k_s", panel.year)
        outputs = [
            emit_heatmap(panel, ChartSpec("heatmap", title="<\"'&>")),
            emit_bipartite(panel, panel.entities, ChartSpec("bipartite")),
            emit_weight_bars(weights, ChartSpec("weight_bars")),
            emit_weighted_lines(weighted_performance(panel, weights),
                                tertile_groups(table, panel, weights),
                                panel.entities, ChartSpec("weighted_lines")),
            emit_rank_bump(rank_evolution([table]), ChartSpec("rank_bump")),
            emit_grouped_bars(weights_evolution([weights]),
                              ChartSpec("grouped_bars")),
        ]
        for svg in outputs:
            doc = minidom.parseString(svg)
            ids = set()
            for name in ("data-entity", "data-category"):
                for el in doc.getElementsByTagName("*"):
                    if el.hasAttribute(name):
                        ids.add(el.getAttribute(name))
            assert ids, svg[:200]
            assert ids <= set(self.ENTITIES) | set(self.CATEGORIES)
