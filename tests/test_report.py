import hashlib
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
from panelrank.analytics import tertile_sizes
from panelrank.panel import Finding

from conftest import all_charts, random_panel


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
    profile = tertile_groups(table, panel, weights)
    assert np.isnan(profile.group_curves[2, 6])
    early = [rank_entities(entities[:150 + 20 * k], values[:150 + 20 * k],
                           "k_s", str(2022 + k)) for k in range(2)]
    evolution = weights_evolution([
        weights_for(categories[:8], weights.values[:8] * 0.9, "2022"),
        weights_for(categories, weights.values * 1.1, "2023"), weights])
    mixed = TableData(
        ("entity", "score", "np_score", "rank", "tied", "note"),
        tuple((e, float(v) if i % 17 else float("nan"), np.float64(v / 7),
               np.int64(i), i % 2 == 0, None if i % 3 else "x,y")
              for i, (e, v) in enumerate(zip(entities, values))))

    outputs = {
        "heatmap": emit_heatmap(panel, ChartSpec("heatmap", title='T & <"q">')),
        "bipartite": emit_bipartite(panel, entities[:12], ChartSpec("bipartite")),
        "weight_bars": emit_weight_bars(weights, ChartSpec("weight_bars")),
        "weighted_lines": emit_weighted_lines(
            weighted_performance(panel, weights), profile, panel.entities,
            ChartSpec("weighted_lines")),
        "rank_bump": emit_rank_bump(rank_evolution([*early, table]),
                                    ChartSpec("rank_bump")),
        "grouped_bars": emit_grouped_bars(evolution, ChartSpec("grouped_bars")),
    }
    for name, data in (("ranks", table), ("weights", evolution),
                       ("mixed", mixed)):
        for fmt in ("csv", "json"):
            outputs[f"{name}.{fmt}"] = emit_table(data, fmt)
    return outputs


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
        "ranks.json":
            "78a770435939f37079bd1d8b6c5e8730c256a84467c187365239f9bc8795985a",
        "weights.csv":
            "c75cc8679360206a6afe78bb6a7b420593ce00aa7cd2531023dbb6e714f3bc61",
        "weights.json":
            "b7c52816bb9f6f1819f3dfb8583d1426397e7b1e23928d8b3287e634a5e45ed5",
        "mixed.csv":
            "6945b1a4fafc7a05659123e7f76f39f0d39de456a28bae9aee678c37ac077e42",
        "mixed.json":
            "de28dee9ffd33072653a64056f3a67ff1c51535d401092571b7d843d99c4619f",
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
        # 0.5 * 5 = 2.5 and 0.5 * 255 = 127.5: half to even gives 2 and
        # 128, where int() gives 2 and 127 and half up gives 3 and 128
        (0.5, "#000000", "#05ff00", "#028000"),
    ])
    def test_ramp_color_hand_values(self, t, low, high, expected):
        spec = ChartSpec("heatmap", color_low=low, color_high=high)
        assert ramp_color(spec, t) == expected
