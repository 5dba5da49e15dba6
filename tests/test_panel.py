import csv
import io
import time
import tracemalloc

import numpy as np
import pytest

import panelrank.panel as panel_module
from panelrank import (EntityMap, IndicatorTable, InputError,
                       aggregate_indicators, align_rosters, make_panel,
                       parse_indicator_csv, parse_panel, validate_panel)
from panelrank.panel import indicator_panel

from conftest import random_panel
from oracles import panel_to_csv


def panel_csv(n_entities: int, n_categories: int, value=50.0) -> str:
    header = "entity," + ",".join(f"c{j:02d}" for j in range(n_categories))
    rows = [f"e{i:02d}," + ",".join(str(value) for _ in range(n_categories))
            for i in range(n_entities)]
    return "\n".join([header, *rows]) + "\n"


class TestParsePanel:
    def test_paper_scale_panel(self):
        panel = parse_panel(panel_csv(36, 15), "2024")
        assert panel.n_entities == 36
        assert panel.n_categories == 15
        assert panel.year == "2024"
        assert not panel.missing_mask.any()

    def test_missing_cells_masked_and_zeroed(self):
        text = "entity,c1,c2\na,10,\nb,20,30\n"
        panel = parse_panel(text, "y")
        assert panel.missing_mask[0, 1]
        assert panel.scores[0, 1] == 0.0
        assert panel.scores[0, 0] == 10.0

    def test_zero_matrix_rejected(self):
        with pytest.raises(InputError, match="degenerate"):
            parse_panel("entity,c1,c2\na,0,0\nb,0,0\n", "y")

    def test_out_of_range_cell(self):
        with pytest.raises(InputError, match=r"105.*row 3.*c2"):
            parse_panel("entity,c1,c2\na,10,20\nb,30,105\n", "y")

    def test_non_numeric_cell(self):
        with pytest.raises(InputError, match="non-numeric"):
            parse_panel("entity,c1,c2\na,10,x\nb,30,40\n", "y")

    def test_ragged_row(self):
        with pytest.raises(InputError, match="row 3"):
            parse_panel("entity,c1,c2\na,10,20\nb,30\n", "y")

    def test_duplicate_entity(self):
        with pytest.raises(InputError, match="duplicate entity"):
            parse_panel("entity,c1,c2\na,10,20\na,30,40\n", "y")

    def test_duplicate_category(self):
        with pytest.raises(InputError, match="duplicate category"):
            parse_panel("entity,c1,c1\na,10,20\nb,30,40\n", "y")

    def test_all_missing_row(self):
        with pytest.raises(InputError, match="no reported scores"):
            parse_panel("entity,c1,c2\na,,\nb,30,40\n", "y")

    def test_all_missing_column(self):
        with pytest.raises(InputError, match="'c2'"):
            parse_panel("entity,c1,c2\na,10,\nb,30,\n", "y")

    def test_requires_entity_corner(self):
        with pytest.raises(InputError, match="entity"):
            parse_panel("state,c1,c2\na,10,20\nb,30,40\n", "y")

    def test_too_small(self):
        with pytest.raises(InputError, match="at least 2"):
            parse_panel("entity,c1,c2\na,10,20\n", "y")

    @pytest.mark.parametrize("text", [
        'entity,c1,c2\n"a\rb",10,20\nz,30,40\n',
        'entity,"c\r1",c2\na,10,20\nz,30,40\n'])
    def test_carriage_return_in_id(self, text):
        # panel_to_csv would write it unquoted, which the reader rejects,
        # and XML does not allow it.
        with pytest.raises(InputError, match="XML does not allow"):
            parse_panel(text, "y")

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x08", "\x0b", "\x0c",
                                      "\x1f", "\ufffe", "\uffff"])
    @pytest.mark.parametrize("axis", ["entity", "category"])
    def test_id_xml_forbids_rejected(self, char, axis):
        # An SVG chart holding one is not well-formed.
        ids, other = ["a", f"e{char}x", "b"], ["g1", "g2"]
        if axis == "category":
            ids, other = other, ids
        with pytest.raises(InputError) as exc:
            make_panel("y", ids, other, np.ones((len(ids), len(other))))
        assert str(exc.value) == (
            f"id {'e' + char + 'x'!r} contains a character XML does not allow")

    def test_tab_newline_and_other_controls_kept_in_ids(self):
        # XML allows a tab, a newline, DEL and the C1 controls.
        ids = ("a\tb", "c\nd", "e\x7f", "f\x85", "g\u2028")
        panel = make_panel("y", ids, ["g1", "g2"], np.ones((5, 2)))
        assert panel.entities == ids

    @pytest.mark.parametrize("text, message", [
        ("entity,a,b\nx,oops,1\ny,2\n",
         "non-numeric cell 'oops' at row 2, column 'a'"),
        ("entity,a,b\nx,1\ny,oops,2\n", "row 2 has 2 cells, expected 3"),
        ("entity,a,b\nx,1,nan\ny,2,x\n",
         "score nan out of range [0, 100] at row 2, column 'b'"),
        # Rows are named by file line: blank lines and a quoted id
        # spanning two lines are counted.
        ("entity,a,b\n\n\nx,oops,1\ny,1,2\n",
         "non-numeric cell 'oops' at row 4, column 'a'"),
        ('entity,a,b\n"x\ny",1,2\nz,1,oops\n',
         "non-numeric cell 'oops' at row 4, column 'b'"),
        ("\nentity,a,b\nx,1,2\n\ny,1\n", "row 5 has 2 cells, expected 3"),
        # A quoted cell holding a comma is one cell, not two numbers, even
        # where two would make every row as wide as the header.
        ('entity,a,b\nx,"1,5",2\ny,1,2\n',
         "non-numeric cell '1,5' at row 2, column 'a'"),
        ('entity,a\n1,"2,3"\n4,"5,6"\n',
         "non-numeric cell '2,3' at row 2, column 'a'")])
    def test_first_fault_in_row_order_wins(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_panel(text, "y")
        assert str(exc.value) == message

    @pytest.mark.parametrize("axis", ["entity", "category"])
    def test_duplicate_ids_named_in_linear_time(self, axis):
        # Counting each id's copies one id at a time took about 19 s here.
        n = 30_000
        ids = [f"E{i:05d}" for i in range(n)]
        ids[-1], ids[-2] = ids[7], ids[3]
        other = ["a", "b"]
        start = time.process_time()
        with pytest.raises(InputError) as exc:
            if axis == "entity":
                make_panel("y", ids, other, np.ones((n, 2)))
            else:
                make_panel("y", other, ids, np.ones((2, n)))
        assert time.process_time() - start < 3.0
        assert str(exc.value) == f"duplicate {axis} ids: E00003, E00007"

    def test_cells_stripped_and_whitespace_only_missing(self):
        panel = parse_panel("entity,c1,c2\n a , 10 ,  \t\nb,-0,30\n", "y")
        assert panel.entities == ("a", "b")
        assert panel.missing_mask.tolist() == [[False, True], [False, False]]
        assert panel.scores.tolist() == [[10.0, 0.0], [0.0, 30.0]]

    @pytest.mark.parametrize("text, message", [
        ("entity,c1,c2\n,10,20\nb,30,40\n", "an entity id is empty"),
        ("entity,,c2\na,10,20\nb,30,40\n", "a category id is empty"),
        ("entity, ,c2\na,10,20\nb,30,40\n", "a category id is empty")])
    def test_empty_id(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_panel(text, "y")

    def test_bundled_fixture_parses(self, data_dir):
        text = (data_dir / "panel_2024.csv").read_text()
        panel = parse_panel(text, "2024")
        assert panel.n_entities == 12
        assert panel.n_categories == 15
        assert panel.missing_mask.sum() == 2


class TestFootprint:
    def test_make_panel_peak_is_one_copy_and_its_checks(self):
        # make_panel checks and zeroes its one copy of the scores, peaking
        # at about 2.15 x n m 8 bytes on 20,000 x 17. Checking the given
        # cells picked out of the input, then zeroing a second copy, took
        # about 3.3 times.
        n, m = 20_000, 17
        row, col = np.arange(n)[:, None], np.arange(m)
        scores = 1.0 + (row * 37 + col * 11) % 97
        mask = (row * 7 + col) % 50 == 0
        entities = [f"e{i:05d}" for i in range(n)]
        categories = [f"c{j:02d}" for j in range(m)]
        tracemalloc.start()
        try:
            panel = make_panel("y", entities, categories, scores, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.missing_mask.sum() == n * m // 50
        assert peak < 2.5 * n * m * 8

    def test_read_peak_is_a_small_multiple_of_the_text(self):
        # A deterministic gate instead of a timing one: parsing a plain
        # 20,000 x 17 panel peaks at about 6.7 times its text, 8.5 while
        # make_panel checked a second copy. A str made per cell, and a
        # Python float per score, took about 19 times.
        n, m = 20_000, 17
        row, col = np.arange(n)[:, None], np.arange(m)
        cells = np.char.mod("%.1f", (row * 37 + col * 11) % 1001 / 10)
        cells = cells.astype(object)
        cells[(row * 7 + col) % 50 == 0] = ""
        text = "entity," + ",".join(f"c{j:02d}" for j in range(m)) + "\n" + "".join(
            f"e{i:05d},{','.join(line)}\n" for i, line in enumerate(cells.tolist()))
        tracemalloc.start()
        try:
            panel = parse_panel(text, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.missing_mask.sum() == n * m // 50
        assert peak < 7.5 * len(text)

    def test_indicator_read_peak_is_a_small_multiple_of_the_text(self):
        # Reading a plain 19,779-record long-form text from its bytes
        # peaks at about 7.8 times the text. A str per cell, a float per
        # value and an IndicatorTable of them took about 14.6 times.
        text = indicator_text(400)
        tracemalloc.start()
        try:
            panel = indicator_panel(text, "y")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.missing_mask.sum() == 207
        assert peak < 11 * len(text)


def indicator_text(n: int) -> str:
    """A long-form text shaped like the benchmark's: n entities x 17 goals
    x 3 indicators, values of one decimal, every 33rd cell absent."""
    lines = ["entity,category,indicator,value"]
    for i in range(n):
        for j in range(17):
            if (i * 17 + j) % 33:
                lines += [f"I{i:05d},goal{j + 1:02d},ind{k + 1},"
                          f"{(i * 37 + j * 11 + k * 7) % 1000 / 10:.1f}"
                          for k in range(3)]
    return "\n".join(lines) + "\n"


# A long-form text with no quote: 30 entities x 5 goals x 3 indicators.
UNQUOTED_INDICATORS = "entity,category,indicator,value\n" + "".join(
    f"e{i},g{j},k{k},{(7 * i + 3 * j + k) % 101}\n"
    for i in range(30) for j in range(5) for k in range(3))


def quote_all(text: str) -> str:
    out = io.StringIO()
    csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(
        csv.reader(io.StringIO(text)))
    return out.getvalue()


class TestReadRoute:
    """Unquoted text is split without ``csv.reader``; quoted text goes
    through it and reads the same."""

    @staticmethod
    def count_readers(monkeypatch) -> list:
        calls, reader = [], csv.reader
        monkeypatch.setattr(panel_module.csv, "reader",
                            lambda *args: calls.append(args) or reader(*args))
        return calls

    def test_unquoted_text_split(self, monkeypatch, data_dir):
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted(data_dir.glob("panel_*.csv"))]
        assert len(texts) == 4
        calls = self.count_readers(monkeypatch)
        for text in texts:
            parse_panel(text, "y")
        aggregate_indicators(parse_indicator_csv(UNQUOTED_INDICATORS, "y"))
        assert calls == []

    def test_quoted_text_read_by_reader(self, monkeypatch, data_dir):
        text = (data_dir / "panel_2024.csv").read_text(encoding="utf-8")
        panel = parse_panel(text, "y")
        table = parse_indicator_csv(UNQUOTED_INDICATORS, "y")
        quoted = quote_all(text), quote_all(UNQUOTED_INDICATORS)
        calls = self.count_readers(monkeypatch)
        again = parse_panel(quoted[0], "y")
        assert len(calls) >= 1
        assert parse_indicator_csv(quoted[1], "y") == table
        assert len(calls) >= 2
        assert (again.entities, again.categories) == (panel.entities,
                                                      panel.categories)
        assert again.scores.tobytes() == panel.scores.tobytes()
        assert np.array_equal(again.missing_mask, panel.missing_mask)


class TestIndicatorRoute:
    """A plain long-form text is read from its bytes, never as an
    ``IndicatorTable``; any other text, or one with a fault, takes the
    two steps, which name the fault."""

    @staticmethod
    def two_steps(monkeypatch) -> list:
        calls, parse = [], panel_module.parse_indicator_csv
        monkeypatch.setattr(panel_module, "parse_indicator_csv",
                            lambda *args: calls.append(args) or parse(*args))
        return calls

    @staticmethod
    def same(a, b) -> bool:
        return ((a.year, a.entities, a.categories) == (b.year, b.entities,
                                                       b.categories)
                and a.scores.tobytes() == b.scores.tobytes()
                and np.array_equal(a.missing_mask, b.missing_mask))

    def test_plain_text_read_from_bytes(self, monkeypatch):
        text = indicator_text(40)
        expected = aggregate_indicators(parse_indicator_csv(text, "y"))

        def refuse(*args):
            raise AssertionError("the two-step route was taken")
        monkeypatch.setattr(panel_module, "parse_indicator_csv", refuse)
        assert self.same(indicator_panel(text, "y"), expected)
        # An upper-case header, and no final newline, stay plain.
        assert self.same(indicator_panel(
            "ENTITY,Category" + text[15:-1], "y"), expected)

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"), lambda t: t.replace(",", ", ", 1),
        lambda t: t + "\n", quote_all, lambda t: t.replace("ind2", "ind\u00e9"),
        # One id whose keys, as wide as it for every record, would outgrow
        # the text.
        lambda t: t + "x" * 5000 + ",goal02,ind1,5\n"])
    def test_other_text_takes_two_steps(self, monkeypatch, edit):
        text = edit(indicator_text(4))
        expected = aggregate_indicators(parse_indicator_csv(text, "y"))
        calls = self.two_steps(monkeypatch)
        assert self.same(indicator_panel(text, "y"), expected)
        assert len(calls) == 1

    @pytest.mark.parametrize("record, message", [
        ("I00000,goal02,ind1,5",
         "duplicate indicator 'ind1' for entity 'I00000', category 'goal02'"),
        ("I00009,goal01,ind1,101", "indicator value 101.0 out of range "
         "[0, 100] for entity 'I00009', category 'goal01', indicator 'ind1'"),
        ("I00009,goal01,ind1,", "non-numeric value '' at row 197"),
        ("I00009,goal01,ind\x01,5", r"indicator 'ind\x01' contains a "
         "character XML does not allow")])
    def test_fault_named_by_two_steps(self, monkeypatch, record, message):
        text = indicator_text(4) + record + "\n"
        calls = self.two_steps(monkeypatch)
        with pytest.raises(InputError) as exc:
            indicator_panel(text, "y")
        assert str(exc.value) == message
        assert len(calls) == 1


class TestRoundTrip:
    def test_emit_parse_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = int(rng.integers(2, 15)), int(rng.integers(2, 10))
            panel = random_panel(rng, n, m, year="2020-21")
            # knock out a few cells, avoiding whole rows/columns
            scores = np.array(panel.scores)
            mask = np.zeros_like(scores, dtype=bool)
            if n > 2 and m > 2:
                mask[1, 1] = True
                scores[1, 1] = 0.0
            panel = make_panel(panel.year, panel.entities, panel.categories,
                               scores, mask)
            again = parse_panel(panel_to_csv(panel), panel.year)
            assert again.entities == panel.entities
            assert again.categories == panel.categories
            assert np.array_equal(again.scores, panel.scores)
            assert np.array_equal(again.missing_mask, panel.missing_mask)
            assert again.year == panel.year


class TestParseIndicatorCsv:
    def test_first_bad_name_far_down_a_long_column(self):
        # The check reads the distinct names; the first bad one in record
        # order is named, not the first in string order.
        names = ["k1", "k2", "k3"] * 2000
        names[2000] = names[5000] = "k\x02late"
        names[4000] = "k\x01a"
        text = "entity,category,indicator,value\n" + "".join(
            f"e{i},g1,{name},10\n" for i, name in enumerate(names))
        with pytest.raises(InputError) as exc:
            parse_indicator_csv(text, "2024")
        assert str(exc.value) == (r"indicator 'k\x02late' contains a "
                                  "character XML does not allow")


class TestAggregateIndicators:
    def make_table(self, rows):
        return IndicatorTable("2024", *zip(*rows))

    def test_two_point_mean(self):
        table = self.make_table([
            ("a", "g1", "k1", 40.0), ("a", "g1", "k2", 60.0),
            ("a", "g2", "k1", 10.0),
            ("b", "g1", "k1", 20.0), ("b", "g2", "k1", 30.0)])
        panel = aggregate_indicators(table)
        assert panel.scores[0, 0] == 50.0

    def test_single_indicator_identity(self):
        table = self.make_table([
            ("a", "g1", "k1", 73.0), ("a", "g2", "k1", 10.0),
            ("b", "g1", "k1", 20.0), ("b", "g2", "k1", 30.0)])
        assert aggregate_indicators(table).scores[0, 0] == 73.0

    def test_three_point_mean(self):
        table = self.make_table([
            ("a", "g1", "k1", 0.0), ("a", "g1", "k2", 50.0),
            ("a", "g1", "k3", 100.0), ("a", "g2", "k1", 10.0),
            ("b", "g1", "k1", 20.0), ("b", "g2", "k1", 30.0)])
        assert aggregate_indicators(table).scores[0, 0] == 50.0

    def test_indicator_order_irrelevant(self):
        rng = np.random.default_rng(3)
        values = list(rng.uniform(0, 100, size=9))
        rows = [("a", "g1", f"k{i}", v) for i, v in enumerate(values)]
        rows += [("a", "g2", "k1", 10.0), ("b", "g1", "k1", 20.0),
                 ("b", "g2", "k1", 30.0)]
        forward = aggregate_indicators(self.make_table(rows))
        rows[:9] = rows[:9][::-1]
        backward = aggregate_indicators(self.make_table(rows))
        assert forward.scores[0, 0] == backward.scores[0, 0]

    def test_uncovered_pair_becomes_missing(self):
        table = self.make_table([
            ("a", "g1", "k1", 40.0), ("a", "g2", "k1", 10.0),
            ("b", "g1", "k1", 20.0), ("b", "g2", "k1", 30.0),
            ("c", "g1", "k1", 25.0)])
        panel = aggregate_indicators(table)
        assert panel.missing_mask[2, 1]
        assert panel.scores[2, 1] == 0.0

    def test_duplicate_triple_rejected(self):
        table = self.make_table([
            ("a", "g1", "k1", 40.0), ("a", "g1", "k1", 60.0),
            ("b", "g2", "k1", 30.0)])
        with pytest.raises(InputError, match="duplicate indicator"):
            aggregate_indicators(table)

    def test_out_of_range_indicator(self):
        table = self.make_table([("a", "g1", "k1", 140.0)])
        with pytest.raises(InputError, match="out of range"):
            aggregate_indicators(table)

    def test_empty_table(self):
        with pytest.raises(InputError, match="empty"):
            aggregate_indicators(IndicatorTable("2024", ()))

    @pytest.mark.parametrize("rows, message", [
        ([("a", "g1", "k1", 40.0), ("b", "g1", "k1", 150.0),
          ("a", "g1", "k1", 60.0)],
         "indicator value 150.0 out of range [0, 100] for entity 'b', "
         "category 'g1', indicator 'k1'"),
        ([("a", "g1", "k1", 40.0), ("a", "g1", "k1", 60.0),
          ("b", "g1", "k1", 150.0)],
         "duplicate indicator 'k1' for entity 'a', category 'g1'"),
        ([("a", "g1", "k1", 40.0), ("a", "g1", "k1", -1.0)],
         "duplicate indicator 'k1' for entity 'a', category 'g1'")])
    def test_first_bad_record_wins(self, rows, message):
        with pytest.raises(InputError) as exc:
            aggregate_indicators(self.make_table(rows))
        assert str(exc.value) == message

    def test_first_bad_row_wins_in_long_form_csv(self):
        text = "entity,category,indicator,value\na,g1,k1,oops\nb,g1,k1\n"
        with pytest.raises(InputError) as exc:
            parse_indicator_csv(text, "y")
        assert str(exc.value) == "non-numeric value 'oops' at row 2"

    @pytest.mark.parametrize("text, message", [
        ("entity,category,indicator,value\n\na,g1,k1,40\n\nb,g1,k1,oops\n",
         "non-numeric value 'oops' at row 5"),
        ('entity,category,indicator,value\n"a\nb",g1,k1,40\nc,g1,k1\n',
         "row 4 has 3 cells, expected 4")])
    def test_fault_rows_are_file_lines_in_long_form_csv(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_indicator_csv(text, "y")
        assert str(exc.value) == message

    def test_long_form_csv(self):
        text = ("entity,category,indicator,value\n"
                "a,g1,k1,40\na,g1,k2,60\na,g2,k1,10\n"
                "b,g1,k1,20\nb,g2,k1,30\n")
        panel = aggregate_indicators(parse_indicator_csv(text, "2019"))
        assert panel.year == "2019"
        assert panel.scores[0, 0] == 50.0


class TestValidatePanel:
    def test_uniform_panel_constant_columns_only(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.full((2, 2), 100.0))
        findings = validate_panel(panel)
        assert [f.severity for f in findings] == ["warning"]
        assert findings[0].code == "constant-columns"

    def test_high_missingness_fraction_reported(self):
        scores = np.full((36, 15), 50.0) + np.arange(36)[:, None]
        mask = np.zeros_like(scores, dtype=bool)
        mask[:30, 0] = True
        panel = make_panel("y", [f"e{i}" for i in range(36)],
                           [f"c{j}" for j in range(15)], scores, mask)
        findings = validate_panel(panel)
        warnings = [f for f in findings if f.code == "high-missingness"]
        assert len(warnings) == 1
        assert "0.833" in warnings[0].message

    def test_clean_panel_no_errors(self, data_dir):
        panel = parse_panel((data_dir / "panel_2024.csv").read_text(), "2024")
        assert [f for f in validate_panel(panel) if f.severity == "error"] == []

    def test_zero_row_is_error(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[0.0, 0.0], [10.0, 20.0]]))
        findings = validate_panel(panel)
        errors = [f for f in findings if f.severity == "error"]
        assert any(f.code == "degenerate-entity" and f.entity == "a"
                   for f in errors)

    def test_does_not_mutate(self, worked_3x2):
        before = np.array(worked_3x2.scores)
        validate_panel(worked_3x2)
        assert np.array_equal(worked_3x2.scores, before)
        assert not worked_3x2.scores.flags.writeable


class TestAlignment:
    def test_identity(self, worked_3x2):
        alignment = align_rosters(worked_3x2.entities, worked_3x2.entities)
        assert {l.entity: l.kind for l in alignment.links} == {
            "a": "unchanged", "b": "unchanged", "c": "unchanged"}
        assert alignment.retired == ()

    def test_split_children_share_parent(self):
        emap = EntityMap.from_json(
            '{"splits": [{"from": ["AP"], "to": ["AP", "TG"]}]}')
        alignment = align_rosters(["AP", "x"], ["AP", "TG", "x"], emap)
        by_entity = alignment.by_entity()
        assert by_entity["AP"].kind == "split-derived"
        assert by_entity["TG"].kind == "split-derived"
        assert by_entity["TG"].parents == ("AP",)
        assert by_entity["x"].kind == "unchanged"

    def test_merge_starts_fresh(self):
        emap = EntityMap.from_json(
            '{"merges": [{"from": ["DN", "DD"], "to": ["DNDD"]}]}')
        alignment = align_rosters(["DN", "DD", "x"], ["DNDD", "x"], emap)
        assert alignment.by_entity()["DNDD"].kind == "merged"
        assert alignment.by_entity()["DNDD"].parents == ("DN", "DD")

    def test_rename(self):
        emap = EntityMap.from_json(
            '{"renames": [{"from": ["old"], "to": ["new"]}]}')
        alignment = align_rosters(["old", "x"], ["new", "x"], emap)
        assert alignment.by_entity()["new"].kind == "renamed"

    def test_introduced_and_retired(self):
        alignment = align_rosters(["a", "b"], ["b", "c"])
        assert alignment.by_entity()["c"].kind == "introduced"
        assert alignment.retired == ("a",)

    def test_links_in_later_order_retired_in_earlier_order(self):
        emap = EntityMap.from_json(
            '{"splits": [{"from": ["AA"], "to": ["AA", "AZ"]}],'
            ' "merges": [{"from": ["BB", "CC"], "to": ["BC"]}]}')
        later = ["BC", "AZ", "DD", "AA", "EE"]
        alignment = align_rosters(["DD", "QQ", "AA", "BB", "CC", "PP"],
                                  later, emap)
        assert [link.entity for link in alignment.links] == later
        assert alignment.retired == ("QQ", "PP")

    def test_conflicting_rules(self):
        emap = EntityMap.from_json(
            '{"renames": [{"from": ["a"], "to": ["b"]}],'
            ' "splits": [{"from": ["a"], "to": ["c", "d"]}]}')
        with pytest.raises(InputError, match="conflicting"):
            align_rosters(["a"], ["b", "c", "d"], emap)

    def test_dangling_id(self):
        emap = EntityMap.from_json(
            '{"renames": [{"from": ["ghost"], "to": ["b"]}]}')
        with pytest.raises(InputError, match="ghost"):
            align_rosters(["a"], ["b"], emap)

    def test_rename_source_still_present(self):
        emap = EntityMap.from_json(
            '{"renames": [{"from": ["a"], "to": ["b"]}]}')
        with pytest.raises(InputError, match="still"):
            align_rosters(["a"], ["a", "b"], emap)

    def test_bad_rule_shape(self):
        with pytest.raises(InputError, match="split"):
            EntityMap.from_json('{"splits": [{"from": ["a"], "to": ["b"]}]}')

    def test_bad_json(self):
        with pytest.raises(InputError, match="JSON"):
            EntityMap.from_json("not json")

    @pytest.mark.parametrize("text, field", [
        ('{"renames": [{"from": "AA", "to": ["B"]}]}', "'from'"),
        ('{"renames": [{"from": 5, "to": ["B"]}]}', "'from'"),
        ('{"renames": [{"from": ["a"], "to": [5]}]}', "'to'"),
        ('{"rename": [{"from": ["a"], "to": ["b"]}]}', "'rename'"),
    ], ids=["string", "number", "number-in-array", "unknown-field"])
    def test_fields_read_strictly(self, text, field):
        with pytest.raises(InputError, match=field):
            EntityMap.from_json(text)
