"""Differential property tests of the columnar CSV readers.

``parse_panel``, ``parse_indicator_csv`` and ``aggregate_indicators``
convert and check whole columns, and walk the rows only to name the
first fault. On valid CSVs of both forms, mutated by up to three drawn
faults in any order, they must agree with the cell-by-cell readers in
``oracles``: the same panel (ids, and scores down to the sign of zero,
and mask), or an ``InputError`` with the same text, whose row numbers
are file lines. Blank lines, before the header too, and cells spanning
lines are drawn, so those numbers drift from a count of records. The
profile is derandomized, so every run draws the same examples.
"""

import csv
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from panelrank import (InputError, aggregate_indicators,  # noqa: E402
                       parse_indicator_csv, parse_panel)

from oracles import (aggregate_indicators_by_records,  # noqa: E402
                     parse_indicator_csv_by_rows, parse_panel_by_cells)

PROFILE = settings(derandomize=True, max_examples=300, deadline=None,
                   database=None)

# Cells the readers accept: padded, signed zero, exponent and the bounds.
GOOD = st.one_of(st.integers(0, 100).map(str),
                 st.sampled_from(["12.5", " 42 ", "\t7", "-0", "1e1", "100",
                                  "0.0", "+3", "1_0"]))
# Cells that are missing: empty or whitespace only.
BLANK = st.sampled_from(["", " ", "  \t"])
# Cells that break a reader: not numbers, not finite, out of range.
BAD = st.sampled_from(["oops", "x y", "1,5", "1.2.3", "0x10", "nan", "NaN",
                       "inf", "-inf", "1e400", "101", "-1", "-0.5",
                       "100.0000001"])


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def panel_outcome(panel):
    return (panel.year, panel.entities, panel.categories,
            panel.scores.tobytes(), panel.missing_mask.tolist())


def outcome(read, *args):
    """A comparable summary of a reader's result, or its error text."""
    try:
        return read(*args)
    except InputError as exc:
        return "error: " + str(exc)


# A mutation's kind and the text it writes: mostly a bad cell, else a
# good or blank one, a row cut short, lengthened or emptied, a row whose
# ids are copied from another row and whose last cell is replaced, a
# blank line inserted before a row, or a cell continued on a new line.
MUTATIONS = st.one_of(st.tuples(st.just("cell"), BAD),
                      st.tuples(st.just("cell"), st.one_of(GOOD, BLANK)),
                      st.tuples(st.sampled_from(["short", "long", "empty"]),
                                GOOD),
                      st.tuples(st.just("dup"), st.one_of(GOOD, BAD)),
                      st.tuples(st.sampled_from(["blank", "wrap"]), GOOD))


def faults(n_rows: int, columns):
    """One to three mutations, applied in the order drawn:
    (kind, text, row, column)."""
    return st.lists(st.tuples(MUTATIONS, st.integers(0, n_rows - 1),
                              columns).map(
                                  lambda f: (*f[0], *f[1:])),
                    min_size=1, max_size=3)


def mutate(rows, faults, key: int):
    """Apply ``faults`` to ``rows`` (data rows); ``key`` is the number of
    leading id columns, which a "dup" copies from another row."""
    for kind, text, r, c in faults:
        row = rows[r]
        if kind == "cell" and c < len(row):
            row[c] = text
        elif kind == "short":
            del row[c:]
        elif kind == "long":
            row.extend([text] * (c + 1))
        elif kind == "empty":
            row.clear()
        elif kind == "dup":
            row[:key] = rows[c % len(rows)][:key]
            row[-1:] = [text]
        elif kind == "blank":
            rows.insert(r, [])
        elif kind == "wrap" and c < len(row):
            row[c] += "\n" + text
    return rows


def leading_blank_lines(draw):
    return [[]] * draw(st.sampled_from([0, 0, 1, 2]))


@st.composite
def wide_csvs(draw):
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    header = ["entity", *(f"c{j}" for j in range(m))]
    rows = [[f"e{i}", *draw(st.lists(st.one_of(GOOD, GOOD, GOOD, BLANK),
                                     min_size=m, max_size=m))]
            for i in range(n)]
    return csv_text([*leading_blank_lines(draw), header,
                     *mutate(rows, draw(faults(n, st.integers(0, m))), 1)])


@PROFILE
@given(text=wide_csvs())
def test_parse_panel_matches_cell_reader(text):
    def read(parse):
        return panel_outcome(parse(text, "y"))
    assert outcome(read, parse_panel) == outcome(read, parse_panel_by_cells)


@st.composite
def long_csvs(draw):
    triples = [(f"e{i}", f"g{j}", f"k{k}")
               for i in range(4) for j in range(3) for k in range(2)]
    chosen = draw(st.lists(st.sampled_from(triples), min_size=6,
                           max_size=16, unique=True))
    rows = [[*triple, draw(GOOD)] for triple in chosen]
    # Mostly the value column; a bad id is just another id.
    columns = st.one_of(st.just(3), st.integers(0, 3))
    return csv_text([*leading_blank_lines(draw),
                     ["entity", "category", "indicator", "value"],
                     *mutate(rows, draw(faults(len(rows), columns)), 3)])


def table_outcome(table):
    return (table.year, table.entities, table.categories, table.indicators,
            tuple(map(repr, table.values)))


@PROFILE
@given(text=long_csvs())
def test_indicator_route_matches_record_reader(text):
    def parsed(parse):
        return table_outcome(parse(text, "y"))

    def aggregated(parse, aggregate):
        return panel_outcome(aggregate(parse(text, "y")))

    assert (outcome(parsed, parse_indicator_csv)
            == outcome(parsed, parse_indicator_csv_by_rows))
    assert (outcome(aggregated, parse_indicator_csv, aggregate_indicators)
            == outcome(aggregated, parse_indicator_csv_by_rows,
                       aggregate_indicators_by_records))
