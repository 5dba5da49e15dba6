"""Differential property tests of the columnar CSV readers.

``parse_panel``, ``parse_indicator_csv`` and ``aggregate_indicators``
convert and check whole columns, and walk the rows only to name the
first fault. On valid CSVs of both forms, mutated by up to three drawn
faults in any order, they must agree with the cell-by-cell readers in
``oracles``: the same panel (ids, and scores down to the sign of zero,
and mask), or an ``InputError`` with the same text, whose row numbers
are file lines. Blank lines, before the header too, and cells spanning
lines are drawn, so those numbers drift from a count of records. Texts
may end without a newline or in blank lines, ids may be non-ASCII, and
cells may be padded with any character ``str.strip`` removes, so texts
meet both routes: the byte split of a plain text, and ``csv.reader``.
Beneath both readers, whenever ``_plain_fields`` takes a text its field
bounds must give exactly ``csv.reader``'s non-empty rows, and
``_read_scores`` must give the values ``float`` gives, bit for bit, and
refuse a text exactly when ``float`` refuses one of its non-empty cells.
The wide reader is also drawn one-column, header-only and blank-only
texts, and reads with score blocks of 1 and 5 cells, so that one text's
cells cross blocks. ``indicator_panel``, which reads a plain long-form
text from its bytes and leaves any other to the two steps, must give
the record reader's panel bit for bit, or its error, on texts drawn
plain but for a fault now and then. The profile is derandomized, so
every run draws the same examples.
"""

import csv
import io
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from panelrank import (InputError, aggregate_indicators,  # noqa: E402
                       parse_indicator_csv, parse_panel)
from panelrank import panel  # noqa: E402
from panelrank.panel import (_NOT_PLAIN, _csv_cells,  # noqa: E402
                             _plain_fields, _read_scores, indicator_panel)

from oracles import (aggregate_indicators_by_records,  # noqa: E402
                     parse_indicator_csv_by_rows, parse_panel_by_cells)

PROFILE = settings(derandomize=True, max_examples=300, deadline=None,
                   database=None)

# Each character str.strip removes but the newline, ASCII or not: the
# carriage return ends an unquoted line, and "\x85" ends one for
# str.splitlines but not for the CSV reader.
PADS = [" ", "\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
        "\xa0", "\u2003", "\u2028", "\u3000"]
# Cells the readers accept: signed zero, exponent, the bounds, a bare
# point at either end, leading zeros, cells filling one lane or two, and
# fullwidth digits, which only ``float`` reads.
GOOD = st.one_of(st.integers(0, 100).map(str),
                 st.sampled_from(["12.5", "-0", "1e1", "100", "0.0", "+3",
                                  "1_0", ".5", "5.", "-0.0", "+0.5", "007.25",
                                  "12.345678", "99.999999", "100.000000",
                                  "\uff11\uff12"]))
# A cell that is missing: empty, or whitespace only once padded.
BLANK = st.just("")
# Cells that break a reader: not numbers, not finite, out of range, a
# sign or a point with no digit, a second sign or point.
BAD = st.sampled_from(["oops", "x y", "1,5", "1.2.3", "0x10", "nan", "NaN",
                       "inf", "-inf", "1e400", "101", "-1", "-0.5",
                       "100.0000001", "-", ".", "-.", "+-1", "1..2"])
# Id stems, some not ASCII.
STEM = st.sampled_from(["e", "e", "\u00e9", "\u540d"])


def padder(draw):
    """A function padding a cell on either side, or not, with one
    character of ``PADS`` drawn for the whole text, so that a text often
    holds one kind of padding only."""
    pads = st.sampled_from(["", "", draw(st.sampled_from(PADS))])
    return lambda cell: draw(pads) + cell + draw(pads)


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


def line_ends(draw, text: str) -> str:
    """``text`` with its last newline dropped, kept, or followed by blank
    lines."""
    return text[:-1] + draw(st.sampled_from(["", "\n", "\n", "\n\n"]))


@st.composite
def wide_csvs(draw):
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 4))
    header = ["entity", *(f"c{j}" for j in range(m))]
    stem, pad = draw(STEM), padder(draw)
    rows = [[pad(f"{stem}{i}"), *map(pad, draw(st.lists(
        st.one_of(GOOD, GOOD, GOOD, BLANK), min_size=m, max_size=m)))]
            for i in range(n)]
    return line_ends(draw, csv_text(
        [*leading_blank_lines(draw), header,
         *mutate(rows, draw(faults(n, st.integers(0, m))), 1)]))


@st.composite
def edge_csvs(draw):
    """A one-column text, with rows or none, a text of a header only, or
    one of blank lines only."""
    kind = draw(st.sampled_from(["column", "header", "blank"]))
    rows = {"column": [["entity"], *([f"e{i}"] for i in range(
                draw(st.integers(0, 3))))],
            "header": [["entity", *(f"c{j}" for j in range(
                draw(st.integers(1, 3))))]],
            "blank": []}[kind]
    return line_ends(draw, csv_text([*leading_blank_lines(draw), *rows, []]))


@PROFILE
@given(text=st.one_of(wide_csvs(), wide_csvs(), wide_csvs(), edge_csvs()),
       block=st.sampled_from([1, 5, 8192]))
def test_parse_panel_matches_cell_reader(text, block):
    # Small blocks put the score cells of one text in several blocks.
    def read(parse):
        return panel_outcome(parse(text, "y"))
    with mock.patch.object(panel, "_BLOCK_CELLS", block):
        assert outcome(read, parse_panel) == outcome(read, parse_panel_by_cells)


@st.composite
def long_csvs(draw):
    triples = [(f"e{i}", f"g{j}", f"k{k}")
               for i in range(4) for j in range(3) for k in range(2)]
    chosen = draw(st.lists(st.sampled_from(triples), min_size=6,
                           max_size=16, unique=True))
    stem, pad = draw(STEM), padder(draw)
    # An entity's padding may differ between its records: stripped, they
    # name one entity.
    rows = [[pad(stem + entity[1:]), *map(pad, rest), pad(draw(GOOD))]
            for entity, *rest in chosen]
    # Mostly the value column; a bad id is just another id.
    columns = st.one_of(st.just(3), st.integers(0, 3))
    return line_ends(draw, csv_text(
        [*leading_blank_lines(draw),
         ["entity", "category", "indicator", "value"],
         *mutate(rows, draw(faults(len(rows), columns)), 3)]))


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


# Id characters: ASCII ones the byte route keys, a dot and a digit among
# them, beside C0 controls XML forbids and non-ASCII ones it never takes.
ID_CHARS = st.sampled_from([*"ab1._-"])
ODD_CHARS = st.sampled_from(["\x01", "\x07", "\x1b", "\u00e9", "\u540d"])
# Values in range: the lane reader's cells, ones only ``float`` reads, 17
# digits, and a pool whose sums of three or more round differently added
# one by one: (0.1 + 0.2) + 0.3 and (1 + 1e-16) + 1e-16 give
# 0.6000000000000001 and 1.0, where fsum gives 0.6 and 1.0000000000000002.
VALUES = st.one_of(
    st.sampled_from(["+5", "5.", ".5", "1e1", "1_0", "-0.0", "-0", "100",
                     "12.345678901234567", "3.1415926535897932"]),
    st.floats(0, 100).map(repr),
    *[st.sampled_from(["0.1", "0.2", "0.3", "1", "1e-16", "0.7"])] * 3)
# Values that fail: out of range, not finite, 17 digits too large, not
# numbers, empty.
BAD_VALUES = st.sampled_from(["101", "-1", "nan", "inf", "12345678901234567",
                              "100.00000000000001", "oops", "1.2.3", ""])
HEADERS = ["entity,category,indicator,value", "ENTITY,Category,indicator,VALUE"]


@st.composite
def names(draw):
    """1 to 20 bytes, across the 8-byte lane; now and then with an odd
    character, or empty."""
    name = draw(st.text(ID_CHARS, min_size=1, max_size=20))
    kind = draw(st.sampled_from(["plain"] * 60 + ["odd", "empty"]))
    if kind == "odd":
        at = draw(st.integers(0, len(name)))
        return name[:at] + draw(ODD_CHARS) + name[at:]
    return "" if kind == "empty" else name


def id_lists(lo: int, hi: int):
    """Distinct ids, or siblings differing only in their first byte, the
    one at the edge of a key's mask."""
    siblings = st.builds(lambda heads, tail: [h + tail for h in heads],
                         st.lists(ID_CHARS, min_size=lo, max_size=hi,
                                  unique=True),
                         st.text(ID_CHARS, max_size=19))
    return st.lists(names(), min_size=lo, max_size=hi, unique=True) | siblings


@st.composite
def plain_long_csvs(draw):
    """A long-form text the byte route mostly takes: distinct ids of 1 to
    20 bytes, 0 to 5 indicators a cell, records in drawn order; now and
    then a bad value or a duplicate record. One text in three then gets
    a fault a plain text cannot hold (a blank line, a carriage return, a
    quote, padding) or loses its final newline."""
    entities, categories, indicators = (draw(id_lists(lo, hi))
                                        for lo, hi in [(2, 4), (2, 3), (1, 5)])
    # Dense cells give sums of many values; sparse ones leave ids that one
    # key confused in no common cell, past the duplicate check.
    some = st.lists(st.sampled_from(indicators), min_size=1, unique=True)
    subsets = draw(st.sampled_from([
        st.one_of(some, some, some, st.just([]), st.just(indicators)),
        st.lists(st.sampled_from(indicators), max_size=1)]))
    records = draw(st.permutations(
        [[e, g, k, draw(VALUES)] for e in entities for g in categories
         for k in draw(subsets)]))
    for kind in draw(st.lists(st.sampled_from(["bad", "dup", *[None] * 4]),
                              max_size=2)):
        if records and kind == "bad":
            draw(st.sampled_from(records))[3] = draw(BAD_VALUES)
        elif records and kind == "dup":
            records.append([*draw(st.sampled_from(records))[:3], draw(VALUES)])
    lines = [draw(st.sampled_from(HEADERS)), *map(",".join, records)]
    fault = draw(st.sampled_from([None] * 10 + ["blank", "crlf", "quote",
                                                 "pad", "end"]))
    if fault not in (None, "end") and len(lines) > 1:
        at = draw(st.integers(1, len(lines) - 1))
        lines[at] = {"blank": "\n" + lines[at], "crlf": lines[at] + "\r",
                     "quote": '"' + lines[at].replace(",", '",', 1),
                     "pad": " " + lines[at]}[fault]
    return "\n".join(lines) + ("" if fault == "end" else "\n")


def bits_outcome(panel):
    return (panel.year, panel.entities, panel.categories,
            panel.scores.view(np.int64).tolist(), panel.missing_mask.tolist())


@PROFILE
@given(text=plain_long_csvs())
def test_indicator_panel_matches_record_reader(text):
    def by_records(text, year):
        return aggregate_indicators_by_records(
            parse_indicator_csv_by_rows(text, year))

    def read(build):
        return bits_outcome(build(text, "y"))
    assert outcome(read, indicator_panel) == outcome(read, by_records)


# A quoted id padded with a carriage return or a newline: the text holds
# neither a space nor a tab, yet its cells must be stripped.
@pytest.mark.parametrize("pad", ["\r", "\n"], ids=["cr", "lf"])
def test_quoted_padding_is_stripped(pad):
    text = f'entity,a,b\n"x{pad}",1,2\ny,3,4\n'
    panel = parse_panel(text, "y")
    assert panel.entities == ("x", "y")
    assert panel_outcome(panel) == panel_outcome(parse_panel_by_cells(text, "y"))
    text = f'entity,category,indicator,value\n"x{pad}",g,k,1\ny,g,k,2\n'
    table = parse_indicator_csv(text, "y")
    assert table.entities == ("x", "y")
    assert table == parse_indicator_csv_by_rows(text, "y")


def reader_cells(text: str):
    """``_csv_cells`` as ``csv.reader`` defines it: the first non-empty
    row, and every later cell in row order or None if some row is not as
    wide as the first; or the reader's error, as an ``InputError`` text."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        return f"error: unreadable CSV at line {reader.line_num}: {exc}"
    if not rows:
        return [], []
    if any(len(row) != len(rows[0]) for row in rows):
        return rows[0], None
    return rows[0], [cell for row in rows[1:] for cell in row]


def reader_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def plain_rows(text: str, width=None):
    """The rows ``_plain_fields`` cuts ``text`` into, each field read from
    the bytes between its bounds, or None if it does not take the text."""
    plain = _plain_fields(text, width)
    if plain is None:
        return None
    raw, bounds = plain
    return [[raw[a + 1:b].decode() for a, b in zip(row, row[1:])]
            for row in bounds.tolist()]


# Every character str.isspace accepts, the newline among them.
SPACES = [c for c in map(chr, range(0x110000)) if c.isspace()]
# Characters the gate passes, of one to four bytes in UTF-8.
PLAIN_CHARS = st.sampled_from(["a", "\u00e9", "\u540d", "\U0001f600"])
# The characters that decide the gate (a quote, a NUL, a newline, every
# space) beside ones that do not.
CSV_CHARS = st.one_of(st.sampled_from(["a", ",", '"', "\n", "\0"]),
                      PLAIN_CHARS, st.sampled_from(SPACES))


@st.composite
def texts(draw):
    """Raw text over ``CSV_CHARS``, or rows of drawn cells, mostly of one
    width, in a third of the tables with blank lines between them, and
    with blank lines or none at the end. In two tables of five the cells
    hold only characters the gate passes, in one they may hold a space,
    and in two a quote, a carriage return, a NUL, a comma or a newline;
    half of those two are written by ``csv.writer``, which quotes such
    cells."""
    if draw(st.sampled_from([True, False, False])):
        return draw(st.text(CSV_CHARS, max_size=30))
    kind = draw(st.sampled_from(["plain", "plain", "spaces", "special",
                                 "special"]))
    cell = st.text({
        "plain": PLAIN_CHARS,
        "spaces": st.one_of(*[PLAIN_CHARS] * 4, st.sampled_from(SPACES)),
        "special": st.one_of(PLAIN_CHARS, st.sampled_from(
            ['"', "\r", "\0", ",", "\n"]))}[kind], max_size=3)
    width = draw(st.integers(1, 4))
    blanks = st.sampled_from(draw(st.sampled_from([[0], [0], [0, 0, 0, 1, 2]])))
    rows = []
    full = st.lists(cell, min_size=width, max_size=width)
    for row in draw(st.lists(st.one_of(*[full] * 6, st.lists(
            cell, min_size=1, max_size=5)), max_size=6)):
        rows += [[]] * draw(blanks)
        rows.append(row)
    if kind == "special" and draw(st.booleans()):
        out = io.StringIO()
        csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                   quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL,
                                                 csv.QUOTE_ALL]))
                   ).writerows(rows)
        return out.getvalue()
    return "\n".join(map(",".join, rows)) + draw(
        st.sampled_from(["", "\n", "\n\n"]))


@settings(PROFILE, max_examples=1000)
@given(text=texts(), width=st.sampled_from([None, None, None, 1, 2, 3]),
       limit=st.sampled_from([None, None, None, 1, 4, 8]))
def test_plain_fields_read_as_csv_reader(text, width, limit):
    # A lowered field-size limit puts some lines past it: the gate must
    # refuse those, and the reader may refuse them too.
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        rows = plain_rows(text, width)
        if rows is not None:
            assert rows == reader_rows(text)
            assert len(rows[0]) == (width or len(rows[0])) >= 2
        assert outcome(_csv_cells, text) == reader_cells(text)
    finally:
        csv.field_size_limit(default)


@pytest.mark.parametrize("text", [
    "a,b\n", "a,b", "a,,\n,,\n", "entity,x\nCura\u00e7ao,1\n",
    "\u540d,\U0001f600\n\u00e9,e\n"])
def test_plain_fields_take_plain_text(text):
    assert plain_rows(text) == reader_rows(text)


@pytest.mark.parametrize("text", [
    "", "\n\n", "a\nb\n", "a,b\n\nc,d\n", "a,b\nc\n", "a,b\n\n", "a, b\n",
    "a,b\u3000\n", "a,b\r\n", '"a",b\n', "a\0,b\n"])
def test_plain_fields_refuse_other_text(text):
    assert _plain_fields(text) is None


def test_not_plain_is_the_spaces_but_newline_and_a_quote_and_nul():
    assert sorted(_NOT_PLAIN) == sorted(set(SPACES) - {"\n"} | {'"', "\0"})


# The score reader's alphabet: digits, the point and both signs, beside
# an exponent, an underscore, a slash and two non-ASCII digits, which
# ``float`` reads or refuses by itself.
CELL_CHARS = [*"0123456789.+-e_/", "\u0661", "\uff11"]
# Cells at the reader's edges: no digit, a lone sign or point, signed
# zeros, 15 and 16 digits about 2**53, lanes filled to 8 and 16 bytes,
# and a second point in the same lane or in the lane before it.
EDGE_CELLS = ["", "-", "+", ".", "-.", "+.5", "5.", ".5", "-0", "-0.0",
              "0" * 16, "9" * 15, "9" * 16, "9007199254740993", "100.000000",
              "12.345678", "1..2", "1.2.", "--1", "1.234567.1234567"]


@st.composite
def decimals(draw):
    """A cell of an optional sign, then 1 to 18 digits with at most one
    point, so 1 to 20 characters, across both lane edges; or, one time in
    eight, with a second point, which ``float`` refuses."""
    digits = draw(st.text(st.sampled_from("0123456789"), min_size=1,
                          max_size=18))
    cut = draw(st.integers(0, len(digits)))
    cell = (draw(st.sampled_from(["", "", "-", "+"])) + digits[:cut]
            + draw(st.sampled_from([".", ".", ""])) + digits[cut:])
    if draw(st.integers(0, 7)) == 0:
        cut = draw(st.integers(0, len(cell)))
        cell = cell[:cut] + "." + cell[cut:]
    return cell


SCORE_CELLS = st.one_of(*[decimals()] * 4, BLANK, st.sampled_from(EDGE_CELLS),
                        st.text(st.sampled_from(CELL_CHARS), max_size=20))


def read_by_float(cells):
    """What ``_read_scores`` must give for ``cells``: every value's bytes,
    -0.0 apart from 0.0, and the missing mask; or None if ``float``
    refuses a non-empty cell."""
    try:
        values = [float(cell) if cell else 0.0 for cell in cells]
    except ValueError:
        return None
    return np.array(values).tobytes(), [not cell for cell in cells]


def read_by_lanes(cells, width=1):
    # Led by 16 bytes, as every caller leads its text, so no lane starts
    # before it; the cells are read as rows of ``width``.
    raw = panel._LEAD + (",".join(cells) + ",").encode()
    seps = panel._separators(raw)
    read = _read_scores(raw, panel._windows(seps, width + 1)[::width])
    return None if read is None else (read[0].tobytes(), read[1].tolist())


@PROFILE
@given(cells=st.lists(SCORE_CELLS, min_size=1, max_size=12),
       width=st.sampled_from([1, 2, 3]), block=st.sampled_from([1, 3, 8192]))
def test_score_reader_matches_float(cells, width, block):
    # Small blocks put the cells of one text in several blocks, some with
    # a two-lane cell and some without, and rows of two or three cells
    # put a block's cells in rows.
    cells = cells * width
    with mock.patch.object(panel, "_BLOCK_CELLS", block):
        assert read_by_lanes(cells, width) == read_by_float(cells)


@pytest.mark.parametrize("cell", EDGE_CELLS)
def test_score_reader_edge_cells(cell):
    for cells in ([cell], [cell, "1"], ["12.345678", cell, "-0"]):
        assert read_by_lanes(cells) == read_by_float(cells), cells
