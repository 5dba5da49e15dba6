"""Differential property tests of the columnar table writer and ranker.

``emit_table`` formats each column once by its element type,
``float_cells`` lays out floats' digits in one numpy byte matrix, and
``rank_entities`` ranks with one ``np.lexsort``. All must agree exactly
with the cell-by-cell writer and the ``sorted`` + ``Counter`` ranker in
``oracles``: byte for byte in CSV and in each float cell (also at the
edges of the numpy route), and in rank order, scores (down to the sign of
zero) and tie flags. Cells include carriage returns, NULs, ``%``
and +-inf: the CSV must read back to the same cells through ``csv.reader``
(a CSV holding a NUL only from Python 3.11 on: 3.10's reader rejects it).
A column that is not all floats, all ints, all bools or all strings is
rejected.
The profile is derandomized, so every run draws the same examples.
"""

import csv
import io
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from panelrank import InputError, emit_table, rank_entities  # noqa: E402
from panelrank.report import float_cells  # noqa: E402

from oracles import cell_text, rank_by_sort, table_by_rows  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=200, deadline=None,
                   database=None)

NAN, INF = float("nan"), float("inf")

floats = st.one_of(st.sampled_from([NAN, INF, -INF, 0.0, -0.0, -1e-7,
                                    -4e-7, 5e-7, -5e-324]),
                   st.floats())
ints = st.integers(-2 ** 70, 2 ** 70)
texts = st.text(st.one_of(st.sampled_from(',"\n\r \x00%'),
                          st.characters(exclude_categories=("Cs",))),
                max_size=5)
numpy_scalars = st.one_of(floats.map(np.float64),
                          st.floats(width=32).map(np.float32),
                          st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
                          st.booleans().map(np.bool_))
cells = st.one_of(floats, ints, st.booleans(), st.none(), texts, numpy_scalars)
DTYPES = (np.float64, np.float32, np.int64, np.uint8, np.bool_)
TYPED = (float, int, bool, str)


def typed_columns(n: int):
    """One column of ``n`` cells of one type, as a list, tuple or array."""
    lists = [st.lists(c, min_size=n, max_size=n)
             for c in (floats, ints, st.booleans(), texts)]
    return st.one_of(*lists, *(s.map(tuple) for s in lists),
                     *(arrays(dtype, n) for dtype in DTYPES))


def untyped_columns(n: int):
    """One column of ``n`` >= 1 cells that are numpy scalars, or of mixed
    or other types, as a list or tuple."""
    lists = [st.lists(c, min_size=n, max_size=n) for c in (numpy_scalars, cells)]
    return st.one_of(*lists, *(s.map(tuple) for s in lists)).filter(
        lambda column: len(set(map(type, column))) > 1
        or type(column[0]) not in TYPED)


@st.composite
def tables(draw):
    n, k = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    header = tuple(draw(st.lists(texts, min_size=k, max_size=k)))
    return header, tuple(draw(typed_columns(n)) for _ in range(k))


@st.composite
def tables_with_untyped_column(draw):
    """A table, and the index of its one column that is not typed."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    header = tuple(draw(st.lists(texts, min_size=k, max_size=k)))
    bad = draw(st.integers(0, k - 1))
    return header, tuple(draw(untyped_columns(n) if j == bad else
                              typed_columns(n)) for j in range(k)), bad


@PROFILE
@given(table=tables())
def test_emit_table_matches_row_writer(table):
    header, cols = table
    rows = list(zip(*cols))
    text = emit_table(header, cols)
    assert text == table_by_rows(header, rows)
    if "\x00" in text and sys.version_info < (3, 11):
        return
    assert list(csv.reader(io.StringIO(text))) == [
        list(header), *([cell_text(v) for v in row] for row in rows)]


@PROFILE
@given(table=tables_with_untyped_column())
def test_untyped_column_rejected(table):
    header, cols, bad = table
    found = ", ".join(sorted({type(v).__name__ if v is None or type(v) in TYPED
                              else f"numpy.{type(v).__name__}"
                              for v in cols[bad]}))
    with pytest.raises(InputError) as exc:
        emit_table(header, cols)
    assert str(exc.value) == (
        f"table column {header[bad]!r} must hold cells of one type "
        f"(float, int, bool or str); found {found}")


# Values at the edges of ``float_cells``' numpy route: exact ties at six
# decimals (odd multiples of 2**-7), the neighbours of (k + 1/2) * 1e-6, the
# signed zeros and values that round to them, subnormals, non-finite
# values, and values about 2**43 * 1e-6, past which ``%`` takes over.
guard_floats = st.one_of(
    st.integers(-2 ** 20, 2 ** 20).map(lambda k: (2 * k + 1) * 2.0 ** -7),
    st.builds(lambda k, sign, steps, up: sign * _nudged((k + 0.5) * 1e-6,
                                                         steps, up),
              st.one_of(st.integers(0, 2000), st.integers(0, 2 ** 43)),
              st.sampled_from([1.0, -1.0]), st.integers(1, 3), st.booleans()),
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, 5e-7, -5e-7, 5e-324, -5e-324,
                     NAN, INF, -INF, 1e300, -1e300]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.builds(lambda sign, steps, up: sign * _nudged(2 ** 43 * 1e-6, steps, up),
              st.sampled_from([1.0, -1.0]), st.integers(0, 3), st.booleans()),
    st.floats(8.7e6, 8.9e6),
    st.floats())


def _nudged(value: float, steps: int, up: bool) -> float:
    """``value`` moved ``steps`` floats up or down."""
    for _ in range(steps):
        value = float(np.nextafter(value, INF if up else -INF))
    return value


@PROFILE
@given(values=st.lists(guard_floats, min_size=1, max_size=400),
       lead=st.sampled_from([",", ""]))
def test_float_cells_matches_percent_format(values, lead):
    want = [lead + cell_text(v) for v in values]
    assert float_cells(values, lead) == want
    assert float_cells(np.array(values), lead) == want


@PROFILE
@given(values=st.lists(st.one_of(st.integers(0, 3000), st.integers(0, 2 ** 53),
                                 st.integers(2 ** 31 - 3, 2 ** 31 + 3),
                                 st.integers(2 ** 32 - 3, 2 ** 32 + 3)),
                       max_size=400),
       lead=st.sampled_from([",", ""]))
def test_float_cells_at_no_decimals_matches_ints(values, lead):
    assert float_cells(np.array(values, dtype=np.int64), lead, 0) == [
        lead + cell_text(v) for v in values]


@pytest.mark.parametrize("value", [2 ** 31 - 0.4, 2 ** 31 - 0.6,
                                   2 ** 32 - 0.3, 2 ** 32 - 0.7, 2.5, -0.4])
def test_float_cells_at_no_decimals_rounds_like_percent(value):
    assert float_cells([value], "", 0) == ["%.0f" % value]


# Shared prefixes, NULs (also trailing), and characters outside ASCII and
# outside the BMP, so string order is tested where a numpy "U" array or
# a byte order would differ.
ids = st.lists(st.sampled_from(["a", "b", "ab", "\x00", "é", "ß", "€",
                               "\U0001d11e"]), max_size=4).map("".join)
tie_heavy = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 5e-324]),
                      st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def rankings(draw):
    n = draw(st.integers(0, 12))
    return (draw(st.lists(ids, min_size=n, max_size=n)),
            draw(st.lists(tie_heavy, min_size=n, max_size=n)))


@PROFILE
@given(ranking=rankings())
def test_rank_entities_matches_sorted_counter(ranking):
    entities, values = ranking
    table = rank_entities(entities, values, "k_s", "y")
    want_entities, want_scores, want_tied = rank_by_sort(entities, values)
    assert table.entities == want_entities
    assert list(map(repr, table.scores)) == list(map(repr, want_scores))
    assert table.tied == want_tied


@pytest.mark.parametrize("bad", [NAN, INF, -INF])
def test_rank_entities_rejects_non_finite(bad):
    with pytest.raises(InputError, match="rank values must be finite"):
        rank_entities(["a", "b", "c"], [1.0, bad, 0.0], "k_s", "y")
