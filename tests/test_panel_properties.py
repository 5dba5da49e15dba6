"""Property test: a panel survives ``panel_to_csv`` and ``parse_panel``.

Shapes, scores and missing masks are random, and ids mix any characters
with the ones CSV must quote or keep: ``,``, ``"``, newlines, carriage
returns and inner spaces, and may be empty. ``make_panel`` rejects an
empty id and an id holding a character XML 1.0 forbids (a carriage
return among them); every other panel must survive the round trip. Ids
with leading or trailing whitespace are left out: the parser strips
cells, so ``panel_to_csv`` does not promise those.

``make_panel`` checks the scores in its own copy, with the missing cells
zeroed. Given cells are drawn in and out of [0, 100], NaN, infinite or
-0.0, and missing cells hold anything; the panel must equal, bit for
bit, the oracle that checks the given cells picked out of the scores,
or both must raise the same error. The caller's arrays are left as they
were. The profiles are derandomized, so every run draws the same
examples.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from panelrank import InputError, make_panel, parse_panel  # noqa: E402

from oracles import make_panel_by_given_cells, panel_to_csv  # noqa: E402

# Characters XML 1.0 does not allow in an id. The alphabet draws them
# only as specials, so that most panels still make the round trip.
NOT_XML = re.compile("[\x00-\x08\x0b-\x1f\ufffe\uffff]")
FORBIDDEN = "".join(filter(NOT_XML.match, map(chr, range(0x10000))))

PROFILE = settings(derandomize=True, max_examples=360, deadline=None,
                   database=None)


def ids(specials: str, min_size: int = 1):
    return st.text(st.one_of(st.sampled_from(specials),
                             st.characters(exclude_categories=("Cs",),
                                           exclude_characters=FORBIDDEN)),
                   min_size=min_size, max_size=6).filter(
                       lambda s: s == s.strip())


@st.composite
def panel_args(draw):
    """Arguments of ``make_panel``: year, entities, categories, scores, mask.

    Half the panels draw ids that may hold a carriage return or another
    C0 control, and about a quarter ids that may be empty.
    """
    names = ids(',"\n\r\x01 ' if draw(st.booleans()) else ',"\n ',
                min_size=draw(st.sampled_from([1, 1, 1, 0])))
    n, m = draw(st.integers(2, 7)), draw(st.integers(2, 5))
    entities = draw(st.lists(names, min_size=n, max_size=n, unique=True))
    categories = draw(st.lists(names, min_size=m, max_size=m, unique=True))
    scores = draw(arrays(float, (n, m), elements=st.floats(0, 100)))
    missing = draw(arrays(bool, (n, m)))
    # Keep one cell of every row and column, and one positive total.
    missing[np.arange(n), np.arange(n) % m] = False
    missing[np.arange(m) % n, np.arange(m)] = False
    scores[0, 0] = max(scores[0, 0], 1.0)
    return draw(ids(',"\n ')), entities, categories, scores, missing


@PROFILE
@given(args=panel_args())
def test_csv_round_trip(args):
    names = (*args[1], *args[2])
    if "" in names or any(map(NOT_XML.search, names)):
        with pytest.raises(InputError, match="is empty|XML does not allow"):
            make_panel(*args)
        return
    panel = make_panel(*args)
    again = parse_panel(panel_to_csv(panel), panel.year)
    assert again.year == panel.year
    assert again.entities == panel.entities
    assert again.categories == panel.categories
    assert np.array_equal(again.scores, panel.scores)
    assert np.array_equal(again.missing_mask, panel.missing_mask)


INF, NAN = float("inf"), float("nan")
IN_RANGE = st.one_of(st.floats(0, 100), st.sampled_from([0.0, -0.0, 100.0]))
ANY_SCORE = st.one_of(IN_RANGE, st.floats(-200, 200),
                      st.sampled_from([NAN, INF, -INF, -0.0, 500.0]))


@st.composite
def score_args(draw):
    """Arguments of ``make_panel`` with fixed ids: scores whose given cells
    are all in range in about half the draws, and a mask that is None, or
    may leave a row or column with no given cell."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    given = draw(arrays(float, (n, m), elements=draw(
        st.sampled_from([IN_RANGE, ANY_SCORE]))))
    filler = draw(arrays(float, (n, m), elements=st.sampled_from(
        [NAN, INF, -INF, -0.0, 0.0, 500.0])))
    mask = draw(st.one_of(st.none(), arrays(bool, (n, m))))
    scores = given if mask is None else np.where(mask, filler, given)
    return ([f"e{i}" for i in range(n)], [f"c{j}" for j in range(m)],
            scores, mask)


@settings(PROFILE, max_examples=300)
@given(args=score_args(), writeable=st.tuples(st.booleans(), st.booleans()))
def test_make_panel_matches_given_cell_checks(args, writeable):
    entities, categories, scores, mask = args
    scores.flags.writeable = writeable[0]
    if mask is not None:
        mask.flags.writeable = writeable[1]
    before = [(a.tobytes(), a.flags.writeable)
              for a in (scores, mask) if a is not None]
    try:
        want = make_panel_by_given_cells("y", entities, categories, scores,
                                         mask)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            make_panel("y", entities, categories, scores, mask)
        assert str(got.value) == str(exc)
    else:
        got = make_panel("y", entities, categories, scores, mask)
        assert got.scores.tobytes() == want.scores.tobytes()
        assert not np.signbit(got.scores).any()
        assert got.missing_mask.tobytes() == want.missing_mask.tobytes()
        assert got.missing_mask.dtype == bool
        assert not (got.scores.flags.writeable
                    or got.missing_mask.flags.writeable)
    assert [(a.tobytes(), a.flags.writeable)
            for a in (scores, mask) if a is not None] == before
