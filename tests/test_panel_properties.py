"""Property test: a panel survives ``panel_to_csv`` and ``parse_panel``.

Shapes, scores and missing masks are random, and ids mix any characters
with the ones CSV must quote or keep: ``,``, ``"``, newlines and inner
spaces. Ids with leading or trailing whitespace, or with a carriage
return, are left out: the parser strips cells and the writer leaves a
``\\r`` unquoted, so ``panel_to_csv`` does not promise those. The profile
is derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from panelrank import make_panel, panel_to_csv, parse_panel  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None,
                   database=None)

ids = st.text(st.one_of(st.sampled_from(',"\n '),
                        st.characters(exclude_categories=("Cs",),
                                      exclude_characters="\r")),
              max_size=6).filter(lambda s: s == s.strip())


@st.composite
def panels(draw):
    n, m = draw(st.integers(2, 7)), draw(st.integers(2, 5))
    entities = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    categories = draw(st.lists(ids, min_size=m, max_size=m, unique=True))
    scores = draw(arrays(float, (n, m), elements=st.floats(0, 100)))
    missing = draw(arrays(bool, (n, m)))
    # Keep one cell of every row and column, and one positive total.
    missing[np.arange(n), np.arange(n) % m] = False
    missing[np.arange(m) % n, np.arange(m)] = False
    scores[0, 0] = max(scores[0, 0], 1.0)
    return make_panel(draw(ids), entities, categories, scores, missing)


@PROFILE
@given(panel=panels())
def test_csv_round_trip(panel):
    again = parse_panel(panel_to_csv(panel), panel.year)
    assert again.year == panel.year
    assert again.entities == panel.entities
    assert again.categories == panel.categories
    assert np.array_equal(again.scores, panel.scores)
    assert np.array_equal(again.missing_mask, panel.missing_mask)
