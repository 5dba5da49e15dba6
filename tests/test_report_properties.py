"""Property test: every chart is well-formed XML whatever the ids are.

Ids are drawn from all printable characters (no control, format,
surrogate, private-use or unassigned code points), so escaping that
misses a character, or is applied to the wrong string, shows up as a
parse error or as an id that does not round-trip through its ``data-*``
attribute. The profile is derandomized, so every run draws the same
examples.
"""

from xml.dom import minidom

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from panelrank import GoalWeights, make_panel  # noqa: E402

from conftest import all_charts  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=60, deadline=None,
                   database=None)

ids = st.text(st.characters(exclude_categories=("C",)), min_size=1,
              max_size=8)

# data-entity and data-category values each chart must carry exactly.
CARRIES = {"heatmap": (True, True), "bipartite": (True, True),
           "weight_bars": (False, True), "weighted_lines": (True, False),
           "rank_bump": (True, False), "grouped_bars": (False, True)}


def attribute_values(doc, name: str) -> set[str]:
    return {el.getAttribute(name) for el in doc.getElementsByTagName("*")
            if el.hasAttribute(name)}


@PROFILE
@given(entities=st.lists(ids, min_size=3, max_size=6, unique=True),
       categories=st.lists(ids, min_size=2, max_size=5, unique=True),
       title=ids, seed=st.integers(0, 2**32 - 1))
def test_charts_parse_and_keep_ids(entities, categories, title, seed):
    rng = np.random.default_rng(seed)
    panel = make_panel("y", entities, categories,
                       rng.uniform(1, 100, size=(len(entities), len(categories))))
    weights = GoalWeights("y", panel.categories,
                          rng.uniform(0.5, 2.0, size=len(categories)))
    for kind, svg in all_charts(panel, weights, title=title).items():
        doc = minidom.parseString(svg)
        has_entities, has_categories = CARRIES[kind]
        assert attribute_values(doc, "data-entity") == (
            set(entities) if has_entities else set()), kind
        assert attribute_values(doc, "data-category") == (
            set(categories) if has_categories else set()), kind
