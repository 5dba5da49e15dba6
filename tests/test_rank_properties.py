"""Property test of the id sort the year's rank tables share.

``rank_entities`` sorts a roster's ids once and keeps the order for the
last two rosters, and the CLI formats each ranked vector once for the
entity table and takes the same cells, in rank order, for its rank table.
Each year below ranks four vectors over one roster (three memo hits), and
the years cycle through several rosters (misses and evictions). Every
rank table must equal the ``sorted`` ranker in ``oracles``, down to the
sign of zero, and the CLI's table texts must equal ``emit_table`` of the
oracle's tables and of the float columns. Ids differ only in case or
accent, and values tie, including 0.0 with -0.0. The profile is
derandomized, so every run draws the same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from panelrank import RankTable, emit_table, make_panel  # noqa: E402
from panelrank import analytics, cli  # noqa: E402

from oracles import rank_by_sort  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None,
                   database=None)

KEYS = ("k_s", "composite_mean", "D_s", "D_s_iterative")
ids = st.sampled_from(["a", "A", "b", "B", "ab", "aB", "Ab", "é", "É"])
tie_heavy = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                      st.floats(-1e6, 1e6))


@st.composite
def years(draw):
    """Rosters, then a sequence of years, each a roster index and one
    vector per rank key."""
    rosters = draw(st.lists(
        st.lists(ids, min_size=2, max_size=8, unique=True).map(tuple),
        min_size=1, max_size=4))
    sequence = []
    for index in draw(st.lists(st.integers(0, len(rosters) - 1),
                               min_size=1, max_size=6)):
        n = len(rosters[index])
        sequence.append((rosters[index], [
            draw(st.lists(tie_heavy, min_size=n, max_size=n)) for _ in KEYS]))
    return sequence


def year_result(roster, vectors):
    """A solved year of ``roster`` whose four ranked vectors are
    ``vectors``, in ``KEYS`` order."""
    panel = make_panel("y", roster, ["g1", "g2"], np.ones((len(roster), 2)))
    result = cli.compute_year(panel, cli.RunConfig())
    totals, means, *entity_scores = map(np.array, vectors)
    prep = result.prepared
    degree = prep.degree._replace(totals=totals, composite_means=means)
    return result._replace(
        prepared=prep._replace(degree=degree),
        solved=tuple(s._replace(entity_scores=v)
                     for s, v in zip(result.solved, entity_scores)))


@PROFILE
@given(sequence=years())
def test_shared_id_sort_matches_sorted_ranker(sequence):
    for roster, vectors in sequence:
        result = year_result(roster, vectors)
        hits = analytics._id_order.cache_info().hits
        tables = cli._rank_tables(result)
        assert analytics._id_order.cache_info().hits >= hits + 3
        texts = cli._year_tables(result, tables)
        for key, values in zip(KEYS, vectors):
            want = RankTable("y", key.removesuffix("_iterative"),
                             *rank_by_sort(roster, values))
            got = tables[key]
            assert got == want
            assert list(map(repr, got.scores)) == list(map(repr, want.scores))
            assert texts[f"ranks_{key}"] == emit_table(*cli._rank_table(want))
        assert texts["scores_entities"] == emit_table(
            ("entity", "total_score", "applicable_count", "composite_mean",
             "complexity_spectral", "complexity_iterative"),
            (roster, vectors[0], [2] * len(roster), *vectors[1:]))
