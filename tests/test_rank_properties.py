"""Property test of the id sort, the year's rank record and the cells
the year's tables share.

The CLI ranks a year's vectors against one sort of the roster's ids,
into one record per rank key: the values in roster order, the rank
table, the positions the ranker sorted and its tie mask. It writes the
year's tables from that record and from pieces it builds once: the ids
quoted once, each ranked vector formatted once for the entity table and
taken in rank order for its rank table, applicable counts and rank tails
from one list, and tie flags indexed by the mask. Each year below ranks
four vectors over one roster with exactly one ``sorted`` call, and the
years cycle through several rosters. Every rank table must equal the
``sorted`` ranker in ``oracles``, down to the sign of zero; each
record's values must be the year's own vector; its positions must give
the table's ids and its mask the table's tie flags; and every table text
the CLI writes must equal ``emit_table`` of the oracle's columns. Ids
differ only in case or accent, or hold a comma, a quote, a ``%`` or a
newline; values tie, including 0.0 with -0.0; cells go missing, so
applicable counts vary.

A second test solves panels on the spectral route. Permuting a panel's
rows must leave its ``ranks_D_s`` table as it was: the order, the tie
flags and the ``%.6f`` cells. A row duplicated under a new id must get
its original's cell, and both must be flagged tied; so must rows whose
one present cell lies in the same category, which are equal rows of the
proximity matrix. The profiles are derandomized, so every run draws the
same examples.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from panelrank import RankTable, emit_table, make_panel  # noqa: E402
from panelrank import analytics, cli  # noqa: E402

from oracles import rank_by_sort, rank_table_columns  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=100, deadline=None,
                   database=None)

KEYS = ("k_s", "composite_mean", "D_s", "D_s_iterative")
ids = st.sampled_from(["a", "A", "b", "B", "ab", "aB", "Ab", "é", "É", "a,b",
                       '"', 'a""b', "%s", "100%", "a\nb", "%d,"])
CATEGORIES = 3
tie_heavy = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                      st.floats(-1e6, 1e6))


@st.composite
def years(draw):
    """Rosters, then a sequence of years, each a roster index, one vector
    per rank key, category ids and a missing mask. The first row and the
    first column are complete, so no row or column is all missing."""
    rosters = draw(st.lists(
        st.lists(ids, min_size=2, max_size=8, unique=True).map(tuple),
        min_size=1, max_size=4))
    sequence = []
    for index in draw(st.lists(st.integers(0, len(rosters) - 1),
                               min_size=1, max_size=6)):
        n = len(rosters[index])
        vectors = [draw(st.lists(tie_heavy, min_size=n, max_size=n))
                   for _ in KEYS]
        categories = draw(st.lists(ids, min_size=CATEGORIES,
                                   max_size=CATEGORIES, unique=True))
        mask = np.array(draw(st.lists(st.booleans(), min_size=n * CATEGORIES,
                                      max_size=n * CATEGORIES)))
        mask = mask.reshape(n, CATEGORIES)
        mask[0] = mask[:, 0] = False
        sequence.append((rosters[index], vectors, categories, mask))
    return sequence


def year_result(roster, vectors, categories, mask):
    """A solved year of ``roster`` whose four ranked vectors are
    ``vectors``, in ``KEYS`` order."""
    panel = make_panel("y", roster, categories,
                       np.ones((len(roster), len(categories))), mask)
    result = cli.compute_year(panel, cli.RunConfig(allow_nonconverged=True))
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
    for roster, vectors, categories, mask in sequence:
        result = year_result(roster, vectors, categories, mask)
        sorts = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analytics, "sorted", lambda *args, **kwargs: (
                sorts.append(args) or sorted(*args, **kwargs)), raising=False)
            ranked = cli._rank_tables(result)
        assert len(sorts) == 1
        texts = cli._year_tables(result, ranked)
        degree = result.prepared.degree
        year_vectors = (degree.totals, degree.composite_means,
                        *(s.entity_scores for s in result.solved))
        assert list(ranked) == list(KEYS)
        for key, values, vector in zip(KEYS, vectors, year_vectors):
            want = RankTable("y", key.removesuffix("_iterative"),
                             *rank_by_sort(roster, values))
            record, got, positions, tied = ranked[key]
            assert got == want
            assert record is vector
            assert tuple(roster[i] for i in positions) == got.entities
            assert tied.dtype == bool and tuple(tied.tolist()) == got.tied
            assert list(map(repr, got.scores)) == list(map(repr, want.scores))
            assert texts[f"ranks_{key}"] == emit_table(
                *rank_table_columns(want))
        assert texts["scores_entities"] == emit_table(
            ("entity", "total_score", "applicable_count", "composite_mean",
             "complexity_spectral", "complexity_iterative"),
            (roster, vectors[0], (~mask).sum(axis=1), *vectors[1:]))
        spectral, iterative = result.solved
        weights = [w.values for w in result.weights]
        assert texts["scores_categories"] == emit_table(
            ("category", "adjusted_ubiquity", "complexity_spectral",
             "weight_spectral", "complexity_iterative", "weight_iterative"),
            (categories, result.prepared.ubiquity.values,
             spectral.category_scores, weights[0],
             iterative.category_scores, weights[1]))


full_precision = st.floats(0.0, 100.0)
positive = st.floats(1e-3, 100.0)


@st.composite
def spectral_panels(draw):
    """Scores of n >= m entities over m >= 3 categories with missing cells,
    then rows with one present cell each. Cells (i, i % m) and
    (i, (i + 1) % m) of the first n rows are present and positive, so no
    row total or ubiquity is zero and the support is connected: on a
    disconnected one the spectral ranking is not defined."""
    m = draw(st.integers(3, 17))
    n = draw(st.integers(m, m + 6))
    scores = np.array(draw(st.lists(full_precision, min_size=n * m,
                                    max_size=n * m))).reshape(n, m)
    missing = np.array(draw(st.lists(st.booleans(), min_size=n * m,
                                     max_size=n * m))).reshape(n, m)
    rows = np.arange(n)
    for column in (rows % m, (rows + 1) % m):
        scores[rows, column] = draw(st.lists(positive, min_size=n, max_size=n))
        missing[rows, column] = False
    singles = draw(st.lists(st.tuples(st.integers(0, m - 1), positive),
                            max_size=4))
    single_rows = np.zeros((len(singles), m))
    for row, (column, value) in zip(single_rows, singles):
        row[column] = value
    return (np.vstack([scores, single_rows]),
            np.vstack([missing, single_rows == 0]),
            [column for column, _ in singles])


def spectral_rank_rows(ids, scores, missing):
    """The ``ranks_D_s`` text of a panel, and its rows keyed by id."""
    categories = [f"c{j}" for j in range(scores.shape[1])]
    panel = make_panel("y", ids, categories, scores, missing)
    result = cli.compute_year(panel, cli.RunConfig(method="spectral"))
    text = cli._year_tables(result, cli._rank_tables(result))["ranks_D_s"]
    return text, {row[0]: row[1:] for row in
                  (line.split(",") for line in text.splitlines()[1:])}


@PROFILE
@given(panel=spectral_panels(), data=st.data())
def test_spectral_ranks_ignore_row_order_and_tie_equal_rows(panel, data):
    scores, missing, singles = panel
    total = len(scores)
    ids = [f"e{i}" for i in range(total)]
    text, rows = spectral_rank_rows(ids, scores, missing)

    order = data.draw(st.permutations(range(total)))
    permuted, _ = spectral_rank_rows([ids[i] for i in order], scores[order],
                                     missing[order])
    assert permuted == text

    first_single = total - len(singles)
    for column in set(singles):
        if singles.count(column) > 1:
            cells = {tuple(rows[ids[first_single + k]][::2])
                     for k, c in enumerate(singles) if c == column}
            assert len(cells) == 1 and cells.pop()[1] == "true"

    copied = data.draw(st.lists(st.integers(0, total - 1), min_size=1,
                                max_size=3))
    names = ids + [f"d{k}" for k in range(len(copied))]
    order = data.draw(st.permutations(range(len(names))))
    rows_of = [i if i < total else copied[i - total] for i in order]
    _, duplicated = spectral_rank_rows([names[i] for i in order],
                                       scores[rows_of], missing[rows_of])
    for k, i in enumerate(copied):
        copy, original = duplicated[f"d{k}"], duplicated[ids[i]]
        assert copy[0] == original[0]
        assert copy[2] == original[2] == "true"
