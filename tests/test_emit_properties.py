"""Differential property test of the chart emitters.

``ramp_color`` formats each distinct colour once, ``emit_heatmap`` each
distinct score once, and every chart writes each kind of repeated
element through one ``%`` template over its columns, with ids escaped
once per roster. Each must write the same text as the emitter in
``oracles`` that formatted every element on its own. Path data, which
``_paths`` lays out as one byte matrix a block of rows at a time, is also
compared with the oracle's point-by-point path directly, at blocks of 1,
5 and the default number of slots. Panels are built as
``ScorePanel`` directly, so present cells can hold both ``-0.0`` and
``0.0`` and the emitter cannot lean on ``make_panel``. Curves hold NaN and
±inf, whole rows of them included; rank trajectories have gaps; weights
evolutions have absent years; ids, years and titles hold characters that
matter to format strings and to XML. The profile is derandomized, so
every run draws the same examples.
"""

import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from panelrank import report  # noqa: E402
from panelrank import (GoalWeights, GroupProfile, RankSeries,  # noqa: E402
                       RankTrajectory, ScorePanel, WeightsEvolution,
                       emit_bipartite, emit_grouped_bars, emit_heatmap,
                       emit_rank_bump, emit_weight_bars, emit_weighted_lines,
                       ramp_color)

import oracles  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=300, deadline=None,
                   database=None)

ids = st.text(st.sampled_from('ab%{}&<"'), min_size=1, max_size=4)
# Scores repeat often, so the heatmap's lookup is exercised, and both
# signs of zero occur.
scores = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 50.0, 100.0]),
                   st.floats(0.0, 100.0))
# Weights are positive in every chart the CLI draws; zero and repeats
# occur, so bars can be empty and labels equal.
weight_values = st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                          st.floats(0.0, 1e6))
curve_values = st.one_of(st.floats(-1e6, 1e6),
                         st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]))


@st.composite
def panels(draw):
    entities = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    categories = draw(st.lists(ids, min_size=1, max_size=5, unique=True))
    shape = (len(entities), len(categories))
    cells = draw(st.lists(scores, min_size=shape[0] * shape[1],
                          max_size=shape[0] * shape[1]))
    missing = draw(st.lists(st.booleans(), min_size=len(cells),
                            max_size=len(cells)))
    return ScorePanel("y", tuple(entities), tuple(categories),
                      np.array(cells, dtype=float).reshape(shape),
                      np.array(missing, dtype=bool).reshape(shape))


@st.composite
def line_charts(draw):
    entities = tuple(draw(st.lists(ids, min_size=1, max_size=6, unique=True)))
    categories = tuple(draw(st.lists(ids, min_size=1, max_size=5, unique=True)))
    m = len(categories)

    def curves(rows):
        values = np.array(draw(st.lists(curve_values, min_size=rows * m,
                                        max_size=rows * m))).reshape(rows, m)
        blank = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        values[np.array(blank, dtype=bool)] = np.nan
        return values

    performance, group_curves, national = curves(len(entities)), curves(3), curves(1)
    assume(np.isfinite(np.vstack([performance, group_curves, national])).any())
    group = draw(st.lists(st.integers(0, 2), min_size=len(entities),
                          max_size=len(entities)))
    groups = tuple(tuple(e for e, g in zip(entities, group) if g == k)
                   for k in range(3))
    profile = GroupProfile(categories, groups, group_curves, national[0])
    return performance, profile, entities


@st.composite
def rank_series(draw):
    years = tuple(draw(st.lists(ids, min_size=1, max_size=4, unique=True)))
    ranks = st.one_of(st.none(), st.integers(1, 6))
    trajectories = tuple(
        RankTrajectory(draw(ids),
                       (*draw(st.lists(ranks, min_size=len(years) - 1,
                                       max_size=len(years) - 1)),
                        draw(st.integers(1, 6))),
                       draw(st.sampled_from(["own", "split-derived", "merged"])))
        for _ in range(draw(st.integers(1, 6))))
    return RankSeries(years, trajectories)


@st.composite
def subsets(draw):
    panel = draw(panels())
    subset = draw(st.lists(st.sampled_from(panel.entities), min_size=1,
                           max_size=4))
    return panel, subset


@st.composite
def goal_weights(draw):
    categories = tuple(draw(st.lists(ids, min_size=1, max_size=6, unique=True)))
    values = draw(st.lists(weight_values, min_size=len(categories),
                           max_size=len(categories)))
    assume(max(values) > 0)
    return GoalWeights(draw(ids), categories, np.array(values))


@st.composite
def weights_evolutions(draw):
    years = tuple(draw(st.lists(ids, min_size=1, max_size=4, unique=True)))
    categories = tuple(draw(st.lists(ids, min_size=1, max_size=5, unique=True)))
    size = len(categories) * len(years)
    values = np.array(draw(st.lists(weight_values, min_size=size,
                                    max_size=size)))
    absent = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    values[np.array(absent, dtype=bool)] = np.nan
    assume(np.nanmax(values, initial=0.0) > 0)
    return WeightsEvolution(years, categories,
                            values.reshape(len(categories), len(years)))


# Path ys at the edges of ``_paths``' byte layout: binary halves exact at
# two decimals, values within 2**-8 of a half (left to ``%``), zeros of
# either sign and a value that prints as ``-0.00``, magnitudes past the
# digit passes' range, and gaps.
path_values = st.one_of(
    st.sampled_from([0.125, 2.375, -2.375, 1.005, 2.675, -2.675, 0.0, -0.0,
                     -0.004, 5e-324, 2.0 ** 31, 1e15, -1e15,
                     np.nan, np.inf, -np.inf]),
    st.floats(-1e15, 1e15), st.floats(0.0, 600.0))


@st.composite
def path_grids(draw):
    """Formatted xs and a (rows, m) grid of ys; some rows are all gaps and
    some hold a single drawn point."""
    r, m = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    xs = [report._fmt(x) for x in draw(st.lists(
        st.floats(0.0, 2000.0), min_size=m, max_size=m))]
    ys = np.array(draw(st.lists(path_values, min_size=r * m, max_size=r * m)),
                  dtype=float).reshape(r, m)
    for i in range(r):
        kind = draw(st.sampled_from(["drawn", "gaps", "point"]))
        if kind != "drawn":
            keep = ys[i, draw(st.integers(0, m - 1))]
            ys[i] = np.nan
            if kind == "point":
                ys[i, draw(st.integers(0, m - 1))] = keep
    return xs, ys


@PROFILE
@given(path_grids(), st.sampled_from([1, 5, 8192]))
def test_paths_match_oracle(grid, block):
    # Small blocks put the rows of one grid in several blocks.
    xs, ys = grid
    want = [oracles._path_from_points(
        [(x, y) if math.isfinite(y) else None for x, y in zip(xs, row)])
        for row in ys.tolist()]
    with mock.patch.object(report, "_PATH_BLOCK_CELLS", block):
        assert report._paths(xs, ys) == want


def test_ramp_bound_and_values():
    t = np.concatenate([np.linspace(0, 1, 100_001), [np.nan, np.inf, -np.inf]])
    colours = ramp_color(t)
    assert len(set(colours)) <= 384
    assert colours == oracles.ramp_color(t)


@PROFILE
@given(st.lists(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                          st.sampled_from([0.25, 0.5, 0.75])),
                max_size=12))
def test_ramp_matches_oracle(values):
    t = np.array(values, dtype=float).reshape(-1, 2 if len(values) % 2 == 0 else 1)
    assert ramp_color(t) == oracles.ramp_color(t)


@PROFILE
@given(panels(), ids)
@example(ScorePanel("y", ("a", "b"), ("c", "d"),
                    np.array([[-0.0, 0.0], [0.0, -0.0]]),
                    np.array([[False, False], [True, False]])), "t")
def test_heatmap_matches_oracle(panel, title):
    assert emit_heatmap(panel, title) == oracles.emit_heatmap(panel, title)


@PROFILE
@given(line_charts(), ids)
def test_weighted_lines_match_oracle(chart, title):
    assert (emit_weighted_lines(*chart, title)
            == oracles.emit_weighted_lines(*chart, title))


@PROFILE
@given(rank_series(), ids)
def test_rank_bump_matches_oracle(series, title):
    assert emit_rank_bump(series, title) == oracles.emit_rank_bump(series, title)


@PROFILE
@given(subsets(), ids)
@example((ScorePanel("y", ("%s",), ("a", "&"), np.array([[0.0, 100.0]]),
                     np.array([[False, True]])), ["%s"]), "%d")
def test_bipartite_matches_oracle(chart, title):
    panel, subset = chart
    assert (emit_bipartite(panel, subset, title)
            == oracles.emit_bipartite(panel, subset, title))


@PROFILE
@given(goal_weights(), ids)
@example(GoalWeights("y", ("%",), np.array([2.5])), "<t>")
def test_weight_bars_match_oracle(weights, title):
    assert emit_weight_bars(weights, title) == oracles.emit_weight_bars(weights, title)


@PROFILE
@given(weights_evolutions(), ids)
@example(WeightsEvolution(("%s",), ("a%",), np.array([[1.5]])), "t")
@example(WeightsEvolution(("y1", "y2"), ("a", "b"),
                          np.array([[np.nan, 1.0], [np.nan, 2.0]])), "t")
def test_grouped_bars_match_oracle(evolution, title):
    assert (emit_grouped_bars(evolution, title)
            == oracles.emit_grouped_bars(evolution, title))
