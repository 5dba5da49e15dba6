"""Derived quantities: weights, rankings, groups, correlations, evolution.

Everything here consumes the immutable outputs of the panel and core
modules and produces small, serializable result types for the report
layer. Missing cells surface as NaN in derived matrices and are skipped
by every mean.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import AdjustedUbiquity, ComplexityScores
from .errors import InputError
from .panel import EntityMap, Lineage, ScorePanel, align_rosters

RANK_BASES = ("k_s", "composite_mean", "D_s")


class GoalWeights(NamedTuple):
    """Per-category importance: category score divided by adjusted ubiquity."""

    year: str
    categories: tuple[str, ...]
    values: np.ndarray


class RankTable(NamedTuple):
    """Entities of one year ordered by a scoring basis, rank 1 highest.

    The columns are parallel and in rank order, so ``entities[i]`` has
    rank ``i + 1``. ``tied`` marks scores shared with another entity,
    where the ordering fell back to the entity id.
    """

    year: str
    basis: str
    entities: tuple[str, ...]
    scores: tuple[float, ...]
    tied: tuple[bool, ...]

    def rank_of(self) -> dict[str, int]:
        return {entity: rank for rank, entity in enumerate(self.entities, start=1)}

    def score_of(self) -> dict[str, float]:
        return dict(zip(self.entities, self.scores))


class RankTrajectory(NamedTuple):
    """Ranks of one (final-roster) entity across years; None = no rank."""

    entity: str
    ranks: tuple[int | None, ...]
    lineage: str  # "own" when uninterrupted, else e.g. "split-derived"


class RankSeries(NamedTuple):
    """Aligned per-entity rank trajectories across ordered years."""

    years: tuple[str, ...]
    trajectories: tuple[RankTrajectory, ...]


class GroupProfile(NamedTuple):
    """Three rank-based groups and their mean weighted-performance curves.

    ``groups`` partitions the entity set top/middle/bottom (sizes differ by
    at most one, extras go to the higher groups); curves are means over
    present cells only, NaN where a group has no data for a category.
    """

    categories: tuple[str, ...]
    groups: tuple[tuple[str, ...], ...]
    group_curves: np.ndarray     # (3, n_categories)
    national_curve: np.ndarray   # (n_categories,)


class WeightsEvolution(NamedTuple):
    """Per-category weights across years; NaN where a category is absent."""

    years: tuple[str, ...]
    categories: tuple[str, ...]
    values: np.ndarray  # (n_categories, n_years)


def goal_weights(scores: ComplexityScores, ubiq: AdjustedUbiquity) -> GoalWeights:
    """Category importance weights: entrywise category score / ubiquity."""
    if scores.categories != ubiq.categories:
        raise InputError("category rosters of scores and ubiquity differ")
    return GoalWeights(scores.year, scores.categories,
                       scores.category_scores / ubiq.values)


def weighted_performance(panel: ScorePanel, weights: GoalWeights) -> np.ndarray:
    """Entrywise product of scores and category weights.

    Returns a dense matrix with NaN at missing cells so downstream means
    can skip them.
    """
    if weights.categories != panel.categories:
        raise InputError(
            f"category rosters differ: panel year {panel.year!r} vs "
            f"weights year {weights.year!r}")
    values = panel.scores * weights.values[None, :]
    return np.where(panel.missing_mask, np.nan, values)


def rank_entities(entities: Sequence[str], values: Sequence[float],
                  basis: str, year: str) -> RankTable:
    """Rank entities by descending value; rank 1 is the highest value.

    Ties are broken lexicographically by entity id and flagged on both
    rows so the arbitrary ordering is visible in the output.
    """
    entities = tuple(str(e) for e in entities)
    values = np.asarray(values, dtype=float)
    if len(entities) != values.size:
        raise InputError("entities and values must have equal length")
    if not np.isfinite(values).all():
        raise InputError("rank values must be finite")
    # Each id's position in Python string order (a numpy "U" array would
    # drop trailing NULs), then one sort by descending value, ties by id.
    # Sorting and np.unique both treat 0.0 and -0.0 as equal.
    n = len(entities)
    pos = np.empty(n, dtype=np.intp)
    pos[sorted(range(n), key=entities.__getitem__)] = np.arange(n)
    order = np.lexsort((pos, -values))
    _, inverse, counts = np.unique(values, return_inverse=True,
                                   return_counts=True)
    return RankTable(year, basis, tuple([entities[i] for i in order.tolist()]),
                     tuple(values[order].tolist()),
                     tuple((counts[inverse] > 1)[order].tolist()))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # One pass over runs of equal sorted values (inputs are finite, checked
    # by `spearman`); positions start+1 .. start+count average to
    # start + (count + 1) / 2.
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, values.size])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return ranks


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Returns NaN when either input has no variation. Inputs must be finite:
    a NaN has no rank.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size != b.size:
        raise InputError("correlation inputs must have equal length")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise InputError("correlation inputs must be finite")
    ra = _average_ranks(a) - (a.size + 1) / 2.0
    rb = _average_ranks(b) - (b.size + 1) / 2.0
    denom = np.sqrt((ra @ ra) * (rb @ rb))
    if denom == 0:
        return float("nan")
    return float((ra @ rb) / denom)


def rank_correlation(a: RankTable, b: RankTable) -> float:
    """Spearman rho between two rank tables over the same entity set."""
    if set(a.entities) != set(b.entities):
        raise InputError(
            f"entity sets differ between rank tables ({a.basis}/{a.year} "
            f"vs {b.basis}/{b.year})")
    ids = sorted(a.entities)
    score_a = a.score_of()
    score_b = b.score_of()
    return spearman([score_a[e] for e in ids], [score_b[e] for e in ids])


def tertile_sizes(count: int) -> tuple[int, int, int]:
    """Split ``count`` into three groups, extras going to earlier groups."""
    base, extra = divmod(count, 3)
    return tuple(base + (1 if i < extra else 0) for i in range(3))


def _present_mean(values: np.ndarray) -> np.ndarray:
    """Column means over finite entries; NaN for all-NaN columns."""
    finite = np.isfinite(values)
    counts = finite.sum(axis=0)
    sums = np.where(finite, values, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def tertile_groups(table: RankTable, panel: ScorePanel,
                   weights: GoalWeights) -> GroupProfile:
    """Three rank groups with mean weighted-performance curves.

    Groups are consecutive slices of the rank table (best ranks first);
    curves average over present cells, with the national curve taken over
    all entities.
    """
    if panel.n_entities < 3:
        raise InputError("tertile grouping needs at least 3 entities")
    if set(table.entities) != set(panel.entities):
        raise InputError("rank table and panel entity sets differ")

    performance = weighted_performance(panel, weights)
    row_of = {e: i for i, e in enumerate(panel.entities)}
    ordered = table.entities
    sizes = tertile_sizes(len(ordered))
    bounds = (0, sizes[0], sizes[0] + sizes[1], len(ordered))
    groups = tuple(ordered[bounds[i]:bounds[i + 1]] for i in range(3))

    curves = np.vstack([
        _present_mean(performance[[row_of[e] for e in group], :])
        for group in groups])
    national = _present_mean(performance)
    return GroupProfile(panel.categories, groups, curves, national)


def rank_evolution(tables: Sequence[RankTable],
                   maps: Sequence[EntityMap | None] | None = None) -> RankSeries:
    """Per-entity rank trajectories across chronologically ordered tables.

    ``maps[i]`` aligns the roster of ``tables[i]`` with ``tables[i + 1]``.
    Trajectories are keyed to the final-year roster (the color key of the
    bump chart). Split children inherit the parent's earlier ranks and are
    flagged; merged and introduced entities start where they first appear.
    """
    if not tables:
        raise InputError("rank evolution needs at least one rank table")
    if maps is None:
        maps = [None] * (len(tables) - 1)
    if len(maps) != len(tables) - 1:
        raise InputError(
            f"need {len(tables) - 1} entity maps for {len(tables)} tables, "
            f"got {len(maps)}")

    links_by_year: list[dict[str, Lineage]] = [
        align_rosters(tables[i].entities, tables[i + 1].entities, maps[i]).by_entity()
        for i in range(len(tables) - 1)]

    years = tuple(t.year for t in tables)
    rank_of = [t.rank_of() for t in tables]
    trajectories = []
    for entity in tables[-1].entities:
        ranks: list[int | None] = [None] * len(tables)
        ranks[-1] = rank_of[-1][entity]
        lineage = "own"
        current: str | None = entity
        for i in range(len(tables) - 2, -1, -1):
            link = links_by_year[i].get(current) if current else None
            if link is None or link.kind in ("introduced", "merged"):
                if link is not None and link.kind == "merged":
                    lineage = "merged"
                current = None
            else:
                if link.kind == "split-derived":
                    lineage = "split-derived"
                current = link.parents[0]
            if current is not None:
                ranks[i] = rank_of[i].get(current)
        trajectories.append(RankTrajectory(entity, tuple(ranks), lineage))
    return RankSeries(years, tuple(trajectories))


def weights_evolution(series: Sequence[GoalWeights]) -> WeightsEvolution:
    """Year-indexed weight table with explicit gaps for absent categories.

    Categories are ordered by first appearance across the input years.
    """
    if not series:
        raise InputError("weights evolution needs at least one year")
    categories = tuple(dict.fromkeys(c for w in series for c in w.categories))
    row_of = {c: i for i, c in enumerate(categories)}
    years = tuple(w.year for w in series)
    values = np.full((len(categories), len(series)), np.nan)
    for t, weights in enumerate(series):
        values[[row_of[c] for c in weights.categories], t] = weights.values
    return WeightsEvolution(years, categories, values)
