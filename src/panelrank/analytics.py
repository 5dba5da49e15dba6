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
from .panel import Alignment, Lineage, ScorePanel
from .panel import align_rosters  # noqa: F401 - perfbench/tracer.py wraps it here

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
    return _ranked(entities, [(basis, values)], year)[0][0]


def _ranked(entities: Sequence[str],
            vectors: Sequence[tuple[str, Sequence[float]]],
            year: str) -> list[tuple[RankTable, np.ndarray, np.ndarray]]:
    """For each (basis, values) vector over one roster, ``rank_entities``,
    the position in ``entities`` of each row of the table and the table's
    tie mask, for a caller that takes other columns in rank order."""
    entities = tuple(map(str, entities))
    # The ids' positions in Python string order, which a numpy "U" array
    # would not keep (it drops trailing NULs), sorted once for every vector.
    by_id = np.array(sorted(range(len(entities)), key=entities.__getitem__),
                     dtype=np.intp)
    ranked = []
    for basis, values in vectors:
        values = np.asarray(values, dtype=float)
        if len(entities) != values.size:
            raise InputError("entities and values must have equal length")
        if not np.isfinite(values).all():
            raise InputError("rank values must be finite")
        # A stable sort by descending value of the ids in string order keeps
        # equal values in id order. Sorting treats 0.0 and -0.0 as equal, so
        # equal neighbours in the sorted values are exactly the ties.
        order = by_id[np.argsort(-values[by_id], kind="stable")]
        ordered = values[order]
        equal = ordered[1:] == ordered[:-1]
        tied = np.zeros(values.size, dtype=bool)
        tied[1:] = equal
        tied[:-1] |= equal
        ids = tuple([entities[i] for i in order.tolist()])
        ranked.append((RankTable(year, basis, ids, tuple(ordered.tolist()),
                                 tuple(tied.tolist())), order, tied))
    return ranked


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
                   performance: np.ndarray) -> GroupProfile:
    """Three rank groups with mean curves of ``performance``, the panel's
    ``weighted_performance`` matrix.

    Groups are consecutive slices of the rank table (best ranks first);
    curves average over present cells, with the national curve taken over
    all entities.
    """
    if panel.n_entities < 3:
        raise InputError("tertile grouping needs at least 3 entities")
    if set(table.entities) != set(panel.entities):
        raise InputError("rank table and panel entity sets differ")
    if performance.shape != panel.scores.shape:
        raise InputError(f"performance matrix has shape {performance.shape}, "
                         f"the panel {panel.scores.shape}")
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
                   alignments: Sequence[Alignment]) -> RankSeries:
    """Per-entity rank trajectories across chronologically ordered tables.

    ``alignments[i]`` is ``align_rosters`` of the rosters of ``tables[i]``
    and ``tables[i + 1]``. Trajectories are keyed to the final-year roster
    (the color key of the bump chart). Split children inherit the parent's
    earlier ranks and are flagged; merged and introduced entities start
    where they first appear.
    """
    if not tables:
        raise InputError("rank evolution needs at least one rank table")
    if len(alignments) != len(tables) - 1:
        raise InputError(
            f"need {len(tables) - 1} roster alignments for {len(tables)} "
            f"tables, got {len(alignments)}")

    links_by_year: list[dict[str, Lineage]] = [
        alignment.by_entity() for alignment in alignments]

    years = tuple(t.year for t in tables)
    rank_of = [t.rank_of() for t in tables]
    trajectories = []
    for entity in tables[-1].entities:
        ranks: list[int | None] = [None] * len(tables)
        ranks[-1] = rank_of[-1][entity]
        lineage = "own"
        current = entity
        for i in range(len(tables) - 2, -1, -1):
            link = links_by_year[i].get(current)
            if link is None or link.kind == "introduced":
                break
            if link.kind in ("merged", "split-derived"):
                lineage = link.kind
            if link.kind == "merged":
                break
            current = link.parents[0]
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
