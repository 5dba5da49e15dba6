"""Scoring kernel: degree indices, proximity, eigenvectors, fixed point.

Two related routes to a pair of score vectors over entities and categories:

* the spectral route builds the proximity matrix ``N`` (scores rescaled by
  row totals and adjusted column ubiquities) and takes the principal
  eigenvectors of the two similarity matrices ``N N^T`` and ``N^T N``.
  Those are the leading left and right singular vectors of ``N``, so one
  thin SVD gives both, with the shared eigenvalue ``sigma_1^2``.
  ``similarity`` builds the two matrices only as a small-panel diagnostic;
* the iterative route runs the nonlinear fitness-complexity map to a fixed
  point, renormalizing both vectors to mean one at every step.

The routes do not give the same entity scores. The spectral entity scores
approximate the iterative ones per unit row total, ``(F / k)`` rescaled to
mean one: the two category updates agree to first order in the deviation
of ``F / k`` from uniform. The iterative scores still carry the row totals
``k``, so the raw rankings of the two routes may differ.

Everything below is a pure, deterministic function of its inputs. Missing
cells are zeros in the score matrix and therefore contribute nothing to
any of the sums.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegeneratePanelError
from .panel import ScorePanel

# Fixed-point iteration defaults; the spectral route is a direct solve.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_STEPS = 1000

# Relative distance below which the top singular values (or eigenvalues)
# of a spectrum count as one degenerate value.
_DEGENERACY = 1e-12


class DegreeIndex(NamedTuple):
    """Per-entity total score, applicable-cell count, and mean composite.

    The total is the weighted degree of the entity node in the bipartite
    score network; the composite divides by the number of present cells,
    matching mean-based composite indices that skip non-applicable
    categories.
    """

    entities: tuple[str, ...]
    totals: np.ndarray
    applicable_counts: np.ndarray
    composite_means: np.ndarray


class AdjustedUbiquity(NamedTuple):
    """Per-category column sums of the row-normalized score matrix."""

    categories: tuple[str, ...]
    values: np.ndarray


class ProximityMatrix(NamedTuple):
    """Score matrix rescaled by entity totals and adjusted ubiquities.

    Invariant to a global rescaling of all scores; zero exactly where the
    score is zero or missing.
    """

    entities: tuple[str, ...]
    categories: tuple[str, ...]
    values: np.ndarray


class SimilarityPair(NamedTuple):
    """The two symmetric projections of the proximity matrix.

    ``entity_similarity`` compares entities through shared category
    performance; ``category_similarity`` compares categories through the
    entities achieving them. Both are explicitly symmetrized to cancel
    floating-point drift, and they share their nonzero spectrum.
    """

    entities: tuple[str, ...]
    categories: tuple[str, ...]
    entity_similarity: np.ndarray
    category_similarity: np.ndarray


class ComplexityScores(NamedTuple):
    """Entity and category score vectors, both normalized to mean one.

    ``method`` records how they were obtained ("spectral" or "iterative");
    the eigenvalue fields are populated on the spectral route only.
    """

    year: str
    entities: tuple[str, ...]
    categories: tuple[str, ...]
    entity_scores: np.ndarray
    category_scores: np.ndarray
    method: str
    entity_eigenvalue: float | None = None
    category_eigenvalue: float | None = None


class IterationTrace(NamedTuple):
    """Residual history of a fixed-point run, one entry per step."""

    residuals: tuple[float, ...]
    converged: bool
    steps: int
    final_residual: float


def degree_index(panel: ScorePanel) -> DegreeIndex:
    """Row totals and per-row mean composites over present cells.

    Raises DegeneratePanelError naming every entity whose total is zero,
    since such rows make all downstream rescalings undefined.
    """
    totals = panel.scores.sum(axis=1)
    counts = panel.present_mask().sum(axis=1)
    zero = np.flatnonzero(totals == 0)
    if zero.size:
        names = tuple(panel.entities[i] for i in zero)
        raise DegeneratePanelError(
            "zero total score for entity: " + ", ".join(names),
            entities=names)
    return DegreeIndex(panel.entities, totals, counts, totals / counts)


def adjusted_ubiquity(panel: ScorePanel, deg: DegreeIndex) -> AdjustedUbiquity:
    """Column sums of scores after dividing each row by its total.

    Raises DegeneratePanelError naming every category whose adjusted sum is
    zero (an all-zero column).
    """
    values = (panel.scores / deg.totals[:, None]).sum(axis=0)
    zero = np.flatnonzero(values == 0)
    if zero.size:
        names = tuple(panel.categories[j] for j in zero)
        raise DegeneratePanelError(
            "zero adjusted ubiquity for category: " + ", ".join(names),
            categories=names)
    return AdjustedUbiquity(panel.categories, values)


def proximity(panel: ScorePanel, deg: DegreeIndex,
              ubiq: AdjustedUbiquity) -> ProximityMatrix:
    """Entrywise scores divided by (row total x adjusted ubiquity)."""
    values = panel.scores / (deg.totals[:, None] * ubiq.values[None, :])
    return ProximityMatrix(panel.entities, panel.categories, values)


def similarity(prox: ProximityMatrix) -> SimilarityPair:
    """Project the proximity matrix onto entity and category similarity.

    Both products are symmetrized as (M + M^T) / 2 so the eigensolver's
    symmetric-input contract holds exactly under floating point.
    """
    n = prox.values
    u = n @ n.T
    v = n.T @ n
    return SimilarityPair(prox.entities, prox.categories,
                          (u + u.T) / 2.0, (v + v.T) / 2.0)


def _dominant_direction(vectors: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Unit vector for the largest of ``values``.

    ``vectors`` holds one orthonormal column per entry of ``values``. The
    columns whose value lies within ``_DEGENERACY`` (relative) of the
    largest span the dominant subspace; the result is the uniform vector
    projected onto it. That is the limit power iteration reaches from the
    uniform start, so ties resolve the same way whatever basis LAPACK
    picked, and a simple dominant vector comes out oriented to a positive
    entry sum.
    """
    top = values.max()
    basis = vectors[:, values >= top - _DEGENERACY * abs(top)]
    size = basis.shape[0]
    vec = basis @ (basis.T @ np.full(size, 1.0 / np.sqrt(size)))
    norm = float(np.linalg.norm(vec))
    if norm <= _DEGENERACY:
        raise ValueError("dominant subspace is orthogonal to the uniform vector")
    return vec / norm


def principal_eigenvector(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a symmetric non-negative matrix.

    A dense symmetric eigensolve (``numpy.linalg.eigh``). Returns the
    largest eigenvalue and a unit-norm eigenvector oriented so its entry
    sum is positive. For a degenerate dominant eigenvalue the uniform
    vector projected onto its eigenspace is returned, which makes ties
    deterministic.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if (matrix == 0).all():
        raise ValueError("matrix is all zero")
    values, vectors = np.linalg.eigh(matrix)
    return float(values[-1]), _dominant_direction(vectors, values)


def genepy_scores(panel: ScorePanel) -> ComplexityScores:
    """Spectral scores from one thin SVD of the proximity matrix ``N``.

    The principal eigenvectors of ``N N^T`` and ``N^T N`` are the leading
    left and right singular vectors of ``N``, and both dominant eigenvalues
    equal the squared top singular value, so they agree exactly. Entity
    and category scores are those vectors rescaled to mean one. A
    degenerate top singular value resolves as in ``principal_eigenvector``:
    the uniform vector projected onto the top singular subspace.
    """
    deg = degree_index(panel)
    ubiq = adjusted_ubiquity(panel, deg)
    left, sigma, right_t = np.linalg.svd(proximity(panel, deg, ubiq).values,
                                         full_matrices=False)
    vec_u = _dominant_direction(left, sigma)
    vec_v = _dominant_direction(right_t.T, sigma)
    eigenvalue = float(sigma[0]) ** 2
    return ComplexityScores(
        year=panel.year,
        entities=panel.entities,
        categories=panel.categories,
        entity_scores=vec_u / vec_u.mean(),
        category_scores=vec_v / vec_v.mean(),
        method="spectral",
        entity_eigenvalue=eigenvalue,
        category_eigenvalue=eigenvalue)


def _fitness_update(scores: np.ndarray, entity_scores: np.ndarray,
                    category_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One update of the nonlinear map, both vectors rescaled to mean one.

    Entity update: score-weighted sum of current category scores. Category
    update: reciprocal of the sum of scores divided by current entity
    scores, so categories achieved only by low-scoring entities come out
    on top. Both previous vectors feed the update (Jacobi style).
    """
    entity_raw = scores @ category_scores
    category_raw = 1.0 / (scores / entity_scores[:, None]).sum(axis=0)
    return (entity_raw / (entity_raw.sum() / entity_raw.size),
            category_raw / (category_raw.sum() / category_raw.size))


def fitness_step(panel: ScorePanel,
                 current: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Apply one step of the nonlinear map to (entity, category) scores."""
    entity_scores, category_scores = current
    entity_scores = np.asarray(entity_scores, dtype=float)
    category_scores = np.asarray(category_scores, dtype=float)
    if (entity_scores <= 0).any():
        raise ValueError(
            "singular update: entity scores must be strictly positive")
    return _fitness_update(panel.scores, entity_scores, category_scores)


def run_fitness(panel: ScorePanel, tol: float = DEFAULT_TOL,
                max_steps: int = DEFAULT_MAX_STEPS) -> tuple[ComplexityScores, IterationTrace]:
    """Iterate the nonlinear map from uniform start vectors to a fixed point.

    Stops when the entrywise relative change of both vectors drops to
    ``tol`` (L-infinity). Non-convergence is not an exception: the last
    iterate is returned with ``converged=False`` in the trace so callers
    can decide what to do with it. An update that is not all finite and
    positive (some scores flowing to zero or overflowing) also stops the
    run as not converged; the previous iterate is kept.
    """
    deg = degree_index(panel)
    adjusted_ubiquity(panel, deg)  # reject degenerate columns up front

    entity_scores = np.ones(panel.n_entities)
    category_scores = np.ones(panel.n_categories)
    residuals: list[float] = []
    converged = False
    residual = np.inf
    for _ in range(max_steps):
        with np.errstate(all="ignore"):
            entity_new, category_new = _fitness_update(
                panel.scores, entity_scores, category_scores)
        if not all(np.isfinite(v).all() and (v > 0).all()
                   for v in (entity_new, category_new)):
            break
        residual = max(
            float(np.max(np.abs(entity_new - entity_scores) / entity_scores)),
            float(np.max(np.abs(category_new - category_scores) / category_scores)))
        residuals.append(residual)
        entity_scores, category_scores = entity_new, category_new
        if residual <= tol:
            converged = True
            break

    scores = ComplexityScores(
        year=panel.year,
        entities=panel.entities,
        categories=panel.categories,
        entity_scores=entity_scores,
        category_scores=category_scores,
        method="iterative")
    trace = IterationTrace(tuple(residuals), converged, len(residuals), residual)
    return scores, trace
