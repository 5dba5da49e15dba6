"""Scoring kernel: degree indices, proximity, eigenvectors, fixed point.

Two related routes to a pair of score vectors over entities and categories:

* the spectral route builds the proximity matrix ``N`` (scores rescaled by
  row totals and adjusted column ubiquities) and takes the principal
  eigenvectors of the two similarity matrices ``N N^T`` and ``N^T N``.
  One ``eigh`` of the m x m ``N^T N`` gives the category vector ``v`` and
  the shared eigenvalue; the entity vector is ``N v``, a sum along each
  row, so rows equal in ``N`` score bit-identically. ``similarity`` builds the
  two matrices only as a small-panel diagnostic;
* the iterative route runs the nonlinear fitness-complexity map to a fixed
  point, the entity half and then the category half of each step,
  renormalizing both vectors to mean one.

Both routes read one ``Prepared`` record of the panel, built by
``prepare``, which also refuses a degenerate panel.

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

# Relative distance below which the top eigenvalues of ``N^T N`` (the
# squared singular values of ``N``) count as one degenerate value.
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


class Prepared(NamedTuple):
    """One year's panel and the quantities both solvers read, built once
    by ``prepare``."""

    panel: ScorePanel
    degree: DegreeIndex
    ubiquity: AdjustedUbiquity
    proximity: ProximityMatrix


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
    the eigenvalue fields are populated on the spectral route only. There
    both hold the one dominant eigenvalue that ``N N^T`` and ``N^T N``
    share, from the one eigensolve of ``N^T N``.
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
        raise DegeneratePanelError("zero total score for entity: " + ", ".join(
            panel.entities[i] for i in zero))
    return DegreeIndex(panel.entities, totals, counts, totals / counts)


def adjusted_ubiquity(panel: ScorePanel, deg: DegreeIndex) -> AdjustedUbiquity:
    """Column sums of scores after dividing each row by its total.

    Raises DegeneratePanelError naming every category whose adjusted sum is
    zero (an all-zero column).
    """
    values = (panel.scores / deg.totals[:, None]).sum(axis=0)
    zero = np.flatnonzero(values == 0)
    if zero.size:
        raise DegeneratePanelError("zero adjusted ubiquity for category: "
                                   + ", ".join(panel.categories[j] for j in zero))
    return AdjustedUbiquity(panel.categories, values)


def proximity(panel: ScorePanel, deg: DegreeIndex,
              ubiq: AdjustedUbiquity) -> ProximityMatrix:
    """Entrywise row shares (scores over row totals) divided by adjusted
    ubiquity, so rows with equal shares give bit-equal rows."""
    values = panel.scores / deg.totals[:, None] / ubiq.values
    return ProximityMatrix(panel.entities, panel.categories, values)


def prepare(panel: ScorePanel) -> Prepared:
    """The panel with its degree index, adjusted ubiquity and proximity.

    Raises DegeneratePanelError as ``degree_index`` and
    ``adjusted_ubiquity`` do, so a panel no solver can read is refused
    here, before either solver runs.
    """
    deg = degree_index(panel)
    ubiq = adjusted_ubiquity(panel, deg)
    return Prepared(panel, deg, ubiq, proximity(panel, deg, ubiq))


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


def principal_eigenvector(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a symmetric non-negative matrix.

    A dense symmetric eigensolve (``numpy.linalg.eigh``). Returns the
    largest eigenvalue and a unit-norm eigenvector. The eigenvectors whose
    eigenvalue lies within ``_DEGENERACY`` (relative) of the largest span
    the dominant eigenspace; the result is the uniform vector projected
    onto it. That is the limit power iteration reaches from the uniform
    start, so ties resolve the same way whatever basis LAPACK picked, and
    a simple dominant vector comes out oriented to a positive entry sum.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    if (matrix == 0).all():
        raise ValueError("matrix is all zero")
    values, vectors = np.linalg.eigh(matrix)
    top = values[-1]
    basis = vectors[:, values >= top - _DEGENERACY * abs(top)]
    size = basis.shape[0]
    vec = basis @ (basis.T @ np.full(size, 1.0 / np.sqrt(size)))
    norm = float(np.linalg.norm(vec))
    if norm <= _DEGENERACY:
        raise ValueError("dominant subspace is orthogonal to the uniform vector")
    return float(top), vec / norm


def genepy_scores(prep: Prepared) -> ComplexityScores:
    """Spectral scores from one eigensolve of the category similarity.

    ``principal_eigenvector(N^T N)`` gives the category vector ``v`` and
    the dominant eigenvalue, which ``N N^T`` shares. The entity vector is
    ``N v``, taken as a sum along each row, so rows equal in ``N`` get
    bit-identical scores wherever they sit. A degenerate dominant
    eigenvalue carries over: each ubiquity is the column sum of the row
    shares, so ``N^T 1 = 1`` and the uniform vector projected onto the top
    left subspace is, up to a positive factor, ``N`` times the projection
    ``v`` already is. Both vectors are rescaled to mean one.
    """
    panel = prep.panel
    prox = prep.proximity.values
    eigenvalue, vec_v = principal_eigenvector(prox.T @ prox)
    vec_u = (prox * vec_v).sum(axis=1)
    return ComplexityScores(
        year=panel.year,
        entities=panel.entities,
        categories=panel.categories,
        entity_scores=vec_u / vec_u.mean(),
        category_scores=vec_v / vec_v.mean(),
        method="spectral",
        entity_eigenvalue=eigenvalue,
        category_eigenvalue=eigenvalue)


def _fitness_update(scores: np.ndarray,
                    category_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One alternating step of the nonlinear map, each vector rescaled to
    mean one.

    Entity update: score-weighted sum of the current category scores.
    Category update, from the new entity scores: reciprocal of the sum of
    scores divided by entity scores, so categories achieved only by
    low-scoring entities come out on top. Each half is one matrix-vector
    product; the pair is half a Sinkhorn-Knopp sweep towards a matrix
    ``diag(1/F) X diag(Q)`` with uniform row and column sums.

    The entity half is an ``einsum``, which sums each row in one order
    whatever its place in the matrix. A BLAS kernel may sum rows in
    blocks, so equal rows at different places could get scores that
    differ in the last bit, and then not tie.
    """
    entity_raw = np.einsum("ij,j->i", scores, category_scores)
    entity_scores = entity_raw / (entity_raw.sum() / entity_raw.size)
    category_raw = 1.0 / ((1.0 / entity_scores) @ scores)
    return (entity_scores,
            category_raw / (category_raw.sum() / category_raw.size))


def run_fitness(prep: Prepared, tol: float = DEFAULT_TOL,
                max_steps: int = DEFAULT_MAX_STEPS) -> tuple[ComplexityScores, IterationTrace]:
    """Iterate the nonlinear map from uniform start vectors to a fixed point.

    Each step is ``_fitness_update``. Stops when the entrywise relative
    change of both vectors drops to ``tol`` (L-infinity). Non-convergence
    is not an exception: the last iterate is returned with
    ``converged=False`` in the trace so callers can decide what to do with
    it. An update that is not all finite and positive (some scores flowing
    to zero or overflowing) also stops the run as not converged; the
    previous iterate is kept.
    """
    panel = prep.panel
    entity_scores = np.ones(panel.n_entities)
    category_scores = np.ones(panel.n_categories)
    residuals: list[float] = []
    converged = False
    residual = np.inf
    for _ in range(max_steps):
        with np.errstate(all="ignore"):
            entity_new, category_new = _fitness_update(panel.scores,
                                                       category_scores)
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
