"""Independent numerical oracles used to cross-check the package.

Everything in this module is deliberately written without touching the
package under test (and without numpy.linalg eigensolvers), so agreement
between the two is meaningful: a brute-force Jacobi eigensolver, a
closed-form 2x2 eigenpair from the characteristic polynomial, the
textbook Spearman formula for tie-free rankings, and the row-by-row table
writer and sort-based ranker that the columnar ones replaced.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np


def jacobi_eigensystem(matrix, max_sweeps: int = 100,
                       tol: float = 1e-14) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a symmetric matrix via cyclic Jacobi rotations.

    Returns eigenvalues in descending order and the matching eigenvectors
    as columns. O(n^5) the way it is written, which is fine for the tiny
    matrices it is used on.
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    assert a.shape == (n, n)
    assert np.max(np.abs(a - a.T)) < 1e-12
    vectors = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2
                            for p in range(n) for q in range(p + 1, n)))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                sign = 1.0 if theta >= 0 else -1.0
                t = sign / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rotation = np.eye(n)
                rotation[p, p] = rotation[q, q] = c
                rotation[p, q] = s
                rotation[q, p] = -s
                a = rotation.T @ a @ rotation
                vectors = vectors @ rotation
    order = np.argsort(np.diag(a))[::-1]
    return np.diag(a)[order].copy(), vectors[:, order].copy()


def jacobi_principal_eigenpair(matrix) -> tuple[float, np.ndarray]:
    """Dominant eigenpair from the Jacobi solver, sum-positive orientation."""
    values, vectors = jacobi_eigensystem(matrix)
    vec = vectors[:, 0]
    if vec.sum() < 0:
        vec = -vec
    return float(values[0]), vec


def principal_eigenpair_2x2(matrix) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a symmetric 2x2 from the characteristic polynomial.

    For [[a, b], [b, d]] the roots of lambda^2 - (a+d) lambda + (ad - b^2)
    are ((a+d) +/- sqrt((a-d)^2 + 4 b^2)) / 2; the eigenvector of the larger
    root is (b, lambda - a), normalized and oriented to a positive sum.
    """
    m = np.asarray(matrix, dtype=float)
    assert m.shape == (2, 2) and abs(m[0, 1] - m[1, 0]) < 1e-15
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    lam = (a + d + math.sqrt((a - d) ** 2 + 4.0 * b * b)) / 2.0
    if b != 0.0:
        vec = np.array([b, lam - a])
    else:
        vec = np.array([1.0, 0.0]) if a >= d else np.array([0.0, 1.0])
    vec = vec / math.hypot(*vec)
    if vec.sum() < 0:
        vec = -vec
    return lam, vec


def spearman_no_ties(ranks_a, ranks_b) -> float:
    """Textbook rho = 1 - 6 sum(d^2) / (n (n^2 - 1)); ranks must be tie-free."""
    ranks_a = list(ranks_a)
    ranks_b = list(ranks_b)
    n = len(ranks_a)
    assert len(set(ranks_a)) == n and len(set(ranks_b)) == n
    d2 = sum((ra - rb) ** 2 for ra, rb in zip(ranks_a, ranks_b))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def direction_gap(u, v) -> float:
    """Max absolute entrywise difference after aligning signs of unit vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    sign = 1.0 if float(u @ v) >= 0 else -1.0
    return float(np.max(np.abs(u - sign * v)))


def _cell_text(value) -> str:
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else f"{float(value):.6f}"
    if type(value) is str:
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _cell_json(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return None if math.isnan(value) else round(float(value), 6)
    return value


def table_by_rows(header, rows, format: str = "csv") -> str:
    """CSV or JSON text of a table, formatted one cell at a time."""
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_text(v) for v in row])
        return out.getvalue()
    doc = {"columns": list(header),
           "rows": [[_cell_json(v) for v in row] for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def rank_by_sort(entities, values):
    """(entities, scores, tied) in rank order: descending value, ties by id.

    A score is tied when another entity has an equal one (so 0.0 and -0.0
    tie).
    """
    entities = [str(e) for e in entities]
    scores = [float(v) for v in values]
    order = sorted(range(len(entities)), key=lambda i: (-scores[i], entities[i]))
    counts = Counter(scores)
    return (tuple(entities[i] for i in order), tuple(scores[i] for i in order),
            tuple(counts[scores[i]] > 1 for i in order))
