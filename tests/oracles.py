"""Independent numerical oracles used to cross-check the package.

Everything in this module is deliberately written without touching the
package under test (and without numpy.linalg eigensolvers), so agreement
between the two is meaningful: a brute-force Jacobi eigensolver, a
closed-form 2x2 eigenpair from the characteristic polynomial, the
textbook Spearman formula for tie-free rankings, and the row-by-row table
writer, sort-based ranker and cell-by-cell CSV readers that the columnar
ones replaced. The readers build their panels through ``make_panel``, the
one place that builds a panel, so they differ from the package only in
how cells are converted and checked.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter

import numpy as np

from panelrank import IndicatorTable, InputError, make_panel


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


def cell_text(value) -> str:
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


def cell_json(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return round(float(value), 6) if math.isfinite(value) else None
    return value


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(cells: list[str]) -> str:
    # A record of one empty cell is quoted, or it would read as no record.
    return ('""' if cells == [""] else ",".join(map(_csv_field, cells))) + "\n"


def table_by_rows(header, rows, format: str = "csv") -> str:
    """CSV or JSON text of a table, formatted one cell at a time.

    The CSV lines are joined by hand, quoting every cell that holds a
    comma, a quote, a newline or a carriage return.
    """
    if format == "csv":
        return "".join([_csv_line(list(header)),
                        *(_csv_line([cell_text(v) for v in row])
                          for row in rows)])
    doc = {"columns": list(header),
           "rows": [[cell_json(v) for v in row] for row in rows]}
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


def _csv_rows(csv_text: str) -> list[tuple[int, list[str]]]:
    """(line, row) for each non-empty record, where line is the 1-based
    file line the record starts on, counted from the lines fed to the
    reader."""
    fed = 0

    def lines():
        nonlocal fed
        for line in io.StringIO(csv_text):
            fed += 1
            yield line

    numbered = []
    start = 1
    reader = csv.reader(lines())
    try:
        for row in reader:
            if row:
                numbered.append((start, row))
            start = fed + 1
    except csv.Error as exc:
        raise InputError(f"unreadable CSV at line {reader.line_num}: {exc}") from None
    return numbered


def parse_panel_by_cells(csv_text: str, year: str):
    """Wide-form panel CSV to a panel, converting one cell at a time."""
    rows = _csv_rows(csv_text)
    if not rows:
        raise InputError("empty panel file")
    header = [cell.strip() for cell in rows[0][1]]
    if len(header) < 2:
        raise InputError("panel header must contain at least one category column")
    if header[0].lower() != "entity":
        raise InputError(f"first header column must be 'entity', got {header[0]!r}")
    categories = header[1:]

    entities: list[str] = []
    scores: list[list[float]] = []
    missing: list[list[bool]] = []
    for r, row in rows[1:]:
        cells = [cell.strip() for cell in row]
        if len(cells) != len(header):
            raise InputError(
                f"row {r} has {len(cells)} cells, expected {len(header)}")
        entities.append(cells[0])
        score_row: list[float] = []
        miss_row: list[bool] = []
        for c, cell in enumerate(cells[1:]):
            if cell == "":
                score_row.append(0.0)
                miss_row.append(True)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"non-numeric cell {cell!r} at row {r}, "
                    f"column {categories[c]!r}") from None
            if not math.isfinite(value) or value < 0 or value > 100:
                raise InputError(
                    f"score {value} out of range [0, 100] at row {r}, "
                    f"column {categories[c]!r}")
            score_row.append(value)
            miss_row.append(False)
        scores.append(score_row)
        missing.append(miss_row)

    if not entities:
        raise InputError("panel file has a header but no data rows")
    return make_panel(year, entities, categories,
                      np.array(scores, dtype=float), np.array(missing, dtype=bool))


def parse_indicator_csv_by_rows(csv_text: str, year: str) -> IndicatorTable:
    """Long-form indicator CSV to a table, converting one row at a time."""
    rows = _csv_rows(csv_text)
    if not rows:
        raise InputError("empty indicator file")
    header = [cell.strip().lower() for cell in rows[0][1]]
    if header != ["entity", "category", "indicator", "value"]:
        raise InputError(
            "indicator header must be 'entity,category,indicator,value', "
            f"got {','.join(header)!r}")
    records: list[tuple[str, str, str, float]] = []
    for r, row in rows[1:]:
        cells = [cell.strip() for cell in row]
        if len(cells) != 4:
            raise InputError(f"row {r} has {len(cells)} cells, expected 4")
        try:
            value = float(cells[3])
        except ValueError:
            raise InputError(f"non-numeric value {cells[3]!r} at row {r}") from None
        records.append((cells[0], cells[1], cells[2], value))
    return IndicatorTable(str(year), *zip(*records))


def aggregate_indicators_by_records(table: IndicatorTable):
    """Indicator table to a panel of per-cell means, one record at a time."""
    if not table.values:
        raise InputError("indicator table is empty")
    seen: set[tuple[str, str, str]] = set()
    cells: dict[tuple[str, str], list[float]] = {}
    for entity, category, indicator, value in zip(
            table.entities, table.categories, table.indicators, table.values,
            strict=True):
        key = (entity, category, indicator)
        if key in seen:
            raise InputError(
                f"duplicate indicator {indicator!r} for entity "
                f"{entity!r}, category {category!r}")
        seen.add(key)
        if not math.isfinite(value) or value < 0 or value > 100:
            raise InputError(
                f"indicator value {value} out of range [0, 100] for "
                f"entity {entity!r}, category {category!r}, "
                f"indicator {indicator!r}")
        cells.setdefault((entity, category), []).append(value)

    row_of = {e: i for i, e in enumerate(dict.fromkeys(e for e, _ in cells))}
    col_of = {c: j for j, c in enumerate(dict.fromkeys(c for _, c in cells))}
    scores = np.zeros((len(row_of), len(col_of)))
    missing = np.ones((len(row_of), len(col_of)), dtype=bool)
    for (entity, category), values in cells.items():
        i, j = row_of[entity], col_of[category]
        scores[i, j] = math.fsum(values) / len(values)
        missing[i, j] = False
    return make_panel(table.year, tuple(row_of), tuple(col_of), scores, missing)
