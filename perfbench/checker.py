"""Output checks for one ``panelrank compute`` invocation.

Independent of the package under test: nothing here imports panelrank.
The reference scores are rebuilt from the input files with numpy alone,
so a defect in the package cannot also hide in its own oracle.

Tables carry six decimals, so a value is "within CSV precision" of a
reference when it differs by at most one unit in the sixth decimal: half
a unit for the rounding and half for solver tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

CSV_UNIT = 1e-6
HALF_UNIT = 0.5e-6


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in ``out_dir``, keyed by file name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return [row for row in csv.reader(handle) if row]


def _columns(path: Path) -> dict[str, dict[str, str]]:
    """Table as {column: {row key: cell text}}, keyed by the first column."""
    header, *body = _rows(path)
    return {name: {row[0]: row[k] for row in body}
            for k, name in enumerate(header) if k}


def load_wide(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Entities, categories and scores (0 where missing) of a panel CSV."""
    header, *body = _rows(path)
    scores = np.array([[float(c) if c.strip() else 0.0 for c in row[1:]]
                       for row in body])
    return [row[0].strip() for row in body], [c.strip() for c in header[1:]], scores


def load_long(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """Indicator CSV averaged per cell; absent cells score 0."""
    cells: dict[tuple[str, str], list[float]] = {}
    for entity, category, _, value in _rows(path)[1:]:
        cells.setdefault((entity.strip(), category.strip()), []).append(float(value))
    entities = list(dict.fromkeys(e for e, _ in cells))
    categories = list(dict.fromkeys(c for _, c in cells))
    row = {e: i for i, e in enumerate(entities)}
    col = {c: j for j, c in enumerate(categories)}
    scores = np.zeros((len(entities), len(categories)))
    for (entity, category), values in cells.items():
        scores[row[entity], col[category]] = math.fsum(values) / len(values)
    return entities, categories, scores


def spectral_reference(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean-one entity and category scores from the leading singular pair.

    The principal eigenvectors of N N^T and N^T N are the leading left and
    right singular vectors of the proximity matrix N.
    """
    totals = scores.sum(axis=1)
    ubiquity = (scores / totals[:, None]).sum(axis=0)
    prox = scores / (totals[:, None] * ubiquity[None, :])
    u, _, vt = np.linalg.svd(prox, full_matrices=False)
    left, right = u[:, 0], vt[0]
    left, right = left * np.sign(left.sum()), right * np.sign(right.sum())
    return left / left.mean(), right / right.mean()


def fitness_step(scores: np.ndarray, entity: np.ndarray,
                 category: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One step of the fitness-complexity map, both sides rescaled to mean one."""
    entity_new = scores @ category
    category_new = 1.0 / (scores / entity[:, None]).sum(axis=0)
    return entity_new / entity_new.mean(), category_new / category_new.mean()


def _floats(column: dict[str, str], keys: list[str]) -> np.ndarray:
    return np.array([float(column[k]) for k in keys])


def _compare(label: str, got: np.ndarray, want: np.ndarray,
             tolerance: np.ndarray | float) -> list[str]:
    excess = np.abs(got - want) - tolerance
    if not (excess > 0).any():
        return []
    worst = int(np.argmax(excess))
    return [f"{label}: {got[worst]!r} vs reference {want[worst]!r} "
            f"(off by {abs(got[worst] - want[worst]):.3g})"]


def _check_year(year: str, entities: list[str], categories: list[str],
                scores: np.ndarray, out_dir: Path) -> list[str]:
    problems: list[str] = []
    ent = _columns(out_dir / f"scores_entities_{year}.csv")
    cat = _columns(out_dir / f"scores_categories_{year}.csv")
    if set(ent["total_score"]) != set(entities):
        return [f"{year}: entity roster of scores table differs from input"]
    if set(cat["adjusted_ubiquity"]) != set(categories):
        return [f"{year}: category roster of scores table differs from input"]

    problems += _compare(f"{year} total_score", _floats(ent["total_score"], entities),
                         scores.sum(axis=1), HALF_UNIT + 1e-9 * scores.sum(axis=1))
    ref_entity, ref_category = spectral_reference(scores)
    problems += _compare(f"{year} entity complexity_spectral",
                         _floats(ent["complexity_spectral"], entities),
                         ref_entity, CSV_UNIT)
    problems += _compare(f"{year} category complexity_spectral",
                         _floats(cat["complexity_spectral"], categories),
                         ref_category, CSV_UNIT)

    # Rounding each input by half a unit perturbs each output of the map by
    # at most twice the largest relative rounding error of the other side.
    fit_entity = _floats(ent["complexity_iterative"], entities)
    fit_category = _floats(cat["complexity_iterative"], categories)
    step_entity, step_category = fitness_step(scores, fit_entity, fit_category)
    rel_category = HALF_UNIT / fit_category.min()
    rel_entity = HALF_UNIT / fit_entity.min()
    problems += _compare(f"{year} fitness step (entities)", fit_entity, step_entity,
                         HALF_UNIT + (2 * rel_category + 1e-8) * step_entity)
    problems += _compare(f"{year} fitness step (categories)", fit_category,
                         step_category,
                         HALF_UNIT + (2 * rel_entity + 1e-8) * step_category)

    for basis, column in (("k_s", "total_score"),
                          ("composite_mean", "composite_mean"),
                          ("D_s", "complexity_spectral"),
                          ("D_s_iterative", "complexity_iterative")):
        problems += _check_ranks(out_dir / f"ranks_{basis}_{year}.csv", ent[column])
    return problems


def _check_ranks(path: Path, scores: dict[str, str]) -> list[str]:
    """Rank table rows are the scores table's values, best first, ranked 1..n."""
    header, *body = _rows(path)
    name = path.name
    if header != ["entity", "score", "rank", "tied"]:
        return [f"{name}: unexpected header {header}"]
    if sorted(row[0] for row in body) != sorted(scores):
        return [f"{name}: entities differ from the scores table"]
    problems = []
    if [row[2] for row in body] != [str(k) for k in range(1, len(body) + 1)]:
        problems.append(f"{name}: ranks are not 1..{len(body)} in row order")
    if any(row[1] != scores[row[0]] for row in body):
        problems.append(f"{name}: a score differs from the scores table")
    values = [float(row[1]) for row in body]
    if any(a < b for a, b in zip(values, values[1:])):
        problems.append(f"{name}: scores are not in descending order")
    shared = {}
    for row in body:
        shared[row[1]] = shared.get(row[1], 0) + 1
    if any(row[3] == "true" and shared[row[1]] < 2 for row in body):
        problems.append(f"{name}: a row is marked tied but its score is unique")
    return problems


def check_outputs(plan, out_dir: Path) -> list[str]:
    """Every content check of one run's output directory; [] when correct."""
    problems: list[str] = []
    for year in plan.years:
        if year in plan.wide:
            entities, categories, scores = load_wide(plan.wide[year])
        else:
            entities, categories, scores = load_long(plan.long[year])
        problems += _check_year(year, entities, categories, scores, out_dir)
    header, *body = _rows(out_dir / "method_agreement.csv")
    if [row[0] for row in body] != list(plan.years):
        problems.append("method_agreement.csv: years differ from the inputs")
    elif any(not -1.0 <= float(row[1]) <= 1.0 for row in body):
        problems.append("method_agreement.csv: rho outside [-1, 1]")
    return problems
