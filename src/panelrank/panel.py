"""Score-panel ingestion: parsing, validation, aggregation, alignment.

A score panel is one year's dense entity-by-category matrix of scores in
[0, 100]. Missing cells are stored as 0.0 and flagged in a boolean mask so
that downstream sums treat them as non-contributing while the kernel stays
dense. All functions here are pure; panels are immutable once built (the
backing arrays are marked read-only).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

MISSINGNESS_WARNING_THRESHOLD = 0.5


@dataclass(frozen=True)
class ScorePanel:
    """One year's entity x category score matrix with missing-cell mask."""

    year: str
    entities: tuple[str, ...]
    categories: tuple[str, ...]
    scores: np.ndarray       # float64, (n_entities, n_categories), 0.0 where missing
    missing_mask: np.ndarray  # bool, True where the cell has no reported score

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def present_mask(self) -> np.ndarray:
        return ~self.missing_mask


@dataclass(frozen=True)
class IndicatorTable:
    """Long-form indicator scores for one year, one parallel column each."""

    year: str
    entities: tuple[str, ...] = ()
    categories: tuple[str, ...] = ()
    indicators: tuple[str, ...] = ()
    values: tuple[float, ...] = ()


@dataclass(frozen=True)
class MapRule:
    """One alignment rule: ``sources`` ids in the earlier roster map to
    ``targets`` ids in the later roster."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]


@dataclass(frozen=True)
class EntityMap:
    """Explicit entity alignment between two consecutive rosters.

    Renames are 1 -> 1, splits 1 -> many, merges many -> 1. Ids absent from
    every rule are matched by identity; leftovers are introductions or
    retirements. Fuzzy name matching is deliberately not supported.
    """

    renames: tuple[MapRule, ...] = ()
    splits: tuple[MapRule, ...] = ()
    merges: tuple[MapRule, ...] = ()

    @classmethod
    def from_json(cls, text: str) -> "EntityMap":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"entity map is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError("entity map must be a JSON object")
        rules: dict[str, tuple[MapRule, ...]] = {}
        for kind in ("renames", "splits", "merges"):
            entries = doc.get(kind, [])
            if not isinstance(entries, list):
                raise InputError(f"entity map field {kind!r} must be an array")
            parsed = []
            for entry in entries:
                if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
                    raise InputError(
                        f"entity map {kind} entries need 'from' and 'to' arrays")
                sources = tuple(str(x) for x in entry["from"])
                targets = tuple(str(x) for x in entry["to"])
                parsed.append(MapRule(sources, targets))
            rules[kind] = tuple(parsed)
        emap = cls(**rules)
        emap.check_shapes()
        return emap

    def check_shapes(self) -> None:
        for rule in self.renames:
            if len(rule.sources) != 1 or len(rule.targets) != 1:
                raise InputError(f"rename rule must be 1 -> 1, got {rule}")
        for rule in self.splits:
            if len(rule.sources) != 1 or len(rule.targets) < 2:
                raise InputError(f"split rule must be 1 -> many, got {rule}")
        for rule in self.merges:
            if len(rule.sources) < 2 or len(rule.targets) != 1:
                raise InputError(f"merge rule must be many -> 1, got {rule}")

    def all_rules(self) -> tuple[tuple[str, MapRule], ...]:
        return tuple(
            [("rename", r) for r in self.renames]
            + [("split", r) for r in self.splits]
            + [("merge", r) for r in self.merges]
        )


@dataclass(frozen=True)
class Lineage:
    """Provenance of one later-roster entity relative to the earlier roster.

    ``kind`` is one of: unchanged, renamed, split-derived, merged,
    introduced. Split children inherit the parent's earlier trajectory;
    merged entities start fresh at the merge year.
    """

    entity: str
    parents: tuple[str, ...]
    kind: str


@dataclass(frozen=True)
class Alignment:
    """Correspondence between two rosters: per-entity lineage plus the
    earlier-roster ids with no descendant."""

    links: tuple[Lineage, ...]
    retired: tuple[str, ...]

    def by_entity(self) -> dict[str, Lineage]:
        return {link.entity: link for link in self.links}


@dataclass(frozen=True)
class Finding:
    """One validation result; ``severity`` is "error" or "warning"."""

    severity: str
    code: str
    message: str
    entity: str | None = None
    category: str | None = None


def make_panel(year: str, entities: Sequence[str], categories: Sequence[str],
               scores: np.ndarray, missing_mask: np.ndarray | None = None) -> ScorePanel:
    """Build a validated, immutable ScorePanel.

    Enforces the structural invariants: unique ids without a carriage
    return, at least a 2x2 shape, present scores within [0, 100], no
    all-missing row or column, and at least one row with a nonzero total.
    """
    entities = tuple(str(e) for e in entities)
    categories = tuple(str(c) for c in categories)
    scores = np.array(scores, dtype=float)
    if missing_mask is None:
        missing_mask = np.zeros(scores.shape, dtype=bool)
    else:
        missing_mask = np.array(missing_mask, dtype=bool)

    if scores.ndim != 2 or scores.shape != missing_mask.shape:
        raise InputError("scores and missing_mask must be 2-D with equal shapes")
    if scores.shape != (len(entities), len(categories)):
        raise InputError(
            f"scores shape {scores.shape} does not match "
            f"{len(entities)} entities x {len(categories)} categories")
    if len(set(entities)) != len(entities):
        dupes = sorted({e for e in entities if entities.count(e) > 1})
        raise InputError(f"duplicate entity ids: {', '.join(dupes)}")
    if len(set(categories)) != len(categories):
        dupes = sorted({c for c in categories if categories.count(c) > 1})
        raise InputError(f"duplicate category ids: {', '.join(dupes)}")
    if len(entities) < 2 or len(categories) < 2:
        raise InputError("a panel needs at least 2 entities and 2 categories")
    # No file input can hold one (reading translates newlines), and the
    # CSV writer would leave it unquoted.
    bad = [name for name in (*entities, *categories) if "\r" in name]
    if bad:
        raise InputError(f"id {bad[0]!r} contains a carriage return")

    present = ~missing_mask
    if not np.isfinite(scores[present]).all():
        raise InputError("scores must be finite")
    if ((scores[present] < 0) | (scores[present] > 100)).any():
        bad = np.argwhere(present & ((scores < 0) | (scores > 100)))[0]
        raise InputError(
            f"score out of range [0, 100] at entity {entities[bad[0]]!r}, "
            f"category {categories[bad[1]]!r}: {scores[bad[0], bad[1]]}")
    if (~present).all(axis=1).any():
        idx = int(np.argmax((~present).all(axis=1)))
        raise InputError(f"entity {entities[idx]!r} has no reported scores")
    if (~present).all(axis=0).any():
        idx = int(np.argmax((~present).all(axis=0)))
        raise InputError(f"category {categories[idx]!r} has no reported scores")

    scores = np.where(missing_mask, 0.0, scores)
    totals = scores.sum(axis=1)
    if (totals == 0).all():
        raise InputError("all rows degenerate: every entity total is zero")

    scores.setflags(write=False)
    missing_mask.setflags(write=False)
    return ScorePanel(str(year), entities, categories, scores, missing_mask)


def _csv_rows(csv_text: str) -> list[list[str]]:
    """The non-empty rows of a CSV text; reader errors become InputError."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        return [row for row in reader if row]
    except csv.Error as exc:
        raise InputError(f"unreadable CSV at line {reader.line_num}: {exc}") from None


def parse_panel(csv_text: str, year: str) -> ScorePanel:
    """Parse a wide-form panel CSV into a validated ScorePanel.

    Expected layout: header ``entity,<cat1>,<cat2>,...``, one row per
    entity, empty cells meaning missing. Raises InputError with row/column
    coordinates for any malformed cell.
    """
    rows = _csv_rows(csv_text)
    if not rows:
        raise InputError("empty panel file")
    header = [cell.strip() for cell in rows[0]]
    if len(header) < 2:
        raise InputError("panel header must contain at least one category column")
    if header[0].lower() != "entity":
        raise InputError(f"first header column must be 'entity', got {header[0]!r}")
    categories = header[1:]

    entities: list[str] = []
    scores: list[list[float]] = []
    missing: list[list[bool]] = []
    for r, row in enumerate(rows[1:], start=2):
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


def panel_to_csv(panel: ScorePanel) -> str:
    """Serialize a panel back to its CSV form.

    Floats are written with shortest round-trip precision, so
    ``parse_panel(panel_to_csv(p), p.year)`` reproduces ``p`` exactly
    whenever no entity or category id has leading or trailing whitespace
    (the parser strips cells). ``make_panel`` rejects ids holding a
    carriage return, which the writer would leave unquoted.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["entity", *panel.categories])
    for i, entity in enumerate(panel.entities):
        row: list[str] = [entity]
        for j in range(panel.n_categories):
            if panel.missing_mask[i, j]:
                row.append("")
            else:
                row.append(repr(float(panel.scores[i, j])))
        writer.writerow(row)
    return out.getvalue()


def parse_indicator_csv(csv_text: str, year: str) -> IndicatorTable:
    """Parse a long-form indicator CSV (``entity,category,indicator,value``)."""
    rows = _csv_rows(csv_text)
    if not rows:
        raise InputError("empty indicator file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["entity", "category", "indicator", "value"]:
        raise InputError(
            "indicator header must be 'entity,category,indicator,value', "
            f"got {','.join(header)!r}")
    records: list[tuple[str, str, str, float]] = []
    for r, row in enumerate(rows[1:], start=2):
        cells = [cell.strip() for cell in row]
        if len(cells) != 4:
            raise InputError(f"row {r} has {len(cells)} cells, expected 4")
        try:
            value = float(cells[3])
        except ValueError:
            raise InputError(f"non-numeric value {cells[3]!r} at row {r}") from None
        records.append((cells[0], cells[1], cells[2], value))
    # Rows to columns; with no rows the columns keep their empty defaults.
    return IndicatorTable(str(year), *zip(*records))


def aggregate_indicators(table: IndicatorTable) -> ScorePanel:
    """Average indicator scores into per-cell scores.

    Each (entity, category) cell becomes the arithmetic mean of its
    indicators; pairs with no indicators are treated as not applicable and
    become missing cells. The mean uses an exactly rounded sum, so the
    result does not depend on indicator order.
    """
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

    # Positions in order of first appearance.
    row_of = {e: i for i, e in enumerate(dict.fromkeys(e for e, _ in cells))}
    col_of = {c: j for j, c in enumerate(dict.fromkeys(c for _, c in cells))}
    scores = np.zeros((len(row_of), len(col_of)))
    missing = np.ones((len(row_of), len(col_of)), dtype=bool)
    for (entity, category), values in cells.items():
        i, j = row_of[entity], col_of[category]
        scores[i, j] = math.fsum(values) / len(values)
        missing[i, j] = False
    return make_panel(table.year, tuple(row_of), tuple(col_of), scores, missing)


def validate_panel(panel: ScorePanel) -> list[Finding]:
    """Diagnose a panel without mutating it.

    The structural invariants (range, no all-missing row or column) are
    enforced by ``make_panel``. Errors here are rows or columns with a
    zero total, which break the scoring math; warnings flag suspicious but
    usable data (high missingness, constant columns).
    """
    findings: list[Finding] = []
    present = panel.present_mask()

    for i in np.flatnonzero(panel.scores.sum(axis=1) == 0):
        findings.append(Finding(
            "error", "degenerate-entity",
            f"entity {panel.entities[i]!r} has a zero total score",
            entity=panel.entities[i]))
    for j in np.flatnonzero(panel.scores.sum(axis=0) == 0):
        findings.append(Finding(
            "error", "degenerate-category",
            f"category {panel.categories[j]!r} has a zero total score",
            category=panel.categories[j]))

    miss_frac = panel.missing_mask.mean(axis=0)
    for j in np.flatnonzero(miss_frac > MISSINGNESS_WARNING_THRESHOLD):
        findings.append(Finding(
            "warning", "high-missingness",
            f"category {panel.categories[j]!r} is missing for "
            f"{miss_frac[j]:.3f} of entities",
            category=panel.categories[j]))

    constant: list[str] = []
    for j in range(panel.n_categories):
        values = panel.scores[present[:, j], j]
        if values.size > 1 and (values == values[0]).all():
            constant.append(panel.categories[j])
    if constant:
        findings.append(Finding(
            "warning", "constant-columns",
            "constant columns (no variation across entities): "
            + ", ".join(constant)))
    return findings


def _check_rule_ids(kind: str, rule: MapRule, earlier: set[str], later: set[str]) -> None:
    for src in rule.sources:
        if src not in earlier:
            raise InputError(
                f"{kind} rule references {src!r}, which is not in the earlier roster")
    for tgt in rule.targets:
        if tgt not in later:
            raise InputError(
                f"{kind} rule references {tgt!r}, which is not in the later roster")


def align_rosters(earlier: Sequence[str], later: Sequence[str],
                  emap: EntityMap | None = None) -> Alignment:
    """Resolve the correspondence between two entity rosters.

    Ids untouched by any rule match by identity; later-roster ids with no
    rule and no identity match are introductions, earlier-roster ids with
    no rule and no identity match are retirements. Conflicting or dangling
    rules raise InputError.
    """
    emap = emap or EntityMap()
    emap.check_shapes()
    earlier_set, later_set = set(earlier), set(later)

    sourced: dict[str, str] = {}
    targeted: dict[str, str] = {}
    for kind, rule in emap.all_rules():
        _check_rule_ids(kind, rule, earlier_set, later_set)
        for src in rule.sources:
            if src in sourced:
                raise InputError(
                    f"conflicting rules: {src!r} is a source of both a "
                    f"{sourced[src]} and a {kind}")
            sourced[src] = kind
        for tgt in rule.targets:
            if tgt in targeted:
                raise InputError(
                    f"conflicting rules: {tgt!r} is a target of both a "
                    f"{targeted[tgt]} and a {kind}")
            targeted[tgt] = kind

    for kind, rule in emap.all_rules():
        if kind in ("rename", "merge"):
            for src in rule.sources:
                if src in later_set and src not in rule.targets:
                    raise InputError(
                        f"{kind} rule consumes {src!r}, but it is still "
                        "present in the later roster")

    links: list[Lineage] = []
    consumed: set[str] = set()
    for kind, rule in emap.all_rules():
        consumed.update(rule.sources)
        if kind == "rename":
            links.append(Lineage(rule.targets[0], rule.sources, "renamed"))
        elif kind == "split":
            for child in rule.targets:
                links.append(Lineage(child, rule.sources, "split-derived"))
        else:
            links.append(Lineage(rule.targets[0], rule.sources, "merged"))

    for entity in later:
        if entity in targeted:
            continue
        if entity in earlier_set:
            if entity in consumed:
                raise InputError(
                    f"conflicting rules: {entity!r} is consumed by a rule "
                    "but also matches by identity")
            links.append(Lineage(entity, (entity,), "unchanged"))
        else:
            links.append(Lineage(entity, (), "introduced"))

    descended = consumed | {p for link in links for p in link.parents}
    retired = tuple(e for e in earlier if e not in descended)
    order = {e: i for i, e in enumerate(later)}
    links.sort(key=lambda link: order[link.entity])
    return Alignment(tuple(links), retired)
