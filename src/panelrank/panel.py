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
import operator
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError

MISSINGNESS_WARNING_THRESHOLD = 0.5


class ScorePanel(NamedTuple):
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


class IndicatorTable(NamedTuple):
    """Long-form indicator scores for one year, one parallel column each."""

    year: str
    entities: tuple[str, ...] = ()
    categories: tuple[str, ...] = ()
    indicators: tuple[str, ...] = ()
    values: tuple[float, ...] = ()


class MapRule(NamedTuple):
    """One alignment rule: ``sources`` ids in the earlier roster map to
    ``targets`` ids in the later roster."""

    sources: tuple[str, ...]
    targets: tuple[str, ...]


class EntityMap(NamedTuple):
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


class Lineage(NamedTuple):
    """Provenance of one later-roster entity relative to the earlier roster.

    ``kind`` is one of: unchanged, renamed, split-derived, merged,
    introduced. Split children inherit the parent's earlier trajectory;
    merged entities start fresh at the merge year.
    """

    entity: str
    parents: tuple[str, ...]
    kind: str


class Alignment(NamedTuple):
    """Correspondence between two rosters: per-entity lineage plus the
    earlier-roster ids with no descendant."""

    links: tuple[Lineage, ...]
    retired: tuple[str, ...]

    def by_entity(self) -> dict[str, Lineage]:
        return {link.entity: link for link in self.links}


class Finding(NamedTuple):
    """One validation result; ``severity`` is "error" or "warning"."""

    severity: str
    code: str
    message: str
    entity: str | None = None
    category: str | None = None


def make_panel(year: str, entities: Sequence[str], categories: Sequence[str],
               scores: np.ndarray, missing_mask: np.ndarray | None = None) -> ScorePanel:
    """Build a validated, immutable ScorePanel.

    Enforces the structural invariants: non-empty unique ids without a
    carriage return, at least a 2x2 shape, present scores within [0, 100],
    no all-missing row or column, and at least one row with a nonzero
    total.
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
    if "" in entities:
        raise InputError("an entity id is empty")
    if "" in categories:
        raise InputError("a category id is empty")
    for kind, ids in (("entity", entities), ("category", categories)):
        if len(set(ids)) != len(ids):
            dupes = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise InputError(f"duplicate {kind} ids: {', '.join(dupes)}")
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


def _numbered_body(csv_text: str) -> list[tuple[int, list[str]]]:
    """(line, row) for each non-empty record after the header, where line
    is the 1-based file line the record starts on, counting blank lines and
    cells that span lines. Only for texts ``_csv_rows`` has read."""
    reader = csv.reader(io.StringIO(csv_text))
    start, records = 1, []
    for row in reader:
        if row:
            records.append((start, row))
        start = reader.line_num + 1
    return records[1:]


def parse_panel(csv_text: str, year: str) -> ScorePanel:
    """Parse a wide-form panel CSV into a validated ScorePanel.

    Expected layout: header ``entity,<cat1>,<cat2>,...``, one row per
    entity. Cells are stripped, and empty or whitespace-only cells mean
    missing. Raises InputError naming the first malformed row or cell in
    row-major order by its file line and column.
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
    body = rows[1:]
    if not body:
        raise InputError("panel file has a header but no data rows")
    columns = _panel_columns(body, len(header))
    if columns is None:
        raise InputError(next(_panel_faults(csv_text, header)))
    entities, scores, missing = columns
    return make_panel(year, entities, categories, scores, missing)


def _panel_columns(body: list[list[str]], width: int):
    """Entity ids, scores and missing mask of a panel's data rows, or None.

    Every cell is stripped, converted and range-checked as part of one
    flat column; None means some row or cell is malformed.
    """
    if set(map(len, body)) != {width}:
        return None
    cells = [cell.strip() for row in body for cell in row]
    entities = cells[::width]
    del cells[::width]
    missing = np.fromiter(map(operator.not_, cells), bool, len(cells))
    try:
        values = np.fromiter(map(float, filter(None, cells)), float)
    except ValueError:
        return None
    if not ((values >= 0) & (values <= 100)).all():
        return None
    scores = np.zeros(len(cells))
    scores[~missing] = values
    shape = (len(entities), width - 1)
    return entities, scores.reshape(shape), missing.reshape(shape)


def _panel_faults(csv_text: str, header: list[str]):
    """Messages naming each malformed row or cell, in row-major order."""
    for line, row in _numbered_body(csv_text):
        if len(row) != len(header):
            yield f"row {line} has {len(row)} cells, expected {len(header)}"
            continue
        for category, cell in zip(header[1:], row[1:]):
            cell = cell.strip()
            if cell == "":
                continue
            try:
                value = float(cell)
            except ValueError:
                yield f"non-numeric cell {cell!r} at row {line}, column {category!r}"
                continue
            if not 0 <= value <= 100:
                yield (f"score {value} out of range [0, 100] at row {line}, "
                       f"column {category!r}")


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
    for entity, values, gaps in zip(panel.entities, panel.scores.tolist(),
                                    panel.missing_mask.tolist()):
        writer.writerow([entity, *("" if gap else repr(value)
                                   for value, gap in zip(values, gaps))])
    return out.getvalue()


def parse_indicator_csv(csv_text: str, year: str) -> IndicatorTable:
    """Parse a long-form indicator CSV (``entity,category,indicator,value``).

    Cells are stripped; the value column is converted as one column.
    """
    rows = _csv_rows(csv_text)
    if not rows:
        raise InputError("empty indicator file")
    header = [cell.strip().lower() for cell in rows[0]]
    if header != ["entity", "category", "indicator", "value"]:
        raise InputError(
            "indicator header must be 'entity,category,indicator,value', "
            f"got {','.join(header)!r}")
    body = rows[1:]
    if not body:
        return IndicatorTable(str(year))
    if set(map(len, body)) != {4}:
        raise InputError(next(_indicator_row_faults(csv_text)))
    entities, categories, indicators, values = (
        tuple(map(str.strip, column)) for column in zip(*body))
    try:
        values = tuple(map(float, values))
    except ValueError:
        raise InputError(next(_indicator_row_faults(csv_text))) from None
    return IndicatorTable(str(year), entities, categories, indicators, values)


def _indicator_row_faults(csv_text: str):
    """Messages naming each malformed indicator row, in row order."""
    for line, row in _numbered_body(csv_text):
        if len(row) != 4:
            yield f"row {line} has {len(row)} cells, expected 4"
            continue
        value = row[3].strip()
        try:
            float(value)
        except ValueError:
            yield f"non-numeric value {value!r} at row {line}"


def _factorize(column: Sequence) -> tuple[np.ndarray, tuple]:
    """Integer codes of a column's values, numbered by first appearance,
    and the distinct values in that order."""
    code_of = {value: code for code, value in enumerate(dict.fromkeys(column))}
    return (np.fromiter(map(code_of.__getitem__, column), np.intp, len(column)),
            tuple(code_of))


def aggregate_indicators(table: IndicatorTable) -> ScorePanel:
    """Average indicator scores into per-cell scores.

    Each (entity, category) cell becomes the arithmetic mean of its
    indicators; pairs with no indicators are treated as not applicable and
    become missing cells. The mean uses an exactly rounded sum, so the
    result does not depend on indicator order. Entities and categories
    keep their order of first appearance. A duplicate or out-of-range
    record raises InputError naming the first such record.
    """
    if not table.values:
        raise InputError("indicator table is empty")
    columns = (table.entities, table.categories, table.indicators, table.values)
    if len(set(map(len, columns))) != 1:
        raise InputError("indicator table columns differ in length")
    entity_codes, entities = _factorize(table.entities)
    category_codes, categories = _factorize(table.categories)
    indicator_codes, _ = _factorize(table.indicators)
    values = np.array(table.values, dtype=float)

    # Records sorted by cell, then indicator: a duplicate is a repeat of
    # the previous record's pair of codes.
    n, m = len(entities), len(categories)
    cell = entity_codes * m + category_codes
    order = np.lexsort((indicator_codes, cell))
    cell, indicator = cell[order], indicator_codes[order]
    repeated = (cell[1:] == cell[:-1]) & (indicator[1:] == indicator[:-1])
    if repeated.any() or not ((values >= 0) & (values <= 100)).all():
        raise InputError(next(_indicator_record_faults(table)))

    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    bounds = [*starts.tolist(), len(cell)]
    ordered = values[order].tolist()
    sums = [math.fsum(ordered[a:b]) for a, b in zip(bounds, bounds[1:])]
    scores = np.zeros(n * m)
    missing = np.ones(n * m, dtype=bool)
    scores[cell[starts]] = np.array(sums) / np.diff(bounds)
    missing[cell[starts]] = False
    return make_panel(table.year, entities, categories,
                      scores.reshape(n, m), missing.reshape(n, m))


def _indicator_record_faults(table: IndicatorTable):
    """Messages naming each duplicate or out-of-range record, in record order."""
    seen: set[tuple[str, str, str]] = set()
    for entity, category, indicator, value in zip(
            table.entities, table.categories, table.indicators, table.values):
        key = (entity, category, indicator)
        if key in seen:
            yield (f"duplicate indicator {indicator!r} for entity "
                   f"{entity!r}, category {category!r}")
        seen.add(key)
        if not 0 <= value <= 100:
            yield (f"indicator value {value} out of range [0, 100] for "
                   f"entity {entity!r}, category {category!r}, "
                   f"indicator {indicator!r}")


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
