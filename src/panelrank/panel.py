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
import math
import re
from collections import Counter
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError

MISSINGNESS_WARNING_THRESHOLD = 0.5

# Characters XML 1.0 does not allow, so an id holding one would make the
# SVG charts malformed. The carriage return among them is also one the
# CSV writer would leave unquoted.
_NOT_XML = re.compile("[\x00-\x08\x0b-\x1f\ufffe\uffff]")

# Every ASCII byte but the comma and the newline: deleting them leaves an
# ASCII text's row shape.
_SHAPE = bytes(set(range(128)) - set(b",\n"))
# What str.strip removes that an ASCII text can hold, bar the newline,
# which ends an unquoted row; and the quote, within which a cell may
# hold a newline.
_PADDING = ' "\t\v\f\r\x1c\x1d\x1e\x1f'

# Score cells per block of ``_read_scores``: its dozen uint64 temporaries
# then take 64 KiB each, and stay in cache.
_BLOCK_CELLS = 8192
# uint64 lanes: one byte in all 8 slots; the low byte of each 2-byte, and
# the low half of each 4-byte, slot; a lane's last k bytes, for each k.
_ZEROS, _POINTS, _LOW7, _DIGITS, _TOPS, _SIXES, _THREES = (
    np.uint64(0x0101010101010101 * byte) for byte in b"0.\x7f\x0f\xf0\x063")
_PAIRS, _QUADS = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)
_KEEP = np.array([(1 << 64) - (1 << 64 - 8 * k) for k in range(9)], np.uint64)
_FILL = _ZEROS & ~_KEEP  # '0' in the bytes before them
_TENS = 10.0 ** np.arange(16)


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
        import json  # here, since most runs read no map

        try:
            doc = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an integer too long
            raise InputError(f"entity map is not valid JSON: {exc}") from exc
        except RecursionError:
            raise InputError("entity map is nested too deeply") from None
        if not isinstance(doc, dict):
            raise InputError("entity map must be a JSON object")
        for key in doc:
            if key not in cls._fields:
                raise InputError(f"entity map has unknown field {key!r} "
                                 "(expected renames, splits, merges)")
        rules: dict[str, tuple[MapRule, ...]] = {}
        for kind in cls._fields:
            entries = doc.get(kind, [])
            if not isinstance(entries, list):
                raise InputError(f"entity map field {kind!r} must be an array")
            parsed = []
            for entry in entries:
                if not isinstance(entry, dict) or "from" not in entry or "to" not in entry:
                    raise InputError(
                        f"entity map {kind} entries need 'from' and 'to' arrays")
                for key in ("from", "to"):
                    ids = entry[key]
                    if not (isinstance(ids, list)
                            and all(isinstance(x, str) for x in ids)):
                        raise InputError(f"entity map {kind} field {key!r} "
                                         "must be an array of strings")
                parsed.append(MapRule(tuple(entry["from"]), tuple(entry["to"])))
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
    character XML 1.0 forbids, at least a 2x2 shape, present scores
    within [0, 100], no all-missing row or column, and at least one row
    with a nonzero total.
    """
    entities = tuple(map(str, entities))
    categories = tuple(map(str, categories))
    scores = np.array(scores, dtype=float)
    missing_mask = (np.zeros(scores.shape, dtype=bool) if missing_mask is None
                    else np.array(missing_mask, dtype=bool))

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
    if _NOT_XML.search("\n".join((*entities, *categories))):
        name = next(filter(_NOT_XML.search, (*entities, *categories)))
        raise InputError(f"id {name!r} contains a character XML does not allow")

    # With its missing cells zeroed, the copy is checked whole. Adding +0.0
    # turns -0.0 into 0.0, so no score prints as "-0.000".
    np.copyto(scores, 0.0, where=missing_mask)
    scores += 0.0
    if not np.isfinite(scores).all():
        raise InputError("scores must be finite")
    outside = (scores < 0) | (scores > 100)
    if outside.any():
        bad = np.argwhere(outside)[0]
        raise InputError(
            f"score out of range [0, 100] at entity {entities[bad[0]]!r}, "
            f"category {categories[bad[1]]!r}: {scores[bad[0], bad[1]]}")
    if missing_mask.all(axis=1).any():
        idx = int(np.argmax(missing_mask.all(axis=1)))
        raise InputError(f"entity {entities[idx]!r} has no reported scores")
    if missing_mask.all(axis=0).any():
        idx = int(np.argmax(missing_mask.all(axis=0)))
        raise InputError(f"category {categories[idx]!r} has no reported scores")
    if not scores.any():  # finite and nonnegative: a zero total has no nonzero cell
        raise InputError("all rows degenerate: every entity total is zero")

    scores.setflags(write=False)
    missing_mask.setflags(write=False)
    return ScorePanel(str(year), entities, categories, scores, missing_mask)


def _csv_records(csv_text: str) -> list[tuple[int, list[str]]]:
    """(line, row) for each non-empty record of a CSV text, where line is
    the 1-based file line the record starts on, counting blank lines and
    cells that span lines; reader errors become InputError."""
    reader = csv.reader(io.StringIO(csv_text))
    start, records = 1, []
    try:
        for row in reader:
            if row:
                records.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise InputError(f"unreadable CSV at line {reader.line_num}: {exc}") from None
    return records


def _split_lines(csv_text: str) -> list[str] | None:
    """The non-empty lines of a text that ``csv.reader`` reads as split on
    newlines and commas, or None. Such a text has no quote, carriage
    return or NUL (which the reader refuses on Python 3.10 only), no line
    past the field-size limit, and is not empty."""
    if not ('"' in csv_text or "\r" in csv_text or "\0" in csv_text):
        lines = list(filter(None, csv_text.split("\n")))
        if lines and max(map(len, lines)) <= csv.field_size_limit():
            return lines
    return None


def _csv_cells(csv_text: str) -> tuple[list[str], list[str] | None]:
    """The first non-empty row of a CSV text, and the cells of every later
    non-empty row in row-major order, read as ``csv.reader`` reads them.

    The cells are None when some row is not as wide as the first; an
    empty text gives ``([], [])``. A text ``_split_lines`` takes is split
    on newlines and commas, without a list per row; any other text goes
    through ``csv.reader``.
    """
    lines = _split_lines(csv_text)
    if lines:
        header = lines[0].split(",")
        if not _rectangular(csv_text, lines, len(header)):
            return header, None
        body = ",".join(lines[1:])
        del lines  # freed before the cells are made
        return header, body.split(",") if body else []
    rows = [row for _, row in _csv_records(csv_text)]
    if not rows:
        return [], []
    if len(set(map(len, rows))) > 1:
        return rows[0], None
    return rows[0], [cell for row in rows[1:] for cell in row]


def _rectangular(csv_text: str, lines: list[str], width: int) -> bool:
    """Whether each of ``lines``, the non-empty lines of ``csv_text``,
    holds ``width - 1`` commas.

    An ASCII text is first checked as a whole, in C: if its commas and
    newlines alone read as ``len(lines)`` rows of ``width - 1`` commas,
    so does every line, since with a comma per row a blank line or an
    unterminated last line would leave a row short, and with none the
    text holds no comma. Any other text, a ragged one too, is checked
    line by line.
    """
    return ((csv_text.isascii()
             and csv_text.encode("ascii").translate(None, _SHAPE)
             == (b"," * (width - 1) + b"\n") * len(lines))
            or len(set(map(str.count, lines, repeat(",")))) == 1)


def _needs_strip(csv_text: str) -> bool:
    """Whether stripping might change a cell of the text: false only for
    an ASCII text with no quote and no whitespace but its newlines."""
    return not csv_text.isascii() or any(map(csv_text.__contains__, _PADDING))


def parse_panel(csv_text: str, year: str) -> ScorePanel:
    """Parse a wide-form panel CSV into a validated ScorePanel.

    Expected layout: header ``entity,<cat1>,<cat2>,...``, one row per
    entity. Cells are stripped, and empty or whitespace-only cells mean
    missing. Raises InputError naming the first malformed row or cell in
    row-major order by its file line and column.
    """
    header, entities, cells = _panel_body(csv_text)
    if not header:
        raise InputError("empty panel file")
    header = [cell.strip() for cell in header]
    if len(header) < 2:
        raise InputError("panel header must contain at least one category column")
    if header[0].lower() != "entity":
        raise InputError(f"first header column must be 'entity', got {header[0]!r}")
    if entities == []:
        raise InputError("panel file has a header but no data rows")
    shape = (len(entities or ()), len(header) - 1)
    read = None if entities is None else _read_scores(cells)
    # A quoted cell holding a comma reads as two: the count is then off.
    if (read is None or read[0].size != shape[0] * shape[1]
            or not ((read[0] >= 0) & (read[0] <= 100)).all()):
        raise InputError(next(_panel_faults(csv_text, header)))
    return make_panel(year, entities, header[1:], read[0].reshape(shape),
                      read[1].reshape(shape))


def _panel_body(csv_text: str):
    """A panel's header cells, its entity ids, and its score cells joined
    by commas in row-major order, all stripped; the ids are None when some
    row is not as wide as the header. An ASCII text with nothing to strip
    that ``_split_lines`` takes is cut at each line's first comma, making
    no str per score cell."""
    strip = _needs_strip(csv_text)
    lines = None if strip else _split_lines(csv_text)
    if lines is None:
        header, cells = _csv_cells(csv_text)
        if not cells:
            return header, cells, ""
        cells = list(map(str.strip, cells)) if strip else cells
        entities = cells[::len(header)]
        del cells[::len(header)]
        return header, entities, ",".join(cells)
    header = lines[0].split(",")
    if not _rectangular(csv_text, lines, len(header)):
        return header, None, ""
    rows = list(map(str.partition, lines[1:], repeat(",")))
    return header, [row[0] for row in rows], ",".join([row[2] for row in rows])


def _read_scores(cells: str) -> tuple[np.ndarray, np.ndarray] | None:
    """The values of comma-joined score cells and their missing mask (the
    empty cells, read as 0.0), or None if some other cell is not a float.

    A cell of at most 16 bytes, an optional sign then digits with at most
    one point, one digit at least, is read from the one or two 8-byte
    lanes that end where it ends (Lemire 2021), as ``mantissa /
    10**digits_after_point``. With a sign or a point the mantissa is
    below 2**53, so both operands are exact and the one rounding gives
    the double ``float(cell)`` gives (Clinger 1990); 16 digits are divided
    by 1. Every other cell goes through ``float``.
    """
    u = np.uint64
    # '0's and a comma before the first cell: every lane lies in the text.
    raw = ("0" * 15 + "," + cells + ",").encode()
    data = np.frombuffer(raw, np.uint8)
    seps = np.flatnonzero(data == ord(","))
    lanes = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    values, missing = np.empty(len(seps) - 1), np.empty(len(seps) - 1, bool)
    for a in range(0, len(values), _BLOCK_CELLS):
        ends = seps[a + 1:a + 1 + _BLOCK_CELLS]
        size = ends - seps[a:a + len(ends)] - 1
        first = data[ends - size]
        length = size - ((first == ord("-")) | (first == ord("+")))
        ok, mantissa, places, point = size <= 16, u(0), u(0), False
        # The lane that ends where each cell ends, then the one before it.
        for after in range(0, 9 if size.max() > 8 else 1, 8):
            count = np.clip(length - after, 0, 8)
            lane = lanes[ends - 8 - after] & _KEEP[count] | _FILL[count]
            found = lane ^ _POINTS
            found = ~(((found & _LOW7) + _LOW7) | found | _LOW7)  # 0x80 at a '.'
            one = found >> u(7)
            lane ^= one * u(ord(".") ^ ord("0"))  # the point becomes '0'
            ok &= ((lane & _TOPS) | ((lane + _SIXES) & _TOPS) >> u(4)) == _THREES
            ok &= (found & (found - u(1)) == 0) & ~(point & (one != 0))
            # The digits before the point move up one byte, over it.
            below = np.maximum(one, u(1)) - u(1)
            lane &= _DIGITS
            lane = lane & ~below | (lane & below) << u(8)
            lane = (lane * u(10 * 2**8 + 1)) >> u(8) & _PAIRS
            lane = (lane * u(100 * 2**16 + 1)) >> u(16) & _QUADS
            lane = (lane * u(10**4 * 2**32 + 1)) >> u(32)
            # The digits after the point are byte 7 of its bit times this,
            # and the digits of the lane before sit one place lower past it.
            places = places + (one * u(0x0706050403020100 + 0x0101010101010101
                                       * after) >> u(56))
            mantissa = mantissa + lane * np.where(point, u(10**after // 10),
                                                  u(10**after))
            point = point | (one != 0)
        values[a:a + len(ends)] = np.where(first == ord("-"), -1.0, 1.0) * (
            mantissa / _TENS.take(places, mode="clip"))
        missing[a:a + len(ends)] = size == 0
        for i in (a + np.flatnonzero(~(ok & (length > point)) & (size > 0))).tolist():
            try:
                values[i] = float(raw[seps[i] + 1:seps[i + 1]].decode())
            except ValueError:
                return None
    return values, missing


def _panel_faults(csv_text: str, header: list[str]):
    """Messages naming each malformed row or cell, in row-major order."""
    for line, row in _csv_records(csv_text)[1:]:
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


def parse_indicator_csv(csv_text: str, year: str) -> IndicatorTable:
    """Parse a long-form indicator CSV (``entity,category,indicator,value``).

    Cells are stripped, unless stripping would change none; the value
    column is converted as one column.
    """
    header, cells = _csv_cells(csv_text)
    if not header:
        raise InputError("empty indicator file")
    header = [cell.strip().lower() for cell in header]
    if header != ["entity", "category", "indicator", "value"]:
        raise InputError(
            "indicator header must be 'entity,category,indicator,value', "
            f"got {','.join(header)!r}")
    if cells is None:
        raise InputError(next(_indicator_row_faults(csv_text)))
    if not cells:
        return IndicatorTable(str(year))
    if _needs_strip(csv_text):
        cells = list(map(str.strip, cells))
    try:
        values = tuple(map(float, cells[3::4]))
    except ValueError:
        raise InputError(next(_indicator_row_faults(csv_text))) from None
    # Ids are checked by make_panel; indicator names never reach it. The
    # distinct names keep their first appearance, so the first bad one is
    # the first in record order.
    indicators = tuple(cells[2::4])
    bad = next(filter(_NOT_XML.search, dict.fromkeys(indicators)), None)
    if bad is not None:
        raise InputError(f"indicator {bad!r} contains a character XML "
                         "does not allow")
    return IndicatorTable(str(year), tuple(cells[0::4]), tuple(cells[1::4]),
                          indicators, values)


def _indicator_row_faults(csv_text: str):
    """Messages naming each malformed indicator row, in row order."""
    for line, row in _csv_records(csv_text)[1:]:
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


_LINEAGE_KINDS = {"rename": "renamed", "split": "split-derived",
                  "merge": "merged"}


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
    rules raise InputError. ``links`` holds one lineage per later-roster
    id, in later-roster order; ``retired`` keeps earlier-roster order.
    """
    emap = emap or EntityMap()
    emap.check_shapes()
    earlier_set, later_set = set(earlier), set(later)

    # Ids and conflicts are checked rule by rule; a consumed source still
    # present in the later roster is reported only if no rule conflicts.
    sourced: dict[str, str] = {}
    targeted: dict[str, tuple[str, tuple[str, ...]]] = {}
    still_present = None
    for kind, rule in emap.all_rules():
        _check_rule_ids(kind, rule, earlier_set, later_set)
        for src in rule.sources:
            if src in sourced:
                raise InputError(
                    f"conflicting rules: {src!r} is a source of both a "
                    f"{sourced[src]} and a {kind}")
            sourced[src] = kind
            if (still_present is None and kind != "split"
                    and src in later_set and src not in rule.targets):
                still_present = (f"{kind} rule consumes {src!r}, but it is "
                                 "still present in the later roster")
        for tgt in rule.targets:
            if tgt in targeted:
                raise InputError(
                    f"conflicting rules: {tgt!r} is a target of both a "
                    f"{targeted[tgt][0]} and a {kind}")
            targeted[tgt] = (kind, rule.sources)
    if still_present:
        raise InputError(still_present)

    links = []
    for entity in later:
        if entity in targeted:
            kind, sources = targeted[entity]
            links.append(Lineage(entity, sources, _LINEAGE_KINDS[kind]))
        elif entity in sourced:
            raise InputError(
                f"conflicting rules: {entity!r} is consumed by a rule "
                "but also matches by identity")
        elif entity in earlier_set:
            links.append(Lineage(entity, (entity,), "unchanged"))
        else:
            links.append(Lineage(entity, (), "introduced"))
    retired = tuple(e for e in earlier if e not in sourced
                    and (e not in later_set or e in targeted))
    return Alignment(tuple(links), retired)
