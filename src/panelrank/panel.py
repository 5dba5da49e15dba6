"""Score-panel ingestion: parsing, validation, aggregation, alignment.

A score panel is one year's dense entity-by-category matrix of scores in
[0, 100]; missing cells are stored as 0.0 and flagged in a boolean mask.
Both CSV forms are split from their bytes when plain (``_plain_fields``)
and read by ``csv.reader`` otherwise. All functions here are pure; panels
are immutable once built (the backing arrays are marked read-only).
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InputError

MISSINGNESS_WARNING_THRESHOLD = 0.5

# Characters XML 1.0 does not allow, so an id holding one would make the
# SVG charts malformed. The carriage return among them is also one the
# CSV writer would leave unquoted.
_NOT_XML = re.compile("[\x00-\x08\x0b-\x1f\ufffe\uffff]")

# What str.strip removes but the newline, which ends an unquoted row; and
# the quote and the NUL, which csv.reader reads apart (Python 3.10 refuses
# a NUL). A text holding none of them has nothing to strip.
_NOT_PLAIN = ("\t\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000"
              + "".join(map(chr, range(0x2000, 0x200b))) + '"\0')
# 16 bytes leading a text's bytes, so that no lane read starts before
# them; the last ends the line before the text's first.
_LEAD = b"0" * 15 + b"\n"
_windows = np.lib.stride_tricks.sliding_window_view

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


def _csv_cells(csv_text: str) -> tuple[list[str], list[str] | None]:
    """The first non-empty row of a CSV text, and the cells of every later
    one in row-major order, as ``csv.reader`` reads them; the cells are
    None if some row is not as wide as the first. No row gives ([], [])."""
    reader = csv.reader(io.StringIO(csv_text))
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise InputError(f"unreadable CSV at line {reader.line_num}: {exc}") from None
    if not rows:
        return [], []
    if len(set(map(len, rows))) > 1:
        return rows[0], None
    return rows[0], [cell for row in rows[1:] for cell in row]


def _plain_fields(csv_text: str, width: int | None = None):
    """A plain text's UTF-8 bytes, led by ``_LEAD``, and its separators'
    positions as a (lines, width + 1) array: field c of line r lies between
    those at ``[r, c]`` and ``[r, c + 1]``; or None for any other text.

    A plain text, which ``csv.reader`` reads as split on newlines then on
    commas, holds no character of ``_NOT_PLAIN``, and its lines, none blank
    or longer in bytes than ``csv.field_size_limit()``, have ``width``
    fields each (the header's if None), at least 2, so that a blank line
    breaks the shape. It may lack a final newline.
    """
    if any(map(csv_text.__contains__, _NOT_PLAIN)):
        return None
    raw = _LEAD + csv_text.encode() + (b"" if csv_text.endswith("\n") else b"\n")
    seps = _separators(raw)
    # Each line's last separator, and no other, is a newline. No byte of
    # a UTF-8 multi-byte sequence is below 0x80, so none is a separator.
    ends = np.frombuffer(raw, np.uint8)[seps[1:]] == ord("\n")
    width = width or int(ends.argmax()) + 1
    if (width < 2 or not ends[width - 1::width].all()
            or np.count_nonzero(ends) != len(ends) // width
            or np.diff(seps[::width]).max() > csv.field_size_limit() + 1):
        return None
    return raw, _windows(seps, width + 1)[::width]


def _separators(raw: bytes) -> np.ndarray:
    """The positions of the commas and newlines of ``raw``."""
    data = np.frombuffer(raw, np.uint8)
    seps = data == ord(",")
    seps |= data == ord("\n")
    return np.flatnonzero(seps)


def _field_texts(raw: bytes, lefts: np.ndarray, rights: np.ndarray) -> list[str]:
    """The fields of ``raw`` between ``lefts`` and commas at ``rights``, as str."""
    sizes = rights - lefts  # each field and its comma
    at = np.repeat(rights - np.cumsum(sizes), sizes) + np.arange(sizes.sum()) + 1
    return np.frombuffer(raw, np.uint8)[at].tobytes().decode().split(",")[:-1]


def parse_panel(csv_text: str, year: str) -> ScorePanel:
    """Parse a wide-form panel CSV into a validated ScorePanel.

    Expected layout: header ``entity,<cat1>,<cat2>,...``, one row per
    entity. Cells are stripped, and empty or whitespace-only cells mean
    missing. Raises InputError naming the first malformed row or cell in
    row-major order by its file line and column.
    """
    raw, bounds = _plain_fields(csv_text) or (None, None)
    if raw is not None:
        header = raw[16:bounds[0, -1]].decode().split(",")
        entities = _field_texts(raw, bounds[1:, 0], bounds[1:, 1])
        bounds = bounds[1:, 1:]
    else:
        header, entities = _csv_cells(csv_text)  # [] with no rows, None ragged
        header = [cell.strip() for cell in header]
        if entities:
            # Stripped, the score cells are read from the bytes of one line;
            # a quoted one holding a comma or a newline reads as two.
            cells = list(map(str.strip, entities))
            entities = cells[::len(header)]
            del cells[::len(header)]
            raw = _LEAD + (",".join(cells) + "\n").encode()
            seps, m = _separators(raw), len(header) - 1
            if len(seps) == len(cells) + 1:
                bounds = _windows(seps, m + 1)[::m]
            del cells
    if not header:
        raise InputError("empty panel file")
    if len(header) < 2:
        raise InputError("panel header must contain at least one category column")
    if header[0].lower() != "entity":
        raise InputError(f"first header column must be 'entity', got {header[0]!r}")
    if entities == []:
        raise InputError("panel file has a header but no data rows")
    shape = (len(entities or ()), len(header) - 1)
    read = None if bounds is None else _read_scores(raw, bounds)
    del raw, bounds  # freed before make_panel copies the scores
    if read is None or not ((read[0] >= 0) & (read[0] <= 100)).all():
        raise InputError(next(_panel_faults(csv_text, header)))
    return make_panel(year, entities, header[1:], read[0].reshape(shape),
                      read[1].reshape(shape))


def _read_scores(raw: bytes, bounds: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """The values of the cells of ``raw`` between neighbouring separators
    in each row of ``bounds``, in row-major order, and their missing mask
    (the empty cells, read as 0.0); or None if some other cell is not a
    float. At least 16 bytes of ``raw`` precede its first cell, so every
    lane read lies in it.

    A cell of at most 16 bytes, an optional sign then digits with at most
    one point, one digit at least, is read from the one or two 8-byte
    lanes that end where it ends (Lemire 2021), as ``mantissa /
    10**digits_after_point``. With a sign or a point the mantissa is
    below 2**53, so both operands are exact and the one rounding gives
    the double ``float(cell)`` gives (Clinger 1990); 16 digits are divided
    by 1. Every other cell goes through ``float``.
    """
    u = np.uint64
    data = np.frombuffer(raw, np.uint8)
    lanes = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    width = bounds.shape[1] - 1
    values, missing = np.empty(len(bounds) * width), np.empty(len(bounds) * width, bool)
    step = max(1, _BLOCK_CELLS // width)  # rows a block
    for r in range(0, len(bounds), step):
        a, block = r * width, bounds[r:r + step]
        lefts, ends = block[:, :-1].ravel(), block[:, 1:].ravel()
        size = ends - lefts - 1
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
        for i in np.flatnonzero(~(ok & (length > point)) & (size > 0)).tolist():
            try:
                values[a + i] = float(raw[lefts[i] + 1:ends[i]].decode())
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

    Cells are stripped; the value column is converted as one column.
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
    means = _cell_means(entity_codes, category_codes,
                        _factorize(table.indicators)[0],
                        np.array(table.values, dtype=float),
                        len(entities), len(categories))
    if means is None:
        raise InputError(next(_indicator_record_faults(table)))
    return make_panel(table.year, entities, categories, *means)


def _cell_means(entity: np.ndarray, category: np.ndarray,
                indicator: np.ndarray, values: np.ndarray, n: int, m: int):
    """The (n, m) scores and missing mask of records coded by entity,
    category and indicator, each cell the mean of its values by an exactly
    rounded sum; or None if a record repeats another's codes or a value
    lies outside [0, 100]."""
    # Records sorted by cell, then indicator: a duplicate is a repeat of
    # the previous record's pair of codes.
    cell = entity * m + category
    order = np.lexsort((indicator, cell))
    cell, indicator = cell[order], indicator[order]
    repeated = (cell[1:] == cell[:-1]) & (indicator[1:] == indicator[:-1])
    if repeated.any() or not ((values >= 0) & (values <= 100)).all():
        return None
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    counts = np.diff(starts, append=len(cell))
    ordered = values[order]
    # A cell's one value is its sum; two or more go through fsum, a cell a
    # column of a (k, cells) block.
    sums = ordered[starts]
    for k in set(np.flatnonzero(np.bincount(counts)).tolist()) - {1}:
        at = counts == k
        block = ordered[starts[at] + np.arange(k)[:, None]]
        sums[at] = list(map(math.fsum, zip(*block.tolist())))
    scores = np.zeros(n * m)
    missing = np.ones(n * m, dtype=bool)
    scores[cell[starts]] = sums / counts
    missing[cell[starts]] = False
    return scores.reshape(n, m), missing.reshape(n, m)


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


def indicator_panel(csv_text: str, year: str) -> ScorePanel:
    """``aggregate_indicators(parse_indicator_csv(csv_text, year))``, read
    from the bytes of a text ``_plain_fields`` takes at four fields a line,
    with a lowered header of ``entity,category,indicator,value`` and a
    record at least, making a str only per distinct id. Any other text, or
    one with a fault, takes those two steps, which name the fault."""
    raw, bounds = _plain_fields(csv_text, 4) or (b"", None)
    # Refused too: ids so wide that a column's keys, ceil(w / 8) lanes a
    # record for the widest id of w bytes, would outgrow the text.
    if (bounds is None or len(bounds) < 2
            or raw[16:48].lower() != b"entity,category,indicator,value\n"
            or (np.diff(bounds[1:, :4]).max() + 6) // 8 * 8 * len(bounds) > len(raw)):
        return aggregate_indicators(parse_indicator_csv(csv_text, year))
    values = _read_scores(raw, bounds[1:, 3:])
    if values is None or values[1].any():  # a cell float refuses, or empty
        return aggregate_indicators(parse_indicator_csv(csv_text, year))
    lanes = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    (entity, entities), (category, categories), (indicator, indicators) = (
        _id_codes(raw, lanes, bounds[1:, c], bounds[1:, c + 1])
        for c in range(3))
    means = (None if _NOT_XML.search("\n".join(indicators)) else _cell_means(
        entity, category, indicator, values[0], len(entities), len(categories)))
    if means is None:
        return aggregate_indicators(parse_indicator_csv(csv_text, year))
    return make_panel(year, entities, categories, *means)


def _id_codes(raw: bytes, lanes: np.ndarray, lefts: np.ndarray,
              rights: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Codes of the fields of ``raw`` between ``lefts`` and commas at
    ``rights``, numbered by first appearance, and the distinct fields in
    that order. Each field is keyed by the lanes that end where it ends,
    masked to its bytes: with no NUL, equal keys are equal fields."""
    size = rights - lefts - 1
    after = np.arange(0, max(size.max(), 1), 8)[:, None]
    # A lane wholly before a field is masked to 0, so it may start before
    # the text (a negative offset) too.
    keys = lanes[rights - 8 - after] & _KEEP[np.clip(size - after, 0, 8)]
    order = np.lexsort(keys)
    keys = keys[:, order]
    new = np.concatenate(([True], (keys[:, 1:] != keys[:, :-1]).any(axis=0)))
    firsts = order[new]  # each field's first record: the sort is stable
    rank = np.argsort(firsts)
    codes = np.empty_like(order)
    codes[order] = np.argsort(rank)[np.cumsum(new) - 1]
    return codes, _field_texts(raw, lefts[firsts[rank]], rights[firsts[rank]])


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
