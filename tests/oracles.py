"""Independent numerical oracles used to cross-check the package.

Everything in this module is deliberately written without touching the
package under test (and without numpy.linalg eigensolvers), so agreement
between the two is meaningful: a brute-force Jacobi eigensolver, a
closed-form 2x2 eigenpair from the characteristic polynomial, the
entity and category similarities of a proximity matrix, the
textbook Spearman formula for tie-free rankings, and the row-by-row table
writer, sort-based ranker and cell-by-cell CSV readers that the columnar
ones replaced, the rule-by-rule roster aligner that the single walk
replaced, and the panel builder that checked the given cells before
zeroing the missing ones in a second copy. The chart emitters are the
ones that formatted every cell, colour, path point, edge, bar and label
on its own, each through ``_text`` and ``html.escape``; they share the
package's SVG frame and spacing helpers, so they differ from it only in
what they format once. ``panel_to_csv`` writes a panel back to the CSV
form the package reads. The readers build their panels through
``make_panel``, the one place that builds a panel, so they differ from
the package only in how cells are converted and checked.
"""

from __future__ import annotations

import csv
import io
import math
from collections import Counter
from html import escape
from typing import Sequence

import numpy as np

from panelrank import (Alignment, EntityMap, GoalWeights, GroupProfile,
                       IndicatorTable, InputError, Lineage, MapRule, RankSeries,
                       ScorePanel, WeightsEvolution, make_panel)
from panelrank.report import (HEIGHT, RAMP_HIGH, RAMP_LOW, WIDTH, _fmt,
                              _spread, _svg_open)


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


def gram_pair(values) -> tuple[np.ndarray, np.ndarray]:
    """The entity and category similarities ``N N^T`` and ``N^T N`` of a
    proximity matrix ``N``. Each entry sums its products along one row of
    a broadcast, not through a BLAS product, so both come out exactly
    symmetric."""
    n = np.asarray(values, dtype=float)
    return ((n[:, None, :] * n[None, :, :]).sum(axis=2),
            (n.T[:, None, :] * n.T[None, :, :]).sum(axis=2))


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


def _csv_field(text: str) -> str:
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(cells: list[str]) -> str:
    # A record of one empty cell is quoted, or it would read as no record.
    return ('""' if cells == [""] else ",".join(map(_csv_field, cells))) + "\n"


def table_by_rows(header, rows) -> str:
    """CSV text of a table, formatted one cell at a time.

    The lines are joined by hand, quoting every cell that holds a comma,
    a quote, a newline or a carriage return.
    """
    return "".join([_csv_line(list(header)),
                    *(_csv_line([cell_text(v) for v in row]) for row in rows)])


def rank_table_columns(table):
    """A rank table's header and columns as ``emit_table`` takes them,
    the way the CLI writes its rank tables."""
    return (("entity", "score", "rank", "tied"),
            (table.entities, table.scores, range(1, len(table.entities) + 1),
             table.tied))


def panel_to_csv(panel) -> str:
    """A panel written back to its CSV form.

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


def make_panel_by_given_cells(year, entities, categories, scores,
                              missing_mask=None) -> ScorePanel:
    """``make_panel`` of valid ids, checking the given cells picked out of
    the scores and then zeroing the missing ones in a second copy."""
    scores = np.array(scores, dtype=float)
    missing_mask = (np.zeros(scores.shape, dtype=bool) if missing_mask is None
                    else np.array(missing_mask, dtype=bool))
    present = ~missing_mask
    given = scores[present]
    if not np.isfinite(given).all():
        raise InputError("scores must be finite")
    if ((given < 0) | (given > 100)).any():
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
    scores = np.where(missing_mask, 0.0, scores) + 0.0
    if (scores.sum(axis=1) == 0).all():
        raise InputError("all rows degenerate: every entity total is zero")
    return ScorePanel(str(year), tuple(entities), tuple(categories), scores,
                      missing_mask)


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


# The characters XML 1.0 does not allow: C0 controls but the tab and the
# newline, and U+FFFE and U+FFFF.
_NOT_XML = (set(map(chr, range(0x20))) - {"\t", "\n"}) | {"\ufffe", "\uffff"}


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
    # Ids are checked by make_panel; indicator names never reach it.
    for _, _, indicator, _ in records:
        if not _NOT_XML.isdisjoint(indicator):
            raise InputError(f"indicator {indicator!r} contains a character "
                             "XML does not allow")
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


def _check_rule_ids(kind: str, rule: MapRule, earlier: set[str], later: set[str]) -> None:
    for src in rule.sources:
        if src not in earlier:
            raise InputError(
                f"{kind} rule references {src!r}, which is not in the earlier roster")
    for tgt in rule.targets:
        if tgt not in later:
            raise InputError(
                f"{kind} rule references {tgt!r}, which is not in the later roster")


def align_by_rules(earlier, later, emap: EntityMap | None = None) -> Alignment:
    """Resolve the correspondence between two entity rosters, rule by rule:
    links are built per rule, then sorted into later-roster order.

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


def _text(x: float, y: float, label: str, cls: str = "", size: int = 10,
          anchor: str = "start", extra: str = "") -> str:
    cls_attr = f' class="{cls}"' if cls else ""
    return (f'<text{cls_attr} x="{_fmt(x)}" y="{_fmt(y)}" '
            f'text-anchor="{anchor}" font-size="{size}" '
            f'font-family="sans-serif"{extra}>{escape(label)}</text>')


def ramp_color(t) -> list[str]:
    """``#rrggbb`` colours for the values of ``t``, flattened in C order.

    Each channel is ``low + t * (high - low)`` between ``RAMP_LOW`` and
    ``RAMP_HIGH``, rounded half to even, with t clamped to [0, 1]; NaN maps
    to the low end. Emitters call this once per chart, never per element.
    """
    t = np.minimum(1.0, np.fmax(0.0, np.ravel(t)))
    low, high = np.array(RAMP_LOW), np.array(RAMP_HIGH)
    channels = np.rint(low + t[:, None] * (high - low)).astype(np.int64)
    return [f"#{c:06x}" for c in (channels @ (65536, 256, 1)).tolist()]


def emit_heatmap(panel: ScorePanel, title: str = "") -> str:
    """Score matrix as a colored grid; one rect per cell, missing hatched."""
    margin_left, margin_top, margin_right, margin_bottom = 110, 80, 20, 20
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    cell_w = plot_w / panel.n_categories
    cell_h = plot_h / panel.n_entities

    hatch = ('<pattern id="hatch" width="6" height="6" '
             'patternUnits="userSpaceOnUse">'
             '<rect width="6" height="6" fill="#f2f2f2"/>'
             '<path d="M0,6 L6,0" stroke="#999999" stroke-width="1"/>'
             '</pattern>')
    parts = _svg_open(title, extra_defs=hatch)

    for j, category in enumerate(panel.categories):
        x = margin_left + (j + 0.5) * cell_w
        parts.append(_text(x, margin_top - 8, category, cls="col-label",
                           anchor="end",
                           extra=f' transform="rotate(-60 {_fmt(x)} '
                                 f'{_fmt(margin_top - 8)})"'))
    for i, entity in enumerate(panel.entities):
        parts.append(_text(margin_left - 6, margin_top + (i + 0.7) * cell_h,
                           entity, cls="row-label", anchor="end"))

    # Everything shared by a row or a column is formatted once; colours
    # come from one call for the whole matrix.
    m = panel.n_categories
    xs = [_fmt(margin_left + j * cell_w) for j in range(m)]
    size = f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}"'
    categories = [escape(c) for c in panel.categories]
    colors = ramp_color(panel.scores / 100.0)
    rows = zip(panel.entities, panel.scores.tolist(),
               panel.missing_mask.tolist())
    for i, (entity, values, missing) in enumerate(rows):
        y = f'y="{_fmt(margin_top + i * cell_h)}" {size}'
        entity = escape(entity)
        cells = zip(xs, categories, values, missing, colors[i * m:(i + 1) * m])
        for x, category, value, gap, fill in cells:
            if gap:
                cls, fill, value_attr = "cell missing", "url(#hatch)", ""
            else:
                cls, value_attr = "cell", f' data-value="{value:.3f}"'
            parts.append(
                f'<rect class="{cls}" x="{x}" {y} '
                f'fill="{fill}" stroke="#ffffff" stroke-width="0.5" '
                f'data-entity="{entity}" '
                f'data-category="{category}"{value_attr}/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _path_from_points(points: list[tuple[str, float] | None]) -> str:
    """SVG path data visiting points in order, restarting after gaps.

    Each point is an x already formatted with ``_fmt`` (charts format
    each column's x once) and a y, which is formatted here.
    """
    out: list[str] = []
    pen_down = False
    for point in points:
        if point is None:
            pen_down = False
            continue
        cmd = "L" if pen_down else "M"
        out.append(f"{cmd}{point[0]},{point[1]:.2f}")
        pen_down = True
    return " ".join(out)


def emit_weighted_lines(performance: np.ndarray, profile: GroupProfile,
                        entities: Sequence[str], title: str = "") -> str:
    """Weighted-performance curves: one thin line per entity colored by
    group, thick group means, a thick national mean, and best/worst
    annotations per category."""
    performance = np.asarray(performance, dtype=float)
    entities = tuple(entities)
    if performance.shape != (len(entities), len(profile.categories)):
        raise InputError("performance matrix does not match entities x categories")

    margin_left, margin_top, margin_right, margin_bottom = 60, 40, 20, 90
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom

    stacked = np.vstack([performance, profile.group_curves,
                         profile.national_curve[None, :]])
    finite = stacked[np.isfinite(stacked)]
    lo = float(finite.min())
    hi = float(finite.max())
    span = hi - lo if hi > lo else 1.0

    xs = _spread(len(profile.categories), margin_left, plot_w)
    x_text = [_fmt(x) for x in xs]
    # One y per value of every curve; a finite value always gives a finite
    # y and a non-finite one a non-finite y, which marks the gap.
    ys = (margin_top + plot_h * (1 - (stacked - lo) / span)).tolist()

    def path(curve: list[float]) -> str:
        return _path_from_points([(x, y) if math.isfinite(y) else None
                                  for x, y in zip(x_text, curve)])

    group_colors = ramp_color([1.0, 0.5, 0.0])
    group_of = {e: g for g, members in enumerate(profile.groups) for e in members}
    ungrouped = [e for e in entities if e not in group_of]
    if ungrouped:
        raise InputError("entities missing from the group profile: "
                         + ", ".join(ungrouped))

    parts = _svg_open(title)
    tick_y = _fmt(HEIGHT - margin_bottom + 16)
    for j, category in enumerate(profile.categories):
        parts.append(_text(xs[j], HEIGHT - margin_bottom + 16, category,
                           cls="x-tick", anchor="end",
                           extra=f' transform="rotate(-60 {x_text[j]} {tick_y})"'))

    n = len(entities)
    for i, entity in enumerate(entities):
        parts.append(
            f'<path class="entity-line" d="{path(ys[i])}" '
            f'fill="none" stroke="{group_colors[group_of[entity]]}" '
            f'stroke-width="1" stroke-opacity="0.45" '
            f'data-entity="{escape(entity)}"/>')
    for g in range(3):
        parts.append(
            f'<path class="group-line" d="{path(ys[n + g])}" '
            f'fill="none" stroke="{group_colors[g]}" stroke-width="3" '
            f'data-group="{g + 1}"/>')
    parts.append(
        f'<path class="national-line" d="{path(ys[n + 3])}" '
        f'fill="none" stroke="#333333" stroke-width="3"/>')

    for j, category in enumerate(profile.categories):
        column = performance[:, j]
        if not np.isfinite(column).any():
            continue
        best = int(np.nanargmax(column))
        worst = int(np.nanargmin(column))
        parts.append(_text(
            xs[j], ys[best][j] - 6,
            f"{entities[best]} {column[best]:.3f}", cls="best-label",
            size=9, anchor="middle"))
        parts.append(_text(
            xs[j], ys[worst][j] + 12,
            f"{entities[worst]} {column[worst]:.3f}", cls="worst-label",
            size=9, anchor="middle"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_rank_bump(series: RankSeries, title: str = "") -> str:
    """Rank trajectories over years; rank 1 at the top, colors keyed to the
    final year's rank."""
    if not series.trajectories:
        raise InputError("rank series is empty")
    margin_left, margin_top, margin_right, margin_bottom = 60, 40, 120, 40
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    max_rank = max(r for t in series.trajectories for r in t.ranks if r is not None)

    xs = _spread(len(series.years), margin_left, plot_w)
    # The y of rank r is ys[r - 1].
    ys = _spread(max_rank, margin_top, plot_h)

    parts = _svg_open(title)
    for x, year in zip(xs, series.years):
        parts.append(_text(x, HEIGHT - margin_bottom + 18, year,
                           cls="x-tick", anchor="middle", size=11))
    for rank in (1, max_rank):
        parts.append(_text(margin_left - 8, ys[rank - 1] + 4, str(rank),
                           cls="y-tick", anchor="end"))

    x_text = list(map(_fmt, xs))
    final_ranks = [trajectory.ranks[-1] for trajectory in series.trajectories]
    colors = ramp_color([
        1.0 if max_rank == 1 else 1 - (rank - 1) / (max_rank - 1)
        for rank in final_ranks])
    for trajectory, rank, color in zip(series.trajectories, final_ranks, colors):
        points = [None if r is None else (x, ys[r - 1])
                  for x, r in zip(x_text, trajectory.ranks)]
        parts.append(
            f'<path class="rank-line" d="{_path_from_points(points)}" '
            f'fill="none" stroke="{color}" '
            f'stroke-width="2" data-entity="{escape(trajectory.entity)}" '
            f'data-lineage="{trajectory.lineage}"/>')
        label = trajectory.entity
        if trajectory.lineage != "own":
            label += f" ({trajectory.lineage})"
        parts.append(_text(xs[-1] + 8, ys[rank - 1] + 4, label,
                           cls="line-label", size=9))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_bipartite(panel: ScorePanel, subset: Sequence[str],
                   title: str = "") -> str:
    """Entity-category bipartite subgraph; edge width and color follow scores."""
    subset = tuple(subset)
    if not subset:
        raise InputError("bipartite subset must be nonempty")
    row_of = {e: i for i, e in enumerate(panel.entities)}
    unknown = [e for e in subset if e not in row_of]
    if unknown:
        raise InputError("unknown entities in subset: " + ", ".join(unknown))

    margin = 60
    left_x = margin + 60
    right_x = WIDTH - margin - 60
    m = panel.n_categories
    entity_ys = _spread(len(subset), margin, HEIGHT - 2 * margin)
    category_ys = _spread(m, margin, HEIGHT - 2 * margin)

    parts = _svg_open(title)
    min_w, max_w = 0.5, 4.0
    colors = ramp_color(panel.scores[[row_of[e] for e in subset]] / 100.0)
    for i, (entity, ey) in enumerate(zip(subset, entity_ys)):
        for j, category in enumerate(panel.categories):
            if panel.missing_mask[row_of[entity], j]:
                continue
            value = float(panel.scores[row_of[entity], j])
            t = value / 100.0
            parts.append(
                f'<line class="edge" x1="{_fmt(left_x)}" y1="{_fmt(ey)}" '
                f'x2="{_fmt(right_x)}" y2="{_fmt(category_ys[j])}" '
                f'stroke="{colors[i * m + j]}" '
                f'stroke-width="{min_w + t * (max_w - min_w):.2f}" '
                f'stroke-opacity="0.75" data-entity="{escape(entity)}" '
                f'data-category="{escape(category)}" data-value="{value:.3f}"/>')

    for entity, ey in zip(subset, entity_ys):
        parts.append(f'<circle class="node entity-node" cx="{_fmt(left_x)}" '
                     f'cy="{_fmt(ey)}" r="5" fill="#333333"/>')
        parts.append(_text(left_x - 10, ey + 4, entity, cls="node-label",
                           anchor="end"))
    for category, cy in zip(panel.categories, category_ys):
        parts.append(f'<circle class="node category-node" cx="{_fmt(right_x)}" '
                     f'cy="{_fmt(cy)}" r="5" fill="#333333"/>')
        parts.append(_text(right_x + 10, cy + 4, category, cls="node-label"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_weight_bars(weights: GoalWeights, title: str = "") -> str:
    """Horizontal bar per category, length proportional to its weight."""
    if len(weights.categories) == 0:
        raise InputError("no categories to draw")
    margin_left, margin_top, margin_right, margin_bottom = 110, 40, 80, 20
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    slot_h = plot_h / len(weights.categories)
    bar_h = slot_h * 0.7
    top = float(np.max(weights.values))

    colors = ramp_color(weights.values / top)
    parts = _svg_open(title)
    for i, category in enumerate(weights.categories):
        value = float(weights.values[i])
        length = plot_w * value / top
        y = margin_top + i * slot_h + (slot_h - bar_h) / 2
        parts.append(
            f'<rect class="bar" x="{_fmt(margin_left)}" y="{_fmt(y)}" '
            f'width="{_fmt(length)}" height="{_fmt(bar_h)}" '
            f'fill="{colors[i]}" '
            f'data-category="{escape(category)}" data-value="{value:.3f}"/>')
        parts.append(_text(margin_left - 6, y + bar_h * 0.75, category,
                           cls="row-label", anchor="end"))
        parts.append(_text(margin_left + 4, y + bar_h * 0.75, f"{value:.3f}",
                           cls="bar-label"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_grouped_bars(evolution: WeightsEvolution, title: str = "") -> str:
    """Grouped bars: one group per category, one bar per year with data.

    Years a category is absent leave a visible gap in its group.
    """
    if len(evolution.categories) == 0:
        raise InputError("no categories to draw")
    margin_left, margin_top, margin_right, margin_bottom = 60, 40, 20, 90
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    n_cat = len(evolution.categories)
    n_years = len(evolution.years)
    group_w = plot_w / n_cat
    bar_w = group_w / (n_years + 1)
    top = float(np.nanmax(evolution.values))
    year_color = dict(zip(evolution.years, ramp_color(
        [t / max(1, n_years - 1) for t in range(n_years)])))

    parts = _svg_open(title)
    baseline = margin_top + plot_h
    for i, category in enumerate(evolution.categories):
        group_x = margin_left + i * group_w
        parts.append(_text(group_x + group_w / 2, baseline + 16, category,
                           cls="x-tick", anchor="end",
                           extra=f' transform="rotate(-60 '
                                 f'{_fmt(group_x + group_w / 2)} '
                                 f'{_fmt(baseline + 16)})"'))
        for t, year in enumerate(evolution.years):
            value = evolution.values[i, t]
            if not np.isfinite(value):
                continue
            height = plot_h * float(value) / top
            x = group_x + (t + 0.5) * bar_w
            parts.append(
                f'<rect class="bar" x="{_fmt(x)}" '
                f'y="{_fmt(baseline - height)}" width="{_fmt(bar_w)}" '
                f'height="{_fmt(height)}" fill="{year_color[year]}" '
                f'data-category="{escape(category)}" '
                f'data-year="{escape(year)}" data-value="{float(value):.3f}"/>')

    legend_x = margin_left
    for t, year in enumerate(evolution.years):
        x = legend_x + t * 90
        parts.append(f'<rect class="legend-swatch" x="{_fmt(x)}" y="24" '
                     f'width="12" height="12" fill="{year_color[year]}"/>')
        parts.append(_text(x + 16, 34, year, cls="legend-label", size=11))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
