"""Deterministic table (CSV) and chart (SVG 1.1) emission.

Every emitter is a pure function from values to text: identical inputs
give byte-identical output. Charts are assembled by hand so the output
stays dependency-free and diffable; elements carry stable classes and
``data-*`` attributes, which also makes them machine-checkable.

Numeric labels use 3 decimals in figures and 6 in tables. Charts are
960 x 600 and their color ramp runs yellow (low) to green (high).
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Sequence

import numpy as np

from .analytics import GoalWeights, GroupProfile, RankSeries, WeightsEvolution
from .errors import InputError
from .panel import ScorePanel

# Every chart is drawn at this size, in pixels.
WIDTH, HEIGHT = 960, 600
# Colour ramp endpoints as (r, g, b): yellow for low values, green for high.
RAMP_LOW, RAMP_HIGH = (255, 255, 0), (0, 128, 0)
# A table cell holding any of these characters is quoted.
_QUOTED = re.compile('[,"\n\r]').search


def ramp_color(t) -> list[str]:
    """``#rrggbb`` colours for the values of ``t``, flattened in C order.

    Each channel is ``low + t * (high - low)`` between ``RAMP_LOW`` and
    ``RAMP_HIGH``, rounded half to even, with t clamped to [0, 1]; NaN maps
    to the low end. Red takes at most 256 values and green at most 128,
    both monotone in t, so there are at most 384 distinct colours; each is
    formatted once. Emitters call this once per chart, never per element.
    """
    t = np.minimum(1.0, np.fmax(0.0, np.ravel(t)))
    low, high = np.array(RAMP_LOW), np.array(RAMP_HIGH)
    channels = np.rint(low + t[:, None] * (high - low)).astype(np.int64)
    codes, index = np.unique(channels @ (65536, 256, 1), return_inverse=True)
    names = [f"#{c:06x}" for c in codes.tolist()]
    # The inverse is ravelled: its shape differs across numpy versions.
    return list(map(names.__getitem__, index.ravel().tolist()))


def _escape(text: str) -> str:
    """``html.escape(text)``: the same five replacements in the same order,
    without loading ``html`` and its entity tables."""
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;").replace("'", "&#x27;"))


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _svg_open(title: str, extra_defs: str = "") -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">']
    if extra_defs:
        parts.append(f"<defs>{extra_defs}</defs>")
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" '
                 f'height="{HEIGHT}" fill="#ffffff"/>')
    if title:
        parts.append(f'<text class="title" x="{WIDTH / 2:.2f}" y="18" '
                     f'text-anchor="middle" font-size="14" '
                     f'font-family="sans-serif">{_escape(title)}</text>')
    return parts


def _spread(count: int, start: float, length: float) -> list[float]:
    """Positions of ``count`` evenly spaced marks from ``start`` over
    ``length``, ends included; a single mark goes to the middle."""
    if count == 1:
        return [start + length / 2]
    return [start + length * i / (count - 1) for i in range(count)]


def _text(x: float, y: float, label: str, cls: str = "", size: int = 10,
          anchor: str = "start", extra: str = "") -> str:
    cls_attr = f' class="{cls}"' if cls else ""
    return (f'<text{cls_attr} x="{_fmt(x)}" y="{_fmt(y)}" '
            f'text-anchor="{anchor}" font-size="{size}" '
            f'font-family="sans-serif"{extra}>{_escape(label)}</text>')


# ---------------------------------------------------------------------------
# tables


def _type_names(values) -> str:
    return ", ".join(sorted(t.__name__ if t.__module__ == "builtins"
                            else f"{t.__module__}.{t.__name__}"
                            for t in set(map(type, values))))


def _field(text: str) -> str:
    return '"%s"' % text.replace('"', '""') if _QUOTED(text) else text


def float_cells(values) -> list[str]:
    """The table cells ``emit_table`` writes for a column of floats: six
    decimals, and an empty cell for NaN. A caller that writes one vector
    in several tables formats it once here and passes the cells."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return ["" if v != v else "%.6f" % v for v in values]


def _text_column(name: str, column) -> tuple[str, Sequence]:
    """The ``%`` conversion of the column named ``name``, and its cells:
    exactly floats, ints, bools or strs, all of one type (an array is read
    through ``tolist``). Numbers are left to the conversion unless a float
    is NaN; strs are scanned once, and quoted only if the scan says so."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    types = set(map(type, column))
    if len(types) > 1 or not types <= {float, int, bool, str}:
        raise InputError(f"table column {name!r} must hold cells of one type "
                         f"(float, int, bool or str); found "
                         f"{_type_names(column)}")
    if float in types:
        if not any(map(math.isnan, column)):
            return "%.6f", column
        return "%s", float_cells(column)
    if bool in types:
        return "%s", ["true" if v else "false" for v in column]
    if int in types:
        return "%d", column
    return "%s", (list(map(_field, column)) if _QUOTED("".join(column))
                  else column)


def emit_table(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The table as CSV: the header line, then one line per row.

    ``columns[k]`` holds the cells under the str ``header[k]``, as a tuple,
    list or 1-D numpy array, all of equal length. Floats get six decimals
    ('.' separator) and NaN is an empty cell; bools are ``true``/``false``.
    A cell holding a comma, a quote, a newline or a carriage return is
    quoted, and a record of one empty cell is ``""``, so ``csv.reader``
    reads back the same cells. Each row fills one ``%`` template."""
    if len(columns) != len(header):
        raise InputError(f"table has {len(header)} names but "
                         f"{len(columns)} columns")
    if len({len(column) for column in columns}) > 1:
        raise InputError("table columns must have equal lengths")
    if any(type(name) is not str for name in header):
        raise InputError(f"table header must hold strings; found "
                         f"{_type_names(header)}")
    if not header:
        return "\n"
    conversions, cells = zip(*map(_text_column, header, columns))
    # A record of one empty cell is quoted, or it would read as no record.
    names = ",".join(map(_field, header)) or '""'
    if conversions == ("%s",):
        cells = (['""' if not v else v for v in cells[0]],)
    row = ",".join(conversions) + "\n"
    return names + "\n" + "".join(map(row.__mod__, zip(*cells)))


# ---------------------------------------------------------------------------
# charts


def emit_heatmap(panel: ScorePanel, title: str = "") -> str:
    """Score matrix as a colored grid; one rect per cell, missing hatched."""
    return "".join(heatmap_chunks(panel, title))


def heatmap_chunks(panel: ScorePanel, title: str = "") -> Iterator[str]:
    """``emit_heatmap``'s text in pieces: the head with every label, then
    one piece per grid row, then the closing tag. All set-up work runs
    before the first piece is yielded, so a fault in it raises before any
    text is out."""
    n, m = panel.scores.shape
    margin_left, margin_top, margin_right, margin_bottom = 110, 80, 20, 20
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    cell_w = plot_w / m
    cell_h = plot_h / n

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

    # A cell's text is seven pieces: the tag and class, x, the row's y and
    # size, the fill, the row's entity, the category, and the value. Each
    # row, column and distinct score formats its pieces once; scores are
    # keyed by bit pattern, so -0.0 and 0.0 stay apart, and a missing cell
    # takes the last key. Colours come from one call for the whole matrix.
    bits, index = np.unique(panel.scores.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    stroke = 'stroke="#ffffff" stroke-width="0.5" data-entity="'
    by_key = np.array(
        [('<rect class="cell" x="', f' fill="{fill}" {stroke}',
          f'" data-value="{v:.3f}"/>\n')
         for fill, v in zip(ramp_color(values / 100.0), values.tolist())]
        + [('<rect class="cell missing" x="', f' fill="url(#hatch)" {stroke}',
            '"/>\n')], dtype=object)
    size = f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}"'
    cells = np.empty((n, m, 7), dtype=object)
    cells[:, :, [0, 3, 6]] = by_key[np.where(panel.missing_mask, len(values),
                                             index.reshape(n, m))]
    cells[:, :, 1] = np.array([f'{_fmt(margin_left + j * cell_w)}" '
                               for j in range(m)], dtype=object)
    cells[:, :, 2] = np.array([f'y="{_fmt(margin_top + i * cell_h)}" {size}'
                               for i in range(n)], dtype=object)[:, None]
    cells[:, :, 4] = np.array([_escape(e) for e in panel.entities],
                              dtype=object)[:, None]
    cells[:, :, 5] = np.array([f'" data-category="{_escape(c)}'
                               for c in panel.categories], dtype=object)

    yield "\n".join(parts) + "\n"
    for row in cells.reshape(n, 7 * m):
        yield "".join(row.tolist())
    yield "</svg>\n"


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
                f'stroke-opacity="0.75" data-entity="{_escape(entity)}" '
                f'data-category="{_escape(category)}" data-value="{value:.3f}"/>')

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
            f'data-category="{_escape(category)}" data-value="{value:.3f}"/>')
        parts.append(_text(margin_left - 6, y + bar_h * 0.75, category,
                           cls="row-label", anchor="end"))
        parts.append(_text(margin_left + 4, y + bar_h * 0.75, f"{value:.3f}",
                           cls="bar-label"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _paths(x_text: Sequence[str], ys) -> list[str]:
    """SVG path data for each row of ``ys``, restarting after gaps.

    Point j of a row is at x ``x_text[j]``, already formatted with ``_fmt``
    (charts format each column's x once); a non-finite y is a gap. Each gap
    pattern gets one ``%`` template with its x values filled in, so a row
    is one format of its finite ys.
    """
    ys = np.asarray(ys, dtype=float)
    templates: dict[bytes, str] = {}
    out = []
    for row, finite in zip(ys.tolist(), np.isfinite(ys)):
        key = finite.tobytes()
        if key not in templates:
            templates[key] = " ".join(
                f"{'L' if j and finite[j - 1] else 'M'}{x},%.2f"
                for j, x in enumerate(x_text) if finite[j])
        out.append(templates[key] % tuple(filter(math.isfinite, row)))
    return out


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
    ys = margin_top + plot_h * (1 - (stacked - lo) / span)
    paths = _paths(x_text, ys)

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
            f'<path class="entity-line" d="{paths[i]}" '
            f'fill="none" stroke="{group_colors[group_of[entity]]}" '
            f'stroke-width="1" stroke-opacity="0.45" '
            f'data-entity="{_escape(entity)}"/>')
    for g in range(3):
        parts.append(
            f'<path class="group-line" d="{paths[n + g]}" '
            f'fill="none" stroke="{group_colors[g]}" stroke-width="3" '
            f'data-group="{g + 1}"/>')
    parts.append(
        f'<path class="national-line" d="{paths[n + 3]}" '
        f'fill="none" stroke="#333333" stroke-width="3"/>')

    for j, category in enumerate(profile.categories):
        column = performance[:, j]
        if not np.isfinite(column).any():
            continue
        best = int(np.nanargmax(column))
        worst = int(np.nanargmin(column))
        parts.append(_text(
            xs[j], ys[best, j] - 6,
            f"{entities[best]} {column[best]:.3f}", cls="best-label",
            size=9, anchor="middle"))
        parts.append(_text(
            xs[j], ys[worst, j] + 12,
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
    paths = _paths(x_text, [[math.nan if r is None else ys[r - 1]
                             for r in trajectory.ranks]
                            for trajectory in series.trajectories])
    for trajectory, rank, color, path in zip(series.trajectories, final_ranks,
                                             colors, paths):
        parts.append(
            f'<path class="rank-line" d="{path}" '
            f'fill="none" stroke="{color}" '
            f'stroke-width="2" data-entity="{_escape(trajectory.entity)}" '
            f'data-lineage="{trajectory.lineage}"/>')
        label = trajectory.entity
        if trajectory.lineage != "own":
            label += f" ({trajectory.lineage})"
        parts.append(_text(xs[-1] + 8, ys[rank - 1] + 4, label,
                           cls="line-label", size=9))
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
                f'data-category="{_escape(category)}" '
                f'data-year="{_escape(year)}" data-value="{float(value):.3f}"/>')

    legend_x = margin_left
    for t, year in enumerate(evolution.years):
        x = legend_x + t * 90
        parts.append(f'<rect class="legend-swatch" x="{_fmt(x)}" y="24" '
                     f'width="12" height="12" fill="{year_color[year]}"/>')
        parts.append(_text(x + 16, 34, year, cls="legend-label", size=11))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
