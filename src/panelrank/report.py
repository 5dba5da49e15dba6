"""Deterministic table (CSV/JSON) and chart (SVG 1.1) emission.

Every emitter is a pure function from values to text: identical inputs
give byte-identical output. Charts are assembled by hand so the output
stays dependency-free and diffable; elements carry stable classes and
``data-*`` attributes, which also makes them machine-checkable.

Numeric labels use 3 decimals in figures and 6 in tables. The default
color ramp runs yellow (low) to green (high).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from html import escape
from typing import Sequence

import numpy as np

from .analytics import (GoalWeights, GroupProfile, RankSeries, RankTable,
                        WeightsEvolution)
from .errors import InputError
from .panel import Finding, ScorePanel

CHART_KINDS = ("heatmap", "bipartite", "weight_bars", "weighted_lines",
               "rank_bump", "grouped_bars")


@dataclass(frozen=True)
class ChartSpec:
    """Rendering parameters shared by all chart emitters."""

    kind: str
    title: str = ""
    width: int = 960
    height: int = 600
    color_low: str = "#ffff00"
    color_high: str = "#008000"

    def __post_init__(self) -> None:
        if self.kind not in CHART_KINDS:
            raise InputError(f"unknown chart kind {self.kind!r}")
        if self.width <= 0 or self.height <= 0:
            raise InputError("chart dimensions must be positive")
        _hex_rgb(self.color_low)
        _hex_rgb(self.color_high)


@dataclass(frozen=True)
class TableData:
    """Generic rectangular table for emit_table."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...] = field(default_factory=tuple)


# Parsed once per colour string: ChartSpec validation fills the cache and
# every colour computed for that spec reads it. Results are immutable tuples.
@lru_cache(maxsize=256)
def _hex_rgb(color: str) -> tuple[int, int, int]:
    if not (len(color) == 7 and color.startswith("#")):
        raise InputError(f"colors must be '#rrggbb', got {color!r}")
    try:
        return tuple(int(color[i:i + 2], 16) for i in (1, 3, 5))
    except ValueError:
        raise InputError(f"colors must be '#rrggbb', got {color!r}") from None


def _ramp_colors(spec: ChartSpec, t) -> list[str]:
    """Colours for the values of ``t``, flattened in C order.

    Each channel is ``lo + t * (hi - lo)`` between the spec's endpoints,
    rounded half to even, with t clamped to [0, 1]; NaN maps to the low
    end. Emitters call this once per chart, never per element.
    """
    t = np.minimum(1.0, np.fmax(0.0, np.ravel(t)))
    low = np.array(_hex_rgb(spec.color_low))
    high = np.array(_hex_rgb(spec.color_high))
    channels = np.rint(low + t[:, None] * (high - low)).astype(np.int64)
    return [f"#{c:06x}" for c in (channels @ (65536, 256, 1)).tolist()]


def ramp_color(spec: ChartSpec, t: float) -> str:
    """Linear interpolation between the spec's endpoints, t in [0, 1]."""
    return _ramp_colors(spec, [t])[0]


def _require_kind(spec: ChartSpec, kind: str) -> None:
    if spec.kind != kind:
        raise InputError(f"chart spec kind {spec.kind!r} does not match {kind!r}")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _svg_open(spec: ChartSpec, extra_defs: str = "") -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">']
    if extra_defs:
        parts.append(f"<defs>{extra_defs}</defs>")
    parts.append(f'<rect x="0" y="0" width="{spec.width}" '
                 f'height="{spec.height}" fill="#ffffff"/>')
    if spec.title:
        parts.append(f'<text class="title" x="{spec.width / 2:.2f}" y="18" '
                     f'text-anchor="middle" font-size="14" '
                     f'font-family="sans-serif">{escape(spec.title)}</text>')
    return parts


def _text(x: float, y: float, label: str, cls: str = "", size: int = 10,
          anchor: str = "start", extra: str = "") -> str:
    cls_attr = f' class="{cls}"' if cls else ""
    return (f'<text{cls_attr} x="{_fmt(x)}" y="{_fmt(y)}" '
            f'text-anchor="{anchor}" font-size="{size}" '
            f'font-family="sans-serif"{extra}>{escape(label)}</text>')


# ---------------------------------------------------------------------------
# tables


def _cell_text(value) -> str:
    # Floats first: they are most cells, and no bool is a float.
    if isinstance(value, (float, np.floating)):
        return "" if math.isnan(value) else f"{float(value):.6f}"
    if type(value) is str:
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    return str(value)


def _cell_json(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return None if math.isnan(value) else round(float(value), 6)
    return value


def to_table(data) -> TableData:
    """Normalize a supported result type into a generic table."""
    if isinstance(data, TableData):
        return data
    if isinstance(data, RankTable):
        return TableData(
            ("entity", "score", "rank", "tied"),
            tuple(zip(data.entities, data.scores,
                      range(1, len(data.entities) + 1), data.tied)))
    if isinstance(data, GoalWeights):
        return TableData(
            ("category", "weight"),
            tuple(zip(data.categories, data.values.tolist())))
    if isinstance(data, WeightsEvolution):
        return TableData(
            ("category", *data.years),
            tuple((c, *row) for c, row in zip(data.categories, data.values.tolist())))
    if isinstance(data, Sequence) and all(isinstance(x, Finding) for x in data):
        return TableData(
            ("severity", "code", "message", "entity", "category"),
            tuple((f.severity, f.code, f.message, f.entity, f.category)
                  for f in data))
    raise InputError(f"cannot serialize {type(data).__name__} as a table")


def emit_table(data, format: str = "csv") -> str:
    """Serialize a tabular result as CSV or JSON.

    Column order is fixed by the input type; floats are written with six
    decimal places ('.' separator); missing values are empty cells (CSV)
    or null (JSON).
    """
    table = to_table(data)
    if format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_cell_text(v) for v in row])
        return out.getvalue()
    if format == "json":
        doc = {"columns": list(table.columns),
               "rows": [[_cell_json(v) for v in row] for row in table.rows]}
        return json.dumps(doc, indent=2) + "\n"
    raise InputError(f"unknown table format {format!r}")


# ---------------------------------------------------------------------------
# charts


def emit_heatmap(panel: ScorePanel, spec: ChartSpec) -> str:
    """Score matrix as a colored grid; one rect per cell, missing hatched."""
    _require_kind(spec, "heatmap")
    margin_left, margin_top, margin_right, margin_bottom = 110, 80, 20, 20
    plot_w = spec.width - margin_left - margin_right
    plot_h = spec.height - margin_top - margin_bottom
    cell_w = plot_w / panel.n_categories
    cell_h = plot_h / panel.n_entities

    hatch = ('<pattern id="hatch" width="6" height="6" '
             'patternUnits="userSpaceOnUse">'
             '<rect width="6" height="6" fill="#f2f2f2"/>'
             '<path d="M0,6 L6,0" stroke="#999999" stroke-width="1"/>'
             '</pattern>')
    parts = _svg_open(spec, extra_defs=hatch)

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
    colors = _ramp_colors(spec, panel.scores / 100.0)
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


def emit_bipartite(panel: ScorePanel, subset: Sequence[str],
                   spec: ChartSpec) -> str:
    """Entity-category bipartite subgraph; edge width and color follow scores."""
    _require_kind(spec, "bipartite")
    subset = tuple(subset)
    if not subset:
        raise InputError("bipartite subset must be nonempty")
    row_of = {e: i for i, e in enumerate(panel.entities)}
    unknown = [e for e in subset if e not in row_of]
    if unknown:
        raise InputError("unknown entities in subset: " + ", ".join(unknown))

    margin = 60
    left_x = margin + 60
    right_x = spec.width - margin - 60
    usable_h = spec.height - 2 * margin

    def y_pos(index: int, count: int) -> float:
        if count == 1:
            return margin + usable_h / 2
        return margin + usable_h * index / (count - 1)

    parts = _svg_open(spec)
    min_w, max_w = 0.5, 4.0
    m = panel.n_categories
    colors = _ramp_colors(spec, panel.scores[[row_of[e] for e in subset]] / 100.0)
    for i, entity in enumerate(subset):
        ey = y_pos(i, len(subset))
        for j, category in enumerate(panel.categories):
            if panel.missing_mask[row_of[entity], j]:
                continue
            value = float(panel.scores[row_of[entity], j])
            t = value / 100.0
            parts.append(
                f'<line class="edge" x1="{_fmt(left_x)}" y1="{_fmt(ey)}" '
                f'x2="{_fmt(right_x)}" y2="{_fmt(y_pos(j, m))}" '
                f'stroke="{colors[i * m + j]}" '
                f'stroke-width="{min_w + t * (max_w - min_w):.2f}" '
                f'stroke-opacity="0.75" data-entity="{escape(entity)}" '
                f'data-category="{escape(category)}" data-value="{value:.3f}"/>')

    for i, entity in enumerate(subset):
        ey = y_pos(i, len(subset))
        parts.append(f'<circle class="node entity-node" cx="{_fmt(left_x)}" '
                     f'cy="{_fmt(ey)}" r="5" fill="#333333"/>')
        parts.append(_text(left_x - 10, ey + 4, entity, cls="node-label",
                           anchor="end"))
    for j, category in enumerate(panel.categories):
        cy = y_pos(j, panel.n_categories)
        parts.append(f'<circle class="node category-node" cx="{_fmt(right_x)}" '
                     f'cy="{_fmt(cy)}" r="5" fill="#333333"/>')
        parts.append(_text(right_x + 10, cy + 4, category, cls="node-label"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_weight_bars(weights: GoalWeights, spec: ChartSpec) -> str:
    """Horizontal bar per category, length proportional to its weight."""
    _require_kind(spec, "weight_bars")
    if len(weights.categories) == 0:
        raise InputError("no categories to draw")
    margin_left, margin_top, margin_right, margin_bottom = 110, 40, 80, 20
    plot_w = spec.width - margin_left - margin_right
    plot_h = spec.height - margin_top - margin_bottom
    slot_h = plot_h / len(weights.categories)
    bar_h = slot_h * 0.7
    top = float(np.max(weights.values))

    colors = _ramp_colors(spec, weights.values / top)
    parts = _svg_open(spec)
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
                        entities: Sequence[str], spec: ChartSpec) -> str:
    """Weighted-performance curves: one thin line per entity colored by
    group, thick group means, a thick national mean, and best/worst
    annotations per category."""
    _require_kind(spec, "weighted_lines")
    performance = np.asarray(performance, dtype=float)
    entities = tuple(entities)
    if performance.shape != (len(entities), len(profile.categories)):
        raise InputError("performance matrix does not match entities x categories")

    margin_left, margin_top, margin_right, margin_bottom = 60, 40, 20, 90
    plot_w = spec.width - margin_left - margin_right
    plot_h = spec.height - margin_top - margin_bottom
    n_cat = len(profile.categories)

    stacked = np.vstack([performance, profile.group_curves,
                         profile.national_curve[None, :]])
    finite = stacked[np.isfinite(stacked)]
    lo = float(finite.min())
    hi = float(finite.max())
    span = hi - lo if hi > lo else 1.0

    if n_cat == 1:
        xs = [margin_left + plot_w / 2]
    else:
        xs = [margin_left + plot_w * j / (n_cat - 1) for j in range(n_cat)]
    x_text = [_fmt(x) for x in xs]
    # One y per value of every curve; a finite value always gives a finite
    # y and a non-finite one a non-finite y, which marks the gap.
    ys = (margin_top + plot_h * (1 - (stacked - lo) / span)).tolist()

    def path(curve: list[float]) -> str:
        return _path_from_points([(x, y) if math.isfinite(y) else None
                                  for x, y in zip(x_text, curve)])

    group_colors = _ramp_colors(spec, [1.0, 0.5, 0.0])
    group_of = {e: g for g, members in enumerate(profile.groups) for e in members}
    ungrouped = [e for e in entities if e not in group_of]
    if ungrouped:
        raise InputError("entities missing from the group profile: "
                         + ", ".join(ungrouped))

    parts = _svg_open(spec)
    tick_y = _fmt(spec.height - margin_bottom + 16)
    for j, category in enumerate(profile.categories):
        parts.append(_text(xs[j], spec.height - margin_bottom + 16, category,
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


def emit_rank_bump(series: RankSeries, spec: ChartSpec) -> str:
    """Rank trajectories over years; rank 1 at the top, colors keyed to the
    final year's rank."""
    _require_kind(spec, "rank_bump")
    if not series.trajectories:
        raise InputError("rank series is empty")
    margin_left, margin_top, margin_right, margin_bottom = 60, 40, 120, 40
    plot_w = spec.width - margin_left - margin_right
    plot_h = spec.height - margin_top - margin_bottom
    n_years = len(series.years)
    max_rank = max(r for t in series.trajectories for r in t.ranks if r is not None)

    def x_pos(t: int) -> float:
        if n_years == 1:
            return margin_left + plot_w / 2
        return margin_left + plot_w * t / (n_years - 1)

    def y_pos(rank: int) -> float:
        if max_rank == 1:
            return margin_top + plot_h / 2
        return margin_top + plot_h * (rank - 1) / (max_rank - 1)

    parts = _svg_open(spec)
    for t, year in enumerate(series.years):
        parts.append(_text(x_pos(t), spec.height - margin_bottom + 18, year,
                           cls="x-tick", anchor="middle", size=11))
    for rank in (1, max_rank):
        parts.append(_text(margin_left - 8, y_pos(rank) + 4, str(rank),
                           cls="y-tick", anchor="end"))

    x_text = [_fmt(x_pos(t)) for t in range(n_years)]
    final_ranks = [trajectory.ranks[-1] for trajectory in series.trajectories]
    colors = _ramp_colors(spec, [
        1.0 if max_rank == 1 else 1 - (rank - 1) / (max_rank - 1)
        for rank in final_ranks])
    for trajectory, rank, color in zip(series.trajectories, final_ranks, colors):
        points = [None if r is None else (x_text[t], y_pos(r))
                  for t, r in enumerate(trajectory.ranks)]
        parts.append(
            f'<path class="rank-line" d="{_path_from_points(points)}" '
            f'fill="none" stroke="{color}" '
            f'stroke-width="2" data-entity="{escape(trajectory.entity)}" '
            f'data-lineage="{trajectory.lineage}"/>')
        label = trajectory.entity
        if trajectory.lineage != "own":
            label += f" ({trajectory.lineage})"
        parts.append(_text(x_pos(n_years - 1) + 8, y_pos(rank) + 4, label,
                           cls="line-label", size=9))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_grouped_bars(evolution: WeightsEvolution, spec: ChartSpec) -> str:
    """Grouped bars: one group per category, one bar per year with data.

    Years a category is absent leave a visible gap in its group.
    """
    _require_kind(spec, "grouped_bars")
    if len(evolution.categories) == 0:
        raise InputError("no categories to draw")
    margin_left, margin_top, margin_right, margin_bottom = 60, 40, 20, 90
    plot_w = spec.width - margin_left - margin_right
    plot_h = spec.height - margin_top - margin_bottom
    n_cat = len(evolution.categories)
    n_years = len(evolution.years)
    group_w = plot_w / n_cat
    bar_w = group_w / (n_years + 1)
    top = float(np.nanmax(evolution.values))
    year_color = dict(zip(evolution.years, _ramp_colors(
        spec, [t / max(1, n_years - 1) for t in range(n_years)])))

    parts = _svg_open(spec)
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
