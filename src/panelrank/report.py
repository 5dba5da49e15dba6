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
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .analytics import GoalWeights, GroupProfile, RankSeries, WeightsEvolution
from .errors import InputError
from .panel import ScorePanel

# Every chart is drawn at this size, in pixels.
WIDTH, HEIGHT = 960, 600
# Colour ramp endpoints as (r, g, b): yellow for low values, green for high.
RAMP_LOW, RAMP_HIGH = (255, 255, 0), (0, 128, 0)
# Grid cells per piece that ``heatmap_chunks`` yields, in whole rows: at
# about 200 B a cell a piece stays under 128 KiB, above which malloc maps
# fresh pages for each piece and unmaps them when it is written.
HEATMAP_BLOCK_CELLS = 512
# Points a block of ``_paths`` holds, so its byte matrices stay small.
_PATH_BLOCK_CELLS = 8192
# A table cell holding any of these characters is quoted.
_QUOTED = re.compile('[,"\n\r]').search
# A roster holding any of these characters is escaped id by id.
_MARKUP = re.compile("[&<>\"']").search


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


def _escaped(texts: Sequence[str]) -> Sequence[str]:
    """``_escape`` of each of ``texts``: the joined texts are scanned once,
    and a roster without markup is returned as it is."""
    return list(map(_escape, texts)) if _MARKUP("".join(texts)) else texts


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
                     f'font-family="sans-serif">{_escaped((title,))[0]}</text>')
    return parts


def _spread(count: int, start: float, length: float) -> list[float]:
    """Positions of ``count`` evenly spaced marks from ``start`` over
    ``length``, ends included; a single mark goes to the middle."""
    if count == 1:
        return [start + length / 2]
    return [start + length * i / (count - 1) for i in range(count)]


def _labels(cls: str, xs: Sequence[float], ys: Sequence[float],
            labels: Sequence[str], anchor: str = "start", size: int = 10,
            turned: bool = False) -> list[str]:
    """A ``<text>`` of class ``cls`` per label, label k escaped at
    ``(xs[k], ys[k])``, all from one ``%`` template; ``turned`` rotates
    each label by -60 degrees about its own anchor."""
    turn = ' transform="rotate(-60 %.2f %.2f)"' if turned else ""
    template = (f'<text class="{cls}" x="%.2f" y="%.2f" text-anchor="{anchor}" '
                f'font-size="{size}" font-family="sans-serif"{turn}>%s</text>')
    places = (xs, ys, xs, ys) if turned else (xs, ys)
    return list(map(template.__mod__, zip(*places, _escaped(labels))))


# ---------------------------------------------------------------------------
# tables


def _type_names(values) -> str:
    return ", ".join(sorted(t.__name__ if t.__module__ == "builtins"
                            else f"{t.__module__}.{t.__name__}"
                            for t in set(map(type, values))))


def _field(text: str) -> str:
    return '"%s"' % text.replace('"', '""') if _QUOTED(text) else text


def _fields(texts: Sequence[str]) -> Sequence[str]:
    """``_field`` of each of ``texts``: the joined texts are scanned once,
    and a roster needing no quotes is returned as it is."""
    return list(map(_field, texts)) if _QUOTED("".join(texts)) else texts


def _fixed_point(x: np.ndarray, decimals: int):
    """For the floats ``x`` at ``decimals`` decimals: where ``_write_fixed``
    writes ``%``'s bytes, their integer and decimal parts there (0
    elsewhere), and the width of the widest with its sign and point.

    ``%`` rounds the exact binary value, half to even. While
    ``y = |v| * 10**decimals`` is below 2**43 the product is off by at
    most 2**-11, so where y's fraction is more than 2**-8 from a half,
    ``rint(y)`` is the integer ``%`` prints."""
    scale = 10.0 ** decimals
    with np.errstate(all="ignore"):
        y = np.abs(x) * scale
        scaled = np.rint(y)
        # Rounded, the integer part must also fit the uint32 digit passes.
        exact = ((y < min(2.0 ** 43, 2.0 ** 31 * scale))
                 & (np.abs(y - scaled) < 0.5 - 2.0 ** -8))
    scaled[~exact] = 0.0
    whole = np.floor(scaled / scale)
    part = (scaled - whole * scale).astype(np.uint32)
    whole = whole.astype(np.uint32)
    width = len(str(int(whole.max(initial=0)))) + decimals + (decimals > 0) + 1
    return exact, whole, part, width


def _write_fixed(columns, x, whole, part, decimals: int) -> None:
    """Write byte k of each number ``_fixed_point`` split into
    ``columns[k]``, right-aligned: '-' where x's sign bit is set (so
    ``-0.0`` gives ``-0.00``, as ``%`` does), the integer digits with NUL
    for leading zeros, the point and the decimals; 0 where not exact."""
    columns[0] = np.signbit(x) * np.uint8(ord("-"))
    at = len(columns) - 1
    for _ in range(decimals):
        rest = part // 10
        columns[at] = part - rest * 10 + ord("0")
        part, at = rest, at - 1
    if decimals:
        columns[at] = ord(".")
        at -= 1
    for k in range(at):
        rest = whole // 10
        digit = whole - rest * 10 + ord("0")
        if k:
            digit *= whole > 0  # a leading zero is padding
        columns[at] = digit
        whole, at = rest, at - 1


def float_cells(values, lead: str, decimals: int = 6) -> list[str]:
    """The table cells ``emit_table`` writes for a vector of floats, each
    led by ``lead``: ``"%.*f" % (decimals, v)``, and only ``lead`` for
    NaN. A call costs tens of microseconds at any length, so a caller
    formats all the vectors it writes in one call. ``lead`` holds no NUL
    and no newline; ``decimals`` is 0 to 9. The cells ``_fixed_point``
    finds exact are one byte matrix; the others go through ``%``."""
    x = np.asarray(values, dtype=float)
    exact, whole, part, width = _fixed_point(x, decimals)
    head = np.fromiter(lead.encode(), np.uint8)
    # A row is the lead, the number and a newline; NUL bytes are dropped.
    rows = np.zeros((x.size, head.size + width + 1), np.uint8)
    rows[:, :head.size] = head
    rows[:, -1] = ord("\n")
    _write_fixed(rows[:, head.size:-1].T, x, whole, part, decimals)
    cells = rows.tobytes().translate(None, b"\0").decode().split("\n")
    cells.pop()
    inexact = np.flatnonzero(~exact)
    for i, v in zip(inexact.tolist(), x[inexact].tolist()):
        cells[i] = lead if v != v else lead + "%.*f" % (decimals, v)
    return cells


def _text_cells(name: str, column, lead: str) -> Sequence[str]:
    """The cells of the column named ``name``, each led by ``lead``: the
    column must hold exactly floats, ints, bools or strs, all of one type
    (an array is read through ``tolist``). Strs are scanned once for
    quoting."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    types = set(map(type, column))
    if len(types) > 1 or not types <= {float, int, bool, str}:
        raise InputError(f"table column {name!r} must hold cells of one type "
                         f"(float, int, bool or str); found "
                         f"{_type_names(column)}")
    if float in types:
        return float_cells(column, lead)
    if bool in types:
        return [lead + ("true" if v else "false") for v in column]
    if int in types:
        return list(map((lead + "%d").__mod__, column))
    cells = _fields(column)
    return [lead + cell for cell in cells] if lead else cells


def _table_text(head: str, columns: Sequence) -> str:
    """``head``, then one row per index of ``columns``: row i is the
    pieces ``columns[k][i]`` joined as they are, so each piece carries its
    own separators. A column may be one str, shared by every row; the
    first must be a sequence."""
    block = np.empty((len(columns[0]), len(columns)), dtype=object)
    for k, column in enumerate(columns):
        block[:, k] = column
    # The head goes into the one join, so the text is never copied whole.
    pieces = block.ravel().tolist()
    pieces.insert(0, head)
    return "".join(pieces)


def emit_table(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The table as CSV: the header line, then one line per row.

    ``columns[k]`` holds the cells under the str ``header[k]``, as a tuple,
    list or 1-D numpy array, all of equal length. Floats get six decimals
    ('.' separator) and NaN is an empty cell; bools are ``true``/``false``.
    A cell holding a comma, a quote, a newline or a carriage return is
    quoted, and a record of one empty cell is ``""``, so ``csv.reader``
    reads back the same cells. Each column is formatted once, its cells
    carrying their commas, and the rows are one join of them."""
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
    cells = list(map(_text_cells, header, columns,
                     ("", *[","] * (len(header) - 1))))
    # A record of one empty cell is quoted, or it would read as no record.
    names = ",".join(_fields(header)) or '""'
    if len(cells) == 1:
        cells[0] = ['""' if not v else v for v in cells[0]]
    return _table_text(names + "\n", (*cells, "\n"))


# ---------------------------------------------------------------------------
# charts
#
# Each kind of repeated element is one ``%`` template mapped over its
# columns. Ids, titles and years enter a template only as ``%s``
# arguments, never as part of it, since they may hold ``%``.


def emit_heatmap(panel: ScorePanel, title: str = "") -> str:
    """Score matrix as a colored grid; one rect per cell, missing hatched."""
    return "".join(heatmap_chunks(panel, title))


def heatmap_chunks(panel: ScorePanel, title: str = "") -> Iterator[str]:
    """``emit_heatmap``'s text in pieces: the head with every label, then
    the grid in blocks of ``max(1, HEATMAP_BLOCK_CELLS // m)`` rows for
    ``m`` categories, then the closing tag. All set-up work runs before
    the first piece is yielded, so a fault in it raises before any text
    is out."""
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
    parts += _labels("col-label",
                     (margin_left + (np.arange(m) + 0.5) * cell_w).tolist(),
                     [margin_top - 8] * m, panel.categories, anchor="end",
                     turned=True)
    parts += _labels("row-label", [margin_left - 6] * n,
                     (margin_top + (np.arange(n) + 0.7) * cell_h).tolist(),
                     panel.entities, anchor="end")

    # A cell's text is seven pieces: the tag and class, x, the row's y and
    # size, the fill, the row's entity, the category, and the value. Each
    # row, column and distinct score formats its pieces once; scores are
    # keyed by bit pattern, so -0.0 and 0.0 stay apart, and a missing cell
    # takes the last key. Colours come from one call for the whole matrix.
    # The pieces of a block of rows are gathered into one reused array,
    # so no array of n·m cells is ever held.
    bits, index = np.unique(panel.scores.view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    stroke = ' stroke="#ffffff" stroke-width="0.5" data-entity="'
    by_key = np.array(
        [*zip(['<rect class="cell" x="'] * len(values),
              map((' fill="%s"' + stroke).__mod__, ramp_color(values / 100.0)),
              map('" data-value="%.3f"/>\n'.__mod__, values.tolist())),
         ('<rect class="cell missing" x="', ' fill="url(#hatch)"' + stroke,
          '"/>\n')], dtype=object)
    size = f'width="{_fmt(cell_w)}" height="{_fmt(cell_h)}"'
    keys = np.where(panel.missing_mask, len(values), index.reshape(n, m))
    by_row = np.array([*zip(
        map(f'y="%.2f" {size}'.__mod__,
            (margin_top + np.arange(n) * cell_h).tolist()),
        _escaped(panel.entities))], dtype=object)
    step = max(1, HEATMAP_BLOCK_CELLS // m)
    block = np.empty((min(n, step), m, 7), dtype=object)
    block[:, :, 1] = list(map('%.2f" '.__mod__,
                              (margin_left + np.arange(m) * cell_w).tolist()))
    block[:, :, 5] = list(map('" data-category="%s'.__mod__,
                              _escaped(panel.categories)))

    yield "\n".join(parts) + "\n"
    for start in range(0, n, step):
        rows = slice(start, start + step)
        cells = block[:len(keys[rows])]
        cells[:, :, [0, 3, 6]] = by_key[keys[rows]]
        cells[:, :, [2, 4]] = by_row[rows, None]
        yield "".join(cells.ravel().tolist())
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
    entity_ys = _spread(len(subset), margin, HEIGHT - 2 * margin)
    category_ys = _spread(panel.n_categories, margin, HEIGHT - 2 * margin)

    parts = _svg_open(title)
    min_w, max_w = 0.5, 4.0
    rows = [row_of[e] for e in subset]
    ii, jj = np.nonzero(~panel.missing_mask[rows])
    values = panel.scores[rows][ii, jj]
    t = values / 100.0
    ii, jj = ii.tolist(), jj.tolist()
    entities, categories = _escaped(subset), _escaped(panel.categories)
    edge = (f'<line class="edge" x1="{_fmt(left_x)}" y1="%.2f" '
            f'x2="{_fmt(right_x)}" y2="%.2f" stroke="%s" stroke-width="%.2f" '
            'stroke-opacity="0.75" data-entity="%s" data-category="%s" '
            'data-value="%.3f"/>')
    parts += map(edge.__mod__, zip(
        [entity_ys[i] for i in ii], [category_ys[j] for j in jj],
        ramp_color(t), (min_w + t * (max_w - min_w)).tolist(),
        [entities[i] for i in ii], [categories[j] for j in jj],
        values.tolist()))

    for kind, x, dx, ys, names, anchor in (
            ("entity", left_x, -10, entity_ys, subset, "end"),
            ("category", right_x, 10, category_ys, panel.categories, "start")):
        node = (f'<circle class="node {kind}-node" cx="{_fmt(x)}" cy="%.2f" '
                'r="5" fill="#333333"/>')
        parts += chain.from_iterable(zip(
            map(node.__mod__, ys),
            _labels("node-label", [x + dx] * len(ys), [y + 4 for y in ys],
                    names, anchor=anchor)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_weight_bars(weights: GoalWeights, title: str = "") -> str:
    """Horizontal bar per category, length proportional to its weight."""
    k = len(weights.categories)
    if k == 0:
        raise InputError("no categories to draw")
    margin_left, margin_top, margin_right, margin_bottom = 110, 40, 80, 20
    plot_w = WIDTH - margin_left - margin_right
    plot_h = HEIGHT - margin_top - margin_bottom
    slot_h = plot_h / k
    bar_h = slot_h * 0.7
    top = float(np.max(weights.values))

    values = weights.values.tolist()
    ys = [margin_top + i * slot_h + (slot_h - bar_h) / 2 for i in range(k)]
    label_ys = [y + bar_h * 0.75 for y in ys]
    bar = (f'<rect class="bar" x="{_fmt(margin_left)}" y="%.2f" width="%.2f" '
           f'height="{_fmt(bar_h)}" fill="%s" data-category="%s" '
           'data-value="%.3f"/>')
    parts = _svg_open(title)
    parts += chain.from_iterable(zip(
        map(bar.__mod__, zip(ys, [plot_w * v / top for v in values],
                             ramp_color(weights.values / top),
                             _escaped(weights.categories), values)),
        _labels("row-label", [margin_left - 6] * k, label_ys,
                weights.categories, anchor="end"),
        _labels("bar-label", [margin_left + 4] * k, label_ys,
                list(map("%.3f".__mod__, values)))))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _paths(x_text: Sequence[str], ys) -> list[str]:
    """SVG path data for each row of the 2-D ``ys``, restarting after gaps.

    Point j of a row is at x ``x_text[j]``, already formatted with ``_fmt``
    (charts format each column's x once); a non-finite y is a gap. A block
    of rows is one byte matrix of a slot per point and one for a newline.
    A point's slot is its lead (``M{x},`` for the row's first drawn point,
    `` M{x},`` after a gap, `` L{x},`` after a drawn point) and its y, by
    ``_write_fixed`` or, where that is not exact, by ``%``; a gap's is NUL
    bytes, which are dropped."""
    ys = np.asarray(ys, dtype=float)
    m = ys.shape[1]
    # The lead of state s in column j is row s * m + j; a gap's is empty.
    table = np.array([f"{pen}{x}," for pen in ("M", " M", " L") for x in x_text]
                     + [""] * m, "S")[:, None].view(np.uint8)
    out: list[str] = []
    step = max(1, _PATH_BLOCK_CELLS // (m + 1))
    for start in range(0, len(ys), step):
        block = ys[start:start + step]
        finite = np.isfinite(block)
        state = np.zeros(block.shape, np.intp)
        state[:, 1:] = np.logical_or.accumulate(finite, axis=1)[:, :-1]
        state[:, 1:] += finite[:, :-1]
        state[~finite] = 3
        exact, whole, part, width = _fixed_point(block, 2)
        texts = ["%.2f" % v if math.isfinite(v) else ""
                 for v in block[~exact].tolist()]
        width = max([width, *map(len, texts)])
        slots = np.zeros((len(block), m + 1, table.shape[1] + width), np.uint8)
        slots[:, :m, :-width] = table[state * m + np.arange(m)]
        slots[:, m, 0] = ord("\n")
        numbers = slots[:, :m, -width:]
        _write_fixed(numbers.transpose(2, 0, 1), block, whole, part, 2)
        numbers[~exact] = np.array(texts, f"S{width}")[:, None].view(np.uint8)
        out += slots.tobytes().translate(None, b"\0").decode().split("\n")[:-1]
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
    if not finite.size:
        raise InputError("no finite value to draw")
    lo = float(finite.min())
    hi = float(finite.max())
    span = hi - lo if hi > lo else 1.0

    m = len(profile.categories)
    xs = _spread(m, margin_left, plot_w)
    # One y per value of every curve; a finite value always gives a finite
    # y and a non-finite one a non-finite y, which marks the gap.
    ys = margin_top + plot_h * (1 - (stacked - lo) / span)
    paths = _paths([_fmt(x) for x in xs], ys)

    group_colors = ramp_color([1.0, 0.5, 0.0])
    group_of = {e: g for g, members in enumerate(profile.groups) for e in members}
    ungrouped = [e for e in entities if e not in group_of]
    if ungrouped:
        raise InputError("entities missing from the group profile: "
                         + ", ".join(ungrouped))

    parts = _svg_open(title)
    parts += _labels("x-tick", xs, [HEIGHT - margin_bottom + 16] * m,
                     profile.categories, anchor="end", turned=True)
    line = ('<path class="entity-line" d="%s" fill="none" stroke="%s" '
            'stroke-width="1" stroke-opacity="0.45" data-entity="%s"/>')
    parts += map(line.__mod__, zip(
        paths, [group_colors[group_of[e]] for e in entities],
        _escaped(entities)))
    n = len(entities)
    for g in range(3):
        parts.append(
            f'<path class="group-line" d="{paths[n + g]}" '
            f'fill="none" stroke="{group_colors[g]}" stroke-width="3" '
            f'data-group="{g + 1}"/>')
    parts.append(
        f'<path class="national-line" d="{paths[n + 3]}" '
        f'fill="none" stroke="#333333" stroke-width="3"/>')

    # Per category with a finite value, the entity nanargmax picks and
    # the one nanargmin picks; either may sit at ±inf.
    shown = np.flatnonzero(np.isfinite(performance).any(axis=0))
    if shown.size:
        runs = []
        for cls, pick, dy in (("best-label", np.nanargmax, -6),
                              ("worst-label", np.nanargmin, 12)):
            picked = pick(performance[:, shown], axis=0)
            runs.append(_labels(
                cls, [xs[j] for j in shown.tolist()],
                (ys[picked, shown] + dy).tolist(),
                list(map("%s %.3f".__mod__, zip(
                    [entities[i] for i in picked.tolist()],
                    performance[picked, shown].tolist()))),
                anchor="middle", size=9))
        parts += chain.from_iterable(zip(*runs))
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
    entities, ranks, lineages = zip(*series.trajectories)
    # A year without a rank is NaN; each line ends at its final rank.
    ranks = np.array(ranks, dtype=float)
    unranked = np.flatnonzero(np.isnan(ranks[:, -1])).tolist()
    if unranked:
        raise InputError(f"entity {entities[unranked[0]]!r} has no rank in "
                         f"the final year {series.years[-1]!r}")
    max_rank = int(np.nanmax(ranks))

    xs = _spread(len(series.years), margin_left, plot_w)
    # The y of rank r is ys[r - 1].
    ys = _spread(max_rank, margin_top, plot_h)

    parts = _svg_open(title)
    parts += _labels("x-tick", xs, [HEIGHT - margin_bottom + 18] * len(xs),
                     series.years, anchor="middle", size=11)
    parts += _labels("y-tick", [margin_left - 8] * 2,
                     [ys[0] + 4, ys[max_rank - 1] + 4], ["1", str(max_rank)],
                     anchor="end")

    final_ranks = ranks[:, -1].astype(np.int64).tolist()
    colors = ramp_color([
        1.0 if max_rank == 1 else 1 - (rank - 1) / (max_rank - 1)
        for rank in final_ranks])
    paths = _paths(list(map(_fmt, xs)), np.array([*ys, math.nan])[
        np.where(np.isnan(ranks), 0, ranks).astype(np.int64) - 1])
    line = ('<path class="rank-line" d="%s" fill="none" stroke="%s" '
            'stroke-width="2" data-entity="%s" data-lineage="%s"/>')
    parts += chain.from_iterable(zip(
        map(line.__mod__, zip(paths, colors, _escaped(entities), lineages)),
        _labels("line-label", [xs[-1] + 8] * len(entities),
                [ys[rank - 1] + 4 for rank in final_ranks],
                [e if lineage == "own" else "%s (%s)" % (e, lineage)
                 for e, lineage in zip(entities, lineages)], size=9)))
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
    colors = list(map(year_color.__getitem__, evolution.years))

    parts = _svg_open(title)
    baseline = margin_top + plot_h
    # Each category's tick is followed by its bars, one line each.
    present = np.isfinite(evolution.values)
    ii, tt = np.nonzero(present)
    values = evolution.values[present]
    heights = plot_h * values / top
    categories, years = _escaped(evolution.categories), _escaped(evolution.years)
    bar = (f'\n<rect class="bar" x="%.2f" y="%.2f" width="{_fmt(bar_w)}" '
           'height="%.2f" fill="%s" data-category="%s" data-year="%s" '
           'data-value="%.3f"/>')
    bars = map(bar.__mod__, zip(
        (margin_left + ii * group_w + (tt + 0.5) * bar_w).tolist(),
        (baseline - heights).tolist(), heights.tolist(),
        [colors[t] for t in tt.tolist()], [categories[i] for i in ii.tolist()],
        [years[t] for t in tt.tolist()], values.tolist()))
    groups = [""] * n_cat
    for i, text in zip(ii.tolist(), bars):
        groups[i] += text
    ticks = _labels("x-tick", [margin_left + i * group_w + group_w / 2
                               for i in range(n_cat)],
                    [baseline + 16] * n_cat, evolution.categories,
                    anchor="end", turned=True)
    parts += map(str.__add__, ticks, groups)

    legend_xs = [margin_left + t * 90 for t in range(n_years)]
    swatch = ('<rect class="legend-swatch" x="%.2f" y="24" width="12" '
              'height="12" fill="%s"/>')
    parts += chain.from_iterable(zip(
        map(swatch.__mod__, zip(legend_xs, colors)),
        _labels("legend-label", [x + 16 for x in legend_xs], [34] * n_years,
                evolution.years, size=11)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
