"""Command-line pipeline: files in, score tables and charts out.

Three subcommands:

``compute``
    Full pipeline per year: degree index, spectral and/or iterative
    scores, weights, rank tables, charts, and (with both methods) the
    Spearman agreement between the two entity-score vectors.
``compare``
    Spearman rho between two scoring bases, either on one panel or
    across two panels with matching (or explicitly mapped) rosters.
``validate``
    Panel and entity-map diagnostics; exits nonzero only on errors, not
    warnings.

Exit codes: 0 success, 1 input error, 2 degenerate panel, 3 fixed-point
non-convergence (suppressed by ``--allow-nonconverged``). The spectral
route is a direct solve and has no exit 3. Output files are a pure
function of inputs and flags: reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import gc
import re
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import analytics, core, report
from .errors import DegeneratePanelError, InputError, NonConvergenceError
# aggregate_indicators and parse_indicator_csv stay importable here: the
# benchmark's tracer wraps them by these names.
from .panel import _NOT_XML, Alignment, EntityMap, ScorePanel, \
    aggregate_indicators, align_rosters, indicator_panel, \
    parse_indicator_csv, parse_panel, validate_panel

CHART_KINDS = ("heatmap", "bipartite", "weight_bars", "weighted_lines",
               "rank_bump", "grouped_bars")
# Rows of entities a chart draws at most: at 50 rows a heatmap row is as
# tall as its 10 px label on the 500 px plot. A larger roster is drawn as
# bands of ranks or a sample of them; the tables keep every entity.
_CHART_ROWS = 50


class RunConfig(NamedTuple):
    """Everything a subcommand needs, resolved from flags."""

    # (kind, year, path) per input, in command-line order; kind is
    # "panel" or "indicators".
    inputs: tuple[tuple[str, str, Path], ...] = ()
    entity_maps: Mapping[tuple[str, str], Path] = MappingProxyType({})
    method: str = "both"  # solvers that run: spectral, iterative, both, none
    tol: float = core.DEFAULT_TOL
    max_steps: int = core.DEFAULT_MAX_STEPS
    out_dir: Path | None = None
    charts: tuple[str, ...] = CHART_KINDS
    allow_nonconverged: bool = False

    def validate(self) -> None:
        if not self.inputs:
            raise InputError("at least one --panel or --indicators input is required")
        # Keyed ignoring case, since a file system that ignores case would
        # write outputs labelled "A" and "a" to one file.
        seen: dict[str, str] = {}
        for _, year, _ in self.inputs:
            if not year:
                raise InputError("a year label is empty")
            # Charts write the label into their text.
            if _NOT_XML.search(year):
                raise InputError(f"year label {year!r} contains a character "
                                 "XML does not allow")
            key = _safe_label(year).lower()
            if key in seen:
                raise InputError(f"year labels {seen[key]!r} and {year!r} both "
                                 f"write outputs labelled {key!r} ignoring case")
            seen[key] = year
        if self.method == "both":
            # Year X's iterative table and year iterative_X's D_s table
            # would share the name ranks_D_s_iterative_X.csv.
            for key, year in seen.items():
                other = seen.get(f"iterative_{key}")
                if other is not None:
                    raise InputError(
                        f"year labels {year!r} and {other!r} both write "
                        f"ranks_D_s_iterative_{_safe_label(year)}.csv")
        years = [year for _, year, _ in self.inputs]
        for a, b in self.entity_maps:
            if (a, b) not in zip(years, years[1:]):
                raise InputError(f"--entity-map {a}->{b} does not name two "
                                 "consecutive inputs")
        if not 0 < self.tol < float("inf"):
            raise InputError("--tol must be positive and finite")
        if self.max_steps < 1:
            raise InputError("--max-steps must be at least 1")


class YearResult(NamedTuple):
    """Computed quantities for one panel year."""

    prepared: core.Prepared
    solved: tuple[core.ComplexityScores, ...]  # solvers that ran, spectral first
    weights: tuple[analytics.GoalWeights, ...]  # goal weights of each
    trace: core.IterationTrace | None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors follow the exit-code contract."""

    def error(self, message: str):  # noqa: A003 - argparse API
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="panelrank",
                     description="Complexity-based rankings from score panels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_solver: bool = True) -> None:
        # Both input flags append to one list so the command-line order,
        # which sets the chronology, survives.
        p.add_argument("--panel", dest="inputs", action="append", default=[],
                       type=lambda raw: ("panel", raw), metavar="YEAR=PATH",
                       help="panel CSV for one year (repeatable)")
        p.add_argument("--indicators", dest="inputs", action="append",
                       default=[], type=lambda raw: ("indicators", raw),
                       metavar="[YEAR=]PATH",
                       help="long-form indicator CSV to aggregate into a panel "
                            "(year defaults to the file stem)")
        p.add_argument("--entity-map", action="append", default=[],
                       metavar="A->B=PATH",
                       help="entity alignment JSON between years A and B "
                            "(repeatable)")
        if with_solver:
            p.add_argument("--method", choices=("spectral", "iterative", "both"),
                           default="both")
            p.add_argument("--tol", type=float, default=core.DEFAULT_TOL,
                           help="fixed-point tolerance (the spectral route "
                                "is a direct solve)")
            p.add_argument("--max-steps", type=int, default=core.DEFAULT_MAX_STEPS,
                           help="fixed-point step limit")
            p.add_argument("--allow-nonconverged", action="store_true",
                           help="keep going with the last fixed-point iterate "
                                "instead of exiting 3")

    compute = sub.add_parser("compute", help="run the full pipeline")
    add_common(compute)
    compute.add_argument("--out", required=True, metavar="DIR",
                         help="output directory")
    compute.add_argument("--charts", default="all",
                         help="'all', 'none', or a comma list of: "
                              + ", ".join(CHART_KINDS))

    compare = sub.add_parser("compare", help="Spearman rho between two bases")
    compare.add_argument("basis_a", choices=analytics.RANK_BASES)
    compare.add_argument("basis_b", choices=analytics.RANK_BASES)
    add_common(compare)
    compare.add_argument("--out", default=None, metavar="DIR",
                         help="also write the side-by-side table here")

    validate = sub.add_parser("validate", help="diagnose panels")
    add_common(validate, with_solver=False)
    return parser


def _split_key_value(raw: str, flag: str) -> tuple[str, str]:
    if "=" not in raw:
        raise InputError(f"{flag} expects KEY=PATH, got {raw!r}")
    key, _, path = raw.partition("=")
    return key, path


def config_from_args(args: argparse.Namespace) -> RunConfig:
    inputs = []
    for kind, raw in args.inputs:
        if kind == "panel":
            year, path = _split_key_value(raw, "--panel YEAR=PATH")
        elif "=" in raw:
            year, path = raw.split("=", 1)
        else:
            year, path = Path(raw).stem, raw
        inputs.append((kind, year, Path(path)))
    entity_maps = {}
    for raw in args.entity_map:
        key, path = _split_key_value(raw, "--entity-map A->B=PATH")
        if "->" not in key:
            raise InputError(f"--entity-map key must be 'A->B', got {key!r}")
        a, _, b = key.partition("->")
        if (a, b) in entity_maps:
            raise InputError(f"--entity-map {key} is given twice")
        entity_maps[(a, b)] = Path(path)

    # validate has no solver flags and runs no solver.
    method = getattr(args, "method", "none")
    solver = {name: getattr(args, name) for name in
              ("tol", "max_steps", "allow_nonconverged") if hasattr(args, name)}
    if args.command == "compare":
        if len(inputs) > 2:
            raise InputError("compare takes one panel (within-year) or two "
                             "(across years)")
        # Run only the solver the bases read: D_s reads the primary scores
        # (spectral unless --method iterative), k_s and composite_mean none.
        if "D_s" not in (args.basis_a, args.basis_b):
            method = "none"
        elif method == "both":
            method = "spectral"
    out = getattr(args, "out", None)
    config = RunConfig(tuple(inputs), entity_maps, method,
                       out_dir=None if out is None else Path(out),
                       charts=_parse_charts(getattr(args, "charts", "all")),
                       **solver)
    config.validate()
    return config


def _parse_charts(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return CHART_KINDS
    if raw == "none":
        return ()
    kinds = tuple(k.strip() for k in raw.split(",") if k.strip())
    for kind in kinds:
        if kind not in CHART_KINDS:
            raise InputError(f"unknown chart kind {kind!r} (choose from "
                             + ", ".join(CHART_KINDS) + ")")
    return kinds


def _read_text(path: Path) -> str:
    """The file's UTF-8 text, without the byte-order mark some tools write."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise InputError(f"cannot read {path}: not UTF-8 text (byte "
                         f"0x{byte:02x} at offset {exc.start})") from None


def _write_text(config: RunConfig, name: str, text: str) -> Path:
    """Write one output file under ``--out``, creating the directory
    first. A file the run reads, input or entity map, is never
    overwritten."""
    path = config.out_dir / name
    sources = [p for _, _, p in config.inputs] + [*config.entity_maps.values()]
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        if path.exists() and any(path.samefile(src) for src in sources):
            raise InputError(f"cannot write {path}: it is an input of this run")
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return path


def load_input(kind: str, year: str, path: Path) -> ScorePanel:
    """Parse one panel CSV or aggregate one indicator CSV."""
    text = _read_text(path)
    if kind == "panel":
        return parse_panel(text, year)
    return indicator_panel(text, year)


def align_pair(config: RunConfig, earlier: ScorePanel,
               later: ScorePanel) -> Alignment | None:
    """The rosters of two consecutive panels aligned under the map given
    for them, or None when none was given."""
    path = config.entity_maps.get((earlier.year, later.year))
    if path is None:
        return None
    return align_rosters(earlier.entities, later.entities,
                         EntityMap.from_json(_read_text(path)))


def load_inputs(config: RunConfig) -> tuple[list[ScorePanel],
                                            list[Alignment | None]]:
    """Every input parsed, in command-line order, and each consecutive
    pair's alignment under its map, checked before anything is solved or
    written; None for a pair with no map, which ``aligned`` aligns by
    identity for the outputs that read it."""
    panels = [load_input(*item) for item in config.inputs]
    return panels, [align_pair(config, *pair)
                    for pair in zip(panels, panels[1:])]


def aligned(panels: Sequence[ScorePanel],
            alignments: Sequence[Alignment | None]) -> list[Alignment]:
    """``load_inputs``'s alignments with each missing one made by identity,
    which cannot fail."""
    return [align_rosters(earlier.entities, later.entities)
            if alignment is None else alignment
            for alignment, earlier, later in zip(alignments, panels, panels[1:])]


def _safe_label(year: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", year)


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def compute_year(panel: ScorePanel, config: RunConfig) -> YearResult:
    prep = core.prepare(panel)
    solved, trace = [], None
    if config.method in ("spectral", "both"):
        solved.append(core.genepy_scores(prep))
    if config.method in ("iterative", "both"):
        scores, trace = core.run_fitness(prep, config.tol, config.max_steps)
        solved.append(scores)
        if not trace.converged:
            if not config.allow_nonconverged:
                stopped = ("" if trace.steps == config.max_steps else
                           "; the next iterate was not finite and positive")
                raise NonConvergenceError(
                    f"year {panel.year}: fixed-point iteration did not reach "
                    f"tol={config.tol} after {trace.steps} steps "
                    f"(last residual {trace.final_residual:.3e}{stopped})")
            _warn(f"year {panel.year}: fixed-point iteration did not converge; "
                  "using last iterate (--allow-nonconverged)")
    return YearResult(prep, tuple(solved),
                      tuple(analytics.goal_weights(s, prep.ubiquity)
                            for s in solved),
                      trace)


def _rank_tables(result: YearResult) -> dict[str, tuple]:
    """The year's rank record, by rank key: ``k_s``, ``composite_mean``,
    then ``D_s`` for the first solver that ran and ``D_s_iterative`` (the
    ``D_s`` basis) for the second. Each key holds the entity values in
    roster order, their ``RankTable``, the position in the roster of each
    row of the table, and the table's tie mask."""
    panel, deg = result.prepared.panel, result.prepared.degree
    values = {"k_s": deg.totals, "composite_mean": deg.composite_means}
    for key, scores in zip(("D_s", "D_s_iterative"), result.solved):
        values[key] = scores.entity_scores
    ranked = analytics._ranked(
        panel.entities, [(key.removesuffix("_iterative"), vector)
                         for key, vector in values.items()], panel.year)
    return {key: (vector, *rank)
            for (key, vector), rank in zip(values.items(), ranked)}


def _year_tables(result: YearResult, ranked: dict[str, tuple]) -> dict[str, str]:
    """The year's CSV tables by file name stem: entity scores, category
    scores, then the rank table of each key of ``_rank_tables``' record.

    Every cell is written with its separators, so each table is one join
    of pieces shared across the year's tables: the ids quoted once, all of
    the year's floats in one ``float_cells`` call (a rank table takes its
    vector's cells in rank order), applicable counts and ranks from one
    call over the integers up to n or m, and tie flags from the two
    possible ones, indexed by the ranker's tie mask. The columns are built
    here, so they skip ``emit_table``'s type checks."""
    prep = result.prepared
    panel, n = prep.panel, prep.panel.n_entities
    ids = np.array(report._fields(panel.entities), dtype=object)
    methods = [scores.method for scores in result.solved]
    vectors = [values for values, *_ in ranked.values()] + [prep.ubiquity.values]
    for scores, weights in zip(result.solved, result.weights):
        vectors += [scores.category_scores, weights.values]
    flat = np.array(report.float_cells(np.concatenate(vectors), ","),
                    dtype=object)
    floats = np.split(flat, np.cumsum(list(map(len, vectors)))[:-1])
    cells = dict(zip(ranked, floats))
    integers = np.array(report.float_cells(
        np.arange(max(n, panel.n_categories) + 1), ",", 0), dtype=object)
    texts = {
        "scores_entities": report._table_text(
            "entity,total_score,applicable_count,composite_mean"
            + "".join(f",complexity_{m}" for m in methods) + "\n",
            [ids, cells["k_s"], integers[prep.degree.applicable_counts],
             *floats[1:len(cells)], "\n"]),
        "scores_categories": report._table_text(
            "category,adjusted_ubiquity"
            + "".join(f",complexity_{m},weight_{m}" for m in methods) + "\n",
            [report._fields(panel.categories), *floats[len(cells):], "\n"])}
    # A bool mask would select cells; as 0s and 1s it indexes them.
    flags = np.array([",false\n", ",true\n"], dtype=object)
    for key, (*_, rows, tied) in ranked.items():
        texts[f"ranks_{key}"] = report._table_text(
            "entity,score,rank,tied\n",
            [ids[rows], cells[key][rows], integers[1:n + 1],
             flags[tied.view(np.int8)]])
    return texts


def _ladder(count: int, size: int) -> list[int]:
    """Positions of ``size`` rungs spread evenly down a ladder of ``count``,
    both ends included; every position when ``count <= size``."""
    if count <= size:
        return list(range(count))
    return np.round(np.linspace(0, count - 1, size)).astype(int).tolist()


def _bipartite_subset(table: analytics.RankTable, size: int = 8) -> tuple[str, ...]:
    """Entities sampled evenly across the ranking ladder."""
    return tuple(table.entities[i] for i in _ladder(len(table.entities), size))


def _rank_bands(panel: ScorePanel, rows: np.ndarray) -> ScorePanel:
    """The panel a heatmap draws: itself up to ``_CHART_ROWS`` rows, else
    ``_CHART_ROWS`` bands of consecutive ranks, rank k at roster position
    ``rows[k - 1]``. A band's cell is the mean of its present cells,
    missing where it has none, and a band is labelled by its rank range."""
    n = panel.n_entities
    if n <= _CHART_ROWS:
        return panel
    starts = np.arange(_CHART_ROWS) * n // _CHART_ROWS
    present = ~panel.missing_mask[rows]
    counts = np.add.reduceat(present.astype(np.int64), starts)
    sums = np.add.reduceat(np.where(present, panel.scores[rows], 0.0), starts)
    labels = [str(first + 1) if last == first + 1 else f"{first + 1}-{last}"
              for first, last in zip(starts.tolist(), [*starts[1:].tolist(), n])]
    return ScorePanel(panel.year, tuple(labels), panel.categories,
                      sums / np.maximum(counts, 1), counts == 0)


def _bump_sample(series: analytics.RankSeries) -> analytics.RankSeries:
    """The trajectories a rank-bump chart draws, in final-rank order:
    ``_CHART_ROWS`` spread down the final year's ladder, and every split
    or merge lineage, up to ``_CHART_ROWS`` more."""
    lines = series.trajectories
    moved = [i for i, line in enumerate(lines) if line.lineage != "own"]
    keep = sorted({*_ladder(len(lines), _CHART_ROWS), *moved[:_CHART_ROWS]})
    return series._replace(trajectories=tuple(lines[i] for i in keep))


def cmd_compute(config: RunConfig) -> int:
    """Run the whole pipeline and write tables plus requested charts."""
    panels, alignments = load_inputs(config)
    written: list[Path] = []

    def write(name: str, text: str) -> None:
        written.append(_write_text(config, name, text))

    results = [compute_year(panel, config) for panel in panels]
    ranked = [_rank_tables(result) for result in results]

    for result, year_ranked in zip(results, ranked):
        panel, year_weights = result.prepared.panel, result.weights[0]
        _, totals, by_rank, _ = year_ranked["k_s"]
        label = _safe_label(panel.year)
        for stem, text in _year_tables(result, year_ranked).items():
            write(f"{stem}_{label}.csv", text)

        if "heatmap" in config.charts:
            write(f"heatmap_{label}.svg", report.emit_heatmap(
                _rank_bands(panel, by_rank), f"Scores {panel.year}"))
        if "bipartite" in config.charts:
            write(f"bipartite_{label}.svg", report.emit_bipartite(
                panel, _bipartite_subset(totals),
                f"Score network {panel.year}"))
        if "weight_bars" in config.charts:
            write(f"weight_bars_{label}.svg", report.emit_weight_bars(
                year_weights, f"Category weights {panel.year}"))
        if "weighted_lines" in config.charts:
            if panel.n_entities < 3:
                _warn(f"year {panel.year}: skipping weighted_lines chart "
                      "(needs at least 3 entities)")
            else:
                performance = analytics.weighted_performance(panel, year_weights)
                profile = analytics.tertile_groups(totals, panel, performance)
                drawn = np.sort(by_rank[_ladder(panel.n_entities, _CHART_ROWS)])
                write(f"weighted_lines_{label}.svg", report.emit_weighted_lines(
                    performance[drawn], profile,
                    [panel.entities[i] for i in drawn.tolist()],
                    f"Weighted performance {panel.year}"))

    if config.method == "both":
        write("method_agreement.csv", report.emit_table(
            ("year", "spearman_rho"),
            ([panel.year for panel in panels],
             [analytics.spearman(*(s.entity_scores for s in result.solved))
              for result in results])))

    if "rank_bump" in config.charts:
        alignments = aligned(panels, alignments)
        for basis, title in (("k_s", "totals"), ("D_s", "complexity")):
            write(f"rank_bump_{basis}.svg", report.emit_rank_bump(
                _bump_sample(analytics.rank_evolution(
                    [t[basis][1] for t in ranked], alignments)),
                f"Rank evolution ({title})"))
    if "grouped_bars" in config.charts:
        write("grouped_bars_weights.svg", report.emit_grouped_bars(
            analytics.weights_evolution([r.weights[0] for r in results]),
            "Weight evolution"))

    for path in written:
        print(path)
    return 0


def cmd_compare(config: RunConfig, basis_a: str, basis_b: str) -> int:
    """Spearman rho between two scoring bases, printed and optionally written."""
    panels, alignments = load_inputs(config)
    first, last = panels[0], panels[-1]
    partner = {e: e for e in first.entities}
    if alignments:
        links, retired = aligned(panels, alignments)[0]
        if retired or any(link.kind not in ("unchanged", "renamed")
                          for link in links):
            raise InputError(
                f"rosters of {first.year} and {last.year} do not "
                "correspond one-to-one; provide --entity-map rename rules")
        partner = {link.parents[0]: link.entity for link in links}
    results = [compute_year(panel, config) for panel in panels]

    # Ranks do not depend on input order; rho is summed in id order.
    ranked = [_rank_tables(result) for result in results]
    table_a, table_b = ranked[0][basis_a][1], ranked[-1][basis_b][1]
    score_a, score_b = table_a.score_of(), table_b.score_of()
    rank_b = table_b.rank_of()
    ids = sorted(partner)
    rho = analytics.spearman([score_a[a] for a in ids],
                             [score_b[partner[a]] for a in ids])
    partners = [partner[entity] for entity in table_a.entities]
    text = report.emit_table(
        ("entity", f"score_{basis_a}", f"rank_{basis_a}",
         f"score_{basis_b}", f"rank_{basis_b}"),
        (table_a.entities, table_a.scores, range(1, len(ids) + 1),
         [score_b[b] for b in partners], [rank_b[b] for b in partners]))
    print(f"spearman rho ({basis_a} vs {basis_b}) = {rho:.6f}")
    print(text, end="")
    if config.out_dir is not None:
        name = (f"compare_{basis_a}_vs_{basis_b}_{_safe_label(first.year)}"
                + ("" if first is last else f"_{_safe_label(last.year)}")
                + ".csv")
        print(_write_text(config, name, text))
    return 0


def cmd_validate(config: RunConfig) -> int:
    """Print findings for every panel and every given map; exit 1 only if
    any error."""
    failed = False
    panels: dict[str, ScorePanel] = {}
    for kind, year, path in config.inputs:
        try:
            panel = panels[year] = load_input(kind, year, path)
        except InputError as exc:
            print(f"{year}: error: {exc}")
            failed = True
            continue
        findings = validate_panel(panel)
        for finding in findings:
            print(f"{year}: {finding.severity}: {finding.message}")
        if any(f.severity == "error" for f in findings):
            failed = True
        if not findings:
            print(f"{year}: ok")
    # A pair whose panel failed to load is skipped: that error is printed.
    for a, b in config.entity_maps:
        if a in panels and b in panels:
            try:
                align_pair(config, panels[a], panels[b])
            except InputError as exc:
                print(f"{a}->{b}: error: {exc}")
                failed = True
            else:
                print(f"{a}->{b}: ok")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = config_from_args(args)
        if args.command == "compute":
            return cmd_compute(config)
        if args.command == "compare":
            return cmd_compare(config, args.basis_a, args.basis_b)
        return cmd_validate(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegeneratePanelError as exc:
        print(f"error: degenerate panel: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    # The modules, classes and functions built by the imports live until
    # exit; frozen, they are skipped by every later collection, the ones at
    # exit included. Objects the run creates are still collected. Only the
    # console entry does this, so library callers keep their collector.
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
