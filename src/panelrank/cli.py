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
    Panel diagnostics; exits nonzero only on errors, not warnings.

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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analytics, core, report
from .errors import DegeneratePanelError, InputError, NonConvergenceError
from .panel import EntityMap, ScorePanel, aggregate_indicators, parse_indicator_csv, \
    parse_panel, validate_panel


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from flags."""

    # (kind, year, path) per input, in command-line order; kind is
    # "panel" or "indicators".
    inputs: list[tuple[str, str, Path]] = field(default_factory=list)
    entity_maps: dict[tuple[str, str], Path] = field(default_factory=dict)
    method: str = "both"  # spectral, iterative, both, or none (no solver)
    tol: float = 1e-10
    max_steps: int = 1000
    out_dir: Path | None = None
    charts: tuple[str, ...] = report.CHART_KINDS
    allow_nonconverged: bool = False

    def validate(self) -> None:
        if not self.inputs:
            raise InputError("at least one --panel or --indicators input is required")
        seen: dict[str, str] = {}
        for _, year, _ in self.inputs:
            label = _safe_label(year)
            if label in seen:
                raise InputError(f"year labels {seen[label]!r} and {year!r} "
                                 f"both write outputs labelled {label!r}")
            seen[label] = year
        if self.tol <= 0:
            raise InputError("--tol must be positive")
        if self.max_steps < 1:
            raise InputError("--max-steps must be at least 1")


class YearResult(NamedTuple):
    """Computed quantities for one panel year."""

    panel: ScorePanel
    degree: core.DegreeIndex
    ubiquity: core.AdjustedUbiquity
    spectral: core.ComplexityScores | None
    iterative: core.ComplexityScores | None
    trace: core.IterationTrace | None

    @property
    def primary(self) -> core.ComplexityScores:
        scores = self.spectral or self.iterative
        assert scores is not None
        return scores


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
                              + ", ".join(report.CHART_KINDS))

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
    config = RunConfig()
    for kind, raw in args.inputs:
        if kind == "panel":
            year, path = _split_key_value(raw, "--panel YEAR=PATH")
        elif "=" in raw:
            year, path = raw.split("=", 1)
        else:
            year, path = Path(raw).stem, raw
        config.inputs.append((kind, year, Path(path)))
    for raw in args.entity_map:
        key, path = _split_key_value(raw, "--entity-map A->B=PATH")
        if "->" not in key:
            raise InputError(f"--entity-map key must be 'A->B', got {key!r}")
        a, _, b = key.partition("->")
        config.entity_maps[(a, b)] = Path(path)

    if hasattr(args, "method"):
        config.method = args.method
        config.tol = args.tol
        config.max_steps = args.max_steps
        config.allow_nonconverged = args.allow_nonconverged
    if getattr(args, "out", None) is not None:
        config.out_dir = Path(args.out)
    if hasattr(args, "charts"):
        config.charts = _parse_charts(args.charts)
    config.validate()
    return config


def _parse_charts(raw: str) -> tuple[str, ...]:
    if raw == "all":
        return report.CHART_KINDS
    if raw == "none":
        return ()
    kinds = tuple(k.strip() for k in raw.split(",") if k.strip())
    for kind in kinds:
        if kind not in report.CHART_KINDS:
            raise InputError(f"unknown chart kind {kind!r} (choose from "
                             + ", ".join(report.CHART_KINDS) + ")")
    return kinds


def _read_text(path: Path) -> str:
    """The file's UTF-8 text, without the byte-order mark some tools write."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def load_input(kind: str, year: str, path: Path) -> ScorePanel:
    """Parse one panel CSV or aggregate one indicator CSV."""
    text = _read_text(path)
    if kind == "panel":
        return parse_panel(text, year)
    return aggregate_indicators(parse_indicator_csv(text, year))


def load_panels(config: RunConfig) -> list[ScorePanel]:
    """Parse all configured inputs, in the order they were given."""
    return [load_input(*item) for item in config.inputs]


def load_entity_map(config: RunConfig, year_a: str, year_b: str) -> EntityMap:
    path = config.entity_maps.get((year_a, year_b))
    if path is None:
        return EntityMap()
    return EntityMap.from_json(_read_text(path))


def _safe_label(year: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", year)


def compute_year(panel: ScorePanel, config: RunConfig, warn) -> YearResult:
    deg = core.degree_index(panel)
    ubiq = core.adjusted_ubiquity(panel, deg)
    spectral = iterative = trace = None
    if config.method in ("spectral", "both"):
        spectral = core.genepy_scores(panel)
    if config.method in ("iterative", "both"):
        iterative, trace = core.run_fitness(panel, config.tol, config.max_steps)
        if not trace.converged:
            if not config.allow_nonconverged:
                stopped = ("" if trace.steps == config.max_steps else
                           "; the next iterate was not finite and positive")
                raise NonConvergenceError(
                    f"year {panel.year}: fixed-point iteration did not reach "
                    f"tol={config.tol} after {trace.steps} steps "
                    f"(last residual {trace.final_residual:.3e}{stopped})",
                    steps=trace.steps, residual=trace.final_residual)
            warn(f"year {panel.year}: fixed-point iteration did not converge; "
                 "using last iterate (--allow-nonconverged)")
    return YearResult(panel, deg, ubiq, spectral, iterative, trace)


def _entity_table(result: YearResult) -> report.TableData:
    deg = result.degree
    header = ["entity", "total_score", "applicable_count", "composite_mean"]
    columns = [result.panel.entities, deg.totals, deg.applicable_counts,
               deg.composite_means]
    for scores in (result.spectral, result.iterative):
        if scores is not None:
            header.append(f"complexity_{scores.method}")
            columns.append(scores.entity_scores)
    return report.TableData(tuple(header), tuple(columns))


def _category_table(result: YearResult) -> report.TableData:
    header = ["category", "adjusted_ubiquity"]
    columns = [result.panel.categories, result.ubiquity.values]
    for scores in (result.spectral, result.iterative):
        if scores is not None:
            weights = analytics.goal_weights(scores, result.ubiquity)
            header += [f"complexity_{scores.method}", f"weight_{scores.method}"]
            columns += [scores.category_scores, weights.values]
    return report.TableData(tuple(header), tuple(columns))


def _basis_values(result: YearResult, basis: str) -> np.ndarray:
    """Entity values of a rank basis; only ``D_s`` reads a solver."""
    if basis == "k_s":
        return result.degree.totals
    if basis == "composite_mean":
        return result.degree.composite_means
    return result.primary.entity_scores


def _rank_tables(result: YearResult) -> dict[str, analytics.RankTable]:
    panel = result.panel
    tables = {basis: analytics.rank_entities(
                  panel.entities, _basis_values(result, basis), basis, panel.year)
              for basis in analytics.RANK_BASES}
    if result.spectral is not None and result.iterative is not None:
        tables["D_s_iterative"] = analytics.rank_entities(
            panel.entities, result.iterative.entity_scores, "D_s", panel.year)
    return tables


def _bipartite_subset(table: analytics.RankTable, size: int = 8) -> tuple[str, ...]:
    """Entities sampled evenly across the ranking ladder."""
    ordered = table.entities
    if len(ordered) <= size:
        return ordered
    picks = np.round(np.linspace(0, len(ordered) - 1, size)).astype(int)
    return tuple(ordered[i] for i in dict.fromkeys(picks))


def cmd_compute(config: RunConfig) -> int:
    """Run the whole pipeline and write tables plus requested charts."""
    warnings: list[str] = []

    def warn(message: str) -> None:
        warnings.append(message)
        print(f"warning: {message}", file=sys.stderr)

    panels = load_panels(config)
    out = config.out_dir
    assert out is not None
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def write(name: str, text: str) -> None:
        path = out / name
        path.write_text(text, encoding="utf-8", newline="\n")
        written.append(path)

    results = [compute_year(panel, config, warn) for panel in panels]

    agreement_years: list[str] = []
    agreement_rhos: list[float] = []
    rank_history: list[analytics.RankTable] = []
    rank_history_ds: list[analytics.RankTable] = []
    weights_history: list[analytics.GoalWeights] = []
    maps: list[EntityMap] = []

    for index, result in enumerate(results):
        panel = result.panel
        label = _safe_label(panel.year)
        tables = _rank_tables(result)

        write(f"scores_entities_{label}.csv", report.emit_table(_entity_table(result)))
        write(f"scores_categories_{label}.csv",
              report.emit_table(_category_table(result)))
        for key, table in tables.items():
            write(f"ranks_{key}_{label}.csv", report.emit_table(table))

        if result.spectral is not None and result.iterative is not None:
            agreement_years.append(panel.year)
            agreement_rhos.append(analytics.spearman(
                result.spectral.entity_scores, result.iterative.entity_scores))

        weights = analytics.goal_weights(result.primary, result.ubiquity)
        weights_history.append(weights)
        rank_history.append(tables["k_s"])
        rank_history_ds.append(tables["D_s"])
        if index > 0:
            maps.append(load_entity_map(config, results[index - 1].panel.year,
                                        panel.year))

        if "heatmap" in config.charts:
            write(f"heatmap_{label}.svg", report.emit_heatmap(
                panel, report.ChartSpec("heatmap",
                                        title=f"Scores {panel.year}")))
        if "bipartite" in config.charts:
            write(f"bipartite_{label}.svg", report.emit_bipartite(
                panel, _bipartite_subset(tables["k_s"]),
                report.ChartSpec("bipartite",
                                 title=f"Score network {panel.year}")))
        if "weight_bars" in config.charts:
            write(f"weight_bars_{label}.svg", report.emit_weight_bars(
                weights, report.ChartSpec(
                    "weight_bars", title=f"Category weights {panel.year}")))
        if "weighted_lines" in config.charts:
            if panel.n_entities < 3:
                warn(f"year {panel.year}: skipping weighted_lines chart "
                     "(needs at least 3 entities)")
            else:
                profile = analytics.tertile_groups(tables["k_s"], panel, weights)
                performance = analytics.weighted_performance(panel, weights)
                write(f"weighted_lines_{label}.svg", report.emit_weighted_lines(
                    performance, profile, panel.entities,
                    report.ChartSpec("weighted_lines",
                                     title=f"Weighted performance {panel.year}")))

    if agreement_years:
        write("method_agreement.csv", report.emit_table(report.TableData(
            ("year", "spearman_rho"), (agreement_years, agreement_rhos))))

    if "rank_bump" in config.charts:
        write("rank_bump_k_s.svg", report.emit_rank_bump(
            analytics.rank_evolution(rank_history, maps),
            report.ChartSpec("rank_bump", title="Rank evolution (totals)")))
        write("rank_bump_D_s.svg", report.emit_rank_bump(
            analytics.rank_evolution(rank_history_ds, maps),
            report.ChartSpec("rank_bump", title="Rank evolution (complexity)")))
    if "grouped_bars" in config.charts:
        write("grouped_bars_weights.svg", report.emit_grouped_bars(
            analytics.weights_evolution(weights_history),
            report.ChartSpec("grouped_bars", title="Weight evolution")))

    for path in written:
        print(path)
    return 0


def cmd_compare(config: RunConfig, basis_a: str, basis_b: str) -> int:
    """Spearman rho between two scoring bases, printed and optionally written."""
    panels = load_panels(config)
    if len(panels) > 2:
        raise InputError("compare takes one panel (within-year) or two "
                         "(across years)")
    # Run only the solver the bases read: D_s reads the primary scores
    # (spectral unless --method iterative), k_s and composite_mean none.
    if "D_s" not in (basis_a, basis_b):
        config = replace(config, method="none")
    elif config.method == "both":
        config = replace(config, method="spectral")
    results = [compute_year(p, config, lambda m: print(f"warning: {m}",
                                                       file=sys.stderr))
               for p in panels]
    first, last = results[0], results[-1]

    if first is last:
        pairs = [(e, e) for e in first.panel.entities]
    else:
        emap = load_entity_map(config, first.panel.year, last.panel.year)
        alignment = analytics.align_rosters(first.panel.entities,
                                            last.panel.entities, emap)
        moved = [link for link in alignment.links
                 if link.kind not in ("unchanged", "renamed")]
        if moved or alignment.retired:
            raise InputError(
                f"rosters of {first.panel.year} and {last.panel.year} do not "
                "correspond one-to-one; provide --entity-map rename rules")
        pairs = [(link.parents[0], link.entity) for link in alignment.links]

    values_a = dict(zip(first.panel.entities, _basis_values(first, basis_a)))
    values_b = dict(zip(last.panel.entities, _basis_values(last, basis_b)))
    pairs.sort(key=lambda p: p[0])
    rho = analytics.spearman([values_a[a] for a, _ in pairs],
                             [values_b[b] for _, b in pairs])

    table_a = analytics.rank_entities([a for a, _ in pairs],
                                      [values_a[a] for a, _ in pairs],
                                      basis_a, first.panel.year)
    table_b = analytics.rank_entities([b for _, b in pairs],
                                      [values_b[b] for _, b in pairs],
                                      basis_b, last.panel.year)
    rank_b = table_b.rank_of()
    score_b = table_b.score_of()
    partner = dict(pairs)
    partners = [partner[entity] for entity in table_a.entities]
    side_by_side = report.TableData(
        ("entity", f"score_{basis_a}", f"rank_{basis_a}",
         f"score_{basis_b}", f"rank_{basis_b}"),
        (table_a.entities, table_a.scores, range(1, len(pairs) + 1),
         [score_b[b] for b in partners], [rank_b[b] for b in partners]))

    text = report.emit_table(side_by_side)
    print(f"spearman rho ({basis_a} vs {basis_b}) = {rho:.6f}")
    print(text, end="")
    if config.out_dir is not None:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        name = (f"compare_{basis_a}_vs_{basis_b}_"
                f"{_safe_label(first.panel.year)}"
                + ("" if first is last else f"_{_safe_label(last.panel.year)}")
                + ".csv")
        path = config.out_dir / name
        path.write_text(text, encoding="utf-8", newline="\n")
        print(path)
    return 0


def cmd_validate(config: RunConfig) -> int:
    """Print findings for every panel; exit 1 only if any error."""
    failed = False
    for kind, year, path in config.inputs:
        try:
            panel = load_input(kind, year, path)
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
