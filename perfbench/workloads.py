"""Seeded inputs and CLI flags for each benchmark workload.

A workload is a set of input files plus the ``panelrank compute`` flags
that run them. ``build`` writes the inputs for one (workload, seed) pair
into a directory of the caller's choosing and returns a ``Plan`` that
both the runner and the output checker read. The same seed gives
byte-identical files; different workloads draw from independent streams.

``scale`` shrinks the roster sizes (never below 12 entities) so the
self-test can exercise every workload in a second; benchmark runs use 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("fixture", "roster-charts", "roster-solve", "indicators")

PER_YEAR_TABLES = ("scores_entities", "scores_categories", "ranks_k_s",
                   "ranks_composite_mean", "ranks_D_s", "ranks_D_s_iterative")
PER_YEAR_CHARTS = ("heatmap", "bipartite", "weight_bars", "weighted_lines")
RUN_CHARTS = ("rank_bump_k_s.svg", "rank_bump_D_s.svg",
              "grouped_bars_weights.svg")

FIXTURE_YEARS = ("2018", "2019", "2020", "2024")
CATEGORIES = tuple(f"goal{j:02d}" for j in range(1, 18))


@dataclass
class Plan:
    """Inputs of one workload and what a correct run of it writes.

    ``wide`` maps each year to its wide-form panel CSV, ``long`` to its
    long-form indicator CSV; a year appears in exactly one of them.
    ``args`` are the ``compute`` flags without ``--out``.
    """

    workload: str
    years: tuple[str, ...]
    args: list[str]
    charts: bool
    wide: dict[str, Path] = field(default_factory=dict)
    long: dict[str, Path] = field(default_factory=dict)

    def expected_files(self) -> set[str]:
        names = {f"{table}_{year}.csv"
                 for year in self.years for table in PER_YEAR_TABLES}
        names.add("method_agreement.csv")
        if self.charts:
            names |= {f"{chart}_{year}.svg"
                      for year in self.years for chart in PER_YEAR_CHARTS}
            names |= set(RUN_CHARTS)
        return names


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([NAMES.index(workload), seed])


def _size(count: int, scale: float) -> int:
    return max(12, round(count * scale))


def _exact_mask(rng: np.random.Generator, shape: tuple[int, int],
                fraction: float) -> np.ndarray:
    """Exactly round(fraction * cells) cells set, at seeded positions.

    A fixed count keeps every container the CLI builds the same size for
    every seed, so peak memory does not jump across growth thresholds.
    """
    mask = np.zeros(shape[0] * shape[1], dtype=bool)
    mask[rng.choice(mask.size, round(fraction * mask.size), replace=False)] = True
    return mask.reshape(shape)


def _keep_rows_and_columns(missing: np.ndarray) -> np.ndarray:
    """Clear enough of the mask that no row or column is all missing."""
    missing = missing.copy()
    missing[missing.all(axis=1), 0] = False
    missing[0, missing.all(axis=0)] = False
    return missing


def _wide_csv(path: Path, entities, scores: np.ndarray,
              missing: np.ndarray) -> None:
    lines = ["entity," + ",".join(CATEGORIES)]
    for entity, row, gaps in zip(entities, scores.tolist(), missing.tolist()):
        cells = ("" if gap else f"{value:.1f}" for value, gap in zip(row, gaps))
        lines.append(entity + "," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fixture(root: Path, work: Path, seed: int, scale: float) -> Plan:
    """The bundled dataset; seed and scale do not apply."""
    data = root / "data" / "synthetic"
    args = [arg for year in FIXTURE_YEARS
            for arg in ("--panel", f"{year}={data / f'panel_{year}.csv'}")]
    args += ["--entity-map", f"2019->2020={data / 'map_2019_2020.json'}",
             "--method", "both", "--charts", "all"]
    return Plan("fixture", FIXTURE_YEARS, args, charts=True,
                wide={year: data / f"panel_{year}.csv" for year in FIXTURE_YEARS})


def _roster_charts(root: Path, work: Path, seed: int, scale: float) -> Plan:
    """600 x 17 over 4 years; one split and one merge between years 2 and 3."""
    rng = _rng("roster-charts", seed)
    n = _size(600, scale)
    years = ("2017", "2018", "2019", "2020")
    early = [f"E{i:05d}" for i in range(n)]
    parent, merged_a, merged_b = (early[i] for i in rng.choice(n, 3, replace=False))
    child, merged = parent + "s", merged_a + "_" + merged_b
    late = [e for e in early if e not in (merged_a, merged_b)] + [child, merged]
    emap = {"renames": [],
            "splits": [{"from": [parent], "to": [parent, child]}],
            "merges": [{"from": [merged_a, merged_b], "to": [merged]}]}
    map_path = work / "map_2018_2019.json"
    map_path.write_text(json.dumps(emap, indent=2) + "\n", encoding="utf-8")

    plan = Plan("roster-charts", years, [], charts=True)
    level = rng.uniform(35.0, 85.0, size=len(late))
    for t, year in enumerate(years):
        roster = early if t < 2 else late
        shape = (len(roster), len(CATEGORIES))
        scores = np.clip(level[:len(roster), None] + rng.normal(0.0, 12.0, shape),
                         0.0, 100.0)
        missing = _keep_rows_and_columns(_exact_mask(rng, shape, 0.02))
        path = work / f"panel_{year}.csv"
        _wide_csv(path, roster, scores, missing)
        plan.wide[year] = path
        plan.args += ["--panel", f"{year}={path}"]
    plan.args += ["--entity-map", f"2018->2019={map_path}",
                  "--method", "both", "--charts", "all"]
    return plan


def _roster_solve(root: Path, work: Path, seed: int, scale: float) -> Plan:
    """3,000 x 17 over 2 years in 4 specialisation communities."""
    rng = _rng("roster-solve", seed)
    n = _size(3000, scale)
    years = ("2023", "2024")
    entities = [f"R{i:05d}" for i in range(n)]
    community = rng.permutation(np.arange(n) % 4)
    block = np.concatenate([np.full(len(b), k) for k, b in
                            enumerate(np.array_split(np.arange(len(CATEGORIES)), 4))])
    affinity = np.where(community[:, None] == block[None, :], 1.0, 0.3)

    plan = Plan("roster-solve", years, [], charts=False)
    shape = (n, len(CATEGORIES))
    for year in years:
        scores = rng.uniform(25.0, 95.0, shape) * affinity
        scores[_exact_mask(rng, shape, 0.05)] = 0.0
        missing = _keep_rows_and_columns(_exact_mask(rng, shape, 0.02))
        # every entity keeps one positive score in its own block
        own = np.argmax(block[None, :] == community[:, None], axis=1)
        dead = (np.where(missing, 0.0, scores) == 0.0).all(axis=1)
        scores[dead, own[dead]] = 50.0
        missing[dead, own[dead]] = False
        path = work / f"panel_{year}.csv"
        _wide_csv(path, entities, scores, missing)
        plan.wide[year] = path
        plan.args += ["--panel", f"{year}={path}"]
    plan.args += ["--method", "both", "--charts", "none"]
    return plan


def _indicators(root: Path, work: Path, seed: int, scale: float) -> Plan:
    """Long form: 400 x 17 cells x 3 indicators, 3% of cells absent, 2 years."""
    rng = _rng("indicators", seed)
    n = _size(400, scale)
    years = ("2021", "2022")
    entities = [f"I{i:05d}" for i in range(n)]
    plan = Plan("indicators", years, [], charts=False)
    shape = (n, len(CATEGORIES))
    for year in years:
        absent = _keep_rows_and_columns(_exact_mask(rng, shape, 0.03))
        values = rng.uniform(1.0, 100.0, size=(*shape, 3)).round(1)
        lines = ["entity,category,indicator,value"]
        for i, entity in enumerate(entities):
            for j, category in enumerate(CATEGORIES):
                if not absent[i, j]:
                    lines.extend(f"{entity},{category},ind{k + 1},{v:.1f}"
                                 for k, v in enumerate(values[i, j].tolist()))
        path = work / f"indicators_{year}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plan.long[year] = path
        plan.args += ["--indicators", f"{year}={path}"]
    plan.args += ["--method", "both", "--charts", "none"]
    return plan


BUILDERS = {"fixture": _fixture, "roster-charts": _roster_charts,
            "roster-solve": _roster_solve, "indicators": _indicators}


def build(workload: str, root: Path, work: Path, seed: int,
          scale: float = 1.0) -> Plan:
    """Write the inputs of ``workload`` for ``seed`` under ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](root, work, seed, scale)
