from pathlib import Path

import numpy as np
import pytest

from panelrank import (align_rosters, degree_index, emit_bipartite,
                       emit_grouped_bars, emit_heatmap, emit_rank_bump,
                       emit_weight_bars, emit_weighted_lines, make_panel,
                       rank_entities, rank_evolution, tertile_groups,
                       weighted_performance, weights_evolution)

DATA_DIR = Path(__file__).resolve().parents[1] / "data" / "synthetic"


@pytest.fixture
def worked_3x2():
    """Three entities, two categories, fully symmetric under row/col swap."""
    return make_panel("2024", ["a", "b", "c"], ["g1", "g2"],
                      np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))


@pytest.fixture
def worked_2x2():
    """Two entities, two categories, one structural zero."""
    return make_panel("2024", ["a", "b"], ["g1", "g2"],
                      np.array([[1.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def near_block():
    """Two 6x4 communities of independent scores linked only by 1e-3 cells.

    The top two eigenvalues of ``N N^T`` are 0.4% apart, too close for
    1000 power-iteration steps to reach 1e-10. The fixed-point iteration
    does not converge on it either.
    """
    rng = np.random.default_rng(0)
    scores = np.full((12, 8), 1e-3)
    scores[:6, :4] = rng.uniform(10, 90, size=(6, 4))
    scores[6:, 4:] = rng.uniform(10, 90, size=(6, 4))
    return make_panel("2024", [f"e{i:02d}" for i in range(12)],
                      [f"c{j:02d}" for j in range(8)], scores)


def structural_zeros_panel(zeroed: int):
    """300 x 17 panel from a fixed formula whose first ``zeroed`` entities
    score 0 in the last 7 categories.

    Scaling it to uniform marginals needs those entities' 10 categories
    to carry their share, 17 * zeroed <= 300 * 10, so a positive fixed
    point can exist only for zeroed <= 176. Close to that boundary the
    fixed point is reached ever more slowly.
    """
    row, col = np.arange(300)[:, None], np.arange(17)
    scores = 10.0 + (row * 37 + col * 11) % 81
    scores[:zeroed, 10:] = 0.0
    return make_panel("2024", [f"e{i:03d}" for i in range(300)],
                      [f"c{j:02d}" for j in range(17)], scores)


@pytest.fixture
def structural_zeros():
    """The 300 x 17 formula panel with its first 200 entities zeroed in
    the last 7 categories.

    No positive fixed point exists: the fitness of those entities flows
    to zero, and from step 2081 the update is no longer finite and
    positive.
    """
    return structural_zeros_panel(200)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def random_panel(rng: np.random.Generator, n_entities: int, n_categories: int,
                 low: float = 1.0, high: float = 100.0, year: str = "y"):
    """Strictly positive random panel with labeled rows and columns."""
    scores = rng.uniform(low, high, size=(n_entities, n_categories))
    return make_panel(year, [f"e{i:02d}" for i in range(n_entities)],
                      [f"c{j:02d}" for j in range(n_categories)], scores)


def formula_panel(n_entities: int, n_categories: int, year: str = "y"):
    """Panel of integer scores from a fixed formula, with about 5% of its
    cells missing; the same on every numpy version."""
    row, col = np.arange(n_entities)[:, None], np.arange(n_categories)
    return make_panel(year, [f"e{i:04d}" for i in range(n_entities)],
                      [f"c{j:02d}" for j in range(n_categories)],
                      ((row * 37 + col * 11) % 101).astype(float),
                      (row * 13 + col * 7) % 20 == 0)


def aligned(tables, maps=None):
    """The alignments ``rank_evolution`` takes: ``align_rosters`` of each
    consecutive pair of tables, under ``maps[i]`` or by identity."""
    maps = maps or [None] * (len(tables) - 1)
    return [align_rosters(a.entities, b.entities, emap)
            for a, b, emap in zip(tables, tables[1:], maps)]


def all_charts(panel, weights, title: str = "") -> dict[str, str]:
    """The six charts of one panel, by kind: the bipartite chart covers
    every entity and the groups come from the k_s ranking."""
    table = rank_entities(panel.entities, degree_index(panel).totals,
                          "k_s", panel.year)
    performance = weighted_performance(panel, weights)
    return {
        "heatmap": emit_heatmap(panel, title),
        "bipartite": emit_bipartite(panel, panel.entities),
        "weight_bars": emit_weight_bars(weights),
        "weighted_lines": emit_weighted_lines(
            performance, tertile_groups(table, panel, performance), panel.entities),
        "rank_bump": emit_rank_bump(rank_evolution([table], aligned([table]))),
        "grouped_bars": emit_grouped_bars(weights_evolution([weights])),
    }
