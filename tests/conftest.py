from pathlib import Path

import numpy as np
import pytest

from panelrank import (ChartSpec, degree_index, emit_bipartite,
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


@pytest.fixture
def structural_zeros():
    """300 x 17 panel whose first 200 entities score 0 in the last 7
    categories, built from a fixed formula.

    Scaling it to uniform marginals needs 17 * 200 <= 300 * 10, which
    fails, so no positive fixed point exists: the fitness of those
    entities flows to zero, and from step 4162 the update is no longer
    finite and positive.
    """
    row, col = np.arange(300)[:, None], np.arange(17)
    scores = 10.0 + (row * 37 + col * 11) % 81
    scores[:200, 10:] = 0.0
    return make_panel("2024", [f"e{i:03d}" for i in range(300)],
                      [f"c{j:02d}" for j in range(17)], scores)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


def random_panel(rng: np.random.Generator, n_entities: int, n_categories: int,
                 low: float = 1.0, high: float = 100.0, year: str = "y"):
    """Strictly positive random panel with labeled rows and columns."""
    scores = rng.uniform(low, high, size=(n_entities, n_categories))
    return make_panel(year, [f"e{i:02d}" for i in range(n_entities)],
                      [f"c{j:02d}" for j in range(n_categories)], scores)


def all_charts(panel, weights, title: str = "") -> dict[str, str]:
    """The six charts of one panel, by kind: the bipartite chart covers
    every entity and the groups come from the k_s ranking."""
    table = rank_entities(panel.entities, degree_index(panel).totals,
                          "k_s", panel.year)
    return {
        "heatmap": emit_heatmap(panel, ChartSpec("heatmap", title=title)),
        "bipartite": emit_bipartite(panel, panel.entities,
                                    ChartSpec("bipartite")),
        "weight_bars": emit_weight_bars(weights, ChartSpec("weight_bars")),
        "weighted_lines": emit_weighted_lines(
            weighted_performance(panel, weights),
            tertile_groups(table, panel, weights), panel.entities,
            ChartSpec("weighted_lines")),
        "rank_bump": emit_rank_bump(rank_evolution([table]),
                                    ChartSpec("rank_bump")),
        "grouped_bars": emit_grouped_bars(weights_evolution([weights]),
                                          ChartSpec("grouped_bars")),
    }
