"""Complexity-based rankings from weighted bipartite score panels.

The package turns entity-by-category score matrices (e.g. regional scores
on development goals) into entity rankings and category importance
weights, via two routes: principal eigenvectors of the derived similarity
matrices, and the nonlinear fitness-complexity fixed point. On top of the
kernel sit panel ingestion/alignment, ranking analytics, and deterministic
CSV/SVG reporting.
"""

from .analytics import (GoalWeights, GroupProfile, RankSeries, RankTable,
                        RankTrajectory, WeightsEvolution, goal_weights,
                        rank_entities, rank_evolution, spearman,
                        tertile_groups, weighted_performance,
                        weights_evolution)
from .core import (AdjustedUbiquity, ComplexityScores, DegreeIndex,
                   IterationTrace, Prepared, ProximityMatrix,
                   SimilarityPair, adjusted_ubiquity, degree_index,
                   genepy_scores, prepare, principal_eigenvector, proximity,
                   run_fitness, similarity)
from .errors import (DegeneratePanelError, InputError, NonConvergenceError,
                     PanelRankError)
from .panel import (Alignment, EntityMap, Finding, IndicatorTable, Lineage,
                    MapRule, ScorePanel, aggregate_indicators, align_rosters,
                    make_panel, parse_indicator_csv, parse_panel,
                    validate_panel)
from .report import (emit_bipartite, emit_grouped_bars, emit_heatmap,
                     emit_rank_bump, emit_table, emit_weight_bars,
                     emit_weighted_lines, ramp_color)

__version__ = "0.1.0"

__all__ = [
    "AdjustedUbiquity", "Alignment", "ComplexityScores",
    "DegeneratePanelError", "DegreeIndex", "EntityMap", "Finding",
    "GoalWeights", "GroupProfile", "IndicatorTable", "InputError",
    "IterationTrace", "Lineage", "MapRule", "NonConvergenceError",
    "PanelRankError", "Prepared", "ProximityMatrix", "RankSeries",
    "RankTable", "RankTrajectory", "ScorePanel", "SimilarityPair",
    "WeightsEvolution",
    "adjusted_ubiquity", "aggregate_indicators", "align_rosters",
    "degree_index", "emit_bipartite", "emit_grouped_bars", "emit_heatmap",
    "emit_rank_bump", "emit_table", "emit_weight_bars",
    "emit_weighted_lines", "genepy_scores", "goal_weights",
    "make_panel", "parse_indicator_csv", "parse_panel", "prepare",
    "principal_eigenvector", "proximity", "ramp_color", "rank_entities",
    "rank_evolution", "run_fitness", "similarity", "spearman",
    "tertile_groups", "validate_panel", "weighted_performance",
    "weights_evolution",
]
