import numpy as np
import pytest

from panelrank import (EntityMap, GoalWeights, InputError, RankTable,
                       adjusted_ubiquity, degree_index, genepy_scores,
                       goal_weights, make_panel, rank_correlation,
                       rank_entities, rank_evolution, spearman,
                       tertile_groups, weighted_performance,
                       weights_evolution)
from panelrank.analytics import tertile_sizes

from conftest import random_panel
from oracles import spearman_no_ties


def weights_for(categories, values, year="y"):
    return GoalWeights(year, tuple(categories), np.asarray(values, dtype=float))


class TestGoalWeights:
    def test_worked_3x2(self, worked_3x2):
        scores = genepy_scores(worked_3x2)
        ubiq = adjusted_ubiquity(worked_3x2, degree_index(worked_3x2))
        weights = goal_weights(scores, ubiq)
        assert np.allclose(weights.values, [2 / 3, 2 / 3], atol=1e-9)

    def test_worked_2x2(self, worked_2x2):
        scores = genepy_scores(worked_2x2)
        ubiq = adjusted_ubiquity(worked_2x2, degree_index(worked_2x2))
        weights = goal_weights(scores, ubiq)
        # C is uniform (1, 1) because V's principal eigenvector is uniform
        # only for this panel's category structure; check the quotient rule
        assert np.allclose(weights.values,
                           scores.category_scores / ubiq.values, atol=1e-15)

    def test_scaling_linearity(self, worked_3x2):
        scores = genepy_scores(worked_3x2)
        ubiq = adjusted_ubiquity(worked_3x2, degree_index(worked_3x2))
        base = goal_weights(scores, ubiq)
        scaled_scores = type(scores)(
            scores.year, scores.entities, scores.categories,
            scores.entity_scores, scores.category_scores * 3.0,
            scores.method)
        scaled = goal_weights(scaled_scores, ubiq)
        assert np.allclose(scaled.values, base.values * 3.0, atol=1e-12)


class TestWeightedPerformance:
    def test_hand_product(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[50.0, 10.0], [20.0, 30.0]]))
        result = weighted_performance(panel, weights_for(["c1", "c2"], [2 / 3, 1.0]))
        assert result[0, 0] == pytest.approx(33.333333333333336, abs=1e-12)

    def test_unit_weights_identity(self):
        rng = np.random.default_rng(21)
        panel = random_panel(rng, 6, 4)
        result = weighted_performance(
            panel, weights_for(panel.categories, np.ones(4)))
        assert np.array_equal(result, panel.scores)

    def test_missing_stays_missing(self):
        scores = np.array([[50.0, 0.0], [20.0, 30.0]])
        mask = np.array([[False, True], [False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        result = weighted_performance(panel, weights_for(["c1", "c2"], [1.0, 1.0]))
        assert np.isnan(result[0, 1])
        assert result[1, 1] == 30.0

    def test_roster_mismatch(self, worked_3x2):
        with pytest.raises(InputError, match="rosters"):
            weighted_performance(worked_3x2, weights_for(["other", "g2"], [1, 1]))


class TestRankEntities:
    def test_worked_2x2_scores(self):
        table = rank_entities(["a", "b"], [1.5352, 0.4648], "D_s", "2024")
        assert table.rank_of() == {"a": 1, "b": 2}

    def test_tie_broken_lexicographically_and_flagged(self):
        table = rank_entities(["zed", "ann", "mid"], [5.0, 5.0, 7.0], "k_s", "y")
        assert table.rank_of() == {"mid": 1, "ann": 2, "zed": 3}
        assert list(table.tied) == [False, True, True]

    def test_full_permutation(self):
        rng = np.random.default_rng(22)
        values = rng.uniform(0, 100, size=36)
        table = rank_entities([f"e{i:02d}" for i in range(36)], values,
                              "k_s", "2024")
        assert sorted(table.rank_of().values()) == list(range(1, 37))

    def test_deterministic(self):
        rng = np.random.default_rng(23)
        values = rng.uniform(0, 100, size=12)
        entities = [f"e{i}" for i in range(12)]
        a = rank_entities(entities, values, "k_s", "y")
        b = rank_entities(entities, values, "k_s", "y")
        assert a == b

    def test_non_finite_rejected(self):
        with pytest.raises(InputError, match="finite"):
            rank_entities(["a", "b"], [1.0, float("nan")], "k_s", "y")


class TestRankCorrelation:
    def test_identical_tables(self):
        table = rank_entities(["a", "b", "c"], [3.0, 2.0, 1.0], "k_s", "y")
        assert rank_correlation(table, table) == pytest.approx(1.0)

    def test_reversed_tables(self):
        entities = ["a", "b", "c", "d"]
        up = rank_entities(entities, [1.0, 2.0, 3.0, 4.0], "k_s", "y")
        down = rank_entities(entities, [4.0, 3.0, 2.0, 1.0], "D_s", "y")
        assert rank_correlation(up, down) == pytest.approx(-1.0)

    def test_textbook_example(self):
        # ranks a=(1,2,3,4) vs b=(2,1,4,3): rho = 1 - 6*4/(4*15) = 0.6
        entities = ["p", "q", "r", "s"]
        a = rank_entities(entities, [4.0, 3.0, 2.0, 1.0], "k_s", "y")
        b = rank_entities(entities, [3.0, 4.0, 1.0, 2.0], "D_s", "y")
        expected = spearman_no_ties([1, 2, 3, 4], [2, 1, 4, 3])
        assert expected == pytest.approx(0.6)
        assert rank_correlation(a, b) == pytest.approx(expected)

    def test_matches_textbook_on_random_tie_free(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            entities = [f"e{i:02d}" for i in range(n)]
            va = rng.permutation(n).astype(float)
            vb = rng.permutation(n).astype(float)
            a = rank_entities(entities, va, "k_s", "y")
            b = rank_entities(entities, vb, "D_s", "y")
            ranks_a = [a.rank_of()[e] for e in entities]
            ranks_b = [b.rank_of()[e] for e in entities]
            assert rank_correlation(a, b) == pytest.approx(
                spearman_no_ties(ranks_a, ranks_b), abs=1e-12)

    def test_average_rank_tie_handling(self):
        # values (10, 10, 5) get average ranks (1.5, 1.5, 3); correlating
        # against (3, 2, 1) -> rho computed on average ranks
        rho = spearman([10.0, 10.0, 5.0], [3.0, 2.0, 1.0])
        # hand Pearson on ranks (1.5, 1.5, 3) vs (1, 2, 3): centered
        # a = (-0.5, -0.5, 1), b = (-1, 0, 1); rho = 1.5 / sqrt(1.5 * 2)
        assert rho == pytest.approx(1.5 / np.sqrt(3.0), abs=1e-12)

    @pytest.mark.parametrize("a, b", [
        ([float("nan")] * 3, [1.0, 2.0, 3.0]),
        ([1.0, float("nan"), 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
        ([1.0, 2.0, 3.0], [1.0, float("inf"), 3.0]),
        ([1.0, 2.0, 3.0], [float("-inf"), 2.0, 3.0]),
    ])
    def test_non_finite_rejected(self, a, b):
        # a NaN has no rank; before this check, the first two gave 1.0, 0.4
        with pytest.raises(InputError, match="finite"):
            spearman(a, b)

    def test_entity_set_mismatch(self):
        a = rank_entities(["a", "b"], [1.0, 2.0], "k_s", "y")
        b = rank_entities(["a", "c"], [1.0, 2.0], "k_s", "y")
        with pytest.raises(InputError, match="entity sets"):
            rank_correlation(a, b)


class TestTertileGroups:
    def test_sizes(self):
        assert tertile_sizes(36) == (12, 12, 12)
        assert tertile_sizes(4) == (2, 1, 1)
        assert tertile_sizes(5) == (2, 2, 1)
        assert tertile_sizes(3) == (1, 1, 1)

    def test_partition(self):
        rng = np.random.default_rng(25)
        panel = random_panel(rng, 11, 5)
        deg = degree_index(panel)
        table = rank_entities(panel.entities, deg.totals, "k_s", panel.year)
        profile = tertile_groups(table, panel,
                                 weights_for(panel.categories, np.ones(5)))
        members = [e for group in profile.groups for e in group]
        assert sorted(members) == sorted(panel.entities)
        assert [len(g) for g in profile.groups] == [4, 4, 3]
        assert profile.groups[0] == table.entities[:4]

    def test_identical_performance_identical_curves(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.array([[50.0, 60.0]] * 3))
        table = rank_entities(panel.entities, [3.0, 2.0, 1.0], "k_s", "y")
        profile = tertile_groups(table, panel,
                                 weights_for(panel.categories, [1.0, 1.0]))
        for g in range(3):
            assert np.allclose(profile.group_curves[g], [50.0, 60.0])
        assert np.allclose(profile.national_curve, [50.0, 60.0])

    def test_too_few_entities(self, worked_2x2):
        table = rank_entities(worked_2x2.entities, [2.0, 1.0], "k_s", "y")
        with pytest.raises(InputError, match="at least 3"):
            tertile_groups(table, worked_2x2,
                           weights_for(worked_2x2.categories, [1.0, 1.0]))


class TestRankEvolution:
    def tables(self, *rosters_and_values):
        out = []
        for year, entities, values in rosters_and_values:
            out.append(rank_entities(entities, values, "k_s", year))
        return out

    def test_single_year(self):
        series = rank_evolution(self.tables(("2018", ["a", "b"], [2.0, 1.0])))
        assert series.years == ("2018",)
        assert [t.ranks for t in series.trajectories] == [(1,), (2,)]

    def test_full_presence(self):
        tables = self.tables(
            ("2018", ["a", "b"], [2.0, 1.0]),
            ("2019", ["a", "b"], [1.0, 2.0]),
            ("2020", ["a", "b"], [2.0, 1.0]),
            ("2024", ["a", "b"], [1.0, 2.0]))
        series = rank_evolution(tables, [None, None, None])
        by_entity = {t.entity: t for t in series.trajectories}
        assert by_entity["a"].ranks == (1, 2, 1, 2)
        assert by_entity["b"].ranks == (2, 1, 2, 1)
        assert by_entity["a"].lineage == "own"

    def test_split_children_inherit_parent_prefix(self):
        emap = EntityMap.from_json(
            '{"splits": [{"from": ["AP"], "to": ["AP", "TG"]}]}')
        tables = self.tables(
            ("2019", ["AP", "x"], [2.0, 1.0]),
            ("2020", ["AP", "TG", "x"], [3.0, 2.0, 1.0]))
        series = rank_evolution(tables, [emap])
        by_entity = {t.entity: t for t in series.trajectories}
        assert by_entity["TG"].ranks == (1, 2)
        assert by_entity["TG"].lineage == "split-derived"
        assert by_entity["AP"].ranks == (1, 1)
        assert by_entity["AP"].lineage == "split-derived"

    def test_merged_starts_fresh(self):
        emap = EntityMap.from_json(
            '{"merges": [{"from": ["DN", "DD"], "to": ["DNDD"]}]}')
        tables = self.tables(
            ("2019", ["DN", "DD", "x"], [3.0, 2.0, 1.0]),
            ("2020", ["DNDD", "x"], [2.0, 1.0]))
        series = rank_evolution(tables, [emap])
        by_entity = {t.entity: t for t in series.trajectories}
        assert by_entity["DNDD"].ranks == (None, 1)
        assert by_entity["DNDD"].lineage == "merged"

    def test_entity_year_pairs_unique(self):
        tables = self.tables(
            ("2018", ["a", "b"], [2.0, 1.0]),
            ("2019", ["a", "b"], [1.0, 2.0]))
        series = rank_evolution(tables)
        seen = set()
        for trajectory in series.trajectories:
            for year, rank in zip(series.years, trajectory.ranks):
                if rank is not None:
                    assert (trajectory.entity, year) not in seen
                    seen.add((trajectory.entity, year))

    def test_rank_lookup_built_once_per_table(self, monkeypatch):
        calls = []
        rank_of = RankTable.rank_of

        def counted(table):
            calls.append(table.year)
            return rank_of(table)

        monkeypatch.setattr(RankTable, "rank_of", counted)
        entities = [f"e{i:02d}" for i in range(20)]
        tables = self.tables(*((year, entities, np.arange(20.0))
                               for year in ("2018", "2019", "2020")))
        series = rank_evolution(tables)
        assert sorted(calls) == ["2018", "2019", "2020"]
        assert series.trajectories[0].ranks == (1, 1, 1)

    def test_map_count_mismatch(self):
        tables = self.tables(("2018", ["a", "b"], [2.0, 1.0]))
        with pytest.raises(InputError, match="entity maps"):
            rank_evolution(tables, [EntityMap()])


class TestWeightsEvolution:
    def test_gap_for_absent_categories(self):
        early = weights_for(["g1", "g2"], [1.0, 2.0], year="2018")
        late = weights_for(["g1", "g2", "g3"], [1.0, 2.0, 3.0], year="2019")
        evolution = weights_evolution([early, late])
        assert evolution.years == ("2018", "2019")
        assert evolution.categories == ("g1", "g2", "g3")
        assert np.isnan(evolution.values[2, 0])
        assert evolution.values[2, 1] == 3.0

    def test_single_year(self):
        evolution = weights_evolution([weights_for(["g1"], [1.0], year="2020")])
        assert evolution.values.shape == (1, 1)

    def test_category_present_all_years(self):
        series = [weights_for(["g1"], [float(i + 1)], year=str(2018 + i))
                  for i in range(4)]
        evolution = weights_evolution(series)
        assert evolution.values.shape == (1, 4)
        assert not np.isnan(evolution.values).any()

    def test_argmax_invariance_under_scaling(self):
        values = np.array([0.5, 2.0, 1.0])
        base = weights_for(["a", "b", "c"], values)
        scaled = weights_for(["a", "b", "c"], values * 7.0)
        order_base = np.argsort(-base.values)
        order_scaled = np.argsort(-scaled.values)
        assert np.array_equal(order_base, order_scaled)
