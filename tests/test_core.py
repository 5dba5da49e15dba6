import warnings

import numpy as np
import pytest

from panelrank import (DegeneratePanelError, adjusted_ubiquity, degree_index,
                       fitness_step, genepy_scores, make_panel,
                       principal_eigenvector, proximity, run_fitness,
                       similarity)

from conftest import random_panel
from oracles import (direction_gap, jacobi_principal_eigenpair,
                     principal_eigenpair_2x2)

# Hand-computed reference values for the two worked panels.
N_3X2 = np.array([[2 / 3, 0.0], [1 / 3, 1 / 3], [0.0, 2 / 3]])
U_3X2 = np.array([[4 / 9, 2 / 9, 0.0], [2 / 9, 2 / 9, 2 / 9], [0.0, 2 / 9, 4 / 9]])
V_3X2 = np.array([[5 / 9, 1 / 9], [1 / 9, 5 / 9]])
N_2X2 = np.array([[1 / 3, 1.0], [2 / 3, 0.0]])
U_2X2 = np.array([[10 / 9, 2 / 9], [2 / 9, 4 / 9]])


def pipeline(panel):
    deg = degree_index(panel)
    ubiq = adjusted_ubiquity(panel, deg)
    return deg, ubiq, proximity(panel, deg, ubiq)


class TestDegreeIndex:
    def test_row_sums(self, worked_3x2):
        deg = degree_index(worked_3x2)
        assert np.array_equal(deg.totals, [2.0, 2.0, 2.0])

    def test_uniform_composite(self):
        panel = make_panel("y", [f"e{i}" for i in range(4)],
                           [f"c{j}" for j in range(15)],
                           np.full((4, 15), 100.0))
        deg = degree_index(panel)
        assert np.array_equal(deg.composite_means, np.full(4, 100.0))

    def test_composite_skips_missing(self):
        scores = np.array([[80.0, 0.0, 40.0], [50.0, 50.0, 50.0]])
        mask = np.array([[False, True, False], [False, False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2", "c3"], scores, mask)
        deg = degree_index(panel)
        assert deg.applicable_counts[0] == 2
        assert deg.composite_means[0] == 60.0

    def test_zero_row_raises_with_name(self):
        panel = make_panel("y", ["a", "b"], ["c1", "c2"],
                           np.array([[0.0, 0.0], [1.0, 2.0]]))
        with pytest.raises(DegeneratePanelError, match="'?a'?"):
            degree_index(panel)


class TestAdjustedUbiquity:
    def test_worked_3x2(self, worked_3x2):
        deg, ubiq, _ = pipeline(worked_3x2)
        assert np.allclose(ubiq.values, [1.5, 1.5], atol=1e-15)

    def test_worked_2x2(self, worked_2x2):
        deg = degree_index(worked_2x2)
        ubiq = adjusted_ubiquity(worked_2x2, deg)
        assert np.allclose(ubiq.values, [1.5, 0.5], atol=1e-15)

    def test_uniform_symmetry(self):
        rng = np.random.default_rng(0)
        n, m = 9, 4
        panel = make_panel("y", [f"e{i}" for i in range(n)],
                           [f"c{j}" for j in range(m)], np.full((n, m), 42.0))
        ubiq = adjusted_ubiquity(panel, degree_index(panel))
        assert np.allclose(ubiq.values, np.full(m, n / m), atol=1e-12)

    def test_zero_column_raises(self):
        scores = np.array([[1.0, 0.0], [2.0, 0.0]])
        mask = np.array([[False, True], [False, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        with pytest.raises(DegeneratePanelError, match="c2"):
            adjusted_ubiquity(panel, degree_index(panel))


class TestProximity:
    def test_worked_3x2(self, worked_3x2):
        _, _, prox = pipeline(worked_3x2)
        assert np.allclose(prox.values, N_3X2, atol=1e-15)

    def test_worked_2x2(self, worked_2x2):
        _, _, prox = pipeline(worked_2x2)
        assert np.allclose(prox.values, N_2X2, atol=1e-15)

    def test_dyadic_rescale_bit_identical(self):
        rng = np.random.default_rng(5)
        panel = random_panel(rng, 7, 5)
        scaled = make_panel(panel.year, panel.entities, panel.categories,
                            panel.scores * 0.5)
        _, _, prox = pipeline(panel)
        _, _, prox_scaled = pipeline(scaled)
        assert np.array_equal(prox.values, prox_scaled.values)

    def test_general_rescale_close(self):
        rng = np.random.default_rng(6)
        panel = random_panel(rng, 7, 5)
        scaled = make_panel(panel.year, panel.entities, panel.categories,
                            panel.scores * 0.37)
        _, _, prox = pipeline(panel)
        _, _, prox_scaled = pipeline(scaled)
        assert np.allclose(prox.values, prox_scaled.values, rtol=1e-12)

    def test_zeros_preserved(self, worked_2x2):
        _, _, prox = pipeline(worked_2x2)
        assert prox.values[1, 1] == 0.0


class TestSimilarity:
    def test_worked_products(self, worked_3x2):
        pair = similarity(pipeline(worked_3x2)[2])
        assert np.allclose(pair.entity_similarity, U_3X2, atol=1e-15)
        assert np.allclose(pair.category_similarity, V_3X2, atol=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            panel = random_panel(rng, int(rng.integers(2, 12)),
                                 int(rng.integers(2, 8)))
            pair = similarity(pipeline(panel)[2])
            assert np.array_equal(pair.entity_similarity,
                                  pair.entity_similarity.T)
            assert np.array_equal(pair.category_similarity,
                                  pair.category_similarity.T)

    def test_single_entry_rank_one(self):
        # one structural entry only -> both projections have a single
        # nonzero diagonal block
        scores = np.array([[5.0, 0.0], [0.0, 4.0]])
        mask = np.array([[False, True], [True, False]])
        panel = make_panel("y", ["a", "b"], ["c1", "c2"], scores, mask)
        pair = similarity(pipeline(panel)[2])
        assert pair.entity_similarity[0, 1] == 0.0
        assert pair.category_similarity[0, 1] == 0.0


class TestPrincipalEigenvector:
    def test_worked_3x2_eigenpair(self):
        lam, vec = principal_eigenvector(U_3X2)
        assert lam == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(vec, np.full(3, 1 / np.sqrt(3)), atol=1e-10)

    def test_2x2_matches_characteristic_polynomial(self):
        lam_oracle, vec_oracle = principal_eigenpair_2x2(U_2X2)
        lam, vec = principal_eigenvector(U_2X2)
        assert lam == pytest.approx(lam_oracle, abs=1e-10)
        assert direction_gap(vec, vec_oracle) < 1e-8
        # frozen closed-form values: lambda = (7 + sqrt(13)) / 9
        assert lam == pytest.approx(1.1783945861626654, abs=1e-12)
        assert np.allclose(vec, [0.9570920264890529, 0.2897841749575023],
                           atol=1e-8)

    def test_identity_returns_start_vector(self):
        lam, vec = principal_eigenvector(np.eye(3))
        assert lam == 1.0
        assert np.array_equal(vec, np.full(3, 1 / np.sqrt(3)))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all zero"):
            principal_eigenvector(np.zeros((3, 3)))

    def test_dominant_space_orthogonal_to_uniform_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            principal_eigenvector(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_small_matrices_match_jacobi(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            a = rng.uniform(0, 1, size=(n, n))
            m = (a + a.T) / 2
            lam_oracle, vec_oracle = jacobi_principal_eigenpair(m)
            lam, vec = principal_eigenvector(m)
            assert abs(lam - lam_oracle) <= 1e-8 * max(1.0, abs(lam_oracle))
            assert direction_gap(vec, vec_oracle) < 1e-6

    def test_perron_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            panel = random_panel(rng, int(rng.integers(2, 10)),
                                 int(rng.integers(2, 8)))
            pair = similarity(pipeline(panel)[2])
            _, vec = principal_eigenvector(pair.entity_similarity)
            assert (vec >= -1e-12).all()


class TestGenepyScores:
    def test_worked_3x2(self, worked_3x2):
        scores = genepy_scores(worked_3x2)
        assert np.allclose(scores.entity_scores, [1.0, 1.0, 1.0], atol=1e-9)
        assert np.allclose(scores.category_scores, [1.0, 1.0], atol=1e-9)
        assert scores.entity_eigenvalue == pytest.approx(2 / 3, abs=1e-9)
        assert scores.category_eigenvalue == pytest.approx(2 / 3, abs=1e-9)
        assert scores.method == "spectral"

    def test_worked_2x2(self, worked_2x2):
        scores = genepy_scores(worked_2x2)
        assert np.allclose(scores.entity_scores,
                           [1.5351837558591013, 0.4648162441408987], atol=1e-9)

    def test_mean_one(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            panel = random_panel(rng, int(rng.integers(2, 20)),
                                 int(rng.integers(2, 10)))
            scores = genepy_scores(panel)
            assert scores.entity_scores.mean() == pytest.approx(1.0, abs=1e-12)
            assert scores.category_scores.mean() == pytest.approx(1.0, abs=1e-12)

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        panel = random_panel(rng, 10, 6)
        perm = rng.permutation(10)
        permuted = make_panel(panel.year,
                              [panel.entities[i] for i in perm],
                              panel.categories, panel.scores[perm])
        base = genepy_scores(panel)
        shuffled = genepy_scores(permuted)
        assert np.allclose(shuffled.entity_scores, base.entity_scores[perm],
                           atol=1e-12)

    def test_equal_blocks_tie_gives_uniform_scores(self):
        # block-diagonal panels whose blocks normalize to the same N block:
        # the top singular value is degenerate, and the tie rule returns
        # the uniform start projected onto the top subspace, not whichever
        # basis vector LAPACK picks
        blocks = [np.array([[5.0, 0.0], [0.0, 4.0]]),
                  np.kron(np.diag([30.0, 70.0, 50.0]), np.ones((2, 3)))]
        for scores in blocks:
            n, m = scores.shape
            panel = make_panel("y", [f"e{i}" for i in range(n)],
                               [f"c{j}" for j in range(m)], scores)
            result = genepy_scores(panel)
            assert np.allclose(result.entity_scores, np.ones(n), atol=1e-12)
            assert np.allclose(result.category_scores, np.ones(m), atol=1e-12)

    def test_near_block_solves(self, near_block):
        scores = genepy_scores(near_block)
        assert scores.entity_eigenvalue == scores.category_eigenvalue
        matrix = similarity(pipeline(near_block)[2]).entity_similarity
        lam_oracle, vec_oracle = jacobi_principal_eigenpair(matrix)
        assert scores.entity_eigenvalue == pytest.approx(lam_oracle, rel=1e-12)
        assert direction_gap(scores.entity_scores, vec_oracle) < 1e-8
        # the fixed point flows towards the weak links instead; that is
        # reported in the trace, not hidden
        _, trace = run_fitness(near_block)
        assert not trace.converged
        assert trace.steps == 1000

    def test_spectra_agree(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            panel = random_panel(rng, int(rng.integers(2, 20)),
                                 int(rng.integers(2, 12)))
            scores = genepy_scores(panel)
            gap = abs(scores.entity_eigenvalue - scores.category_eigenvalue)
            assert gap / scores.entity_eigenvalue <= 1e-9


class TestFitnessStep:
    def test_uniform_fixed_point(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.full((3, 2), 7.0))
        d, c = fitness_step(panel, (np.ones(3), np.ones(2)))
        assert np.array_equal(d, np.ones(3))
        assert np.array_equal(c, np.ones(2))

    def test_worked_one_step(self, worked_2x2):
        d, c = fitness_step(worked_2x2, (np.ones(2), np.ones(2)))
        assert np.allclose(d, [4 / 3, 2 / 3], atol=1e-15)
        assert np.allclose(c, [2 / 3, 4 / 3], atol=1e-15)

    def test_rescaling_cancels(self, worked_2x2):
        scaled = make_panel(worked_2x2.year, worked_2x2.entities,
                            worked_2x2.categories, worked_2x2.scores * 2.0)
        d0 = np.array([1.3, 0.7])
        c0 = np.array([0.4, 1.6])
        d1, c1 = fitness_step(worked_2x2, (d0, c0))
        d2, c2 = fitness_step(scaled, (d0, c0))
        assert np.array_equal(d1, d2)
        assert np.array_equal(c1, c2)

    def test_zero_entity_score_rejected(self, worked_2x2):
        with pytest.raises(ValueError, match="singular"):
            fitness_step(worked_2x2, (np.array([1.0, 0.0]), np.ones(2)))


class TestRunFitness:
    def test_stops_before_scores_leave_the_positive_floats(self,
                                                           structural_zeros):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores, trace = run_fitness(structural_zeros, max_steps=5000)
        assert not trace.converged
        assert trace.steps == len(trace.residuals) < 5000
        assert np.isfinite(trace.final_residual)
        for values in (scores.entity_scores, scores.category_scores):
            assert np.isfinite(values).all() and (values > 0).all()

    def test_uniform_converges_one_step(self):
        panel = make_panel("y", ["a", "b", "c"], ["c1", "c2"],
                           np.full((3, 2), 7.0))
        scores, trace = run_fitness(panel)
        assert trace.converged
        assert trace.steps == 1
        assert np.array_equal(scores.entity_scores, np.ones(3))

    def test_worked_3x2_symmetry(self, worked_3x2):
        scores, trace = run_fitness(worked_3x2, tol=1e-12)
        assert trace.converged
        assert np.allclose(scores.entity_scores, [1.0, 1.0, 1.0], atol=1e-12)
        assert np.allclose(scores.category_scores, [1.0, 1.0], atol=1e-12)
        assert scores.method == "iterative"

    def test_random_panel_converges(self):
        rng = np.random.default_rng(14)
        panel = random_panel(rng, 10, 8)
        scores, trace = run_fitness(panel, tol=1e-10, max_steps=1000)
        assert trace.converged
        assert trace.final_residual <= 1e-10

    def test_fixed_point_consistency(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            panel = random_panel(rng, int(rng.integers(3, 20)),
                                 int(rng.integers(2, 10)))
            scores, trace = run_fitness(panel, tol=1e-10)
            assert trace.converged
            d, c = fitness_step(panel, (scores.entity_scores,
                                        scores.category_scores))
            move = max(
                float(np.max(np.abs(d - scores.entity_scores)
                             / scores.entity_scores)),
                float(np.max(np.abs(c - scores.category_scores)
                             / scores.category_scores)))
            assert move <= 1e-10

    def test_trace_contents(self, worked_3x2):
        _, trace = run_fitness(worked_3x2)
        assert trace.steps == len(trace.residuals) <= 1000
        # the first step from the uniform start: the raw entity update is
        # the row totals [2, 2, 2], and the step's move is the first residual
        d1, c1 = fitness_step(worked_3x2, (np.ones(3), np.ones(2)))
        totals = worked_3x2.scores.sum(axis=1)
        assert np.allclose(totals, [2.0, 2.0, 2.0], atol=1e-15)
        assert np.allclose(d1, totals / totals.mean(), atol=1e-15)
        assert trace.residuals[0] == max(float(np.max(np.abs(d1 - 1.0))),
                                         float(np.max(np.abs(c1 - 1.0))))
        assert trace.final_residual == trace.residuals[-1]

    def test_residual_tail_monotone_on_fixture(self, data_dir):
        from panelrank import parse_panel
        for year in ("2018", "2019", "2020", "2024"):
            panel = parse_panel((data_dir / f"panel_{year}.csv").read_text(),
                                year)
            _, trace = run_fitness(panel)
            assert trace.converged
            tail = trace.residuals[-10:]
            assert all(tail[i + 1] <= tail[i] for i in range(len(tail) - 1))

    def test_nonconvergence_flagged_not_raised(self, worked_2x2):
        # the structural zero makes the fixed point degenerate; the run
        # must still return the last iterate with converged=False
        scores, trace = run_fitness(worked_2x2, tol=1e-10, max_steps=50)
        assert not trace.converged
        assert trace.steps == 50
        assert scores.entity_scores.shape == (2,)
