"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``criterion N (...): PASS/FAIL`` line (visible
with ``pytest -s``). The criteria are:

1. the hand-worked 3x2 oracle panel;
2. the 2x2 closed-form oracle;
3. the dominant eigensolver, and the spectral score vectors, against a
   dense Jacobi eigensolver;
4. the invariance battery (scale, permutation, Perron sign, spectrum);
5. (a) fixed-point convergence, and (b) iterative-vs-spectral agreement.
   With row totals ``k``, ``P = D_k^-1 X`` and ``u = P^T 1``, the fixed
   point ``F = k * g`` has ``g ~ P Q``, ``Q_j = 1 / sum_i P_ij / g_i``,
   and the spectral vector has ``x ~ P q``, ``q_j = sum_i P_ij x_i / u_j^2``.
   The two category updates agree to first order in ``g - 1``, so the
   iterative scores per unit row total match the spectral scores up to a
   second-order remainder; the raw iterative scores also carry ``k`` and
   may rank differently;
6. total/mean rank equivalence on complete panels;
7. byte-level pipeline determinism.
"""

import filecmp
import re
import time
from contextlib import contextmanager

import numpy as np
import pytest

from panelrank import (adjusted_ubiquity, degree_index, genepy_scores,
                       goal_weights, make_panel, parse_panel, prepare,
                       proximity, run_fitness, spearman,
                       principal_eigenvector, rank_entities)
from panelrank.cli import main

from conftest import DATA_DIR, random_panel
from oracles import (direction_gap, gram_pair, jacobi_principal_eigenpair,
                     principal_eigenpair_2x2)


@contextmanager
def criterion(number: int, label: str):
    """Print the criterion's PASS/FAIL line, followed by any notes the test
    appended to the yielded list."""
    notes: list[str] = []
    try:
        yield notes
    except BaseException:
        print(f"criterion {number} ({label}): FAIL", *notes, sep="; ")
        raise
    else:
        print(f"criterion {number} ({label}): PASS", *notes, sep="; ")


def spectral_pipeline(panel):
    prep = prepare(panel)
    scores = genepy_scores(prep)
    weights = goal_weights(scores, prep.ubiquity)
    return prep.degree, prep.ubiquity, scores, weights


def test_criterion_1_worked_panel_oracle():
    """3x2 symmetric panel: eigenvalues 2/3, uniform scores, weights 2/3."""
    with criterion(1, "worked-panel oracle"):
        start = time.perf_counter()
        panel = make_panel("2024", ["a", "b", "c"], ["g1", "g2"],
                           np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]]))
        _, _, scores, weights = spectral_pipeline(panel)
        elapsed = time.perf_counter() - start
        assert scores.entity_eigenvalue == pytest.approx(2 / 3, abs=1e-9)
        assert scores.category_eigenvalue == pytest.approx(2 / 3, abs=1e-9)
        assert np.allclose(scores.entity_scores, [1.0, 1.0, 1.0], atol=1e-9)
        assert np.allclose(scores.category_scores, [1.0, 1.0], atol=1e-9)
        assert np.allclose(weights.values, [2 / 3, 2 / 3], atol=1e-9)
        assert elapsed < 1.0


def test_criterion_2_closed_form_2x2_oracle():
    """2x2 panel against an independent characteristic-polynomial solve."""
    with criterion(2, "2x2 closed-form oracle"):
        # oracle first: entity similarity assembled by hand for
        # I = [[1, 1], [1, 0]] (totals (2, 1), ubiquities (3/2, 1/2))
        entity_similarity = np.array([[10 / 9, 2 / 9], [2 / 9, 4 / 9]])
        lam_oracle, vec_oracle = principal_eigenpair_2x2(entity_similarity)
        d_oracle = vec_oracle / vec_oracle.mean()

        panel = make_panel("2024", ["a", "b"], ["g1", "g2"],
                           np.array([[1.0, 1.0], [1.0, 0.0]]))
        scores = genepy_scores(prepare(panel))
        assert scores.entity_eigenvalue == pytest.approx(lam_oracle, abs=1e-10)
        assert np.allclose(scores.entity_scores, d_oracle, atol=1e-8)
        # frozen decimals from the closed form
        assert scores.entity_eigenvalue == pytest.approx(1.17839, abs=1e-5)
        assert np.allclose(scores.entity_scores, [1.5352, 0.4648], atol=1e-4)


def test_criterion_3_dense_oracle_equivalence():
    """principal_eigenvector, and genepy_scores' entity and category
    vectors, match a Jacobi eigensolver of ``N N^T`` and ``N^T N`` on 200
    small panels."""
    with criterion(3, "dense-oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(1003)
        for _ in range(200):
            panel = random_panel(rng, int(rng.integers(2, 7)),
                                 int(rng.integers(2, 6)), low=0.5)
            prep = prepare(panel)
            scores = genepy_scores(prep)
            for matrix, vector, value in zip(
                    gram_pair(prep.proximity.values),
                    (scores.entity_scores, scores.category_scores),
                    (scores.entity_eigenvalue, scores.category_eigenvalue)):
                lam_oracle, vec_oracle = jacobi_principal_eigenpair(matrix)
                lam, vec = principal_eigenvector(matrix)
                bound = 1e-8 * max(1.0, abs(lam_oracle))
                assert abs(lam - lam_oracle) <= bound
                assert direction_gap(vec, vec_oracle) <= 1e-6
                assert abs(value - lam_oracle) <= bound
                assert direction_gap(vector, vec_oracle) <= 1e-6
        assert time.perf_counter() - start < 10.0


def test_criterion_4_invariance_suite():
    """Scale invariance, permutation equivariance, Perron sign, shared spectrum."""
    with criterion(4, "invariance suite"):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            n = int(rng.integers(2, 15))
            m = int(rng.integers(2, 10))
            panel = random_panel(rng, n, m, low=1.0, high=50.0)

            # scale invariance at the proximity level, then identical scores
            scaled = make_panel(panel.year, panel.entities, panel.categories,
                                panel.scores * 2.0)
            deg, sdeg = degree_index(panel), degree_index(scaled)
            prox = proximity(panel, deg, adjusted_ubiquity(panel, deg))
            sprox = proximity(scaled, sdeg, adjusted_ubiquity(scaled, sdeg))
            assert np.array_equal(prox.values, sprox.values)
            base = genepy_scores(prepare(panel))
            rescaled = genepy_scores(prepare(scaled))
            assert np.array_equal(base.entity_scores, rescaled.entity_scores)
            assert np.array_equal(base.category_scores,
                                  rescaled.category_scores)

            # permutation equivariance on rows and columns
            row_perm = rng.permutation(n)
            col_perm = rng.permutation(m)
            permuted = make_panel(
                panel.year, [panel.entities[i] for i in row_perm],
                [panel.categories[j] for j in col_perm],
                panel.scores[np.ix_(row_perm, col_perm)])
            shuffled = genepy_scores(prepare(permuted))
            assert np.max(np.abs(shuffled.entity_scores
                                 - base.entity_scores[row_perm])) <= 1e-12
            assert np.max(np.abs(shuffled.category_scores
                                 - base.category_scores[col_perm])) <= 1e-12

            # Perron non-negativity of the dominant eigenvectors of
            # N N^T and N^T N, and their shared dominant eigenvalue, which
            # genepy_scores reports in both of its eigenvalue fields
            tops = []
            for matrix in gram_pair(prox.values):
                top, vec = principal_eigenvector(matrix)
                assert (vec >= -1e-12).all()
                tops.append(top)
            for value in (tops[1], base.entity_eigenvalue,
                          base.category_eigenvalue):
                assert value == pytest.approx(tops[0], rel=1e-9)


def test_criterion_5a_iterative_convergence():
    """Fixed point converges on 100 random strictly positive panels."""
    with criterion(5, "iterative convergence"):
        rng = np.random.default_rng(1005)
        for _ in range(100):
            panel = random_panel(rng, int(rng.integers(2, 41)),
                                 int(rng.integers(2, 17)))
            _, trace = run_fitness(prepare(panel), tol=1e-10, max_steps=1000)
            assert trace.converged, (panel.n_entities, panel.n_categories)
            assert trace.final_residual <= 1e-10


def test_criterion_5b_method_agreement_near_uniform():
    """Iterative scores per unit row total rank-agree with the spectral
    scores (rho >= 0.99) on perturbed-uniform panels, and match them up to
    a second-order remainder.

    Write the fixed point as ``F_i = k_i g_i`` with row totals ``k``,
    ``P = D_k^-1 X`` and adjusted ubiquity ``u = P^T 1``. Then
    ``g ~ P Q`` with ``Q_j = 1 / sum_i P_ij / g_i``, while the spectral
    entity vector satisfies ``x ~ P q`` with ``q_j = sum_i P_ij x_i / u_j^2``.
    Expanding ``1/g`` about 1 makes the two category updates agree to first
    order in ``delta = g - 1``, so ``g`` equals the spectral scores up to
    O(delta^2). With the spectral scores from a direct SVD solve and the
    fixed point at tolerance 1e-10, the observed remainder is at most
    0.009 x ``max|d_spec - 1|^2``, far inside the bound of 10 x; solver
    faults that break the relation land at about 128 x or more.

    The raw vectors are not compared: the fixed point ``k * g`` follows the
    row totals at first order in the perturbation, while the spectral
    scores deviate from uniform only at second order, so raw rankings of
    the two routes are uncorrelated here (rho about 0). That divergence is
    asserted too, and the raw rho is printed on the criterion line.
    """
    with criterion(5, "iterative-vs-spectral agreement near uniform") as notes:
        rng = np.random.default_rng(1055)
        eps = 0.01
        runs = []
        for _ in range(20):
            noise = rng.standard_normal((36, 15))
            scores = 1.0 + eps * noise
            assert (scores > 0).all()
            panel = make_panel("y", [f"e{i:02d}" for i in range(36)],
                               [f"c{j:02d}" for j in range(15)], scores)
            spectral = genepy_scores(prepare(panel))
            iterative, trace = run_fitness(prepare(panel), tol=1e-10, max_steps=1000)
            runs.append((scores.sum(axis=1), iterative.entity_scores,
                         spectral.entity_scores, trace.converged))
        raw_rhos = [spearman(d_iter, d_spec) for _, d_iter, d_spec, _ in runs]
        notes.append(f"raw rho(d_iter, d_spec) min={min(raw_rhos):.4f}, "
                     f"mean={np.mean(raw_rhos):.4f}")

        for totals, d_iter, d_spec, converged in runs:
            assert converged
            per_total = d_iter / totals
            per_total = per_total / per_total.mean()
            spec_dev = np.max(np.abs(d_spec - 1.0))
            assert spearman(per_total, d_spec) >= 0.99
            assert np.max(np.abs(per_total - d_spec)) <= 10.0 * spec_dev ** 2
            # raw divergence: iterative first order, spectral second order
            assert spearman(d_iter, totals) >= 0.99
            assert spec_dev <= eps ** 2
            assert np.max(np.abs(d_iter - 1.0)) >= 0.1 * eps


def test_criterion_6_total_vs_mean_rank_equivalence():
    """On complete panels, ranking by totals equals ranking by row means."""
    with criterion(6, "total/mean rank equivalence"):
        rng = np.random.default_rng(1006)
        panels = [random_panel(rng, int(rng.integers(2, 40)),
                               int(rng.integers(2, 16))) for _ in range(50)]
        panels += [parse_panel((DATA_DIR / f"panel_{year}.csv").read_text(),
                               year)
                   for year in ("2019",)]  # complete fixture year
        for panel in panels:
            assert not panel.missing_mask.any()
            deg = degree_index(panel)
            by_total = rank_entities(panel.entities, deg.totals, "k_s",
                                     panel.year)
            by_mean = rank_entities(panel.entities, deg.composite_means,
                                    "composite_mean", panel.year)
            assert by_total.rank_of() == by_mean.rank_of()


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    """Two full runs on the bundled 4-year dataset are byte-identical, the
    bump chart has exactly 4 year ticks, and first-year-absent categories
    leave gaps in the grouped bars."""
    with criterion(7, "pipeline determinism"):
        args = [
            "compute",
            "--panel", f"2018={DATA_DIR / 'panel_2018.csv'}",
            "--panel", f"2019={DATA_DIR / 'panel_2019.csv'}",
            "--panel", f"2020={DATA_DIR / 'panel_2020.csv'}",
            "--panel", f"2024={DATA_DIR / 'panel_2024.csv'}",
            "--entity-map", f"2019->2020={DATA_DIR / 'map_2019_2020.json'}",
            "--charts", "all",
        ]
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        assert main([*args, "--out", str(out_a)]) == 0
        assert main([*args, "--out", str(out_b)]) == 0
        capsys.readouterr()  # absorb the CLI's file listing

        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and names_a
        match, mismatch, errors = filecmp.cmpfiles(out_a, out_b, names_a,
                                                   shallow=False)
        assert mismatch == [] and errors == []

        bump = (out_a / "rank_bump_k_s.svg").read_text()
        assert bump.count('class="x-tick"') == 4

        bars = (out_a / "grouped_bars_weights.svg").read_text()
        per_category: dict = {}
        for m in re.finditer(r'data-category="(goal\d+)" data-year="(\d+)"',
                             bars):
            per_category.setdefault(m.group(1), set()).add(m.group(2))
        assert per_category["goal01"] == {"2018", "2019", "2020", "2024"}
        assert per_category["goal12"] == {"2019", "2020", "2024"}
        assert per_category["goal13"] == {"2019", "2020", "2024"}
