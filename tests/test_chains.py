import json
import math
import re

import numpy as np
import pytest

from transinfo import catalog
from transinfo.chains import (
    Density,
    MetricMatrix,
    build_chain,
    chain_from_json,
    dirichlet_energy,
    fisher_information,
    lipschitz_norm,
    line_metric,
    poisson_solve,
    product_chain,
    relative_entropy,
    solve_invariant_measure,
    spectral_gap,
    trivial_metric,
    tv_weighted,
)
from transinfo.errors import (
    DegenerateMeasure,
    DetailedBalanceViolated,
    MeanNotZero,
    ModelValidation,
    NotIrreducible,
)

from conftest import (bernoulli_chain, random_reversible_chain, random_birth_death_chain, random_density,
                      dirichlet_bilinear, symmetrized_generator)


def uniform_two_state():
    return build_chain(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestBuildChain:
    def test_bernoulli_measure_and_energy(self):
        ch = bernoulli_chain(0.3)
        np.testing.assert_allclose(ch.mu, [0.7, 0.3], atol=1e-14)
        # this rate normalization makes the energy the squared increment
        assert dirichlet_energy(ch, [0.0, 1.0]) == pytest.approx(1.0, abs=1e-14)

    def test_uniform_measure_when_mu_absent(self):
        ch = uniform_two_state()
        np.testing.assert_allclose(ch.mu, [0.5, 0.5], atol=1e-14)

    def test_birth_death_mu_matches_nullspace_solve(self, rng):
        ch = random_birth_death_chain(4, rng)
        mu_direct = solve_invariant_measure(ch.Q)
        np.testing.assert_allclose(ch.mu, mu_direct, atol=1e-12)
        # brute-force oracle: dense nullspace of Q^T via SVD
        _, _, vt = np.linalg.svd(ch.Q.T)
        null = vt[-1]
        null = null / null.sum()
        np.testing.assert_allclose(ch.mu, null, atol=1e-10)

    def test_rows_sum_to_zero(self, rng):
        ch = random_reversible_chain(5, rng)
        np.testing.assert_allclose(ch.Q.sum(axis=1), 0.0, atol=1e-12)

    def test_not_irreducible(self):
        rates = np.zeros((4, 4))
        rates[0, 1] = rates[1, 0] = 1.0
        rates[2, 3] = rates[3, 2] = 1.0
        with pytest.raises(NotIrreducible):
            build_chain(rates)

    def test_detailed_balance_violated_reports_pair(self):
        rates = np.array([[0.0, 2.0, 1.0],
                          [1.0, 0.0, 1.0],
                          [1.0, 1.0, 0.0]])
        with pytest.raises(DetailedBalanceViolated) as err:
            build_chain(rates, mu=np.array([1 / 3, 1 / 3, 1 / 3]))
        assert err.value.residual > 1e-10
        assert len(err.value.pair) == 2

    def test_degenerate_measure(self):
        with pytest.raises(DegenerateMeasure):
            build_chain(np.array([[0.0, 1.0], [1.0, 0.0]]), mu=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("rates, mu, states, error, message", [
        (np.ones((2, 3)), None, None, ModelValidation,
         "rates must be a square matrix of size >= 2"),
        ([[0.0, 1.0], [1.0, 0.0]], [1.0], None, ModelValidation, "mu has wrong length"),
        ([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.3], None, DegenerateMeasure, "mu sums to 0.6, not 1"),
        ([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], ["a"], ModelValidation,
         "states list has wrong length"),
    ])
    def test_malformed_chain_rejected_by_name(self, rates, mu, states, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build_chain(np.array(rates), mu=mu, states=states)

    def test_chain_from_json(self):
        # rates 1 and 2 balance mu = (2/3, 1/3), given or solved for
        doc = {"states": ["a", "b"], "rates": [[0, 1], [2, 0]]}
        for given in (doc, json.dumps(doc), dict(doc, mu=None)):
            ch = chain_from_json(given)
            assert ch.states == ("a", "b")
            np.testing.assert_allclose(ch.mu, [2 / 3, 1 / 3], atol=1e-14)
        for given in (dict(doc, mu=[2 / 3, 1 / 3]), json.dumps(dict(doc, mu=[2 / 3, 1 / 3]))):
            assert chain_from_json(given).mu.tolist() == [2 / 3, 1 / 3]
        ch = chain_from_json({"rates": [[0, 1], [2, 0]], "mu": [2 / 3, 1 / 3]})
        assert ch.states == ("0", "1")
        with pytest.raises(DetailedBalanceViolated):
            chain_from_json(dict(doc, mu=[0.5, 0.5]))


class TestDensity:
    def test_renormalizes_small_drift(self):
        mu = np.array([0.5, 0.5])
        d = Density.validate(mu, np.array([1.5, 0.5]) * (1 + 5e-10))
        assert np.dot(mu, d.f) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_large_drift(self):
        with pytest.raises(ModelValidation):
            Density.validate(np.array([0.5, 0.5]), np.array([1.5, 0.6]))

    def test_rejects_negative(self):
        with pytest.raises(ModelValidation):
            Density.validate(np.array([0.5, 0.5]), np.array([2.1, -0.1]))


class TestEnergyFunctionals:
    def test_constant_in_kernel(self, rng):
        ch = random_reversible_chain(5, rng)
        assert dirichlet_energy(ch, np.full(5, 3.7)) == pytest.approx(0.0, abs=1e-14)

    def test_half_rate_two_state(self):
        assert dirichlet_energy(uniform_two_state(), [0.0, 1.0]) == pytest.approx(0.5)

    def test_matches_matrix_product_form(self, rng):
        # E(g,g) computed by the sum formula equals <-L^sigma g, g>_mu
        for n in (3, 5, 7):
            ch = random_reversible_chain(n, rng)
            g = rng.standard_normal(n)
            direct = dirichlet_energy(ch, g)
            matrix = float(np.dot(ch.mu * g, -symmetrized_generator(ch) @ g))
            assert direct == pytest.approx(matrix, abs=1e-12)

    def test_fisher_two_state_hand_value(self):
        ch = uniform_two_state()
        expected = 0.5 * (math.sqrt(1.5) - math.sqrt(0.5)) ** 2
        assert fisher_information(ch, [1.5, 0.5]) == pytest.approx(expected, abs=1e-14)

    def test_fisher_zero_iff_uniform_density(self, rng):
        ch = random_reversible_chain(4, rng)
        assert fisher_information(ch, np.ones(4)) == 0.0
        f = random_density(ch, rng)
        if np.max(np.abs(f - 1)) > 1e-6:
            assert fisher_information(ch, f) > 1e-12

    def test_relative_entropy_values(self):
        ch = uniform_two_state()
        assert relative_entropy(ch, np.ones(2)) == 0.0
        assert relative_entropy(ch, [2.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-14)
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert relative_entropy(ch, [1.5, 0.5]) == pytest.approx(expected, abs=1e-14)

    def test_tv_weighted_values(self):
        ch = uniform_two_state()
        assert tv_weighted(ch, np.ones(2), np.ones(2)) == 0.0
        assert tv_weighted(ch, [1.5, 0.5], np.ones(2)) == pytest.approx(0.5, abs=1e-14)

    def test_tv_extremal_family_value(self):
        # two-valued density (3, 1/3) on masses (0.25, 0.75)
        mu = np.array([0.25, 0.75])
        ch = build_chain(np.array([[0.0, 0.75], [0.25, 0.0]]), mu=mu)
        f = np.array([3.0, 1.0 / 3.0])
        assert tv_weighted(ch, f, np.ones(2)) == pytest.approx(1.0, abs=1e-14)

    def test_tv_triangle_inequality(self, rng):
        ch = random_reversible_chain(5, rng)
        phi = np.ones(5)
        for _ in range(20):
            f1, f2, f3 = (random_density(ch, rng) for _ in range(3))
            d12 = float(np.dot(ch.mu, np.abs(f1 - f2)))
            d13 = tv_weighted(ch, f1, phi)
            d23 = tv_weighted(ch, f2, phi)
            # ||nu1 - nu2|| <= ||nu1 - mu|| + ||mu - nu2||
            assert d12 <= d13 + d23 + 1e-9


class TestSpectralGap:
    def test_bernoulli_poincare_constant(self):
        for p in np.arange(0.1, 0.95, 0.1):
            _, c_p = spectral_gap(bernoulli_chain(float(p)))
            assert c_p == pytest.approx(p * (1 - p), abs=1e-10)

    def test_random_chain_matches_rayleigh_search(self, rng):
        from scipy.optimize import minimize

        ch = random_reversible_chain(5, rng)
        gap, c_p = spectral_gap(ch)

        # Rayleigh-quotient oracle: generic minimization of E(g,g)/Var(g),
        # independent of any eigendecomposition
        def rayleigh(g):
            var = ch.variance(g)
            return dirichlet_energy(ch, g) / var if var > 1e-14 else 1e12

        best = math.inf
        for _ in range(8):
            res = minimize(rayleigh, rng.standard_normal(5), method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000})
            best = min(best, res.fun)
        assert best == pytest.approx(gap, rel=1e-6)

    def test_poincare_certificate_on_random_g(self, rng):
        ch = random_reversible_chain(6, rng)
        gap, c_p = spectral_gap(ch)
        for _ in range(100):
            g = rng.standard_normal(6)
            assert ch.variance(g) <= c_p * dirichlet_energy(ch, g) + 1e-9

    def test_gap_eigenvector_attains_equality(self, rng):
        ch = random_reversible_chain(5, rng)
        gap, c_p = spectral_gap(ch)
        A = ch.conjugated_neg_generator
        w, V = np.linalg.eigh(A)
        g = V[:, 1] / np.sqrt(ch.mu)
        assert ch.variance(g) == pytest.approx(c_p * dirichlet_energy(ch, g), abs=1e-9)


class TestPoissonSolve:
    def test_zero_rhs(self, rng):
        ch = random_reversible_chain(4, rng)
        np.testing.assert_allclose(poisson_solve(ch, np.zeros(4)), 0.0, atol=1e-14)

    def test_two_state_hand_solve(self):
        ch = uniform_two_state()
        h = poisson_solve(ch, np.array([-1.0, 1.0]))
        np.testing.assert_allclose(h, [-0.5, 0.5], atol=1e-12)

    def test_mean_not_zero_rejected(self, rng):
        ch = random_reversible_chain(3, rng)
        with pytest.raises(MeanNotZero):
            poisson_solve(ch, np.ones(3))

    def test_residual_and_centering(self, rng):
        for _ in range(10):
            ch = random_reversible_chain(6, rng)
            g = rng.standard_normal(6)
            g -= ch.expectation(g)
            h = poisson_solve(ch, g)
            assert abs(ch.expectation(h)) < 1e-12
            resid = -symmetrized_generator(ch) @ h - g
            assert np.max(np.abs(resid)) < 1e-10

    def test_self_adjointness_identity(self, rng):
        # E(h, g) = <g, g>_mu when -L h = g
        for _ in range(10):
            ch = random_reversible_chain(5, rng)
            g = rng.standard_normal(5)
            g -= ch.expectation(g)
            h = poisson_solve(ch, g)
            assert dirichlet_bilinear(ch, h, g) == pytest.approx(
                float(np.dot(ch.mu, g * g)), abs=1e-9)


class TestLipschitzNorm:
    def test_constant(self):
        d = trivial_metric(3)
        assert lipschitz_norm(d, np.full(3, 2.0)) == 0.0

    def test_trivial_metric_is_oscillation(self):
        d = trivial_metric(3)
        assert lipschitz_norm(d, np.array([0.0, 1.0, 2.0])) == pytest.approx(2.0)

    def test_line_metric(self):
        d = line_metric(np.array([0.0, 1.0, 2.0]))
        assert lipschitz_norm(d, np.array([0.0, 1.0, 2.0])) == pytest.approx(1.0)


class TestMetricValidation:
    def test_triangle_violation_rejected(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(ModelValidation):
            MetricMatrix.validate(d)

    def test_asymmetry_rejected(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ModelValidation):
            MetricMatrix.validate(d)

    @pytest.mark.parametrize("d, message", [
        ([[0.0, 1.0], [1.000009, 0.0]], "symmetric"),        # inside np.allclose's rtol=1e-5
        ([[0.0, 1e6], [1e6 * (1 + 1e-17) + 2e-6, 0.0]], "symmetric"),
        ([[0.0, math.nan], [math.nan, 0.0]], "finite"),
        ([[0.0, math.inf], [math.inf, 0.0]], "finite"),
    ])
    def test_near_asymmetry_and_non_finite_entries_rejected(self, d, message):
        with pytest.raises(ModelValidation, match=message):
            MetricMatrix.validate(np.array(d))

    @pytest.mark.parametrize("d, message", [
        (np.zeros((2, 3)), "metric matrix must be square"),
        ([[0.5, 1.0], [1.0, 0.0]], "metric matrix must have zero diagonal"),
    ])
    def test_non_square_and_nonzero_diagonal_rejected(self, d, message):
        with pytest.raises(ModelValidation, match=f"^{message}$"):
            MetricMatrix.validate(np.array(d))

    def test_symmetry_within_1e12_of_the_largest_entry_accepted(self):
        for scale in (1e-300, 1.0, 1e6, 1e300):
            d = np.array([[0.0, scale], [scale * (1 + 9e-13), 0.0]])
            assert MetricMatrix.validate(d).d[1, 0] == d[1, 0]

    @pytest.mark.parametrize("name", sorted(catalog.list_examples()))
    def test_catalog_metrics_still_validate(self, name):
        model = catalog.load_example(name)
        metrics = [trivial_metric(model["chain"].n)]
        if "metric" in model:
            metrics.append(model["metric"])
        for m in metrics:
            assert np.array_equal(MetricMatrix.validate(m.d).d, m.d)


class TestAbsoluteValueContraction:
    def test_energy_of_abs_never_larger(self, rng):
        for _ in range(50):
            ch = random_reversible_chain(6, rng)
            g = rng.standard_normal(6)
            assert dirichlet_energy(ch, np.abs(g)) <= dirichlet_energy(ch, g) + 1e-12


class TestProductChain:
    def test_product_measure_and_validation(self, rng):
        c1 = random_reversible_chain(3, rng)
        c2 = random_reversible_chain(3, rng)
        prod = product_chain([c1, c2])
        np.testing.assert_allclose(prod.mu, np.kron(c1.mu, c2.mu), atol=1e-12)

    def test_energy_splits_on_separable_functions(self, rng):
        c1 = random_reversible_chain(3, rng)
        c2 = random_reversible_chain(2, rng)
        prod = product_chain([c1, c2])
        g1 = rng.standard_normal(3)
        g2 = rng.standard_normal(2)
        # g(x1, x2) = g1(x1) + g2(x2): energies add for the sum generator
        g = (g1[:, None] + g2[None, :]).ravel()
        expected = dirichlet_energy(c1, g1) + dirichlet_energy(c2, g2)
        assert dirichlet_energy(prod, g) == pytest.approx(expected, abs=1e-12)
