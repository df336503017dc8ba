import importlib
import math

import numpy as np
import pytest

from transinfo.chains import dirichlet_energy, spectral_gap
from transinfo.errors import EstimatorOverflow, NoExactSplit
from transinfo.feynman_kac import lambda_max
from transinfo.trivial_metric import (
    build_jump_chain,
    ckp_extremal,
    ckp_gap,
    default_p_grid,
    exact_growth_finite_t,
    extremal_potential,
    fk_growth_mc,
    hellinger_check,
    jump_spectrum,
    rho,
    rho_sup_scan,
)


def equality_family_detect(mu: np.ndarray, f: np.ndarray, rtol: float = 1e-8):
    """Report the (a^2, b^2, p) structure of a density at CKP equality.

    Clusters the f-values with relative tolerance before testing the
    two-point structure: floating-point densities never take exactly two
    values.  Returns None when f is not (close to) two-valued.
    """
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    order = np.argsort(f)
    fv = f[order]
    groups = [[0]]
    for i in range(1, len(fv)):
        if fv[i] - fv[groups[-1][0]] <= rtol * max(1.0, fv[i]):
            groups[-1].append(i)
        else:
            groups.append([i])
    if len(groups) == 1:
        return {"low": 1.0, "high": 1.0, "p": 1.0}  # f == 1 case
    if len(groups) != 2:
        return None
    low = float(np.mean(fv[groups[0]]))
    high = float(np.mean(fv[groups[1]]))
    p = float(mu[order][groups[0]].sum())
    return {"low": low, "high": high, "p": p}


class TestJumpChain:
    def test_uniform_rates(self):
        ch = build_jump_chain(np.array([0.5, 0.5]))
        assert ch.Q[0, 1] == pytest.approx(0.5)
        assert ch.Q[1, 0] == pytest.approx(0.5)

    def test_energy_is_variance(self, rng):
        for n in (2, 4, 6):
            mu = rng.dirichlet(np.ones(n))
            mu = np.maximum(mu, 0.01)
            mu /= mu.sum()
            ch = build_jump_chain(mu)
            for _ in range(20):
                g = rng.standard_normal(n)
                assert dirichlet_energy(ch, g) == pytest.approx(ch.variance(g), abs=1e-12)

    def test_energy_hand_value(self):
        ch = build_jump_chain(np.array([0.25, 0.75]))
        assert dirichlet_energy(ch, [0.0, 1.0]) == pytest.approx(0.1875, abs=1e-14)

    def test_unit_poincare_constant(self, rng):
        for n in (2, 3, 5):
            mu = rng.dirichlet(np.ones(n))
            mu = np.maximum(mu, 0.02)
            mu /= mu.sum()
            _, c_p = spectral_gap(build_jump_chain(mu))
            assert c_p == pytest.approx(1.0, abs=1e-10)


class TestCkp:
    def test_uniform_density(self):
        mu = np.array([0.3, 0.7])
        tv2, four_var = ckp_gap(mu, np.ones(2))
        assert tv2 == 0.0
        assert four_var == pytest.approx(0.0, abs=1e-14)

    def test_extremal_equality(self):
        mu = np.array([0.25, 0.75])
        f = ckp_extremal(0.25, mu)
        np.testing.assert_allclose(f, [3.0, 1.0 / 3.0], atol=1e-14)
        tv2, four_var = ckp_gap(mu, f)
        assert tv2 == pytest.approx(1.0, abs=1e-12)
        assert four_var == pytest.approx(1.0, abs=1e-12)

    def test_extremal_values_for_various_p(self):
        f9 = ckp_extremal(0.9, np.array([0.9, 0.1]))
        np.testing.assert_allclose(f9, [1.0 / 9.0, 9.0], atol=1e-12)
        f5 = ckp_extremal(0.5, np.array([0.5, 0.5]))
        np.testing.assert_allclose(f5, [1.0, 1.0], atol=1e-14)

    def test_no_exact_split(self):
        with pytest.raises(NoExactSplit):
            ckp_extremal(0.4, np.array([0.25, 0.75]))

    def test_random_densities_strict_inequality(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 7))
            mu = rng.dirichlet(np.ones(n))
            mu = np.maximum(mu, 1e-3)
            mu /= mu.sum()
            f = rng.dirichlet(np.ones(n)) / mu
            f /= float(np.dot(mu, f))
            tv2, four_var = ckp_gap(mu, f)
            assert tv2 <= four_var + 1e-12

    def test_equality_implies_two_valued_family(self, rng):
        # equality within 1e-10 happens only on the two-valued family,
        # which the detector reconstructs via ckp_extremal
        mu = np.array([0.1, 0.15, 0.3, 0.45])
        subset = [0, 1, 2]   # mass 0.55
        p = 0.55
        f = np.where(np.isin(np.arange(4), subset), (1 - p) / p, p / (1 - p))
        tv2, four_var = ckp_gap(mu, f)
        assert abs(tv2 - four_var) < 1e-10
        found = equality_family_detect(mu, f)
        assert found is not None
        rebuilt = ckp_extremal(found["p"], mu, subset=subset)
        np.testing.assert_allclose(np.sort(rebuilt), np.sort(f), atol=1e-10)

    def test_hellinger_identity(self, rng):
        mu = np.array([0.25, 0.75])
        f = ckp_extremal(0.25, mu)
        quarter_tv2, bound = hellinger_check(mu, f)
        assert quarter_tv2 == pytest.approx(0.25, abs=1e-12)
        assert bound == pytest.approx(0.25, abs=1e-12)
        # bound equals Var(sqrt f) exactly, and dominates TV^2/4
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = rng.dirichlet(np.ones(n))
            m = np.maximum(m, 1e-3)
            m /= m.sum()
            f = rng.dirichlet(np.ones(n)) / m
            f /= float(np.dot(m, f))
            q, b = hellinger_check(m, f)
            var = 1.0 - float(np.dot(m, np.sqrt(f))) ** 2
            assert b == pytest.approx(var, abs=1e-12)
            assert q <= b + 1e-12


class TestRho:
    def test_values(self):
        assert rho(0.0) == 0.0
        assert rho(0.5) == pytest.approx(0.25)
        assert rho(2.0) == pytest.approx(3.0)
        assert rho(-2.0) == pytest.approx(3.0)

    def test_continuity_and_slope_at_one(self):
        eps = 1e-8
        assert rho(1.0) == pytest.approx(1.0)
        assert (rho(1.0 + eps) - rho(1.0)) / eps == pytest.approx(2.0, abs=1e-4)
        assert (rho(1.0) - rho(1.0 - eps)) / eps == pytest.approx(2.0, abs=1e-4)

    def test_convex_envelope_of_min(self):
        # rho is the convex envelope of min(lambda^2, 2|lambda|): double
        # Legendre transform on a wide window (the envelope's far chords
        # touch the function only toward infinity, so the window must be
        # much larger than the region under test)
        tails = np.geomspace(4.0, 3000.0, 300)
        lams = np.unique(np.concatenate([-tails, np.linspace(-4, 4, 801), tails]))
        raw = np.minimum(lams ** 2, 2 * np.abs(lams))
        slopes = np.linspace(-2.2, 2.2, 2201)
        conj = np.max(slopes[:, None] * lams[None, :] - raw[None, :], axis=1)
        env = np.max(slopes[None, :] * lams[:, None] - conj[None, :], axis=1)
        inner = np.abs(lams) <= 4.0
        target = np.array([rho(l) for l in lams[inner]])
        assert np.max(np.abs(env[inner] - target)) < 2e-2


class TestJumpSpectrum:
    def test_equality_case(self):
        js = jump_spectrum(0.25, 0.5)
        assert js.Delta == pytest.approx(1.0, abs=1e-14)
        assert js.s1 == pytest.approx(0.0, abs=1e-14)
        assert js.growth == pytest.approx(0.25, abs=1e-14)

    def test_p_half_lambda_one(self):
        js = jump_spectrum(0.5, 1.0)
        assert js.Delta == pytest.approx(5.0, abs=1e-12)
        assert js.growth == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-12)

    def test_lambda_zero(self):
        assert jump_spectrum(0.37, 0.0).growth == pytest.approx(0.0, abs=1e-14)

    def test_matches_lambda_max_of_jump_chain(self, rng):
        # the 2x2 reduction equals the full Feynman-Kac eigenvalue
        for _ in range(20):
            p = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(-1.5, 1.5))
            ch = build_jump_chain(np.array([p, 1.0 - p]))
            u = extremal_potential(p)
            assert jump_spectrum(p, lam).growth == pytest.approx(
                lambda_max(ch, lam * u), abs=1e-10)

    def test_growth_below_rho_equality_on_curve(self, rng):
        for _ in range(200):
            p = float(rng.uniform(0.02, 0.98))
            lam = float(rng.uniform(-2.5, 2.5))
            g = jump_spectrum(p, lam).growth
            assert g <= rho(lam) + 1e-12
        for p in (0.1, 0.25, 0.45):
            lam = 1.0 - 2.0 * p
            assert jump_spectrum(p, lam).growth == pytest.approx(rho(lam), abs=1e-12)


class TestRhoSupScan:
    def test_subcritical_attained(self):
        scan = rho_sup_scan(0.5)
        assert scan["sup"] == pytest.approx(0.25, abs=1e-10)
        assert scan["argmax_p"] == pytest.approx(0.25, abs=0.01)

    def test_zero(self):
        assert rho_sup_scan(0.0)["sup"] == pytest.approx(0.0, abs=1e-14)

    def test_supercritical_approached_not_attained(self):
        scan = rho_sup_scan(2.0)
        assert np.all(scan["growths"] < 3.0)
        assert scan["sup"] > 2.9
        assert scan["argmax_p"] == pytest.approx(default_p_grid()[0])


class TestGrowthMc:
    def test_lambda_zero_exact(self):
        est = fk_growth_mc(0.3, 0.0, 10.0, 400, seed=1)
        assert est.estimate == pytest.approx(0.0, abs=1e-12)
        assert est.exact_finite_t == pytest.approx(0.0, abs=1e-12)

    def test_exact_finite_t_converges_to_growth(self):
        g30 = exact_growth_finite_t(0.25, 0.5, 30.0)
        g300 = exact_growth_finite_t(0.25, 0.5, 300.0)
        target = jump_spectrum(0.25, 0.5).growth
        assert abs(g300 - target) < abs(g30 - target)
        assert g300 == pytest.approx(target, abs=0.01)

    def test_estimate_within_three_se_of_exact(self):
        est = fk_growth_mc(0.25, 0.5, 30.0, 40000, seed=7)
        assert abs(est.estimate - est.exact_finite_t) <= 3.0 * est.std_error

    def test_p_half_lambda_one_matches_oracle(self):
        est = fk_growth_mc(0.5, 1.0, 30.0, 60000, seed=11)
        assert abs(est.estimate - est.exact_finite_t) <= 3.0 * est.std_error
        assert est.growth == pytest.approx(0.618, abs=1e-3)

    def test_overflow_guard(self):
        with pytest.raises(EstimatorOverflow):
            fk_growth_mc(0.25, 20.0, 30.0, 100, seed=0)

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            fk_growth_mc(0.25, 0.5, 100.0, 100, seed=0)

    @pytest.mark.parametrize("p", [-0.1, 0.0, 1.0, 1.5, math.nan])
    def test_p_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            fk_growth_mc(p, 0.5, 10.0, 20, seed=0)

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def fail(*args):
            raise AssertionError("drew paths for an invalid input")
        # the package exports a function of the module's name, so fetch the module
        module = importlib.import_module("transinfo.trivial_metric")
        monkeypatch.setattr(module, "path_streams", fail)

    @pytest.mark.parametrize("n_paths", [0, 1, -3])
    def test_too_few_paths_rejected(self, no_draws, n_paths):
        with pytest.raises(ValueError, match="at least 2 paths"):
            fk_growth_mc(0.25, 0.5, 10.0, n_paths, seed=0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan])
    def test_horizon_not_positive_rejected(self, no_draws, t):
        with pytest.raises(ValueError, match="horizon t"):
            fk_growth_mc(0.25, 0.5, t, 100, seed=0)

    def test_nan_lambda_rejected(self, no_draws):
        with pytest.raises(ValueError, match="lambda must be finite"):
            fk_growth_mc(0.25, math.nan, 10.0, 100, seed=0)


class TestConjugateConsistency:
    def test_rho_matches_quadratic_conjugate_below_one(self):
        # the growth cap on [0, 1] equals the monotone conjugate of r^2/4
        from transinfo.transport import RateFunction, alpha_conjugate
        quarter = RateFunction.quadratic(1.0)   # alpha(r) = r^2 / 4
        for lam in np.linspace(0.0, 1.0, 11):
            assert alpha_conjugate(quarter, float(lam)) == pytest.approx(
                rho(float(lam)), abs=1e-12)
