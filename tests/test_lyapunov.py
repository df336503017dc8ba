import math
import re

import numpy as np
import pytest

from transinfo.chains import Density, spectral_gap
from transinfo import lyapunov
from transinfo.diffusion1d import Grid1D, discretize
from transinfo.errors import ModelValidation, NotCertified, TruncationTooSmall, UBelowOne
from transinfo.lyapunov import (
    beta_potential_example,
    certify_H,
    cor52_alpha,
    drift_info_bound_check,
    drift_ratio,
    lsi_constant_from_lyapunov,
    mminf_certificate,
    mminf_generator,
    thm51_bounds,
    verify_thm51,
)

from conftest import (dense_build_chain, loop_drift_info_bound_check, random_density,
                      random_reversible_chain)


def mminf_drift_closed_form(lambda_rate: float, c: float, n_values: np.ndarray) -> np.ndarray:
    """-LU/U for U = e^{cn} on the untruncated queue generator.

    Direct computation from the generator gives
    n (1 - e^{-c}) - lambda (e^c - 1); the arrival term carries the
    factor lambda.
    """
    n_values = np.asarray(n_values, dtype=float)
    return n_values * (1.0 - math.exp(-c)) - lambda_rate * (math.exp(c) - 1.0)


class TestDriftRatio:
    def test_unit_function_zero(self, rng):
        ch = random_reversible_chain(4, rng)
        np.testing.assert_allclose(drift_ratio(ch, np.ones(4)), 0.0, atol=1e-12)

    def test_u_below_one_rejected(self, rng):
        ch = random_reversible_chain(3, rng)
        with pytest.raises(UBelowOne):
            drift_ratio(ch, np.array([1.0, 0.5, 1.0]))

    def test_mminf_interior_closed_form(self):
        chain, _ = mminf_generator(1.0, 40)
        c = math.log(2.0)
        U = np.exp(c * np.arange(41))
        ratio = drift_ratio(chain, U)
        expected = mminf_drift_closed_form(1.0, c, np.arange(41))
        np.testing.assert_allclose(ratio[1:-1], expected[1:-1], atol=1e-12)
        # the hand value at n = 3
        assert expected[3] == pytest.approx(0.5, abs=1e-14)

    def test_exponential_of_potential_matches_continuum(self):
        # U = e^{lam V}: drift -> (lam - lam^2)|V'|^2 - lam V'' at O(step^2)
        lam = 0.3
        grid = Grid1D.uniform(-3.0, 3.0, 601)
        from transinfo.diffusion1d import DiffusionSpec1D
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                               b=lambda x: -x, c_ref=0.0)   # V = x^2/2
        ch = discretize(spec, grid)
        x = grid.nodes
        U = np.exp(lam * x * x / 2.0)
        ratio = drift_ratio(ch, U)
        continuum = (lam - lam * lam) * x * x - lam
        inner = slice(5, -5)
        assert np.max(np.abs(ratio[inner] - continuum[inner])) < 5e-3


class TestCertifyH:
    def test_trivial_certificate(self, rng):
        ch = random_reversible_chain(4, rng)
        U = 1.0 + rng.uniform(0, 2, 4)
        ratio = drift_ratio(ch, U)
        b = max(0.0, -float(np.min(ratio)))
        cert = certify_H(ch, U, np.zeros(4), b)
        assert cert.certified

    def test_mminf_exact(self):
        _, cert = mminf_certificate(1.0, 40, math.log(2.0))
        assert cert.certified
        assert cert.max_violation <= 1e-10

    def test_too_large_phi_reports_violation(self):
        chain, _ = mminf_generator(1.0, 40)
        c = math.log(2.0)
        U = np.exp(c * np.arange(41))
        phi = np.arange(41.0) * (1 - math.exp(-c)) + 0.5   # inflated
        b = math.exp(c) - 1.0
        cert = certify_H(chain, U, phi, b)
        assert not cert.certified
        assert cert.max_violation > 0.4

    def test_b_floor_mu_phi(self, rng):
        # certified data satisfy b >= mu(phi): integrate (H) against mu
        for _ in range(10):
            ch = random_reversible_chain(5, rng)
            U = 1.0 + rng.uniform(0, 3, 5)
            ratio = drift_ratio(ch, U)
            phi = np.maximum(ratio, 0.0) * rng.uniform(0.3, 1.0)
            b = max(0.0, float(np.max(phi - ratio)))
            cert = certify_H(ch, U, phi, b)
            assert cert.certified
            assert cert.b >= float(np.dot(ch.mu, cert.phi)) - 1e-10


class TestDriftInfoBound:
    def test_uniform_density_slack_nonnegative(self, rng):
        ch = random_reversible_chain(4, rng)
        U = 1.0 + rng.uniform(0, 2, 4)
        assert drift_info_bound_check(ch, U, [np.ones(4)]) >= -1e-10

    def test_gap_eigendensity_positive_slack(self, rng):
        ch = random_reversible_chain(5, rng)
        A = ch.conjugated_neg_generator
        _, V = np.linalg.eigh(A)
        g = V[:, 1] / np.sqrt(ch.mu)
        f = (1.0 + 0.4 * g / np.max(np.abs(g))) ** 1
        f /= float(np.dot(ch.mu, f))
        U = 1.0 + rng.uniform(0, 2, 5)
        assert drift_info_bound_check(ch, U, [f]) >= -1e-10

    def test_random_scan_no_violation(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            ch = random_reversible_chain(n, rng)
            U = 1.0 + rng.uniform(0, 4, n)
            dens = [random_density(ch, rng) for _ in range(100)]
            assert drift_info_bound_check(ch, U, dens) >= -1e-10

    def test_a_nan_entry_of_U_gives_nan(self, rng):
        # every slack is NaN, which a running min from inf would pass over
        ch = random_reversible_chain(4, rng)
        U = 1.0 + rng.uniform(0, 2, 4)
        dens = [random_density(ch, rng) for _ in range(5)]
        assert drift_info_bound_check(ch, U, dens) == loop_drift_info_bound_check(ch, U, dens)
        U[2] = math.nan
        assert math.isnan(drift_info_bound_check(ch, U, dens))


class TestThm51Bounds:
    def test_zero_information(self):
        assert thm51_bounds(1.0, 1.0, 1.0, 2.0, 0.0) == (0.0, 0.0)

    def test_hand_values(self):
        ba, bb = thm51_bounds(1.0, 1.0, 1.0, 2.0, 1.0)
        assert ba == pytest.approx(9 + 2 * math.sqrt(2), abs=1e-12)
        assert bb == pytest.approx(2 * (9 + 2 * math.sqrt(2)), abs=1e-12)

    def test_monotone_in_each_argument(self):
        base = thm51_bounds(1.0, 1.0, 1.0, 2.0, 1.0)
        for k, bumped in enumerate([
            thm51_bounds(1.5, 1.0, 1.0, 2.0, 1.0),
            thm51_bounds(1.0, 1.5, 1.0, 2.0, 1.0),
            thm51_bounds(1.0, 1.0, 1.5, 2.0, 1.0),
            thm51_bounds(1.0, 1.0, 1.0, 2.0, 1.5),
        ]):
            assert bumped[0] >= base[0] - 1e-12, k
            assert bumped[1] >= base[1] - 1e-12, k

    def test_a_below_two_rejected(self):
        with pytest.raises(ValueError):
            thm51_bounds(1.0, 1.0, 1.0, 1.5, 1.0)


class TestVerifyThm51:
    @pytest.mark.parametrize("which", [0, 1])
    def test_one_nan_bound_fails_the_check(self, monkeypatch, which):
        # the second bound's NaN passed the per-row min, and the first bound's NaN
        # (that row's slack) passed the running min, which had a number already
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        g = np.linspace(0.5, 1.5, 41)
        dens = [np.ones(41), g / chain.expectation(g)]
        calls, exact = [], lyapunov.thm51_bounds

        def one_nan(*args):
            bounds = list(exact(*args))
            calls.append(None)
            if len(calls) == 2:
                bounds[which] = math.nan
            return tuple(bounds)

        monkeypatch.setattr(lyapunov, "thm51_bounds", one_nan)
        rep = verify_thm51(chain, cert, dens)
        assert math.isnan(rep["rows"][1][5]) and not math.isnan(rep["rows"][0][5])
        assert math.isnan(rep["worst_slack"]) and not rep["passed"]

    def test_uniform_density_trivial(self):
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        rep = verify_thm51(chain, cert, [np.ones(41)])
        assert rep["passed"]

    def test_mminf_random_scan(self, rng):
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        dens = [random_density(chain, rng, concentration=0.8) for _ in range(200)]
        rep = verify_thm51(chain, cert, dens)
        assert rep["passed"]
        assert rep["worst_slack"] >= -1e-8

    def test_uncertified_rejected(self, rng):
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        bad = certify_H(chain, cert.U, cert.phi + 1.0, cert.b)
        with pytest.raises(NotCertified):
            verify_thm51(chain, bad, [np.ones(41)])

    def test_beta_potential_scan(self, rng):
        model = beta_potential_example(2.0, grid=Grid1D.uniform(-6, 6, 241))
        chain = discretize(model.spec, model.grid)
        cert = certify_H(chain, model.U, model.phi, model.b,
                         exclude=(0, chain.n - 1))
        assert cert.certified
        dens = [random_density(chain, rng, concentration=0.8) for _ in range(100)]
        rep = verify_thm51(chain, cert, dens)
        assert rep["passed"]


class TestCor52Alpha:
    def test_zero_at_zero(self):
        a = cor52_alpha(1.0, 2.0)
        assert a(0.0) == 0.0

    def test_values(self):
        assert cor52_alpha(1.0, 2.0)(1.0) == pytest.approx(1.0, abs=1e-12)
        assert cor52_alpha(1.0, 4.0)(1.0) == pytest.approx(3.0, abs=1e-12)

    def test_feeds_dual_verification(self, rng):
        # T_Phi I with Phi = {(u, u): |u| <= phi^{1/p}} on the queue chain
        from transinfo.feynman_kac import PhiPair, verify_tphi_dual
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        p = 2.0
        cap = np.maximum(cert.phi, 1e-6) ** (1.0 / p)
        alpha = cor52_alpha(5e-4, p)   # generous kappa: sanity of the plumbing
        pairs = []
        for _ in range(4):
            u = rng.uniform(-1.0, 1.0, chain.n) * cap
            pairs.append(PhiPair.validate(u, u))
        rep = verify_tphi_dual(chain, pairs, alpha, np.array([0.05, 0.2]))
        assert rep.passed


class TestLsiConstant:
    def test_hand_values(self):
        assert lsi_constant_from_lyapunov(0.0, 2.0, 0.0, 0.0, 1.0) == pytest.approx(4.0)
        assert lsi_constant_from_lyapunov(-2.0, 1.0, 1.0, 0.5, 1.0) == pytest.approx(13.0)

    def test_positive_curvature_rejected(self):
        with pytest.raises(ValueError):
            lsi_constant_from_lyapunov(0.5, 1.0, 0.0, 0.0, 1.0)

    def test_bound_dominates_entropy_on_samples(self, rng):
        # H <= bound * I on a discretized Gaussian-like example with the
        # quadratic phi = c d(x,0)^2 certificate
        from transinfo.chains import fisher_information, relative_entropy
        from transinfo.diffusion1d import ou_spec
        grid = Grid1D.uniform(-6.0, 6.0, 121)
        ch = discretize(ou_spec(), grid)
        x = grid.nodes
        lam = 0.25
        U = np.exp(lam * x * x / 2.0)
        ratio = drift_ratio(ch, U)
        c_phi = 0.1
        phi = c_phi * x * x
        interior = np.ones(ch.n, dtype=bool)
        interior[[0, -1]] = False
        b = float(np.max((phi - ratio)[interior]))
        cert = certify_H(ch, U, phi, b, exclude=(0, ch.n - 1))
        assert cert.certified
        _, c_p = spectral_gap(ch)
        bound = lsi_constant_from_lyapunov(0.0, c_phi, cert.b,
                                           float(np.dot(ch.mu, phi)), c_p)
        for _ in range(50):
            f = random_density(ch, rng)
            info = fisher_information(ch, Density.validate(ch.mu, f))
            if info < 1e-12:
                continue
            ent = relative_entropy(ch, Density.validate(ch.mu, f))
            assert ent <= bound * info + 1e-9


class TestMminfGenerator:
    def test_poisson_measure(self):
        chain, mu = mminf_generator(1.0, 40)
        assert chain.mu[0] == pytest.approx(math.exp(-1.0), rel=1e-10)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        with pytest.raises(TruncationTooSmall):
            mminf_generator(5.0, 10)

    @pytest.mark.parametrize("lam, n_max", [(1.0, 40), (0.3, 12), (7.5, 60)])
    def test_equal_to_the_dense_construction(self, lam, n_max):
        chain, mu = mminf_generator(lam, n_max)
        rates = np.diag(np.full(n_max, lam), 1) + np.diag(np.arange(1.0, n_max + 1), -1)
        ref = dense_build_chain(rates, mu=mu, states=[str(k) for k in range(n_max + 1)])
        assert chain.states == ref.states
        for got, want in zip([*chain.rates, chain.mu, chain.exit_rates, *chain.edges, *chain.band],
                             [*ref.rates, ref.mu, ref.exit_rates, *ref.edges, *ref.band]):
            assert np.array_equal(got, want)
        assert "Q" not in chain.__dict__

    def test_detailed_balance_exact(self):
        chain, _ = mminf_generator(1.0, 40)
        flow = chain.mu[:, None] * chain.Q
        assert np.max(np.abs(flow - flow.T)) < 1e-14

    def test_matches_scipy_stats_poisson(self):
        from scipy.stats import poisson
        for lam, n_max in ((0.3, 12), (1.0, 40), (7.5, 60), (20.0, 90)):
            _, mu = mminf_generator(lam, n_max)
            weights = poisson.pmf(np.arange(n_max + 1), lam)
            np.testing.assert_array_equal(mu, weights / weights.sum())
        for lam, n_max in ((5.0, 10), (5.0, 25), (30.0, 60)):
            if poisson.sf(n_max, lam) >= 1e-10:
                with pytest.raises(TruncationTooSmall):
                    mminf_generator(lam, n_max)
            else:
                mminf_generator(lam, n_max)


class TestBetaPotential:
    def test_beta_one_bounded_phi(self):
        model = beta_potential_example(1.0, grid=Grid1D.uniform(-5, 5, 201))
        # |V'| constant outside the blend: phi bounded
        assert np.max(model.phi) < 10 * np.min(model.phi[model.phi > 0]) + 10
        assert model.p_exponent is None

    def test_beta_two_quadratic_phi(self):
        model = beta_potential_example(2.0, grid=Grid1D.uniform(-5, 5, 201))
        x = model.grid.nodes
        outer = np.abs(x) > 1.5
        ratio = model.phi[outer] / (x[outer] ** 2)
        assert np.max(ratio) / np.min(ratio) < 1.5   # phi ~ quadratic
        assert model.p_exponent == pytest.approx(2.0)

    def test_beta_three_super_gaussian_tag(self):
        model = beta_potential_example(3.0, grid=Grid1D.uniform(-3, 3, 201))
        assert model.p_exponent == pytest.approx(4.0)

    @pytest.mark.parametrize("beta", [5.0, 50.0, 1e300])
    def test_beta_beyond_the_grid_fails_by_name(self, beta):
        # e^-|6|^beta is below the smallest normal double
        message = f"^beta {re.escape(repr(beta))} is too large for the grid: .* node 6\\.0$"
        with pytest.raises(ModelValidation, match=message):
            beta_potential_example(beta)

    def test_beta_fits_a_narrower_grid_and_three_and_a_half_the_default(self):
        # 3^5 and 6^3.5 both keep e^-V a normal double
        assert beta_potential_example(5.0, grid=Grid1D.uniform(-3, 3, 201)).b > 0
        model = beta_potential_example(3.5)
        cert = certify_H(model.chain, model.U, model.phi, model.b, exclude=(0, model.chain.n - 1))
        assert cert.certified
        assert verify_thm51(model.chain, cert, [np.ones(model.chain.n)])["passed"]

    def test_certified_after_discretization(self):
        model = beta_potential_example(2.0, grid=Grid1D.uniform(-6, 6, 241))
        ch = discretize(model.spec, model.grid)
        cert = certify_H(ch, model.U, model.phi, model.b, exclude=(0, ch.n - 1))
        assert cert.certified

    def test_blend_is_c2_at_one(self):
        from transinfo.lyapunov import _blended_potential
        for beta in (1.0, 2.0, 3.0):
            V, Vp, Vpp = _blended_potential(beta)
            eps = 1e-7
            assert V(1 - eps) == pytest.approx(V(1 + eps), abs=1e-6)
            assert Vp(1 - eps) == pytest.approx(Vp(1 + eps), abs=1e-5)
            assert Vpp(1 - eps) == pytest.approx(Vpp(1 + eps), abs=1e-4)
