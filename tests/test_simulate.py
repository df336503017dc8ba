import math

import numpy as np
import pytest

from transinfo.chains import build_chain, spectral_gap
from transinfo.diffusion1d import DiffusionSpec1D, ou_sigma2
from transinfo.errors import ModelValidation, StepTooLarge
from transinfo.simulate import (
    DeviationEstimate,
    EnsembleConfig,
    OUModel,
    clopper_pearson,
    hoeffding_bound,
    lipschitz_gauss_bound,
    mu_of_observable,
    sample_time_average,
    tail_estimate,
    tensor_deviation_demo,
    _cumulative_table,
)
from transinfo.transport import RateFunction

from conftest import bernoulli_chain


class TestClopperPearson:
    def test_extremes(self):
        lo, hi = clopper_pearson(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.08
        lo, hi = clopper_pearson(100, 100)
        assert hi == 1.0
        assert lo > 0.92

    def test_contains_rate(self):
        lo, hi = clopper_pearson(50, 100)
        assert lo < 0.5 < hi

    def test_exactness_against_binomial_cdf(self):
        # CP bounds are defined by binomial tail equations; check one case
        from scipy.stats import binom
        hits, n = 7, 50
        lo, hi = clopper_pearson(hits, n, level=0.99)
        assert binom.sf(hits - 1, n, lo) == pytest.approx(0.005, abs=1e-10)
        assert binom.cdf(hits, n, hi) == pytest.approx(0.005, abs=1e-10)

    def test_matches_scipy_stats_beta_quantiles(self, rng):
        from scipy.stats import beta
        for _ in range(200):
            n = int(rng.integers(1, 100000))
            hits = int(rng.integers(0, n + 1))
            level = float(rng.choice([0.9, 0.95, 0.99]))
            tail = (1.0 - level) / 2.0
            lo, hi = clopper_pearson(hits, n, level=level)
            assert lo == (0.0 if hits == 0 else float(beta.ppf(tail, hits, n - hits + 1)))
            assert hi == (1.0 if hits == n else float(beta.ppf(1.0 - tail, hits + 1, n - hits)))


class TestBoundFormulas:
    def test_hoeffding_values(self):
        assert hoeffding_bound(0.21, 1.0, 50.0, 0.3) == pytest.approx(
            math.exp(-50 * 0.09 / 0.21), rel=1e-12)
        # doubling t squares the bound
        b1 = hoeffding_bound(0.21, 1.0, 10.0, 0.3)
        b2 = hoeffding_bound(0.21, 1.0, 20.0, 0.3)
        assert b2 == pytest.approx(b1 * b1, rel=1e-10)

    def test_hoeffding_r_to_zero(self):
        assert hoeffding_bound(1.0, 1.0, 10.0, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_lipschitz_gauss_values(self):
        assert lipschitz_gauss_bound(1.0, 1.0, 100.0, 0.5) == pytest.approx(
            math.exp(-6.25), rel=1e-12)
        assert lipschitz_gauss_bound(1.0, 1.0, 10.0, 0.0) == 1.0
        # quadrupling C^2 divides the exponent by 4
        b1 = lipschitz_gauss_bound(1.0, 1.0, 10.0, 0.5)
        b4 = lipschitz_gauss_bound(2.0, 1.0, 10.0, 0.5)
        assert math.log(b4) == pytest.approx(math.log(b1) / 4.0, rel=1e-10)


class TestChainSampling:
    def test_constant_observable(self):
        ch = bernoulli_chain(0.3)
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=5.0, n_paths=50, master_seed=1)
        vals = sample_time_average(cfg, np.ones(2))
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)

    def test_stationary_mean_within_clt(self):
        ch = bernoulli_chain(0.3)
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=50.0, n_paths=4000, master_seed=2)
        vals = sample_time_average(cfg, np.array([0.0, 1.0]))
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 0.3) <= 3 * se

    def test_bitwise_reproducible(self):
        ch = bernoulli_chain(0.4)
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=8.0, n_paths=300, master_seed=9)
        a = sample_time_average(cfg, np.array([0.0, 1.0]))
        b = sample_time_average(cfg, np.array([0.0, 1.0]))
        assert np.array_equal(a, b)

    def test_path_prefix_stability(self):
        # per-path seeding: the first paths of a larger ensemble coincide
        ch = bernoulli_chain(0.4)
        u = np.array([0.0, 1.0])
        small = EnsembleConfig(model=ch, beta=ch.mu, t=8.0, n_paths=100, master_seed=9)
        large = EnsembleConfig(model=ch, beta=ch.mu, t=8.0, n_paths=200, master_seed=9)
        np.testing.assert_array_equal(sample_time_average(small, u),
                                      sample_time_average(large, u)[:100])
        # and across the sampler's 1,024-path chunks
        runs = {n: sample_time_average(
                    EnsembleConfig(model=ch, beta=ch.mu, t=8.0, n_paths=n, master_seed=9), u)
                for n in (1024, 1030, 2100)}
        np.testing.assert_array_equal(runs[1024], runs[1030][:1024])
        np.testing.assert_array_equal(runs[1030], runs[2100][:1030])
        np.testing.assert_array_equal(runs[1024][:200], sample_time_average(large, u))

    def test_cumulative_tables_never_overrun(self):
        # the largest uniform a generator returns must land on a state with
        # mass even when the weights' cumulative sum ends below it
        top = np.nextafter(1.0, 0.0)
        beta = np.array([0.5, 0.5 - 5e-10])          # accepted: sums to 1 - 5e-10
        row = np.array([1.9, 3.0, 0.0]) / 4.9        # normalized jump row of state 2
        for weights in (beta, row):
            assert np.searchsorted(np.cumsum(weights), top) == len(weights)
            table = _cumulative_table(weights)
            assert weights[np.searchsorted(table, top)] > 0
            assert weights[int((table < top).sum())] > 0
            last = np.flatnonzero(weights)[-1]
            np.testing.assert_array_equal(table[:last], np.cumsum(weights)[:last])
            assert np.all(table[last:] == 1.0)

    def test_three_state_occupation(self):
        rates = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
        ch = build_chain(rates)
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=80.0, n_paths=800, master_seed=3)
        for k in range(3):
            u = np.zeros(3)
            u[k] = 1.0
            vals = sample_time_average(cfg, u)
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            assert abs(vals.mean() - ch.mu[k]) <= 4 * se

    def test_invalid_beta_rejected(self):
        ch = bernoulli_chain(0.3)
        with pytest.raises(ModelValidation):
            EnsembleConfig(model=ch, beta=np.array([0.6, 0.6]), t=1.0,
                           n_paths=10, master_seed=0)

    @pytest.mark.parametrize("beta", [[math.nan, math.nan], [math.nan, 1.0], [1.0, math.nan],
                                      [math.inf, 0.0], [math.inf, -math.inf]])
    def test_non_finite_beta_rejected(self, beta):
        # NaN fails both b < 0 and the mass check, so [nan, nan] used to sample
        ch = bernoulli_chain(0.3)
        with pytest.raises(ModelValidation, match="probability vector"):
            EnsembleConfig(model=ch, beta=np.array(beta), t=1.0, n_paths=10, master_seed=0)


class TestSeedAndCount:
    MODELS = [
        (bernoulli_chain(0.3), [0.3, 0.7]),
        (OUModel(), "stationary"),
        (DiffusionSpec1D(-4.0, 4.0, a=lambda x: 1.0, b=lambda x: -x, c_ref=0.0), 0.5),
    ]

    @pytest.mark.parametrize("model,beta", MODELS)
    @pytest.mark.parametrize("seed", [1.5, True, -1, 2**64])
    def test_bad_seed_rejected(self, no_draws, model, beta, seed):
        # 1.5 and True sampled seed 1's paths; -1 and 2**64 leaked numpy's OverflowError
        with pytest.raises(ModelValidation, match="master seed must be an integer"):
            sample_time_average(EnsembleConfig(model=model, beta=beta, t=1.0, n_paths=10,
                                               master_seed=seed, sde_step=0.01), None)

    @pytest.mark.parametrize("model,beta", MODELS)
    @pytest.mark.parametrize("n_paths", [2.5, True, 0])
    def test_bad_path_count_rejected(self, no_draws, model, beta, n_paths):
        with pytest.raises(ModelValidation, match="path count must be an integer"):
            sample_time_average(EnsembleConfig(model=model, beta=beta, t=1.0, n_paths=n_paths,
                                               master_seed=0, sde_step=0.01), None)

    def test_tensor_demo_seed_checked(self, no_draws):
        ch = bernoulli_chain(0.3)
        with pytest.raises(ModelValidation, match="master seed"):
            tensor_deviation_demo(ch, np.array([0.0, 1.0]), np.array([0.0, 1.0]), 2, 1.0, 0.2,
                                  10, RateFunction.quadratic(1.0), seed=-1)


class TestOUSampling:
    def test_variance_matches_sigma2(self):
        cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=10.0,
                             n_paths=6000, master_seed=11, sde_step=0.005)
        vals = sample_time_average(cfg, None)
        target = ou_sigma2(10.0)
        se_var = target * math.sqrt(2.0 / len(vals))
        assert abs(vals.var(ddof=1) - target) <= 3 * se_var

    def test_euler_matches_exact_distribution(self):
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                               b=lambda x: -x, c_ref=0.0)
        exact_cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=5.0,
                                   n_paths=3000, master_seed=21, sde_step=0.01)
        exact_vals = sample_time_average(exact_cfg, None)
        euler_cfg = EnsembleConfig(model=spec, beta=0.0, t=5.0,
                                   n_paths=3000, master_seed=22, sde_step=1e-3)
        euler_vals = sample_time_average(euler_cfg, lambda x: x)
        # point start vs stationary start differ at O(1/t) in mean; compare
        # variances within joint 3-standard-error windows
        se = math.sqrt(exact_vals.var() ** 2 * 2 / len(exact_vals)
                       + euler_vals.var() ** 2 * 2 / len(euler_vals)) \
            / max(exact_vals.var(), 1e-9)
        assert abs(exact_vals.var() - euler_vals.var()) <= 4 * max(se, 0.01)

    def test_step_guard(self):
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                               b=lambda x: -x, c_ref=0.0)
        cfg = EnsembleConfig(model=spec, beta=0.0, t=1.0, n_paths=5,
                             master_seed=0, sde_step=0.5)
        with pytest.raises(StepTooLarge):
            sample_time_average(cfg, lambda x: x)

    def test_euler_negative_a_on_a_path_rejected(self):
        # a is checked positive on the probe points only; a path that reaches
        # a point where a < 0 must not turn into silent NaN samples
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0 if x < 20.0 else -1.0,
                               b=lambda x: 0.0, c_ref=0.0)
        cfg = EnsembleConfig(model=spec, beta=25.0, t=0.1, n_paths=3,
                             master_seed=0, sde_step=0.01)
        with np.errstate(invalid="ignore"), pytest.raises(ModelValidation):
            sample_time_average(cfg, lambda x: x)

    def test_unknown_start_string_rejected(self):
        # a misspelt start used to run Euler from c_ref and fail OU mid-sampling
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                               b=lambda x: -x, c_ref=0.0)
        for model in (OUModel(), spec):
            with pytest.raises(ModelValidation):
                EnsembleConfig(model=model, beta="statonary", t=1.0, n_paths=5, master_seed=0)
            EnsembleConfig(model=model, beta="stationary", t=1.0, n_paths=5, master_seed=0)
            EnsembleConfig(model=model, beta=0.5, t=1.0, n_paths=5, master_seed=0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_point_rejected(self, beta):
        for model in _diffusions():
            with pytest.raises(ModelValidation, match="finite point"):
                EnsembleConfig(model=model, beta=beta, t=1.0, n_paths=5, master_seed=0)

    def test_stationary_means_by_quadrature(self):
        # E|X| = sqrt(2/pi) and E X = 0 under N(0, 1); a non-callable v means X itself
        cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=1.0, n_paths=1,
                             master_seed=0)
        assert mu_of_observable(cfg, np.abs) == pytest.approx(math.sqrt(2.0 / math.pi),
                                                              abs=1e-9)
        assert mu_of_observable(cfg, lambda x: x) == pytest.approx(0.0, abs=1e-9)
        assert mu_of_observable(cfg, None) == pytest.approx(0.0, abs=1e-9)


def _diffusions():
    spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                           b=lambda x: -x, c_ref=0.0)
    return OUModel(), spec


class TestStepGrid:
    # the samplers integrate over round(t/h) steps of h and divide by t
    @pytest.mark.parametrize("t,h", [(100.0, 0.01), (10.0, 0.005), (5.0, 1e-3),
                                     (0.1, 0.01), (1.0, 0.5)])
    def test_grids_that_tile_the_horizon(self, t, h):
        one = lambda x: np.ones_like(x)
        for model in _diffusions():
            cfg = EnsembleConfig(model=model, beta=0.3, t=t, n_paths=2,
                                 master_seed=0, sde_step=h)
            if h > 0.1 and not isinstance(model, OUModel):
                continue                  # the Euler step guard
            got = sample_time_average(cfg, one)
            assert np.all(np.abs(got - 1.0) <= 1e-9)

    @pytest.mark.parametrize("t,h", [(0.015, 0.01), (0.004, 0.01), (1.0, 0.0),
                                     (1.0, -0.01), (1.0, math.nan), (1.0, math.inf),
                                     (1.0, 5e-324)])
    def test_grids_that_do_not_tile_rejected(self, t, h):
        # 0.015 used to average the constant 1 to 1.333, and 0.004 to 0.0
        for model in _diffusions():
            with pytest.raises(ModelValidation):
                EnsembleConfig(model=model, beta=0.0, t=t, n_paths=2,
                               master_seed=0, sde_step=h)

    def test_chain_ignores_the_step(self):
        ch = bernoulli_chain(0.3)
        EnsembleConfig(model=ch, beta=ch.mu, t=0.015, n_paths=2, master_seed=0,
                       sde_step=0.01)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_horizon_positive_and_finite(self, t):
        ch = bernoulli_chain(0.3)
        for model, beta in ((ch, ch.mu), *((m, 0.0) for m in _diffusions())):
            with pytest.raises(ModelValidation):
                EnsembleConfig(model=model, beta=beta, t=t, n_paths=2, master_seed=0)


class TestTailEstimate:
    def test_vanishes_beyond_oscillation(self):
        # r > delta(u): the time average cannot exceed max(u), so p_hat = 0
        ch = bernoulli_chain(0.3)
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=10.0, n_paths=2000, master_seed=5)
        u = np.array([0.0, 1.0])
        _, c_p = spectral_gap(ch)
        alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0)
        est = tail_estimate(cfg, u, u, 1.2, alpha)
        assert est.p_hat == 0.0
        assert est.verdict == "consistent"

    def test_bernoulli_hoeffding_consistent(self):
        ch = bernoulli_chain(0.3)
        _, c_p = spectral_gap(ch)
        u = np.array([0.0, 1.0])
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=20.0, n_paths=20000, master_seed=6)
        samples = sample_time_average(cfg, u)
        alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0)   # alpha(r) = r^2/c_P
        for r in (0.1, 0.2, 0.3):
            est = tail_estimate(cfg, u, u, r, alpha, samples=samples)
            assert est.verdict == "consistent"
            assert est.bound_value == pytest.approx(
                hoeffding_bound(c_p, 1.0, 20.0, r), rel=1e-12)

    def test_stationary_start_norm_one(self):
        ch = bernoulli_chain(0.3)
        cfg = EnsembleConfig(model=ch, beta=ch.mu, t=5.0, n_paths=100, master_seed=7)
        assert cfg.beta_l2() == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_diffusion_inconclusive(self):
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                               b=lambda x: -x, c_ref=0.0)
        cfg = EnsembleConfig(model=spec, beta=0.0, t=2.0, n_paths=50,
                             master_seed=8, sde_step=0.01)
        est = tail_estimate(cfg, lambda x: x, lambda x: x, 0.5,
                            RateFunction.quadratic(1.0), mu_v=0.0)
        assert est.verdict == "inconclusive"


class TestTensorDemo:
    def test_single_copy_reduces_to_tail(self):
        ch = bernoulli_chain(0.3)
        _, c_p = spectral_gap(ch)
        u = np.array([0.0, 1.0])
        alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0)
        est = tensor_deviation_demo(ch, u, u, 1, 10.0, 0.2, 3000, alpha, seed=12)
        assert est.verdict == "consistent"
        assert est.bound_value == pytest.approx(math.exp(-10 * alpha(0.2)), rel=1e-12)

    def test_bound_exponent_linear_in_copies(self):
        ch = bernoulli_chain(0.3)
        u = np.array([0.0, 1.0])
        alpha = RateFunction.quadratic(0.25)
        e1 = tensor_deviation_demo(ch, u, u, 1, 5.0, 0.2, 500, alpha, seed=13)
        e2 = tensor_deviation_demo(ch, u, u, 2, 5.0, 0.2, 500, alpha, seed=13)
        assert e2.bound_value == pytest.approx(e1.bound_value ** 2, rel=1e-10)

    def test_four_copies_consistent(self):
        ch = bernoulli_chain(0.3)
        _, c_p = spectral_gap(ch)
        u = np.array([0.0, 1.0])
        alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0)
        est = tensor_deviation_demo(ch, u, u, 4, 10.0, 0.15, 4000, alpha, seed=14)
        assert est.verdict == "consistent"

    def test_desk_scale_guard(self):
        ch = bernoulli_chain(0.3)
        with pytest.raises(ModelValidation):
            tensor_deviation_demo(ch, np.zeros(2), np.zeros(2), 1000, 1.0, 0.1,
                                  100000, RateFunction.quadratic(1.0), seed=0)
