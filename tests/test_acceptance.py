"""Acceptance gate: one test per criterion, each printing PASS/FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from transinfo.chains import (
    Density,
    build_chain,
    dirichlet_energy,
    fisher_information,
    line_metric,
    product_chain,
    spectral_gap,
    trivial_metric,
)
from transinfo.diffusion1d import (
    Grid1D,
    Warp,
    c_rho,
    discretize,
    lip_poisson_ratio,
    ou_sigma2,
    ou_spec,
    ou_tail_lograte,
)
from transinfo.feynman_kac import (
    best_w1i,
    best_w2i,
    fk_norm,
    lambda_max,
    legendre_of_info,
)
from transinfo.lyapunov import (
    certify_H,
    drift_info_bound_check,
    beta_potential_example,
    mminf_certificate,
    verify_thm51,
)
from transinfo.simulate import (
    EnsembleConfig,
    OUModel,
    hoeffding_bound,
    lipschitz_gauss_bound,
    sample_time_average,
    tail_estimate,
)
from transinfo.transport import (
    CostMatrix,
    RateFunction,
    alpha_infconv,
    conditional_fisher_sum,
    ot_cost,
    tensor_subadditivity_check,
    w1,
)
from transinfo.trivial_metric import (
    ckp_extremal,
    ckp_gap,
    default_p_grid,
    fk_growth_mc,
    hellinger_check,
    jump_spectrum,
    rho,
    rho_sup_scan,
)

from conftest import bernoulli_chain, fk_norm_expm, random_reversible_chain, random_density


def report(criterion: str, passed: bool, detail: str = ""):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion} {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_bernoulli_poincare():
    worst = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        _, c_p = spectral_gap(bernoulli_chain(float(p)))
        worst = max(worst, abs(c_p - p * (1 - p)))
    report("1 Bernoulli Poincare c_P = p(1-p)", worst <= 1e-10,
           f"worst |c_P - pq| = {worst:.3e}")


def test_criterion_02_ckp_scan():
    rng = np.random.default_rng(101)
    worst_violation = -math.inf
    worst_hellinger = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        mu = rng.dirichlet(np.ones(n))
        mu = np.maximum(mu, 1e-4)
        mu /= mu.sum()
        f = rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0)) / mu
        f /= float(np.dot(mu, f))
        tv2, four_var = ckp_gap(mu, f)
        worst_violation = max(worst_violation, tv2 - four_var)
        quarter, bound = hellinger_check(mu, f)
        var = 1.0 - float(np.dot(mu, np.sqrt(f))) ** 2
        worst_hellinger = max(worst_hellinger, abs(bound - var))
    worst_equality = 0.0
    for p in np.arange(0.1, 0.95, 0.1):
        mu2 = np.array([p, 1.0 - p])
        tv2, four_var = ckp_gap(mu2, ckp_extremal(float(p), mu2))
        worst_equality = max(worst_equality, abs(tv2 - four_var))
    ok = worst_violation <= 1e-12 and worst_equality <= 1e-10 and worst_hellinger <= 1e-12
    report("2 CKP scan TV^2 <= 4 Var(sqrt f)", ok,
           f"violation {worst_violation:.2e}, extremal gap {worst_equality:.2e}, "
           f"Hellinger identity {worst_hellinger:.2e}")


def test_criterion_03_rho_sharpness():
    worst_eq = 0.0
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        p_star = (1.0 - lam) / 2.0
        worst_eq = max(worst_eq, abs(jump_spectrum(p_star, lam).growth - lam * lam))
    worst_excess = -math.inf
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9, 2.0):
        scan = rho_sup_scan(lam, default_p_grid())
        worst_excess = max(worst_excess, float(np.max(scan["growths"])) - rho(lam))
    scan2 = rho_sup_scan(2.0, default_p_grid())
    super_ok = bool(np.all(scan2["growths"] < 3.0) and scan2["sup"] > 2.9)
    ok = worst_eq <= 1e-10 and worst_excess <= 1e-10 and super_ok
    report("3 rho(lambda) sharpness", ok,
           f"equality gap {worst_eq:.2e}, sup excess {worst_excess:.2e}, "
           f"lambda=2 sup {scan2['sup']:.4f}")


def test_criterion_04_feynman_kac_duality():
    rng = np.random.default_rng(404)
    worst_leg = 0.0
    worst_norm = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 7))
        ch = random_reversible_chain(n, rng)
        u = rng.standard_normal(n)
        for lam in (0.5, 1.0, 2.0):
            a = lambda_max(ch, lam * u)
            b = legendre_of_info(ch, u, lam, multistarts=16)
            worst_leg = max(worst_leg, abs(a - b))
        e1 = fk_norm(ch, u, 10.0)
        e2 = fk_norm_expm(ch, u, 10.0)
        worst_norm = max(worst_norm, abs(e1 - e2) / e1)
    ok = worst_leg <= 1e-5 and worst_norm <= 1e-8
    report("4 Feynman-Kac duality", ok,
           f"worst |Lambda - Legendre| = {worst_leg:.2e}, "
           f"worst norm-route rel err = {worst_norm:.2e}")


def test_criterion_05_ou_sharp_rate():
    val = ou_tail_lograte(1.0, 2000.0)
    sig = ou_sigma2(2.0)
    ok = -0.256 <= val <= -0.250 and abs(sig - (1 - (1 - math.exp(-2)) / 2)) <= 1e-12
    report("5 OU sharp rate", ok, f"lograte(1,2000) = {val:.6f}, sigma2(2) ok")


def test_criterion_06_c_rho_poisson_oracle():
    spec = ou_spec()
    grid = Grid1D.uniform(-6.0, 6.0, 400)
    ou_c = c_rho(spec, Warp.identity(), grid)
    ou_ratio = lip_poisson_ratio(spec, grid, Warp.identity())
    from transinfo.diffusion1d import DiffusionSpec1D
    quart = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                            b=lambda x: -x ** 3, c_ref=0.0)
    qgrid = Grid1D.uniform(-4.0, 4.0, 400)
    q_c = c_rho(quart, Warp.identity(), qgrid)
    q_ratio = lip_poisson_ratio(quart, qgrid, Warp.identity())
    gap_ok = True
    detail_gaps = []
    for sp, gr in ((spec, grid), (quart, qgrid)):
        _, c_p = spectral_gap(discretize(sp, gr))
        for warp in (Warp.identity(), Warp.tanh_blend(), Warp.intrinsic(sp)):
            cr = c_rho(sp, warp, gr)
            detail_gaps.append(c_p / cr)
            gap_ok = gap_ok and (c_p <= cr * 1.02 + 1e-12)
    ok = abs(ou_c - 1.0) <= 1e-6 and abs(ou_ratio - 1.0) <= 1e-3 \
        and abs(q_c - q_ratio) <= 1e-3 and gap_ok
    report("6 C(rho) and Poisson oracle", ok,
           f"OU c_rho-1 = {ou_c - 1:.2e}, OU ratio-1 = {ou_ratio - 1:.2e}, "
           f"quartic |c-ratio| = {abs(q_c - q_ratio):.2e}, max c_P/C = {max(detail_gaps):.4f}")


def test_criterion_07_gaussian_closed_forms():
    spec = ou_spec()
    grid = Grid1D.uniform(-8.0, 8.0, 400)
    chain = discretize(spec, grid)
    f = np.exp(0.5 * grid.nodes - 0.125)
    f /= float(np.dot(chain.mu, f))
    info = fisher_information(chain, Density.validate(chain.mu, f))
    d = line_metric(grid.nodes)
    nu = chain.mu * f
    dist_fast = w1(d, nu, chain.mu)
    dist_lp, _ = ot_cost(CostMatrix.from_metric(d, 1), nu, chain.mu)
    _, c_p = spectral_gap(chain)
    ok = abs(info - 0.0625) <= 0.01 * 0.0625 \
        and abs(dist_fast - 0.5) <= 0.01 * 0.5 \
        and abs(dist_lp - 0.5) <= 0.01 * 0.5 \
        and abs(c_p - 1.0) <= 0.01
    report("7 Gaussian closed forms on the grid", ok,
           f"I = {info:.6f} (target 0.0625), W1 = {dist_fast:.6f} / LP {dist_lp:.6f}, "
           f"c_P = {c_p:.6f}")


def test_criterion_08_best_constant_searches():
    rng = np.random.default_rng(808)
    worst_gap = 0.0
    for k in range(10):
        ch = random_reversible_chain(4, rng)
        pts = rng.uniform(0.0, 2.0, size=(4, 2))
        dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        from transinfo.chains import MetricMatrix
        d = MetricMatrix.validate(dmat)
        rep = best_w1i(ch, d, seed=900 + k)
        worst_gap = max(worst_gap, abs(rep.c_dual - rep.c_primal))
    bern = best_w2i(bernoulli_chain(0.3), trivial_metric(2))
    probe = dict(bern.probe)
    spec = ou_spec()
    grid = Grid1D.uniform(-6.0, 6.0, 400)
    chain = discretize(spec, grid)
    gauss = best_w1i(chain, line_metric(grid.nodes), primal_starts=4)
    ok = worst_gap <= 1e-3 and bern.diverged and probe[1e-4] >= 1e3 \
        and abs(gauss.c_dual - 1.0) <= 0.02
    report("8 best-constant searches", ok,
           f"worst W1I dual-primal gap = {worst_gap:.2e}, Bernoulli diverged "
           f"(ratio@1e-4 = {probe[1e-4]:.0f}), Gaussian c = {gauss.c_dual:.4f}")


def test_criterion_09_tensorization():
    rng = np.random.default_rng(909)
    c1 = random_reversible_chain(3, rng)
    c2 = random_reversible_chain(3, rng)
    prod = product_chain([c1, c2])
    worst_fisher = 0.0
    for _ in range(100):
        f = random_density(prod, rng)
        lhs = fisher_information(prod, Density.validate(prod.mu, f))
        rhs = conditional_fisher_sum([c1, c2], prod.mu * f)
        worst_fisher = max(worst_fisher, abs(lhs - rhs))
    cost = CostMatrix.validate(np.ones((3, 3)) - np.eye(3))
    worst_sub = -math.inf
    for _ in range(100):
        nu = rng.dirichlet(np.ones(9)).reshape(3, 3)
        lhs, rhs = tensor_subadditivity_check([cost, cost], nu, [c1.mu, c2.mu])
        worst_sub = max(worst_sub, lhs - rhs)
    alpha = RateFunction.quadratic(0.9)
    worst_inf = max(abs(alpha_infconv([alpha, alpha], float(r)) - 2 * alpha(r / 2))
                    for r in np.linspace(0.0, 5.0, 100))
    ok = worst_fisher <= 1e-8 and worst_sub <= 1e-9 and worst_inf <= 1e-10
    report("9 tensorization", ok,
           f"Fisher additivity gap {worst_fisher:.2e}, subadditivity excess "
           f"{worst_sub:.2e}, infconv gap {worst_inf:.2e}")


def test_criterion_10_lyapunov_suite():
    rng = np.random.default_rng(1010)
    worst_slack = math.inf
    for _ in range(10):
        n = int(rng.integers(3, 7))
        ch = random_reversible_chain(n, rng)
        U = 1.0 + rng.uniform(0.0, 4.0, n)
        dens = [random_density(ch, rng) for _ in range(1000)]
        worst_slack = min(worst_slack, drift_info_bound_check(ch, U, dens))
    mchain, mcert = mminf_certificate(1.0, 40, math.log(2.0))
    mdens = [random_density(mchain, rng, concentration=0.8) for _ in range(1000)]
    mrep = verify_thm51(mchain, mcert, mdens)
    model = beta_potential_example(2.0, grid=Grid1D.uniform(-6.0, 6.0, 241))
    bchain = discretize(model.spec, model.grid)
    bcert = certify_H(bchain, model.U, model.phi, model.b, exclude=(0, bchain.n - 1))
    bdens = [random_density(bchain, rng, concentration=0.8) for _ in range(1000)]
    brep = verify_thm51(bchain, bcert, bdens)
    ok = worst_slack >= -1e-10 and mcert.certified and mcert.max_violation <= 1e-10 \
        and mrep["passed"] and bcert.certified and brep["passed"]
    report("10 Lyapunov suite", ok,
           f"drift-info slack {worst_slack:.2e}, queue max violation "
           f"{mcert.max_violation:.2e}, thm-verify worst slacks "
           f"{mrep['worst_slack']:.3g} / {brep['worst_slack']:.3g}")


def test_criterion_11_monte_carlo_bounds():
    # Bernoulli Hoeffding at three radii from a single 1e5-path ensemble
    ch = bernoulli_chain(0.3)
    _, c_p = spectral_gap(ch)
    u = np.array([0.0, 1.0])
    alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0)   # alpha(r) = r^2 / c_P
    cfg = EnsembleConfig(model=ch, beta=ch.mu, t=20.0, n_paths=100_000,
                         master_seed=111)
    samples = sample_time_average(cfg, u)
    verdicts = []
    for r in (0.1, 0.2, 0.3):
        est = tail_estimate(cfg, u, u, r, alpha, samples=samples)
        assert est.bound_value == pytest.approx(hoeffding_bound(c_p, 1.0, 20.0, r),
                                                rel=1e-12)
        verdicts.append(est.verdict)

    # two-point jump exponential moment vs the matrix-exponential oracle
    growth = fk_growth_mc(0.35, 0.3, 30.0, 100_000, seed=222)
    growth_ok = abs(growth.estimate - growth.exact_finite_t) <= 3.0 * growth.std_error

    # OU with exact updates against the Lipschitz-Gaussian bound
    ou_cfg = EnsembleConfig(model=OUModel(), beta="stationary", t=100.0,
                            n_paths=10_000, master_seed=333, sde_step=0.01)
    ou_est = tail_estimate(ou_cfg, None, None, 0.5,
                           RateFunction.quadratic(1.0), mu_v=0.0)
    assert ou_est.bound_value == pytest.approx(
        lipschitz_gauss_bound(1.0, 1.0, 100.0, 0.5), rel=1e-12)

    ok = all(v == "consistent" for v in verdicts) and growth_ok \
        and ou_est.verdict == "consistent"
    report("11 Monte Carlo bound consistency", ok,
           f"Hoeffding verdicts {verdicts}, growth |est-exact| = "
           f"{abs(growth.estimate - growth.exact_finite_t):.2e} "
           f"(3se = {3 * growth.std_error:.2e}), OU verdict {ou_est.verdict}")
