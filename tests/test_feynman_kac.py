import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transinfo import chains, cli, feynman_kac, transport
from transinfo.chains import (
    MetricMatrix,
    build_chain,
    line_metric,
    relative_entropy,
    spectral_gap,
    trivial_metric,
)
from transinfo.diffusion1d import DiffusionSpec1D, Grid1D, discretize, ou_spec
from transinfo.errors import HorizonOverflow, PhiConstraintViolated
from transinfo.feynman_kac import (
    PhiPair,
    _best_lambda,
    _legendre_values,
    _primal_ascents,
    best_w1i,
    best_w2i,
    fk_norm,
    lambda_max,
    lambda_max_witness,
    legendre_of_info,
    lsi_ratio_scan,
    project_density,
    verify_tphi_dual,
    w2i_dual_check,
)
from transinfo.transport import RateFunction
from transinfo.trivial_metric import build_jump_chain, extremal_potential, jump_spectrum

from conftest import (
    bernoulli_chain,
    fk_norm_expm,
    one_potential_best_lambda,
    random_birth_death_chain,
    random_density,
    random_reversible_chain,
    reference_best_w1i,
    reference_best_w2i,
    reference_w2_dual_constant,
    sequential_legendre,
    sequential_primal_ascent,
)

# The Legendre property test draws mu from weights in 10^[-3, 0], so its
# entries reach down to about 2e-4 on six states.
LEGENDRE_MU_FLOOR = 1e-3


def _legendre_draw(n, seed, data):
    """A chain on n states with mu from weights in 10^[-3, 0], and an observable."""
    weights = 10.0 ** np.array(data.draw(st.lists(
        st.floats(math.log10(LEGENDRE_MU_FLOOR), 0.0), min_size=n, max_size=n)))
    rng = np.random.default_rng(seed)
    ch = random_reversible_chain(n, rng, mu=weights / weights.sum())
    return ch, rng.standard_normal(n)


def _legendre_run(ch, u, lam, multistarts):
    """``_legendre_values``'s rows, its step count, and whether it stopped on its gap.

    Every step forms the gradient once and projects once; a run that stops on
    its gap forms one gradient more than it projects.
    """
    counts = {"grad": 0, "step": 0}

    def counted(key, fn):
        return lambda *args: counts.__setitem__(key, counts[key] + 1) or fn(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(feynman_kac, "_apply_neg_generator",
                   counted("grad", feynman_kac._apply_neg_generator))
        mp.setattr(feynman_kac, "project_density", counted("step", feynman_kac.project_density))
        rows = _legendre_values(ch, u, lam, multistarts, 400, 5)
    return rows, counts["step"], counts["grad"] > counts["step"]


def _random_metric(n, kind, rng):
    """A line metric on random increasing points, a planar one, or the trivial one."""
    if kind == "line":
        return line_metric(np.cumsum(rng.uniform(0.1, 1.0, n)))
    if kind == "planar":
        pts = rng.uniform(0.0, 2.0, size=(n, 2))
        return MetricMatrix.validate(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))
    return trivial_metric(n)


def planar_chain():
    """Criterion 8's first search input: a random 4-state chain on random planar points."""
    rng = np.random.default_rng(808)
    ch = random_reversible_chain(4, rng)
    pts = rng.uniform(0.0, 2.0, size=(4, 2))
    return ch, MetricMatrix.validate(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))


class TestLambdaMax:
    def test_zero_potential(self, rng):
        ch = random_reversible_chain(5, rng)
        assert lambda_max(ch, np.zeros(5)) == pytest.approx(0.0, abs=1e-12)

    def test_dominates_mean(self, rng):
        for _ in range(20):
            ch = random_reversible_chain(4, rng)
            u = rng.standard_normal(4)
            assert lambda_max(ch, u) >= ch.expectation(u) - 1e-12

    def test_two_point_jump_reduction(self):
        # the closed-form 2x2 spectrum: p = 0.25, lambda = 1 - 2p = 0.5
        p, lam = 0.25, 0.5
        ch = build_jump_chain(np.array([p, 1 - p]))
        val = lambda_max(ch, lam * extremal_potential(p))
        assert val == pytest.approx(0.25, abs=1e-12)
        assert val == pytest.approx(jump_spectrum(p, lam).growth, abs=1e-12)

    def test_convex_along_segments(self, rng):
        ch = random_reversible_chain(4, rng)
        u1 = rng.standard_normal(4)
        u2 = rng.standard_normal(4)
        for s in (0.25, 0.5, 0.75):
            mid = lambda_max(ch, s * u1 + (1 - s) * u2)
            assert mid <= s * lambda_max(ch, u1) + (1 - s) * lambda_max(ch, u2) + 1e-10

    def test_witness_density_attains(self, rng):
        from transinfo.feynman_kac import fisher_information_raw
        ch = random_reversible_chain(5, rng)
        u = rng.standard_normal(5)
        val, dens = lambda_max_witness(chain=ch, u=u)
        attained = float(np.dot(ch.mu, u * dens.f)) - fisher_information_raw(ch, dens.f)
        assert attained == pytest.approx(val, abs=1e-9)


class TestFkNorm:
    def test_unweighted_is_one(self, rng):
        ch = random_reversible_chain(4, rng)
        assert fk_norm(ch, np.zeros(4), 5.0) == pytest.approx(1.0, abs=1e-10)

    def test_two_point_value(self):
        p = 0.25
        ch = build_jump_chain(np.array([p, 1 - p]))
        val = fk_norm(ch, 0.5 * extremal_potential(p), 10.0)
        assert val == pytest.approx(math.exp(2.5), rel=1e-10)

    def test_routes_agree(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 7))
            ch = random_reversible_chain(n, rng)
            u = rng.standard_normal(n)
            t = float(rng.uniform(0.5, 20.0))
            assert fk_norm(ch, u, t) == pytest.approx(
                fk_norm_expm(ch, u, t), rel=1e-8)

    def test_horizon_overflow(self, rng):
        ch = random_reversible_chain(3, rng)
        with pytest.raises(HorizonOverflow):
            fk_norm(ch, np.full(3, 100.0), 50.0)


class TestLegendreOracle:
    def test_zero_lambda(self, rng):
        ch = random_reversible_chain(4, rng)
        u = rng.standard_normal(4)
        assert legendre_of_info(ch, u, 0.0, multistarts=4) == pytest.approx(0.0, abs=1e-10)

    def test_two_point_closed_form(self, rng):
        # 1-D family: exhaustive scan over f = (f0, f1) on the simplex
        ch = bernoulli_chain(0.3)
        u = np.array([0.2, 1.0])
        lam = 1.0
        thetas = np.linspace(0.0, 1.0 / 0.3 - 1e-9, 200001)
        best = -math.inf
        for f1 in thetas:
            f0 = (1.0 - 0.3 * f1) / 0.7
            val = lam * (0.7 * u[0] * f0 + 0.3 * u[1] * f1) \
                - (math.sqrt(f1) - math.sqrt(f0)) ** 2
            best = max(best, val)
        assert legendre_of_info(ch, u, lam, multistarts=8) == pytest.approx(best, abs=1e-5)

    def test_matches_lambda_max(self, rng):
        for _ in range(5):
            n = int(rng.integers(4, 7))
            ch = random_reversible_chain(n, rng)
            u = rng.standard_normal(n)
            for lam in (0.5, 1.0, 2.0):
                assert legendre_of_info(ch, u, lam, multistarts=12) == pytest.approx(
                    lambda_max(ch, lam * u), abs=1e-5)

    @settings(max_examples=25)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0), st.data())
    def test_lockstep_matches_lambda_max_and_sequential_ascent(self, n, seed, lam, data):
        """The lockstep rows against the one-start-at-a-time loop, and Lambda.

        The loop runs as many steps as the lockstep took before it stopped.
        The two differ in the rounding of their row sums.  A start still
        climbing at that point can have one rounding flip an accept and
        move where it stands (by 4.9e-9 in the last of 16 starts on n = 6,
        seed 0, lambda = 0, weights 10^(0, 0, 0, -2, 0, 0)), so such starts
        count through the maximum only.  A run that stops on its gap meets
        criterion 4's tolerance against the eigensolver.  One that does not
        can stop short of Lambda on a stiff chain (by 3.7e-3 on n = 3,
        seed 0, lambda = 1, weights (1, 1, 1e-3)); there the lockstep must
        reach the loop's value, not Lambda.
        """
        ch, u = _legendre_draw(n, seed, data)
        rows, steps, certified = _legendre_run(ch, u, lam, 8)
        seq, stopped = sequential_legendre(ch, u, lam, multistarts=8, iters=steps)
        assert np.all(np.abs(rows - seq)[stopped] < 1e-12)
        assert abs(np.max(rows) - np.max(seq)) < 1e-12
        top = lambda_max(ch, lam * u)
        if certified or abs(np.max(seq) - top) <= 1e-5:
            assert np.max(rows) == pytest.approx(top, abs=1e-5)

    @settings(max_examples=40)
    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1), st.floats(0.0, 3.0), st.data())
    def test_gap_certificate_is_sound(self, n, seed, lam, data):
        # a run that stops on its Frank-Wolfe gap is within LEGENDRE_GAP of
        # Lambda from below, and no ascent value exceeds Lambda but by roundoff
        ch, u = _legendre_draw(n, seed, data)
        rows, _, certified = _legendre_run(ch, u, lam, 8)
        value, top = float(np.max(rows)), lambda_max(ch, lam * u)
        assert value <= top + 1e-12 * max(1.0, abs(top))
        if certified:
            assert top - value <= feynman_kac.LEGENDRE_GAP * max(1.0, abs(value))

    def test_criterion_4_calls_stop_on_their_gap(self):
        # criterion 4's 60 calls each stop on the certificate within 100 steps
        rng = np.random.default_rng(404)
        for _ in range(20):
            n = int(rng.integers(4, 7))
            ch = random_reversible_chain(n, rng)
            u = rng.standard_normal(n)
            for lam in (0.5, 1.0, 2.0):
                rows, steps, certified = _legendre_run(ch, u, lam, 16)
                assert certified and steps <= 100
                assert np.max(rows) == pytest.approx(lambda_max(ch, lam * u), abs=1e-12)

    def test_stopped_starts_leave_the_arrays(self, monkeypatch, rng):
        # with the certificate off, every start on this chain stops on its step
        # rule before the cap, so the lockstep projects fewer rows as starts
        # stop and ends early
        ch = random_reversible_chain(4, rng)
        u = rng.standard_normal(4)
        assert np.all(sequential_legendre(ch, u, 1.0, multistarts=16)[1])
        monkeypatch.setattr(feynman_kac, "LEGENDRE_GAP", -1.0)
        sizes = []
        project = feynman_kac.project_density
        monkeypatch.setattr(feynman_kac, "project_density",
                            lambda mu, y, floor: sizes.append(len(y)) or project(mu, y, floor))
        _legendre_values(ch, u, 1.0, 16, 400, 5)
        assert sizes[0] == 16 and sizes[-1] < 16 and np.all(np.diff(sizes) <= 0)
        assert len(sizes) < 400

    def test_multistarts_below_one_rejected(self, rng):
        ch = random_reversible_chain(4, rng)
        for count in (0, -3):
            with pytest.raises(ValueError):
                legendre_of_info(ch, np.ones(4), 1.0, multistarts=count)

    def test_wrong_length_u_rejected(self, rng):
        ch = random_reversible_chain(4, rng)
        for u in (np.ones(5), np.ones(3), np.ones((2, 4))):
            with pytest.raises(ValueError):
                legendre_of_info(ch, u, 1.0)

    def test_non_finite_input_rejected(self, rng):
        # as lambda_max rejects them: a NaN would otherwise come back as the value
        ch = random_reversible_chain(4, rng)
        for u, lam in (([0.0, math.nan, 1.0, 2.0], 1.0), ([0.0, math.inf, 1.0, 2.0], 1.0),
                       ([0.0, 1.0, -math.inf, 2.0], 1.0), (np.ones(4), math.nan),
                       (np.ones(4), math.inf), (np.zeros(4), -math.inf)):
            with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
                legendre_of_info(ch, np.array(u), lam)


class TestVerifyTphiDual:
    def test_generous_constant_passes(self, rng):
        ch = random_reversible_chain(4, rng)
        u = rng.standard_normal(4)
        u -= ch.expectation(u)
        pairs = [PhiPair.validate(u, u)]
        report = verify_tphi_dual(ch, pairs, RateFunction.quadratic(50.0),
                                  np.array([0.1, 1.0, 4.0]))
        assert report.passed

    def test_bernoulli_poincare_rate_passes(self, rng):
        # alpha(r) = r^2 / (4 c^2) with 4 c^2 = c_P and oscillation-1 pairs
        ch = bernoulli_chain(0.3)
        _, c_p = spectral_gap(ch)
        alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0)
        pairs = []
        for _ in range(12):
            u = rng.uniform(-1.0, 1.0, size=2)
            u = (u - u.min()) / max(np.ptp(u), 1e-9)   # oscillation exactly 1
            u -= ch.expectation(u)
            pairs.append(PhiPair.validate(u, u))
        report = verify_tphi_dual(ch, pairs, alpha, np.geomspace(0.01, 8.0, 25))
        assert report.passed

    def test_too_small_constant_fails(self):
        ch = bernoulli_chain(0.3)
        _, c_p = spectral_gap(ch)
        alpha = RateFunction.quadratic(math.sqrt(c_p) / 2.0 * 0.5)   # halved c
        u = np.array([0.0, 1.0])
        u = u - ch.expectation(u)
        report = verify_tphiDual = verify_tphi_dual(ch, [PhiPair.validate(u, u)], alpha,
                                                    np.geomspace(0.1, 16.0, 25))
        assert not report.passed
        assert report.worst_slack < -1e-8

    def test_phi_constraint_violated(self):
        with pytest.raises(PhiConstraintViolated):
            PhiPair.validate(np.array([1.0, 0.0]), np.array([0.0, 0.0]))

    def test_csv_shape(self, rng, tmp_path):
        # one pair at one lambda, through the CLI's writer
        ch = random_reversible_chain(3, rng)
        params = {"model": {"rates": ch.Q.tolist(), "mu": ch.mu.tolist()},
                  "alpha": {"kind": "quadratic", "c": 10.0}, "lambda_grid": [1.0], "n_pairs": 1}
        out = cli.run_verify_tci(params, tmp_path, 0, "tci")
        lines = out.artifacts[0].read_text().strip().split("\n")
        assert lines[0] == "pair,lambda,slack"
        assert len(lines) == 2


class TestBestW1I:
    def test_bernoulli_four_c_sq_is_poincare(self):
        ch = bernoulli_chain(0.3)
        rep = best_w1i(ch, trivial_metric(2))
        assert 4 * rep.c_dual ** 2 == pytest.approx(0.21, abs=1e-6)
        assert 4 * rep.c_primal ** 2 == pytest.approx(0.21, abs=1e-6)
        assert not rep.diverged

    def test_primal_dual_consistent_on_random_chains(self, rng):
        for _ in range(3):
            ch = random_reversible_chain(4, rng)
            pts = np.sort(rng.uniform(0.0, 2.0, 4))
            pts[1:] += 0.05 * np.arange(1, 4)      # keep strictly increasing
            d = line_metric(pts)
            rep = best_w1i(ch, d, seed=int(rng.integers(1 << 30)))
            assert rep.c_primal <= rep.c_dual + 1e-3
            assert abs(rep.c_dual - rep.c_primal) <= 1e-3 * max(1.0, rep.c_dual)

    def test_witness_potential_reported_with_minimum_zero(self, rng):
        # the ratio ignores constants added to u, so the report fixes min u = 0;
        # the constants are the ones found before that normalization
        pinned = [(bernoulli_chain(0.3), trivial_metric(2), {},
                   ("0x1.d54178e8830ddp-3", "0x1.d54178e8830dep-3")),
                  (random_reversible_chain(4, np.random.default_rng(3)),
                   line_metric(np.array([0.0, 0.4, 1.1, 1.5])), {"primal_starts": 2},
                   ("0x1.19c3bba03b160p-3", "0x1.19c3bba03b105p-3")),
                  (*planar_chain(), {"seed": 900},
                   ("0x1.586e6f256aebdp-3", "0x1.586e6f256aebap-3"))]
        for ch, d, kwargs, (c_dual, c_primal) in pinned:
            rep = best_w1i(ch, d, **kwargs)
            assert (rep.c_dual.hex(), rep.c_primal.hex()) == (c_dual, c_primal)
            u = np.asarray(rep.witness_u)
            assert np.min(u) == 0.0 and not np.any(np.signbit(u))
            (ratio,), _ = _best_lambda(ch, [u])
            assert math.sqrt(ratio) == pytest.approx(rep.c_dual, rel=1e-9)
        assert list(best_w1i(bernoulli_chain(0.3), trivial_metric(2)).witness_u) == [0.0, 1.0]

    def test_one_transport_solve_per_density(self, monkeypatch):
        # the ascent solves each candidate density once (value and gradient
        # from the same vertex), and a dual round solves its witness once;
        # the ascents score their densities as rows, so rows are counted
        counts = {"solve": 0, "ratio": 0}

        def counted(key, fn, size=lambda args: 1):
            def wrapper(*args):
                counts[key] += size(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(transport, "_network_simplex",
                            counted("solve", transport._network_simplex))
        monkeypatch.setattr(feynman_kac, "_ratios",
                            counted("ratio", feynman_kac._ratios,
                                    lambda args: np.reshape(args[2], (-1, args[0].n)).shape[0]))
        ch, d = planar_chain()
        assert d.line_embedding is None
        best_w1i(ch, d, rounds=1, seed=900)
        assert counts["ratio"] > 100
        assert counts["solve"] == counts["ratio"] + 1

    def test_one_stacked_solve_per_grid(self, monkeypatch):
        # the grid, extras at or above 2^-10 included, is one stacked eigensolve;
        # then each golden step solves a stack of the one row
        stacks = []
        lowest = feynman_kac._lowest_eigenpairs

        def counted(chain, u=None, **kwargs):
            if np.ndim(u) == 2:
                stacks.append(len(u))
            return lowest(chain, u, **kwargs)

        monkeypatch.setattr(feynman_kac, "_lowest_eigenpairs", counted)
        u = np.array([0.0, 1.0, -0.5, 2.0])
        for ch in (planar_chain()[0], random_birth_death_chain(4, np.random.default_rng(4))):
            for coarse, size, steps in ((False, 49, 40), (True, 17, 12)):
                stacks.clear()
                _best_lambda(ch, [u], extra=(1e-6, 0.37), coarse=coarse)
                assert stacks == [size + 1] + [1] * (steps + 2)

    def test_roundoff_lambda_not_scored(self, monkeypatch):
        # on the 41-state service queue (mu down to 4.5e-49) the primal
        # witness offered lambda = 2I/W = 3.4e-16, whose ratio is roundoff
        from transinfo.lyapunov import mminf_generator
        chain, _ = mminf_generator(1.0, 40)
        u = trivial_metric(chain.n).d[:, 0]
        ratio, lam = _best_lambda(chain, [u], extra=[3.4e-16])
        assert np.array_equal((ratio, lam), _best_lambda(chain, [u]))
        assert ratio[0] < 1.0
        # an extra lambda at or above the grid's floor 2^-10 is still scored
        scored = []
        dual_ratios = feynman_kac._dual_ratios
        monkeypatch.setattr(feynman_kac, "_dual_ratios",
                            lambda ch, v, xs, solved:
                            scored.extend(xs) or dual_ratios(ch, v, xs, solved))
        _best_lambda(chain, [u], extra=[3.4e-16, 2.0 ** -10, 0.3])
        assert 0.3 in scored and scored.count(2.0 ** -10) == 2 and 3.4e-16 not in scored

    def test_roundoff_transport_value_scores_zero(self):
        # on the 41-state service queue (mu down to 4.5e-49), the ascent from the
        # eigen-density of the first dual pair (seed 13) reached W_1 = 1.9e-16 and
        # I = 3.2e-32, and reported W^2 / 4I = 0.269 from two roundoff values
        from transinfo.lyapunov import mminf_generator
        chain, _ = mminf_generator(1.0, 40)
        d = trivial_metric(chain.n)
        lam = float.fromhex("0x1.2090c89bfb4eap-11")
        floor = feynman_kac.ROUNDOFF_COSTS * np.finfo(float).eps * d.diameter
        _, dens = lambda_max_witness(chain, lam * d.d[:, 27])
        (val,), (f,) = feynman_kac._primal_ascents(chain, d, [dens.f], squared=False, iters=120)
        dist = transport.w1(d, chain.mu * f, chain.mu)
        assert dist > floor
        info = feynman_kac.fisher_information_raw(chain, f)
        assert val == pytest.approx(dist * dist / (4.0 * info), rel=1e-9)
        # a density whose W_1 is itself roundoff scores 0
        _, dens = lambda_max_witness(chain, lam * d.d[:, 29])
        assert 0.0 < transport.w1(d, chain.mu * dens.f, chain.mu) <= floor
        assert feynman_kac._ratios(chain, d, [dens.f], False)[0][0] == 0.0

    def test_ou60_constants_pinned(self):
        # n > 50: the coarse prune, the band solver and three rounds
        grid = Grid1D.uniform(-6.0, 6.0, 60)
        rep = best_w1i(discretize(ou_spec(), grid), line_metric(grid.nodes), primal_starts=4)
        assert (rep.c_dual.hex(), rep.c_primal.hex()) == \
            ("0x1.00003076a169ap+0", "0x1.000030704a44ap+0")

    def test_ou60_band_rows(self, monkeypatch):
        # grid-400's search keeps its constants with 935 band rows, one
        # dstebz call each, stacked rows and one-row solves alike
        extension, rows = chains._scipy_extension, []
        real = extension("linalg._flapack")
        lapack = SimpleNamespace(dstein=real.dstein,
                                 dstebz=lambda *args: rows.append(args[0]) or real.dstebz(*args))
        monkeypatch.setattr(chains, "_scipy_extension",
                            lambda name: lapack if name == "linalg._flapack" else extension(name))
        grid = Grid1D.uniform(-6.0, 6.0, 60)
        rep = best_w1i(discretize(ou_spec(), grid), line_metric(grid.nodes), primal_starts=4)
        assert (rep.c_dual.hex(), rep.c_primal.hex()) == \
            ("0x1.00003076a169ap+0", "0x1.000030704a44ap+0")
        assert len(rows) == 935

    def test_uniform_density_never_the_witness(self, rng):
        ch = random_reversible_chain(4, rng)
        rep = best_w1i(ch, trivial_metric(4))
        assert np.max(np.abs(rep.witness_density - 1.0)) > 1e-3


class TestLockstepLambdaSearch:
    """Rows of ``_best_lambda`` score all grids in one stacked solve and run
    their golden searches in lockstep; each row equals the one-potential search
    bit for bit."""

    # extras below, at and above the grid's floor 2^-10
    EXTRAS = (3.4e-16, 2.0 ** -10, 0.37, 5.0)

    def _chains(self):
        rng = np.random.default_rng(12)
        from transinfo.lyapunov import mminf_generator
        return [random_reversible_chain(5, rng), planar_chain()[0],
                random_birth_death_chain(6, rng), mminf_generator(1.0, 40)[0],
                discretize(ou_spec(), Grid1D.uniform(-6.0, 6.0, 60))]

    @pytest.mark.parametrize("coarse", [False, True])
    def test_rows_equal_one_dimensional_calls(self, coarse):
        rng = np.random.default_rng(7)
        for ch in self._chains():
            line = line_metric(np.cumsum(rng.uniform(0.1, 1.0, ch.n))).d
            # strided metric columns too: a dot product over a strided vector
            # can round differently from one over a contiguous copy
            rows = [rng.standard_normal(ch.n), np.full(ch.n, 0.5), line[:, ch.n // 2],
                    trivial_metric(ch.n).d[:, 0], -line[:, 0], np.linspace(0.0, 1.0, ch.n)]
            for extra in ((), self.EXTRAS):
                for given_rows in (rows, np.array(rows)):
                    ratios, lams = _best_lambda(ch, given_rows, extra=extra, coarse=coarse)
                    assert ratios.shape == lams.shape == (len(rows),)
                    for u, ratio, lam in zip(given_rows, ratios.tolist(), lams.tolist()):
                        ref = one_potential_best_lambda(ch, u, extra=extra, coarse=coarse)
                        assert (ratio.hex(), lam.hex()) == (ref[0].hex(), ref[1].hex())
        assert [ch.band is None for ch in self._chains()] == [True, True, False, False, False]

    @staticmethod
    def _count_solves(monkeypatch):
        stacks = []
        lowest = feynman_kac._lowest_eigenpairs

        def counted(chain, u=None, **kwargs):
            if np.ndim(u) == 2:
                stacks.append(len(u))
            return lowest(chain, u, **kwargs)

        monkeypatch.setattr(feynman_kac, "_lowest_eigenpairs", counted)
        return stacks

    def test_one_stacked_solve_per_golden_step(self, monkeypatch):
        # a dual round: one stack for all candidates' grids, then two for the
        # golden search's first points and one per step (40), each of one row
        # per candidate
        stacks = self._count_solves(monkeypatch)
        ch, d = planar_chain()
        best_w1i(ch, d, rounds=1, primal_starts=1, seed=900)
        rows = stacks[1]
        assert rows > 4
        assert stacks[0] in (49 * rows, 50 * rows)
        assert stacks[1:] == [rows] * 42

    def test_coarse_prune_is_one_lockstep_search(self, monkeypatch):
        # n > 50: the coarse scan (17-point grid and the primal witness's lambda,
        # 12 golden steps) scores every candidate in lockstep, then the four
        # leaders get the full search, which solves only what the coarse one
        # did not: 49 - 17 grid points each, and for the one leader whose full
        # grid peaks elsewhere its first 12 golden steps (the other three
        # repeat their coarse steps)
        stacks = self._count_solves(monkeypatch)
        grid = Grid1D.uniform(-6.0, 6.0, 60)
        best_w1i(discretize(ou_spec(), grid), line_metric(grid.nodes), rounds=1,
                 primal_starts=1)
        rows = stacks[1]
        assert rows > 4
        assert stacks[0] == 18 * rows and stacks[1:15] == [rows] * 14
        assert stacks[15] == 32 * 4 and stacks[16:] == [1] * 14 + [4] * 28


def _record_solves(monkeypatch, ndim):
    """Each potential that feynman_kac's eigensolves get in calls with ndim-D u, as bytes."""
    pots = []
    lowest = feynman_kac._lowest_eigenpairs

    def recorded(chain, u=None, **kwargs):
        if np.ndim(u) == ndim:
            pots.extend(row.tobytes() for row in np.atleast_2d(u))
        return lowest(chain, u, **kwargs)

    monkeypatch.setattr(feynman_kac, "_lowest_eigenpairs", recorded)
    return pots


def _assert_same_report(rep, ref):
    assert (rep.c_dual.hex(), rep.c_primal.hex()) == (ref.c_dual.hex(), ref.c_primal.hex())
    assert np.array_equal(rep.witness_u, ref.witness_u)
    assert np.array_equal(rep.witness_density, ref.witness_density)
    assert (rep.diverged, rep.probe) == (ref.diverged, ref.probe)


# dense 3-6 state chains on three metrics, and birth-death chains on a line
# on both sides of best_w1i's n > 50 coarse prune
SEARCH_INPUTS = st.one_of(
    st.tuples(st.just("dense"), st.integers(3, 6), st.sampled_from(["line", "planar", "trivial"])),
    st.tuples(st.just("birth-death"), st.sampled_from([40, 60]), st.just("line")))


def _search_input(kind, n, metric, seed):
    rng = np.random.default_rng(seed)
    ch = random_reversible_chain(n, rng) if kind == "dense" else random_birth_death_chain(n, rng)
    return ch, _random_metric(n, metric, rng)


class TestSearchReuse:
    """A search solves each (candidate, lambda) eigenproblem and bisects each v
    candidate's theta once; its constants and witnesses equal the reference's,
    which solves every round afresh, bit for bit."""

    @settings(max_examples=12)
    @given(SEARCH_INPUTS, st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    def test_w1i_equals_reference_and_solves_each_pair_once(self, given_input, seed, rounds):
        ch, d = _search_input(*given_input, seed)
        with pytest.MonkeyPatch.context() as monkeypatch:
            pots = _record_solves(monkeypatch, 2)
            rep = best_w1i(ch, d, rounds=rounds, primal_starts=2)
        assert pots and len(set(pots)) == len(pots)
        _assert_same_report(rep, reference_best_w1i(ch, d, rounds=rounds, primal_starts=2))

    @settings(max_examples=12)
    @given(SEARCH_INPUTS, st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    def test_w2i_equals_reference_and_bisects_each_v_once(self, given_input, seed, rounds):
        ch, d = _search_input(*given_input, seed)
        bisected = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            dual_constant = feynman_kac._w2_dual_constant
            monkeypatch.setattr(feynman_kac, "_w2_dual_constant",
                                lambda chain, d2, v: bisected.append(v.tobytes())
                                or dual_constant(chain, d2, v))
            rep = best_w2i(ch, d, rounds=rounds, primal_starts=2)
        assert len(set(bisected)) == len(bisected)
        _assert_same_report(rep, reference_best_w2i(ch, d, rounds=rounds, primal_starts=2))

    def test_w2i_rounds_bisect_only_new_candidates(self, monkeypatch):
        # OU-240: the second round bisects only the v that the new primal
        # witness adds, where the reference bisects all 8 + 3 + 2 again
        calls = []
        dual_constant = feynman_kac._w2_dual_constant
        monkeypatch.setattr(feynman_kac, "_w2_dual_constant",
                            lambda chain, d2, v: calls.append(v.tobytes())
                            or dual_constant(chain, d2, v))
        grid = Grid1D.uniform(-6.0, 6.0, 240)
        ch, d = discretize(ou_spec(), grid), line_metric(grid.nodes)
        _assert_same_report(best_w2i(ch, d, rounds=2, primal_starts=2),
                            reference_best_w2i(ch, d, rounds=2, primal_starts=2))
        assert len(calls) == 8 + 3 + 2

    def test_store_lives_for_one_search(self):
        # two chains on one metric get the same candidates and lambdas, but
        # not the same Lambda: a store shared between the searches would mix them
        rng = np.random.default_rng(5)
        d = line_metric(np.cumsum(rng.uniform(0.2, 1.0, 40)))
        for ch in (random_birth_death_chain(40, rng), random_birth_death_chain(40, rng)):
            _assert_same_report(best_w1i(ch, d, rounds=2, primal_starts=2),
                                reference_best_w1i(ch, d, rounds=2, primal_starts=2))

    def test_theta_bisection_stops_at_its_fixed_point(self, monkeypatch):
        # the step that finds (lo, hi) unchanged re-solves a theta solved
        # before and is the last solve; every earlier theta is new
        grid = Grid1D.uniform(-6.0, 6.0, 60)
        ch, d = discretize(ou_spec(), grid), line_metric(grid.nodes)
        d2 = transport.CostMatrix.from_metric(d, 2)
        thetas = _record_solves(monkeypatch, 1)
        for x0 in (0, 13, 21, 40, 59):
            v = d.d[:, x0] ** 2
            thetas.clear()
            c2 = feynman_kac._w2_dual_constant(ch, d, v)
            solved = list(thetas)
            assert 0.0 < c2 < math.inf
            assert c2.hex() == reference_w2_dual_constant(ch, d2, v).hex()
            assert solved[-1] in solved[:-1] and len(set(solved)) == len(solved) - 1
            assert len(solved) < len(thetas) - len(solved)   # the reference's 80 steps


class TestOneRowSearches:
    """``best_w1i`` with one primal start, as bench ``small-space`` runs it: the
    start's ascent runs as one row, then each round's as one row per improving
    candidate.  The search equals the reference search, whose lambda searches
    run one candidate at a time, and each of its ascents equals the sequential
    ascent."""

    @staticmethod
    def _small_space_input():
        # the fourth chain criterion 8 draws, with bench small-space's search seed 903
        rng = np.random.default_rng(808)
        for _ in range(4):
            ch = random_reversible_chain(4, rng)
            pts = rng.uniform(0.0, 2.0, size=(4, 2))
        return ch, MetricMatrix.validate(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2))

    @pytest.mark.parametrize("which", ["small-space", "planar"])
    def test_equals_the_sequential_oracle(self, which, monkeypatch):
        ch, d = self._small_space_input() if which == "small-space" else planar_chain()
        seed = 903 if which == "small-space" else 900
        calls, solves = [], []
        ascents, simplex = feynman_kac._primal_ascents, transport._network_simplex
        monkeypatch.setattr(feynman_kac, "_primal_ascents",
                            lambda chain, d, f0, squared, **kw:
                            calls.append((f0, squared, kw)) or ascents(chain, d, f0, squared, **kw))
        monkeypatch.setattr(transport, "_network_simplex",
                            lambda *args: solves.append(1) or simplex(*args))
        stacks = _record_solves(monkeypatch, 2)
        rep = best_w1i(ch, d, primal_starts=1, seed=seed)
        monkeypatch.undo()
        _assert_same_report(rep, reference_best_w1i(ch, d, primal_starts=1, seed=seed))
        assert len(calls) >= 2 and len(calls[0][0]) == 1
        for f0, squared, kw in calls:
            _assert_rows_match_one_start_at_a_time(ch, d, f0, squared, **kw)
        if which == "small-space":
            # read at the commit before the one-row trims
            assert (rep.c_dual.hex(), rep.c_primal.hex()) == \
                ("0x1.d9799e7863535p-3", "0x1.d9799e786350dp-3")
            assert (len(solves), len(stacks)) == (290, 1293)


def _assert_rows_match_one_start_at_a_time(ch, d, starts, squared, iters=140,
                                           min_perturbation=0.0):
    """Each lockstep row's (value hex, density bytes) equals the sequential ascent's;
    returns the loop passes each sequential ascent began."""
    vals, fs = _primal_ascents(ch, d, starts, squared, iters=iters,
                               min_perturbation=min_perturbation)
    assert vals.shape == (len(starts),) and fs.shape == (len(starts), ch.n)
    passes = []
    for f0, val, f in zip(starts, vals.tolist(), fs):
        ref_val, ref_f, k = sequential_primal_ascent(ch, d, f0, squared, iters, min_perturbation)
        assert (val.hex(), f.tobytes()) == (float(ref_val).hex(), ref_f.tobytes())
        passes.append(k)
    return passes


class TestLockstepPrimalAscent:
    """Rows of ``_primal_ascents`` against one start at a time, bit for bit."""

    @given(st.integers(2, 6), st.integers(0, 2 ** 32 - 1),
           st.sampled_from(["line", "planar", "trivial"]), st.booleans(),
           st.sampled_from([0.0, 0.25]), st.integers(1, 5), st.integers(1, 140))
    def test_rows_equal_sequential_ascents(self, n, seed, metric, squared, guard, rows, iters):
        rng = np.random.default_rng(seed)
        ch = random_reversible_chain(n, rng)
        d = _random_metric(n, metric, rng)
        # far starts, and starts near f = 1 that the guard keeps from being scored
        starts = [project_density(ch.mu, rng.dirichlet(np.ones(n) * rng.uniform(0.3, 3.0))
                                  / ch.mu, 1e-13) if k % 2 == 0 else
                  project_density(ch.mu, 1.0 + 0.3 * rng.uniform(-1.0, 1.0, n), 1e-13)
                  for k in range(rows)]
        _assert_rows_match_one_start_at_a_time(ch, d, starts, squared, iters, guard)

    @pytest.mark.parametrize("squared", [False, True])
    def test_rows_stop_apart_and_an_infinite_ratio_returns(self, squared):
        # states 0 and 1 share an edge of conductance 1/3, states 1 and 2 one
        # of 3e-321; the first start has f_0 = f_1, so its I is subnormal and
        # its ratio overflows to inf at once, while the others stop on their
        # steps at different passes
        ch = build_chain(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1e-320], [0.0, 1e-320, 0.0]]))
        d = line_metric(np.array([0.0, 1.0, 2.0]))
        rng = np.random.default_rng(1)
        starts = [np.array([1.2, 1.2, 0.6])] + [rng.dirichlet(np.ones(3)) / ch.mu
                                                for _ in range(5)]
        starts = [project_density(ch.mu, f / float(np.dot(ch.mu, f)), 1e-13) for f in starts]
        passes = _assert_rows_match_one_start_at_a_time(ch, d, starts, squared)
        assert math.isinf(_primal_ascents(ch, d, starts, squared)[0][0])
        assert passes[0] == 0 and len(set(passes[1:])) >= 3 and max(passes) < 140

    def test_ou_search_starts(self):
        # grid-400's search: four starts on OU-60, which accept most steps, so
        # their steps reach the cap of 50
        grid = Grid1D.uniform(-6.0, 6.0, 60)
        ch = discretize(ou_spec(), grid)
        starts = feynman_kac._primal_starts(ch, np.random.default_rng(17), 4)
        passes = _assert_rows_match_one_start_at_a_time(ch, line_metric(grid.nodes), starts, False)
        assert max(passes) == 140

    def test_step_reaches_its_cap(self):
        # on this two-state chain the W_1 ascents accept long runs of steps,
        # so their steps reach the cap of 50
        rng = np.random.default_rng(0)
        ch = random_reversible_chain(2, rng)
        starts = [project_density(ch.mu, rng.dirichlet(np.ones(2)) / ch.mu, 1e-13)
                  for _ in range(3)]
        _assert_rows_match_one_start_at_a_time(ch, trivial_metric(2), starts, False)

    def test_infinite_candidate_ends_its_row(self, monkeypatch):
        # an infinite ratio, here forced on the first row's fifth candidate,
        # is that row's result with the density that reached it, and the row
        # is scored no more; the other rows go on as if alone
        ch, d = planar_chain()
        rng = np.random.default_rng(4)
        starts = [project_density(ch.mu, rng.dirichlet(np.ones(4)) / ch.mu, 1e-13)
                  for _ in range(3)]
        ratios, seen = feynman_kac._ratios, []

        def forced(chain, metric, f, squared):
            out = ratios(chain, metric, f, squared)
            seen.append(np.array(f))
            if len(seen) == 6:       # the start, then the fifth candidate
                out[0][0] = math.inf
            return out

        monkeypatch.setattr(feynman_kac, "_ratios", forced)
        vals, fs = _primal_ascents(ch, d, starts, False)
        assert math.isinf(vals[0]) and np.array_equal(fs[0], seen[5][0])
        assert all(len(batch) <= 2 for batch in seen[6:])
        for f0, val, f in zip(starts[1:], vals[1:].tolist(), fs[1:]):
            ref_val, ref_f, _ = sequential_primal_ascent(ch, d, f0, False)
            assert (val.hex(), f.tobytes()) == (float(ref_val).hex(), ref_f.tobytes())

    def test_one_row_and_no_rows(self):
        ch, d = planar_chain()
        f0 = project_density(ch.mu, 1.0 + 0.5 * np.arange(4.0), 1e-13)
        _assert_rows_match_one_start_at_a_time(ch, d, [f0], False, iters=120)
        vals, fs = _primal_ascents(ch, d, [], False)
        assert vals.shape == (0,) and fs.shape == (0, 4)


class TestBestW2I:
    def test_bernoulli_diverges_with_probe_slope(self):
        ch = bernoulli_chain(0.3)
        rep = best_w2i(ch, trivial_metric(2))
        assert rep.diverged
        probe = dict(rep.probe)
        assert probe[1e-4] >= 1e3
        # 1/eps law across the ladder
        assert probe[1e-5] > 5 * probe[1e-4]

    def test_gaussian_discretization_near_one(self):
        spec = ou_spec()
        grid = Grid1D.uniform(-6.0, 6.0, 240)
        ch = discretize(spec, grid)
        rep = best_w2i(ch, line_metric(grid.nodes), primal_starts=4)
        assert not rep.diverged
        assert rep.c_primal == pytest.approx(1.0, abs=0.12)
        assert rep.c_dual == pytest.approx(1.0, abs=0.12)
        assert (rep.c_dual.hex(), rep.c_primal.hex()) == \
            ("0x1.0f87699b580bfp+0", "0x1.0f87699b68a1ap+0")

    def test_uniform_density_ratio_zero(self, rng):
        from transinfo.feynman_kac import _ratios
        ch = random_reversible_chain(3, rng)
        assert _ratios(ch, trivial_metric(3), [np.ones(3)], True)[0][0] == 0.0


class TestW2IDualCheck:
    def test_constant_v_trivial(self, rng):
        ch = random_reversible_chain(3, rng)
        d = trivial_metric(3)
        rep = w2i_dual_check(ch, d, 1.0, [np.full(3, 2.0)])
        assert rep["passed"]

    def test_gaussian_passes_above_best_constant(self):
        spec = ou_spec()
        grid = Grid1D.uniform(-6.0, 6.0, 120)
        ch = discretize(spec, grid)
        x = grid.nodes
        rep = w2i_dual_check(ch, line_metric(x), 1.1,
                             [x ** 2, np.abs(x), (x - 1.0) ** 2])
        assert rep["passed"]

    def test_bernoulli_fails_for_any_constant(self):
        # violation scales like 1/(4c^2)^2, so the witness beats the slack
        # tolerance for every c below ~25; no finite c is actually feasible
        ch = bernoulli_chain(0.3)
        d = trivial_metric(2)
        v = np.array([0.0, 1.0])
        for c in (0.1, 1.0, 10.0, 20.0):
            rep = w2i_dual_check(ch, d, c, [v])
            assert not rep["passed"]


class TestLsiScan:
    def test_requires_enough_samples(self, rng):
        ch = random_reversible_chain(3, rng)
        with pytest.raises(ValueError):
            lsi_ratio_scan(ch, samples=10)

    def test_lower_bounds_entropy_ratio(self, rng):
        # the scan value is achieved by some density: 2 * I * scan >= H there
        ch = random_reversible_chain(4, rng)
        val = lsi_ratio_scan(ch, samples=150)
        assert val > 0.0

    def test_gaussian_scan_below_one(self):
        spec = ou_spec()
        grid = Grid1D.uniform(-6.0, 6.0, 80)
        ch = discretize(spec, grid)
        val = lsi_ratio_scan(ch, samples=120)
        assert val <= 1.05   # c_LS = 1 in the continuum

    def test_ordering_against_w2i_constant(self):
        # c_P <= (best_w2i c)^2 * 4 / 4 ... assertable form: Poincare holds
        # with constant 4 c^2 for the macroscopic W2I constant
        spec = ou_spec()
        grid = Grid1D.uniform(-6.0, 6.0, 160)
        ch = discretize(spec, grid)
        _, c_p = spectral_gap(ch)
        rep = best_w2i(ch, line_metric(grid.nodes), primal_starts=3)
        assert c_p <= 4 * rep.c_dual ** 2 + 0.05


class TestRemainingInvariants:
    def test_growth_excess_nonnegative(self, rng):
        # Lambda(lambda u) - lambda mu(u) >= 0 with equality at lambda = 0
        ch = random_reversible_chain(4, rng)
        u = rng.standard_normal(4)
        for lam in np.linspace(0.0, 4.0, 9):
            excess = lambda_max(ch, lam * u) - lam * ch.expectation(u)
            assert excess >= -1e-12
        assert lambda_max(ch, 0.0 * u) == pytest.approx(0.0, abs=1e-12)

    def test_w1i_constant_bounded_by_sigma_c_rho(self):
        # the discretized quartic well satisfies the Lipschitz-route bound:
        # best c <= sup(sqrt(a) rho') * C(rho) within 5%
        from transinfo.diffusion1d import Warp, c_rho
        import math
        quart = __import__("transinfo.diffusion1d", fromlist=["DiffusionSpec1D"])
        spec = quart.DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                                     b=lambda x: -x ** 3, c_ref=0.0)
        grid = Grid1D.uniform(-4.0, 4.0, 160)
        chain = discretize(spec, grid)
        cap = c_rho(spec, Warp.identity(), grid)   # sigma = sup sqrt(a) rho' = 1
        rep = best_w1i(chain, line_metric(grid.nodes), primal_starts=4)
        assert rep.c_dual <= cap * 1.05

    def test_quartic_w1i_search_closes_its_gap(self):
        # mu reaches 1e-30 in the tails; the primal witness must stay a
        # probability density there, so the two bounds meet
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0,
                               b=lambda x: -x ** 3, c_ref=0.0)
        grid = Grid1D.uniform(-4.0, 4.0, 160)
        chain = discretize(spec, grid)
        rep = best_w1i(chain, line_metric(grid.nodes), primal_starts=4)
        assert not rep.diverged
        assert abs(rep.c_dual - rep.c_primal) <= 1e-3
        assert float(np.dot(chain.mu, rep.witness_density)) == pytest.approx(1.0, abs=1e-9)


def _bisection_projection(mu, y, floor):
    """Reference: bisection on the shift theta over a bracket that holds it."""
    lo, hi = float(np.min(y)) - 1.0 / float(np.min(mu)) - 1.0, float(np.max(y))
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        if float(np.dot(mu, np.maximum(y - theta, floor))) > 1.0:
            lo = theta
        else:
            hi = theta
    return np.maximum(y - 0.5 * (lo + hi), floor)


class TestProjectDensity:
    @given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1), st.floats(-30.0, 0.0),
           st.sampled_from([0.0, 1e-13]), st.floats(1e-3, 1e3))
    def test_feasible_down_to_tiny_mu(self, n, seed, log_min_mu, floor, spread):
        rng = np.random.default_rng(seed)
        mu = 10.0 ** rng.uniform(log_min_mu, 0.0, n)
        mu /= mu.sum()
        y = spread * rng.standard_normal(n)
        f = project_density(mu, y, floor)
        assert float(np.dot(mu, f)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(f >= floor)

    @given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1), st.sampled_from([0.0, 1e-13]))
    def test_matches_bisection_on_benign_measures(self, n, seed, floor):
        rng = np.random.default_rng(seed)
        mu = rng.dirichlet(np.ones(n) * 2.0) + 1e-3
        mu /= mu.sum()
        y = 2.0 * rng.standard_normal(n)
        np.testing.assert_allclose(project_density(mu, y, floor),
                                   _bisection_projection(mu, y, floor), atol=1e-10)

    @given(st.integers(1, 12), st.integers(1, 20), st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 1e-13]))
    def test_rows_equal_one_row_at_a_time(self, n, rows, seed, floor):
        rng = np.random.default_rng(seed)
        mu = rng.dirichlet(np.ones(n))
        Y = 3.0 * rng.standard_normal((rows, n))
        assert np.array_equal(project_density(mu, Y, floor),
                              np.array([project_density(mu, y, floor) for y in Y]))

    def test_feasible_point_is_fixed(self, rng):
        ch = random_reversible_chain(5, rng)
        f = random_density(ch, rng)
        np.testing.assert_allclose(project_density(ch.mu, f), f, rtol=1e-12)
