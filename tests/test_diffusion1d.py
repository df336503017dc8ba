import math

import numpy as np
import pytest

from conftest import nested_nonexplosion
from transinfo import diffusion1d
from transinfo.catalog import diffusion_from_json
from transinfo.chains import dirichlet_energy, fisher_information, spectral_gap, Density
from transinfo.diffusion1d import (
    DiffusionSpec1D,
    Grid1D,
    Warp,
    c_rho,
    check_nonexplosion,
    discretize,
    dissipativity_margin,
    lip_poisson_ratio,
    normalize,
    ou_sigma2,
    ou_spec,
    ou_tail_lograte,
    _quad,
    rho_a,
    scale_speed,
)
from transinfo.errors import DivergentSpeedMeasure, ModelValidation


def truncation_mass_bound(spec: DiffusionSpec1D, grid: Grid1D) -> float:
    """Geometric-extrapolation bound on the speed mass beyond the grid span."""
    nodes = grid.nodes
    m_prime = np.array([scale_speed(spec, float(x))[1] for x in nodes])
    bound = 0.0
    k = max(2, len(nodes) // 10)
    if spec.y0 > nodes[-1] + 2.0 * (nodes[-1] - nodes[-2]):
        r = float(np.mean(m_prime[-k + 1:] / m_prime[-k:-1]))
        h = nodes[-1] - nodes[-2]
        bound += m_prime[-1] * h * r / max(1.0 - r, 1e-12) if r < 1 else math.inf
    if spec.x0 < nodes[0] - 2.0 * (nodes[1] - nodes[0]):
        r = float(np.mean(m_prime[:k - 1] / m_prime[1:k]))
        h = nodes[1] - nodes[0]
        bound += m_prime[0] * h * r / max(1.0 - r, 1e-12) if r < 1 else math.inf
    return bound


def sample_box_pairs(box: float, n_pairs: int, dim: int, seed: int = 41) -> np.ndarray:
    """Uniform point pairs in [-box, box]^dim for the dissipativity estimate."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-box, box, size=(n_pairs, 2, dim))


def quartic_spec():
    return DiffusionSpec1D(x0=-math.inf, y0=math.inf,
                           a=lambda x: 1.0, b=lambda x: -x ** 3, c_ref=0.0)


def brownian_01():
    return DiffusionSpec1D(x0=0.0, y0=1.0, a=lambda x: 1.0, b=lambda x: 0.0, c_ref=0.5)


class TestScaleSpeed:
    def test_ou_closed_forms(self):
        spec = ou_spec()
        for x in (-2.0, 0.5, 1.5, 3.0):
            sp, mp = scale_speed(spec, x)
            assert sp == pytest.approx(math.exp(x * x / 2), rel=1e-10)
            assert mp == pytest.approx(math.exp(-x * x / 2), rel=1e-10)

    def test_reference_point(self):
        spec = DiffusionSpec1D(-5, 5, a=lambda x: 2.0, b=lambda x: 1.0, c_ref=0.0)
        sp, mp = scale_speed(spec, 0.0)
        assert sp == pytest.approx(1.0)
        assert mp == pytest.approx(0.5)

    def test_quartic_closed_form(self):
        spec = quartic_spec()
        sp, _ = scale_speed(spec, 1.3)
        assert sp == pytest.approx(math.exp(1.3 ** 4 / 4), rel=1e-10)

    def test_identity_a_sp_mp(self):
        spec = DiffusionSpec1D(-5, 5, a=lambda x: 1 + x * x,
                               b=lambda x: math.sin(x), c_ref=0.0)
        for x in np.linspace(-4, 4, 9):
            if x == 0:
                continue
            sp, mp = scale_speed(spec, float(x))
            assert spec.a(x) * sp * mp == pytest.approx(1.0, abs=1e-9)


    @pytest.mark.parametrize("spec", [
        ou_spec(), quartic_spec(),
        diffusion_from_json({"a": "1 + x * x / 4", "b": "sin(3 * x) - x ** 3",
                             "interval": [-3, "inf"], "c_ref": 0.5})],
        ids=["ou", "quartic", "expression"])
    def test_matches_scalar_quad(self, spec):
        for x in (-2.5, -0.7, 0.3, 1.1, 2.9):
            inner = _quad(lambda z: spec.b(z) / spec.a(z), spec.c_ref, x)
            ref = (math.exp(-inner), math.exp(inner) / spec.a(x))
            np.testing.assert_allclose(scale_speed(spec, x), ref, rtol=1e-14, atol=0.0)


class TestNormalize:
    def test_ou_gaussian_mass(self):
        Z, mu = normalize(ou_spec(), Grid1D.uniform(-8, 8, 400))
        assert Z == pytest.approx(math.sqrt(2 * math.pi), rel=1e-3)
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)

    def test_flat_interval(self):
        Z, _ = normalize(brownian_01(), Grid1D.uniform(0.001, 0.999, 64))
        assert Z == pytest.approx(0.998, abs=1e-10)

    def test_quartic_matches_refined_quadrature(self):
        spec = quartic_spec()
        Z, _ = normalize(spec, Grid1D.uniform(-5, 5, 200))
        from scipy.integrate import quad
        oracle, _ = quad(lambda x: math.exp(-x ** 4 / 4), -5, 5, epsabs=1e-13)
        assert Z == pytest.approx(oracle, rel=1e-3)

    def test_divergent_speed_rejected(self):
        # drift pushing outward: m' grows toward the cut
        spec = DiffusionSpec1D(-math.inf, math.inf,
                               a=lambda x: 1.0, b=lambda x: x, c_ref=0.0)
        with pytest.raises(DivergentSpeedMeasure):
            normalize(spec, Grid1D.uniform(-4, 4, 64))

    def test_truncation_mass_tiny_for_ou(self):
        bound = truncation_mass_bound(ou_spec(), Grid1D.uniform(-8, 8, 400))
        assert bound < 1e-8 * math.sqrt(2 * math.pi)


class TestNonexplosion:
    def test_ou_divergent(self):
        out = check_nonexplosion(ou_spec(), 10.0)
        assert out["verdict"] == "divergent"

    def test_brownian_01_inconclusive(self):
        out = check_nonexplosion(brownian_01(), 0.49)
        assert out["verdict"] == "inconclusive"

    def test_symmetric_spec_mirrors(self):
        out = check_nonexplosion(quartic_spec(), 6.0)
        assert out["upper"]["verdict"] == out["lower"]["verdict"] == "divergent"


class TestNonexplosionOnPanels:
    """The panel prefix sums against the nested scalar quadrature."""

    @staticmethod
    def _ladders(spec, cutoff):
        c, t = spec.c_ref, np.linspace(0.2, 1.0 - 1e-9, 8)
        return {"upper": c + (min(c + cutoff, spec.y0) - c) * t,
                "lower": c + (max(c - cutoff, spec.x0) - c) * t}

    @pytest.mark.parametrize("make, cutoff", [
        (ou_spec, 4.0), (ou_spec, 10.0), (quartic_spec, 2.5), (quartic_spec, 6.0),
        (brownian_01, 0.49)], ids=["ou-4", "ou-10", "quartic-2.5", "quartic-6", "bm01"])
    def test_matches_nested_quadrature(self, make, cutoff):
        spec = make()
        got = check_nonexplosion(spec, cutoff)
        ref = nested_nonexplosion(spec, self._ladders(spec, cutoff))
        for side in ("upper", "lower"):
            assert got[side]["verdict"] == ref[side]["verdict"]
            assert len(got[side]["partials"]) == len(ref[side]["partials"]) == 8
            np.testing.assert_allclose(got[side]["partials"], ref[side]["partials"],
                                       rtol=1e-10, atol=0.0)

    def test_overflow_ends_the_ladder_before_any_fallback(self, monkeypatch):
        # the nested quadrature read two partials per side before e^{x^4/4}
        # overflowed; no panel may reach the adaptive quad
        calls = []
        monkeypatch.setattr(diffusion1d, "_quad",
                            lambda fn, lo, hi: calls.append((lo, hi)) or _quad(fn, lo, hi))
        out = check_nonexplosion(quartic_spec(), 20.0)
        assert calls == []
        ref = [float.fromhex("0x1.a22efa32f3d22p+86"), float.fromhex("0x1.5a8513ebbf5efp+555")]
        for side in ("upper", "lower"):
            np.testing.assert_allclose(out[side]["partials"], ref, rtol=1e-10, atol=0.0)
            assert out[side]["verdict"] == "divergent"

    def test_cutoff_measured_from_c_ref(self):
        # Brownian motion on (0, 1) about c_ref = 0.5 is symmetric
        out = check_nonexplosion(brownian_01(), 0.49)
        np.testing.assert_allclose(out["upper"]["partials"], out["lower"]["partials"],
                                   rtol=1e-12, atol=0.0)
        assert out["upper"]["partials"][-1] == pytest.approx(0.49 ** 2 / 2, rel=1e-8)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, math.nan])
    def test_nonpositive_cutoff_rejected(self, cutoff):
        with pytest.raises(ModelValidation):
            check_nonexplosion(ou_spec(), cutoff)


class TestCRho:
    def test_ou_identity_warp_is_one(self):
        val = c_rho(ou_spec(), Warp.identity(), Grid1D.uniform(-6, 6, 400))
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_intrinsic_warp_equals_identity_for_unit_a(self):
        spec = ou_spec()
        grid = Grid1D.uniform(-6, 6, 200)
        a = c_rho(spec, Warp.identity(), grid)
        b = c_rho(spec, Warp.intrinsic(spec), grid)
        assert a == pytest.approx(b, rel=1e-9)

    def test_quartic_matches_poisson_oracle(self):
        spec = quartic_spec()
        grid = Grid1D.uniform(-4, 4, 400)
        corrected = c_rho(spec, Warp.identity(), grid)
        oracle = lip_poisson_ratio(spec, grid, Warp.identity(), g_samples=10)
        assert abs(corrected - oracle) <= 1e-3
        assert oracle <= corrected + 1e-3

    def test_quartic_constants_pinned(self):
        spec = quartic_spec()
        grid = Grid1D.uniform(-4, 4, 400)
        pinned = {"identity": ("0x1.c5b8f30a3ccbbp-1", "0x1.c5b8f2f7040cfp-1"),
                  "tanh": ("0x1.a2cd3f6b86e71p-1", "0x1.a2cd3f59c8e1dp-1"),
                  "intrinsic": ("0x1.c5b8f30a3ccbbp-1", "0x1.c5b8f2f7040cfp-1")}
        warps = {"identity": Warp.identity(), "tanh": Warp.tanh_blend(),
                 "intrinsic": Warp.intrinsic(spec)}
        for name, (corrected, literal) in pinned.items():
            got = [c_rho(spec, warps[name], grid, corrected=c).hex() for c in (True, False)]
            assert got == [corrected, literal], name

    def test_symmetric_identity_warp_variants_coincide(self):
        # with rho = x on a symmetric well both variants peak at the
        # origin where s' = 1, so they agree; the discrimination needs an
        # uneven warp (next test)
        spec = quartic_spec()
        grid = Grid1D.uniform(-4, 4, 300)
        corrected = c_rho(spec, Warp.identity(), grid)
        literal = c_rho(spec, Warp.identity(), grid, corrected=False)
        assert corrected == pytest.approx(literal, rel=1e-6)

    def test_poisson_oracle_arbitrates_variants(self):
        # the corrected constant dominates (and matches) the empirical
        # Lipschitz norm of the Poisson solution; the bare 1/rho' variant
        # undershoots it, so it cannot be the constant of the bound
        spec = ou_spec()
        grid = Grid1D.uniform(-6, 6, 400)
        warp = Warp.tanh_blend()
        corrected = c_rho(spec, warp, grid)
        literal = c_rho(spec, warp, grid, corrected=False)
        oracle = lip_poisson_ratio(spec, grid, warp, g_samples=8)
        assert oracle <= corrected + 1e-3
        assert corrected == pytest.approx(oracle, abs=1e-3)
        assert literal < oracle - 0.1

    def test_chen_wang_direction(self):
        # c_P of the discretized chain is at most C(rho) for every warp
        for spec, box in ((ou_spec(), 6.0), (quartic_spec(), 4.0)):
            grid = Grid1D.uniform(-box, box, 300)
            _, c_p = spectral_gap(discretize(spec, grid))
            for warp in (Warp.identity(), Warp.tanh_blend(), Warp.intrinsic(spec)):
                assert c_p <= c_rho(spec, warp, grid) * 1.02 + 1e-9


def _grid_results(spec_for, grid):
    """Every grid function's output on grid, each call on the spec spec_for() returns."""
    chain = discretize(spec_for(), grid)
    Z, mu = normalize(spec_for(), grid)
    consts = []
    for warp in ("identity", "tanh", "intrinsic"):
        spec = spec_for()
        rho = {"identity": Warp.identity(), "tanh": Warp.tanh_blend(),
               "intrinsic": Warp.intrinsic(spec)}[warp]
        consts += [c_rho(spec, rho, grid, corrected=c) for c in (True, False)]
    ratio = lip_poisson_ratio(spec_for(), grid, Warp.tanh_blend(), g_samples=4)
    return [chain.mu, *chain.rates, chain.exit_rates, mu], [Z, *consts, ratio]


class TestPerGridReuse:
    """A spec keeps the speed and panel weights of the last grid it saw; every
    function that reads them returns what it returns on a new spec, bit for bit."""

    @pytest.mark.parametrize("make", [quartic_spec, ou_spec, brownian_01])
    def test_one_spec_equals_new_specs(self, make):
        spec = make()
        lo, hi = (0.01, 0.99) if make is brownian_01 else (-3.0, 3.0)
        # two grids of one size, then the first again
        grids = [Grid1D.uniform(lo, hi, 120), Grid1D.uniform(lo + 0.003, hi, 120)]
        for grid in grids + grids[:1]:
            arrays, floats = _grid_results(lambda: spec, grid)
            ref_arrays, ref_floats = _grid_results(make, grid)
            assert all(np.array_equal(a, b) for a, b in zip(arrays, ref_arrays))
            assert [x.hex() for x in floats] == [x.hex() for x in ref_floats]
            assert spec._grid_entry[0] == grid.nodes.tobytes()

    def test_kept_arrays_are_read_only_and_reused(self):
        spec, grid = quartic_spec(), Grid1D.uniform(-4.0, 4.0, 64)
        weights = diffusion1d._speed_weights(spec, grid.nodes)
        panels = diffusion1d._panel_weights(spec, grid.nodes)
        for a in (*weights, *panels):
            with pytest.raises(ValueError):
                a[0] = 0.0
        # the same grid, as a new Grid1D, finds both
        again = Grid1D.uniform(-4.0, 4.0, 64).nodes
        assert diffusion1d._speed_weights(spec, again) is weights
        assert diffusion1d._panel_weights(spec, again) is panels

    @pytest.mark.parametrize("make, lo, hi", [(quartic_spec, -4.0, 4.0), (ou_spec, -6.0, 6.0)])
    def test_lip_poisson_after_discretize_runs_no_quadrature(self, make, lo, hi, monkeypatch):
        # the spec keeps discretize's rates, so lip_poisson_ratio's chain
        # runs no midpoint quadrature, and its ratio is a new spec's
        spec, grid = make(), Grid1D.uniform(lo, hi, 400)
        chain = discretize(spec, grid)
        calls, quad = [], diffusion1d._panel_quad
        monkeypatch.setattr(diffusion1d, "_panel_quad", lambda *a: calls.append(a) or quad(*a))
        ratio = lip_poisson_ratio(spec, grid, Warp.identity())
        again = discretize(spec, grid)
        assert calls == []
        for a, b in zip((again.mu, *again.rates, again.exit_rates),
                        (chain.mu, *chain.rates, chain.exit_rates)):
            assert np.array_equal(a, b)
        monkeypatch.undo()
        assert ratio.hex() == lip_poisson_ratio(make(), grid, Warp.identity()).hex()

    def test_one_grid_entry_at_a_time(self):
        spec = quartic_spec()
        first, second = Grid1D.uniform(-4.0, 4.0, 64), Grid1D.uniform(-3.0, 3.0, 64)
        c_rho(spec, Warp.identity(), first)
        assert spec._grid_entry[0] == first.nodes.tobytes() and len(spec._grid_entry[1]) == 2
        normalize(spec, second)
        assert spec._grid_entry[0] == second.nodes.tobytes() and len(spec._grid_entry[1]) == 1
        weights = diffusion1d._speed_weights(spec, second.nodes)
        discretize(spec, first)
        assert diffusion1d._speed_weights(spec, second.nodes) is not weights


class TestRhoA:
    def test_unit_diffusion(self):
        assert rho_a(ou_spec(), 1.7) == pytest.approx(1.7, rel=1e-10)

    def test_constant_scaling(self):
        spec = DiffusionSpec1D(-10, 10, a=lambda x: 4.0, b=lambda x: 0.0, c_ref=0.0)
        assert rho_a(spec, 2.0) == pytest.approx(1.0, rel=1e-10)

    def test_asinh_closed_form(self):
        spec = DiffusionSpec1D(-10, 10, a=lambda x: 1 + x * x, b=lambda x: 0.0, c_ref=0.0)
        assert rho_a(spec, 2.0) == pytest.approx(math.asinh(2.0), rel=1e-10)
        assert rho_a(spec, -2.0) == pytest.approx(-math.asinh(2.0), rel=1e-10)

    def test_increasing_zero_at_ref(self):
        spec = quartic_spec()
        vals = [rho_a(spec, x) for x in (-1.0, -0.2, 0.4, 1.5)]
        assert all(np.diff(vals) > 0)
        assert rho_a(spec, 1e-12) == pytest.approx(0.0, abs=1e-11)


class TestDiscretize:
    def test_ou_poincare_constant(self):
        ch = discretize(ou_spec(), Grid1D.uniform(-6, 6, 400))
        _, c_p = spectral_gap(ch)
        assert c_p == pytest.approx(1.0, rel=0.01)

    def test_neumann_interval_gap(self):
        # reflecting unit interval: gap = pi^2, c_P = 1/pi^2
        ch = discretize(brownian_01(), Grid1D.uniform(0.001, 0.999, 200))
        _, c_p = spectral_gap(ch)
        assert c_p == pytest.approx(1.0 / math.pi ** 2, rel=0.02)

    def test_energy_converges_to_carre_du_champ(self):
        # E(g,g) -> int a (g')^2 dmu at second order on refinement pairs
        spec = ou_spec()
        g_fn = lambda x: np.sin(x)
        from scipy.integrate import quad
        target, _ = quad(lambda x: math.cos(x) ** 2 * math.exp(-x * x / 2), -7, 7)
        target /= math.sqrt(2 * math.pi)
        errs = []
        for n in (100, 200, 400):
            grid = Grid1D.uniform(-7, 7, n)
            ch = discretize(spec, grid)
            errs.append(abs(dirichlet_energy(ch, g_fn(grid.nodes)) - target))
        assert errs[2] < errs[0] / 2.5   # at least halving per refinement pair

    def test_detailed_balance_exact(self):
        ch = discretize(quartic_spec(), Grid1D.uniform(-4, 4, 150))
        flow = ch.mu[:, None] * ch.Q
        assert np.max(np.abs(flow - flow.T)) < 1e-12 * np.max(np.abs(flow))


class TestLipPoissonRatio:
    def test_ou_identity(self):
        val = lip_poisson_ratio(ou_spec(), Grid1D.uniform(-6, 6, 400), Warp.identity())
        assert val == pytest.approx(1.0, abs=1e-3)

    def test_witness_attains(self):
        # the extremal right-hand side g = rho - mu(rho) achieves the ratio
        spec = quartic_spec()
        grid = Grid1D.uniform(-4, 4, 300)
        full = lip_poisson_ratio(spec, grid, Warp.identity(), g_samples=8)
        witness_only = lip_poisson_ratio(spec, grid, Warp.identity(), g_samples=0)
        assert witness_only == pytest.approx(full, abs=1e-3)


class TestOuClosedForms:
    def test_sigma2_value(self):
        assert ou_sigma2(2.0) == pytest.approx(1 - (1 - math.exp(-2)) / 2, abs=1e-12)

    def test_sigma2_positive_decreasing(self):
        ts = np.linspace(0.5, 50, 50)
        vals = [ou_sigma2(t) for t in ts]
        assert all(v > 0 for v in vals)
        assert all(np.diff(vals) < 0)

    def test_tail_lograte_limit(self):
        val = ou_tail_lograte(1.0, 2000.0)
        assert -0.256 <= val <= -0.250

    def test_median_value(self):
        assert ou_tail_lograte(0.0, 50.0) == pytest.approx(math.log(0.5) / 50.0, abs=1e-12)

    def test_deep_tail_stable(self):
        # far tail needs the asymptotic log-sf path, not a raw sf
        val = ou_tail_lograte(3.0, 1e5)
        assert val == pytest.approx(-9.0 / 4.0, rel=0.01)

    def test_matches_scipy_stats_norm_logsf(self):
        from scipy.stats import norm
        for r in (0.0, 0.3, 1.0, 3.0, 12.0):
            for t in (0.5, 50.0, 1e5):
                sigma = math.sqrt(ou_sigma2(t))
                assert ou_tail_lograte(r, t) == float(norm.logsf(r / sigma)) / t


class TestDissipativity:
    def test_ou_rd_margin_exactly_one(self):
        pairs = sample_box_pairs(3.0, 2000, 3, seed=5)
        sigma = np.eye(3)
        val = dissipativity_margin(lambda x: sigma, lambda x: -x, pairs)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_cubic_drift_margin_near_zero(self):
        pairs = sample_box_pairs(2.0, 2000, 1, seed=6)
        val = dissipativity_margin(lambda x: np.zeros((1, 1)), lambda x: -x ** 3, pairs)
        assert 0.0 <= val < 0.05

    def test_constant_drift_zero(self):
        pairs = sample_box_pairs(1.0, 1500, 2, seed=7)
        val = dissipativity_margin(lambda x: np.zeros((2, 2)),
                                   lambda x: np.array([1.0, -2.0]), pairs)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_requires_enough_pairs(self):
        with pytest.raises(ValueError):
            dissipativity_margin(lambda x: np.eye(1), lambda x: -x,
                                 sample_box_pairs(1.0, 10, 1))


class TestGridAndSpecValidation:
    def test_grid_minimum_size(self):
        with pytest.raises(ModelValidation):
            Grid1D.uniform(0, 1, 8)

    def test_grid_strictly_increasing(self):
        with pytest.raises(ModelValidation):
            Grid1D.validate(np.concatenate([np.linspace(0, 1, 16), [1.0]]))

    @pytest.mark.parametrize("bad, at", [(np.nan, 16), (np.inf, 16), (-np.inf, 0), (np.nan, 7)])
    def test_grid_nodes_must_be_finite(self, bad, at):
        # a NaN passes the increasing check and an infinite end node satisfies
        # it; either used to reach normalize, c_rho and discretize
        nodes = np.insert(np.linspace(-1.0, 1.0, 16), at, bad)
        with pytest.raises(ModelValidation, match=f"grid nodes must be finite: node {at} is"):
            Grid1D.validate(nodes)

    def test_nan_warp_slope_rejected_by_name(self):
        rho = Warp(value=lambda x: x, slope=lambda x: np.where(x > 0.5, np.nan, 1.0))
        with pytest.raises(ModelValidation, match="warp slope must be positive on the grid"):
            c_rho(ou_spec(), rho, Grid1D.uniform(-3.0, 3.0, 40))

    def test_negative_diffusion_rejected(self):
        with pytest.raises(ModelValidation):
            DiffusionSpec1D(-1, 1, a=lambda x: -1.0, b=lambda x: 0.0, c_ref=0.0)

    def test_reference_outside_interval(self):
        with pytest.raises(ModelValidation):
            DiffusionSpec1D(0, 1, a=lambda x: 1.0, b=lambda x: 0.0, c_ref=2.0)


class TestGaussianShiftStack:
    def test_fisher_and_gap_closed_forms(self):
        # N(0.5, 1) against N(0, 1) on the discretized stack
        spec = ou_spec()
        grid = Grid1D.uniform(-8, 8, 400)
        ch = discretize(spec, grid)
        f = np.exp(0.5 * grid.nodes - 0.125)
        f /= float(np.dot(ch.mu, f))
        info = fisher_information(ch, Density.validate(ch.mu, f))
        assert info == pytest.approx(0.0625, rel=0.01)
        _, c_p = spectral_gap(ch)
        assert c_p == pytest.approx(1.0, rel=0.01)

    def test_fisher_converges_at_first_order(self):
        spec = ou_spec()
        errs = []
        for n in (100, 200, 400):
            grid = Grid1D.uniform(-8, 8, n)
            ch = discretize(spec, grid)
            f = np.exp(0.5 * grid.nodes - 0.125)
            f /= float(np.dot(ch.mu, f))
            errs.append(abs(fisher_information(ch, Density.validate(ch.mu, f)) - 0.0625))
        assert errs[2] < errs[0]


class TestOuResolventIdentity:
    def test_poisson_solution_is_coordinate(self):
        # -L x = x for the mean-reverting unit diffusion, so the discrete
        # Poisson solve at g = x returns h close to x; the reflecting
        # truncation creates a boundary layer carrying negligible mass,
        # so closeness is measured in L^2(mu) and on the bulk
        from transinfo.chains import poisson_solve
        grid = Grid1D.uniform(-6.0, 6.0, 300)
        ch = discretize(ou_spec(), grid)
        g = grid.nodes - float(np.dot(ch.mu, grid.nodes))
        h = poisson_solve(ch, g)
        l2_err = math.sqrt(float(np.dot(ch.mu, (h - g) ** 2)))
        assert l2_err < 1e-4
        bulk = np.abs(grid.nodes) <= 4.0
        assert np.max(np.abs(h - g)[bulk]) < 5e-3
