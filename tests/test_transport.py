import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.optimize import linprog

from transinfo import transport
from transinfo.chains import (
    Density,
    MetricMatrix,
    build_chain,
    fisher_information,
    line_metric,
    trivial_metric,
)
from transinfo.diffusion1d import Grid1D, discretize, ou_spec
from transinfo.errors import (InfeasibleMarginals, ModelValidation, ProductTooLarge,
                              UnsortedGrid)
from transinfo.feynman_kac import _best_lambda
from transinfo.lyapunov import mminf_generator
from transinfo.transport import (
    CostMatrix,
    RateFunction,
    _golden_max,
    _metric_transport,
    _network_simplex,
    alpha_conjugate,
    alpha_infconv,
    conditional_fisher_sum,
    infconv_potential,
    kantorovich_dual,
    ot_cost,
    supconv_potential,
    tensor_cost,
    tensor_subadditivity_check,
    w1,
    w2,
    w2_quantile_1d,
)

from conftest import random_reversible_chain, rebuilding_network_simplex, w2_quantile_loop


def transport_vertices(nu, mu):
    """All basic feasible solutions of the transport polytope (brute force).

    A vertex corresponds to a spanning forest of the bipartite support;
    enumerate every edge subset of size n + m - 1 and keep the feasible
    solves.  Oracle only, exponential in the size.
    """
    n, m = len(nu), len(mu)
    cells = list(itertools.product(range(n), range(m)))
    vertices = []
    for subset in itertools.combinations(cells, n + m - 1):
        A = np.zeros((n + m, n + m - 1))
        for k, (i, j) in enumerate(subset):
            A[i, k] = 1.0
            A[n + j, k] = 1.0
        b = np.concatenate([nu, mu])
        x, res, rank, _ = np.linalg.lstsq(A, b, rcond=None)
        if rank < n + m - 1:
            continue
        if np.max(np.abs(A @ x - b)) > 1e-10 or np.any(x < -1e-10):
            continue
        pi = np.zeros((n, m))
        for k, (i, j) in enumerate(subset):
            pi[i, j] = max(x[k], 0.0)
        vertices.append(pi)
    return vertices


def linprog_ot_value(c, nu, mu):
    """Transport LP with every row and column marginal as a constraint."""
    n, m = c.shape
    A = np.zeros((n + m, n * m))
    for i in range(n):
        A[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        A[n + j, j::m] = 1.0
    res = linprog(c.ravel(), A_eq=A, b_eq=np.concatenate([nu, mu]), bounds=(0, None),
                  method="highs")
    assert res.status == 0, res.message
    return res.fun


def _dyadic_masses(draw, k):
    # multiples of 1/16 summing to one exactly: many ties and zero masses
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=k - 1, max_size=k - 1)))
    return np.diff([0] + cuts + [16]) / 16.0


def _float_masses(draw, k, zeros):
    w = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    if zeros:
        keep = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k)))
        keep[draw(st.integers(0, k - 1))] = True
        w = np.where(keep, w, 0.0)
    return w / w.sum()


@st.composite
def transport_instances(draw):
    """2-8 x 2-8 costs: random, integer with ties, trivial metric with nu == mu,
    and random with zero-mass rows and columns."""
    kind = draw(st.sampled_from(["random", "integer", "trivial", "zero-mass"]))
    n = draw(st.integers(2, 8))
    m = n if kind == "trivial" else draw(st.integers(2, 8))
    if kind == "integer":
        c = np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)),
                     dtype=float).reshape(n, m)
        return c, _dyadic_masses(draw, n), _dyadic_masses(draw, m)
    if kind == "trivial":
        nu = _float_masses(draw, n, zeros=draw(st.booleans()))
        return 1.0 - np.eye(n), nu, nu.copy()
    c = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n * m, max_size=n * m)))
    zeros = kind == "zero-mass"
    return c.reshape(n, m), _float_masses(draw, n, zeros), _float_masses(draw, m, zeros)


def _masses_with_tiny(draw, k):
    # positive masses mixed with exact zeros and near-zero masses
    w = np.array(draw(st.lists(
        st.one_of(st.floats(0.01, 1.0), st.just(0.0), st.sampled_from([1e-300, 1e-18, 1e-12])),
        min_size=k, max_size=k)))
    w[draw(st.integers(0, k - 1))] = draw(st.floats(0.01, 1.0))
    return w / w.sum()


@st.composite
def metric_transport_instances(draw):
    """Line and planar metrics on 2-7 points, powers 1 and 2, masses with zeros."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
        d = line_metric(np.concatenate([[0.0], np.cumsum(gaps)]))
    else:
        pts = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=2 * n,
                                     max_size=2 * n))).reshape(n, 2)
        dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        assume(np.all(dmat[~np.eye(n, dtype=bool)] > 1e-3))
        d = MetricMatrix.validate(dmat)
    return d, draw(st.sampled_from([1, 2])), _masses_with_tiny(draw, n), \
        _masses_with_tiny(draw, n)


class TestMetricTransport:
    @given(metric_transport_instances())
    def test_value_and_potential_against_simplex(self, instance):
        d, power, nu, mu = instance
        c = d.d ** power
        value, dual, u = _metric_transport(d, power, nu, mu)
        reference, _ = ot_cost(CostMatrix.from_metric(d, power), nu, mu)
        assert value == pytest.approx(reference, rel=1e-12, abs=1e-15)
        # u is an optimal potential: its c-transform pair is feasible and closes the gap
        v = np.max(u[:, None] - c, axis=0)
        assert np.all(u[:, None] - v[None, :] <= c + 1e-12)
        gap_tol = 1e-9 * max(1.0, abs(value))
        assert abs(float(np.dot(u, nu) - np.dot(v, mu)) - value) <= gap_tol
        assert abs(dual - value) <= gap_tol

    @pytest.mark.parametrize("nu", [[1.0, 1.0, 0.0], [0.5, 0.6, -0.1]])
    def test_line_w1_checks_marginals(self, nu):
        # mass mismatch and a negative entry, as on the planar and W2 routes
        with pytest.raises(InfeasibleMarginals):
            w1(line_metric(np.array([0.0, 1.0, 2.0])), np.array(nu), np.full(3, 1.0 / 3.0))

    def test_line_routes_check_marginal_lengths(self):
        d = line_metric(np.array([0.0, 1.0, 2.0]))
        nu, mu = np.array([0.5, 0.5]), np.array([0.25, 0.75])
        for call in (lambda: w1(d, nu, mu), lambda: w2(d, nu, mu),
                     lambda: w2_quantile_1d(np.array([0.0, 1.0, 2.0]), nu, mu),
                     lambda: kantorovich_dual(CostMatrix.from_metric(d), nu, mu)):
            with pytest.raises(InfeasibleMarginals):
                call()

    def test_line_w2_checks_marginals_once(self, monkeypatch):
        from transinfo import transport
        calls = []
        check = transport._check_marginals
        monkeypatch.setattr(transport, "_check_marginals",
                            lambda *args: calls.append(1) or check(*args))
        d = line_metric(np.array([0.0, 0.5, 2.0]))
        nu, mu = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.25, 0.25])
        value = _metric_transport(d, 2, nu, mu)[0]
        assert len(calls) == 1
        assert value == w2_quantile_1d(d.line_embedding, nu, mu) ** 2
        assert len(calls) == 2


_POINTS3 = np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]])
_PLANE3 = MetricMatrix.validate(np.linalg.norm(_POINTS3[:, None] - _POINTS3[None], axis=2))
_LINE3 = line_metric(np.array([0.0, 1.0, 2.0]))
_THIRDS, _NAN = np.full(3, 1.0 / 3.0), np.array([np.nan, 0.5, 0.5])
_ROWS = {"rows-plane": lambda nu, mu: transport._metric_transport_rows(_PLANE3, 1, nu, mu),
         "rows-line-w1": lambda nu, mu: transport._metric_transport_rows(_LINE3, 1, nu, mu),
         "rows-line-w2": lambda nu, mu: transport._metric_transport_rows(_LINE3, 2, nu, mu)}
_ONE = {"w1-line": lambda nu, mu: w1(_LINE3, nu, mu),
        "w2-line": lambda nu, mu: w2(_LINE3, nu, mu),
        "w1-plane": lambda nu, mu: w1(_PLANE3, nu, mu),
        "ot_cost": lambda nu, mu: ot_cost(CostMatrix.from_metric(_PLANE3), nu, mu),
        "kantorovich_dual": lambda nu, mu: kantorovich_dual(CostMatrix.from_metric(_PLANE3), nu, mu),
        **{name: lambda nu, mu, rows=rows: rows(np.atleast_2d(nu), mu)
           for name, rows in _ROWS.items()}}


class TestNanMarginals:
    """A NaN marginal entry fails the marginal check on every route.  Every
    comparison with NaN is false, so checks stated as "reject if below" let it
    through: w2 on the line returned 0.0, w1 on the plane and ot_cost 0.41667
    (the simplex dropped the NaN row), and w1 on the line nan."""

    @pytest.mark.parametrize("name", list(_ONE))
    @pytest.mark.parametrize("where", ["nu", "mu"])
    def test_rejected(self, name, where):
        nu, mu = (_NAN, _THIRDS) if where == "nu" else (_THIRDS, _NAN)
        with pytest.raises(InfeasibleMarginals):
            _ONE[name](nu, mu)

    @pytest.mark.parametrize("name", list(_ROWS))
    def test_rejected_in_the_second_row_only(self, name):
        with pytest.raises(InfeasibleMarginals):
            _ROWS[name](np.array([_THIRDS, _NAN]), _THIRDS)


class TestSimplexAgainstLinprog:
    @given(transport_instances())
    def test_vertex_potentials_and_gap(self, instance):
        c, nu, mu = instance
        cm = CostMatrix.validate(c, aligned=False)
        val, coup = ot_cost(cm, nu, mu)
        dual, u, v = kantorovich_dual(cm, nu, mu)
        assert val == pytest.approx(linprog_ot_value(c, nu, mu), abs=1e-9)
        assert np.all(coup.pi >= 0.0)
        assert coup.marginal_residual() <= 1e-12
        assert np.all(u[:, None] - v[None, :] <= c + 1e-12)
        assert abs(val - dual) <= 1e-9


def _tenths(draw, k):
    # multiples of 1/10 whose float sums are off by roundoff: degenerate
    # northwest corners, zero masses and an imbalance for the last row and column
    cuts = sorted(draw(st.lists(st.integers(0, 10), min_size=k - 1, max_size=k - 1)))
    return np.diff([0] + cuts + [10]) / 10.0


@st.composite
def simplex_oracle_instances(draw):
    """1-10 x 1-10 costs (uniform, constant, integer with ties, planar and
    trivial metrics) with positive, zero-mass or rounded marginals."""
    kind = draw(st.sampled_from(["uniform", "constant", "integer", "planar", "trivial"]))
    n = draw(st.integers(1, 10))
    m = n if kind in ("planar", "trivial") else draw(st.integers(1, 10))
    if kind == "uniform":
        c = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n * m, max_size=n * m)))
    elif kind == "constant":
        c = np.full(n * m, draw(st.floats(0.0, 3.0)))
    elif kind == "integer":
        c = np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)),
                     dtype=float)
    elif kind == "planar":
        pts = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=2 * n,
                                     max_size=2 * n))).reshape(n, 2)
        c = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    else:
        c = 1.0 - np.eye(n)
    masses = draw(st.sampled_from(["positive", "zero-mass", "rounded"]))
    if masses == "rounded":
        nu, mu = _tenths(draw, n), _tenths(draw, m)
    else:
        zeros = masses == "zero-mass"
        nu, mu = _float_masses(draw, n, zeros), _float_masses(draw, m, zeros)
    if kind == "trivial" and draw(st.booleans()):
        mu = nu.copy()
    return c.reshape(n, m), nu, mu


def _assert_same_solve(c, nu, mu):
    (pi, u), (ref_pi, ref_u, _) = (_network_simplex(c, nu, mu),
                                   rebuilding_network_simplex(c, nu, mu))
    assert np.array_equal(pi, ref_pi), "pi"
    assert np.array_equal(u, ref_u), "u"


class TestIncrementalSimplex:
    """Re-deriving only the re-hung subtree gives the vertex and the potentials
    of the simplex that rebuilt the whole tree on every pivot, bit for bit."""

    @given(simplex_oracle_instances())
    def test_matches_rebuilding_simplex(self, instance):
        _assert_same_solve(*instance)

    def test_fixed_large_instances(self):
        rng = np.random.default_rng(41)
        # trivial metric on 41 states: the mminf search's cost, with its
        # Poisson(1) measure (masses down to 4.5e-49) and a random one
        mminf_mu = mminf_generator(1.0, 40)[0].mu
        _assert_same_solve(1.0 - np.eye(41), rng.dirichlet(np.ones(41)), mminf_mu)
        _assert_same_solve(1.0 - np.eye(41), rng.dirichlet(np.ones(41)),
                           rng.dirichlet(np.ones(41)))
        _assert_same_solve(rng.uniform(size=(100, 100)), rng.dirichlet(np.ones(100)),
                           rng.dirichlet(np.ones(100)))


class TestOtCost:
    @pytest.mark.parametrize("c, message", [
        (np.zeros(3), "cost must be a matrix"),
        ([[0.0, -1.0], [1.0, 0.0]], "cost entries must be nonnegative"),
        ([[1.0, 1.0], [1.0, 0.0]], "aligned square cost must vanish on the diagonal"),
    ])
    def test_malformed_cost_rejected_by_name(self, c, message):
        with pytest.raises(ModelValidation, match=f"^{message}$"):
            CostMatrix.validate(np.array(c))

    def test_identity_coupling_zero_cost(self, rng):
        c = CostMatrix.validate(rng.uniform(0, 1, (3, 3)) * (1 - np.eye(3)))
        mu = np.array([0.2, 0.5, 0.3])
        val, coup = ot_cost(c, mu, mu)
        assert val == pytest.approx(0.0, abs=1e-12)
        assert coup.marginal_residual() < 1e-10

    def test_trivial_cost_is_half_tv(self, rng):
        for _ in range(10):
            nu = rng.dirichlet(np.ones(4))
            mu = rng.dirichlet(np.ones(4))
            val, _ = ot_cost(CostMatrix.from_metric(trivial_metric(4)), nu, mu)
            assert val == pytest.approx(0.5 * np.abs(nu - mu).sum(), abs=1e-10)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(5):
            nu = rng.dirichlet(np.ones(3))
            mu = rng.dirichlet(np.ones(3))
            c = rng.uniform(0.0, 2.0, (3, 3))
            np.fill_diagonal(c, 0.0)
            cm = CostMatrix.validate(c)
            val, _ = ot_cost(cm, nu, mu)
            oracle = min(float(np.sum(v * c)) for v in transport_vertices(nu, mu))
            assert val == pytest.approx(oracle, abs=1e-9)

    def test_line_cost_closed_form(self):
        # regression: this feasible instance used to raise InfeasibleMarginals
        grid = Grid1D.uniform(-8.0, 8.0, 150)
        chain = discretize(ou_spec(), grid)
        f = np.exp(0.4 * grid.nodes)
        nu = chain.mu * Density.validate(chain.mu, f / float(np.dot(chain.mu, f))).f
        val, _ = ot_cost(CostMatrix.from_metric(line_metric(grid.nodes), 1), nu, chain.mu)
        closed = float(np.sum(np.abs(np.cumsum(nu - chain.mu)[:-1]) * np.diff(grid.nodes)))
        assert val == pytest.approx(closed, abs=1e-9)

    def test_infeasible_marginals(self):
        c = CostMatrix.validate(np.zeros((2, 2)))
        with pytest.raises(InfeasibleMarginals):
            ot_cost(c, np.array([0.5, 0.6]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_costs_that_are_not_finite_are_rejected(self, bad):
        c = np.ones((2, 2)) - np.eye(2)
        c[0, 1] = bad
        with pytest.raises(ModelValidation, match="finite"):
            CostMatrix.validate(c)
        # a cost built without validation, as CostMatrix.from_metric builds it
        with pytest.raises(ModelValidation, match="finite"):
            ot_cost(CostMatrix(c=c), np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_overflowing_metric_costs_fail_by_name(self):
        # d ** 2 of the first line overflows to inf, and the tree potentials of
        # the second's W1 (unsorted points, so the simplex) overflow; on each
        # the simplex pivoted on NaN reduced costs and never returned, so the
        # calls run under a timeout
        code = "\n".join([
            "import numpy as np",
            "from transinfo.chains import line_metric",
            "from transinfo.errors import ModelValidation",
            "from transinfo.transport import CostMatrix, ot_cost, w1",
            "np.seterr(over='ignore', invalid='ignore')",
            "c = CostMatrix.from_metric(line_metric([-1e307, 0, 1e307]), 2)",
            "d = line_metric([-8e307, 8e307, 0.0, 4e307, -4e307])",
            "for call in (lambda: ot_cost(c, [0.5, 0, 0.5], [0.2, 0.3, 0.5]),",
            "             lambda: w1(d, [0.1, 0.2, 0.3, 0.2, 0.2], [0.3, 0.1, 0.2, 0.1, 0.3])):",
            "    try:",
            "        call()",
            "    except ModelValidation as exc:",
            "        print(exc)",
        ])
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60)
        assert res.stdout.splitlines() == [
            "cost entries must be finite",
            "cost entries too large: the tree's potentials overflow"], res.stderr

    def test_overflowing_tree_potentials_fail_by_name_under_the_warning_filter(self):
        # unsorted points send W1 to the simplex, whose tree potentials
        # overflow; its pricing ran with numpy's warnings on, so under this
        # repository's error::RuntimeWarning filter the caller got "overflow
        # encountered in add" instead of the simplex's own check
        d = line_metric([-8e307, 8e307, 0.0, 4e307, -4e307])
        with pytest.raises(ModelValidation, match="potentials overflow"):
            w1(d, [0.1, 0.2, 0.3, 0.2, 0.2], [0.3, 0.1, 0.2, 0.1, 0.3])

    def test_overflowing_squared_costs_fail_by_name_on_every_route(self):
        # under this repository's error::RuntimeWarning filter: the dense d ** 2
        # raised RuntimeWarning, and line W2 returned inf with NaN potentials
        far = line_metric(np.array([-1e200, 0.0, 1e200]))
        dense = MetricMatrix.validate(far.d)
        nu, mu = np.array([0.5, 0.0, 0.5]), np.array([0.2, 0.3, 0.5])
        for call, reason in ((lambda: ot_cost(CostMatrix.from_metric(far, 2), nu, mu), "finite"),
                             (lambda: _metric_transport(dense, 2, nu, mu), "finite"),
                             (lambda: w2(far, nu, mu), "square overflows"),
                             (lambda: _metric_transport(far, 2, nu, mu), "square overflows")):
            with pytest.raises(ModelValidation, match=reason):
                call()
        assert dense.line_embedding is None and far.line_embedding is not None

    def test_monotone_in_cost(self, rng):
        nu = rng.dirichlet(np.ones(4))
        mu = rng.dirichlet(np.ones(4))
        c = rng.uniform(0.1, 1.0, (4, 4))
        np.fill_diagonal(c, 0.0)
        bigger = c + rng.uniform(0.0, 0.5, (4, 4)) * (1 - np.eye(4))
        v1, _ = ot_cost(CostMatrix.validate(c), nu, mu)
        v2, _ = ot_cost(CostMatrix.validate(bigger), nu, mu)
        assert v1 <= v2 + 1e-10


class TestKantorovichDual:
    def test_same_marginals(self):
        c = CostMatrix.validate(np.ones((3, 3)) - np.eye(3))
        mu = np.array([0.3, 0.3, 0.4])
        val, u, v = kantorovich_dual(c, mu, mu)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_feasibility_and_gap(self, rng):
        for _ in range(10):
            n = 4
            nu = rng.dirichlet(np.ones(n))
            mu = rng.dirichlet(np.ones(n))
            c = rng.uniform(0.0, 3.0, (n, n))
            np.fill_diagonal(c, 0.0)
            cm = CostMatrix.validate(c)
            primal, _ = ot_cost(cm, nu, mu)
            dual, u, v = kantorovich_dual(cm, nu, mu)
            assert np.all(u[:, None] - v[None, :] <= c + 1e-12)
            assert dual == pytest.approx(primal, abs=1e-9)

    def test_trivial_metric_potential_oscillation(self, rng):
        d = trivial_metric(3)
        nu = rng.dirichlet(np.ones(3))
        mu = rng.dirichlet(np.ones(3))
        _, u, v = kantorovich_dual(CostMatrix.from_metric(d), nu, mu)
        assert np.max(u) - np.min(u) <= 1.0 + 1e-10


class TestWassersteinOps:
    def test_same_measure_zero(self, rng):
        d = trivial_metric(3)
        mu = rng.dirichlet(np.ones(3))
        assert w1(d, mu, mu) == pytest.approx(0.0, abs=1e-12)
        assert w2(d, mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_closed_form(self):
        d = trivial_metric(2)
        nu = np.array([0.7, 0.3])
        mu = np.array([0.4, 0.6])
        assert w1(d, nu, mu) == pytest.approx(0.3, abs=1e-12)

    def test_gaussian_shift_w1_w2(self):
        # discretized N(m, 1) vs N(0, 1): both distances converge to |m|
        m = 0.5
        x = np.arange(-8.0, 8.0 + 1e-9, 0.01)
        w = np.exp(-x ** 2 / 2)
        mu = w / w.sum()
        wn = np.exp(-(x - m) ** 2 / 2)
        nu = wn / wn.sum()
        d = line_metric(x)
        assert w1(d, nu, mu) == pytest.approx(m, rel=0.01)
        assert w2(d, nu, mu) == pytest.approx(m, rel=0.01)

    def test_quantile_route_crosses_lp_route(self, rng):
        grid = np.sort(rng.uniform(-2, 2, 5))
        nu = rng.dirichlet(np.ones(5))
        mu = rng.dirichlet(np.ones(5))
        d2 = CostMatrix.validate((grid[:, None] - grid[None, :]) ** 2, aligned=True)
        lp_val, _ = ot_cost(d2, nu, mu)
        assert w2_quantile_1d(grid, nu, mu) == pytest.approx(math.sqrt(lp_val), abs=1e-8)

    def test_quantile_two_point_hand_value(self):
        grid = np.array([0.0, 1.0])
        val = w2_quantile_1d(grid, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        # 0.25 of mass moves distance 1: W2 = sqrt(0.25)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(UnsortedGrid):
            w2_quantile_1d(np.array([0.0, 2.0, 1.0]), np.ones(3) / 3, np.ones(3) / 3)

    def test_w1_metric_axioms(self, rng):
        d = line_metric(np.array([0.0, 0.7, 1.1, 2.4]))
        ms = [rng.dirichlet(np.ones(4)) for _ in range(3)]
        d01 = w1(d, ms[0], ms[1])
        d10 = w1(d, ms[1], ms[0])
        assert d01 == pytest.approx(d10, abs=1e-9)
        d02 = w1(d, ms[0], ms[2])
        d12 = w1(d, ms[1], ms[2])
        assert d01 <= d02 + d12 + 1e-9

    def test_potentials_are_subgradients(self, rng):
        # first-order expansion of W1 and W2^2 along a marginal perturbation
        grid = np.array([0.0, 0.9, 1.7, 3.0])
        d = line_metric(grid)
        nu = np.array([0.3, 0.3, 0.2, 0.2])
        mu = np.array([0.25, 0.25, 0.25, 0.25])
        direction = np.array([0.5, -0.5, 0.3, -0.3])
        for dist_fn, power, square in ((w1, 1, False), (w2, 2, True)):
            base = dist_fn(d, nu, mu)
            _, _, pot = _metric_transport(d, power, nu, mu)
            eps = 1e-6
            bumped = dist_fn(d, nu + eps * direction, mu)
            lhs = (bumped ** 2 - base ** 2) / eps if square else (bumped - base) / eps
            rhs = float(np.dot(pot, direction))
            assert lhs == pytest.approx(rhs, abs=1e-3)


@st.composite
def quantile_instances(draw):
    """Grids with unequal gaps and marginal pairs with zero masses and CDF ties."""
    n = draw(st.integers(1, 12))
    gaps = draw(st.lists(st.one_of(st.floats(1e-6, 5.0), st.just(1.0)),
                         min_size=n - 1, max_size=n - 1))
    grid = draw(st.floats(-10.0, 10.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    kind = draw(st.sampled_from(["dyadic", "float", "shared-prefix"]))
    if kind == "dyadic":        # multiples of 1/16: the two CDFs meet at many levels
        nu, mu = _dyadic_masses(draw, n), _dyadic_masses(draw, n)
    elif kind == "float":
        nu, mu = _float_masses(draw, n, zeros=True), _masses_with_tiny(draw, n)
    else:                       # equal masses up to a cut, so the CDFs tie there
        nu = _float_masses(draw, n, zeros=True)
        cut = draw(st.integers(0, n - 1))
        mu = nu.copy()
        mu[cut:] = nu[cut:][::-1]
    return grid, nu, mu


class TestW2QuantileArrays:
    """``_w2_quantile`` on arrays against the loop over quantile cells, by float hex."""

    @given(quantile_instances())
    def test_matches_cell_loop(self, instance):
        grid, nu, mu = instance
        nu, mu = transport._check_marginals(nu, mu, (len(grid), len(grid)))
        assert transport._w2_quantile(grid, nu, mu).hex() == w2_quantile_loop(grid, nu, mu).hex()

    @pytest.mark.parametrize("grid, nu, mu", [
        ([1.9918401180166583, 3.232172552263145],
         [0.31013018625751393, 0.6898698137424859], [0.4741145591838729, 0.5258854408161273]),
        ([1.241387120297823, 3.123106652509244, 4.27407054843226, 4.461513066706009],
         [0.5406794918565884, 0.07699233655401269, 0.058253036332143196, 0.32407513525725573],
         [0.03522977188396725, 0.20207391439770617, 0.3836492897421995, 0.379047023976127]),
        ([0.4759722817970511, 2.1601867051589774, 4.191431590749409, 4.356477742890252],
         [0.012054766685254828, 0.4060150579303542, 0.315079497150871, 0.26685067823352],
         [0.23215910082287644, 0.2295913715747295, 0.12343228724330288, 0.4148172403590912])])
    def test_cells_squared_as_scalars(self, grid, nu, mu):
        # on these draws, squaring the cells as an array (x * x) instead of
        # as scalars (libm pow) moves W_2 by one ulp; about 1 in 3,500
        # random 2-4 point instances does so
        grid, nu, mu = np.array(grid), np.array(nu), np.array(mu)
        assert transport._w2_quantile(grid, nu, mu).hex() == w2_quantile_loop(grid, nu, mu).hex()

    def test_gaussian_shift_inputs(self):
        # criterion 7's OU-400 grid on [-8, 8] with the density of N(0.5, 1)
        # against mu, and shifts of the same law on the benchmark's grid
        grid = Grid1D.uniform(-8.0, 8.0, 400)
        chain = discretize(ou_spec(), grid)
        for m in (0.5, 0.25, 1.0, -0.75):
            f = np.exp(m * grid.nodes - m * m / 2.0)
            f /= float(np.dot(chain.mu, f))
            for nu, mu in ((chain.mu * f, chain.mu), (chain.mu, chain.mu * f)):
                got = transport._w2_quantile(grid.nodes, nu, mu)
                assert got.hex() == w2_quantile_loop(grid.nodes, nu, mu).hex()
                assert got == pytest.approx(abs(m), rel=0.01)


class TestMaximumForClip:
    """``np.maximum(x, lo)`` stands in for ``np.clip(x, lo, None)``."""

    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from(
        [-0.0, 0.0, -1e-300, -5e-324, 5e-324, -1e-16, 1e-13, -1e-13])), min_size=1, max_size=60),
        st.sampled_from([0.0, 1e-13]))
    def test_bit_for_bit(self, values, lo):
        x = np.array(values)
        assert np.maximum(x, lo).tobytes() == np.clip(x, lo, None).tobytes()

    def test_checked_marginals_keep_their_bits(self):
        nu = np.array([0.5, -0.0, -1e-16, 0.25, 0.25 + 1e-16])
        mu = np.array([-5e-324, 0.25, 0.25, 0.25, 0.25])
        got = transport._check_marginals(nu, mu)
        for a, ref in zip(got, (nu, mu)):
            assert a.tobytes() == np.clip(ref, 0.0, None).tobytes()


class TestTensorCost:
    def test_two_trivial_metrics_give_hamming(self):
        c1 = CostMatrix.validate(np.ones((2, 2)) - np.eye(2))
        big = tensor_cost([c1, c1])
        # states 00,01,10,11 row-major: cost = number of differing coordinates
        expected = np.array([
            [0, 1, 1, 2],
            [1, 0, 2, 1],
            [1, 2, 0, 1],
            [2, 1, 1, 0],
        ], dtype=float)
        np.testing.assert_allclose(big.c, expected)

    def test_line_metric_squares_to_l1(self):
        line = CostMatrix.validate(np.abs(np.subtract.outer(np.arange(3.0), np.arange(3.0))))
        big = tensor_cost([line, line])
        for x1, x2, y1, y2 in itertools.product(range(3), repeat=4):
            assert big.c[x1 * 3 + x2, y1 * 3 + y2] == abs(x1 - y1) + abs(x2 - y2)

    def test_single_factor_identity(self, rng):
        c = rng.uniform(0, 1, (3, 3)) * (1 - np.eye(3))
        cm = CostMatrix.validate(c)
        np.testing.assert_allclose(tensor_cost([cm]).c, c)

    def test_size_guard(self):
        c = CostMatrix.validate(np.ones((11, 11)) - np.eye(11))
        with pytest.raises(ProductTooLarge):
            tensor_cost([c, c])


class TestRateFunctionCalculus:
    @pytest.mark.parametrize("call, message", [
        (lambda: RateFunction.quadratic(1.0)(-0.5), "rate functions are defined on r >= 0"),
        (lambda: alpha_conjugate(RateFunction.quadratic(1.0), -1.0),
         "monotone conjugate is defined for lambda >= 0"),
        (lambda: alpha_infconv([RateFunction.quadratic(1.0)] * 2, -1.0),
         "inf-convolution needs r >= 0"),
        (lambda: alpha_infconv([], 1.0), "need at least one rate function"),
    ])
    def test_negative_arguments_and_empty_list_rejected(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_quadratic_conjugate_closed_form(self):
        a = RateFunction.quadratic(2.0)
        assert alpha_conjugate(a, 3.0) == pytest.approx(36.0, abs=1e-12)
        assert alpha_conjugate(a, 0.0) == 0.0

    def test_power_conjugate_hand_value(self):
        # sup_r (3r - (1+r^2) + 1) = 9/4, attained at r = 3/2
        a = RateFunction.power(1.0, 2.0)
        assert alpha_conjugate(a, 3.0) == pytest.approx(2.25, abs=1e-10)

    def test_power_conjugate_matches_grid_search(self):
        a = RateFunction.power(0.7, 3.0)
        for lam in (0.5, 1.0, 4.0):
            rs = np.linspace(0.0, 50.0, 400001)
            grid_val = np.max(lam * rs - np.array([a(r) for r in rs[:2]] +
                                                  [0.7 * ((1 + r * r) ** 1.5 - 1) for r in rs[2:]]))
            assert alpha_conjugate(a, lam) == pytest.approx(float(grid_val), abs=1e-6)

    def test_conjugate_convex_increasing(self):
        a = RateFunction.power(1.2, 2.5)
        lams = np.linspace(0.0, 5.0, 21)
        vals = np.array([alpha_conjugate(a, l) for l in lams])
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all(np.diff(vals, 2) >= -1e-8)

    def test_tabulated_conjugate_right_endpoint(self):
        a = RateFunction.tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])
        # alpha = +inf beyond the last knot: conjugate is the knot max
        for lam in (0.1, 1.0, 5.0):
            assert alpha_conjugate(a, lam) == pytest.approx(
                max(lam * 1.0 - 0.5, lam * 2.0 - 2.0, 0.0), abs=1e-12)

    def test_tabulated_equality_compares_the_table(self):
        # the tables were compare=False fields: these two were equal and hashed alike
        a = RateFunction.tabulated([0, 1], [0, 1])
        other = RateFunction.tabulated([0, 2], [0, 5])
        assert a != other
        assert a != RateFunction.tabulated([0, 1], [0, 2])
        same = RateFunction.tabulated(np.array([0.0, 1.0]), [0.0, 1.0])
        assert a == same and hash(a) == hash(same)
        assert len({a, other, same}) == 2

    def test_tabulated_holds_a_copy(self):
        knots = np.array([0.0, 1.0, 2.0])
        a = RateFunction.tabulated(knots, [0.0, 0.5, 2.0])
        knots[1] = 1.5
        assert a(1.2) == 2.0
        assert a == RateFunction.tabulated([0.0, 1.0, 2.0], [0.0, 0.5, 2.0])

    @pytest.mark.parametrize("knots,values", [
        ([0, 1, 2], [0, 1]),          # alpha(1.5) raised IndexError
        ([0, 1], [0, 1, 2]),
        ([[0, 1]], [[0, 1]]),
        (0.0, 0.0),
        ([], []),
        ([0, math.inf], [0, 1]),
        ([0, math.nan], [0, 1]),
        ([0, 1], [0, math.nan]),
        ([0, 1], [0, math.inf]),
    ])
    def test_tabulated_shape_and_finiteness(self, knots, values):
        with pytest.raises(ValueError):
            RateFunction.tabulated(knots, values)

    def test_infconv_identical_closed_form(self):
        a = RateFunction.quadratic(1.3)
        for r in np.linspace(0, 4, 100):
            assert alpha_infconv([a, a], float(r)) == pytest.approx(
                2 * a(r / 2), abs=1e-10)

    def test_infconv_single(self):
        a = RateFunction.power(1.0, 2.0)
        assert alpha_infconv([a], 1.7) == a(1.7)

    def test_infconv_two_quadratics_closed_form(self):
        # r^2/(4c1^2) box r^2/(4c2^2) = r^2 / (4(c1^2 + c2^2))
        a1, a2 = RateFunction.quadratic(1.0), RateFunction.quadratic(2.0)
        for r in (0.5, 1.0, 2.0):
            expected = r * r / (4 * (1.0 + 4.0))
            assert alpha_infconv([a1, a2], r) == pytest.approx(expected, abs=1e-8)

    def test_infconv_matches_fine_grid(self):
        a1 = RateFunction.power(1.0, 2.0)
        a2 = RateFunction.quadratic(0.8)
        r = 2.0
        xs = np.linspace(0, r, 20001)
        grid = min(a1(float(x)) + a2(float(r - x)) for x in xs)
        assert alpha_infconv([a1, a2], r) == pytest.approx(grid, abs=1e-8)

    def test_infconv_properties_on_grid(self):
        a1 = RateFunction.quadratic(1.0)
        a2 = RateFunction.power(0.5, 2.0)
        rs = np.linspace(0.0, 3.0, 31)
        vals = np.array([alpha_infconv([a1, a2], float(r)) for r in rs])
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-9)          # increasing
        assert np.all(np.diff(vals, 2) >= -1e-6)       # convex


class TestGoldenSearchPinned:
    """The one golden-section search reproduces the three it replaced, bit for bit.

    The float hex values were recorded from the three separate searches
    (alpha_conjugate's, alpha_infconv's pairwise scan and _best_lambda's).
    """

    def test_alpha_conjugate_and_infconv(self):
        P, Qd = RateFunction.power, RateFunction.quadratic
        conj = {(1.0, 1.5, 0.7): "0x1.57c5564f38efcp-3",
                (0.3, 3.0, 2.5): "0x1.2583f1406131ap+1",
                (2.0, 2.0, 10.0): "0x1.8ffffffffffffp+3",
                (0.5, 1.2, 0.05): "0x1.117261e175942p-9"}
        for (kappa, p, lam), pinned in conj.items():
            assert alpha_conjugate(P(kappa, p), lam).hex() == pinned
        infconv = [([P(1.0, 1.5), P(0.5, 3.0)], 1.3, "0x1.47c1613bd91bep-1"),
                   ([Qd(0.5), P(1.0, 2.5), RateFunction.tabulated([0, 1, 2, 4], [0, 0.5, 3, 4])],
                    1.7, "0x1.8c177bd38ff09p-1"),
                   ([P(0.2, 2.0), Qd(1.5)], 0.4, "0x1.767dce434a9aap-7")]
        for alphas, r, pinned in infconv:
            assert alpha_infconv(alphas, r).hex() == pinned

    def test_best_lambda(self):
        dense = random_reversible_chain(4, np.random.default_rng(5))
        bd = build_chain(np.diag([1.0, 2.0, 0.5], 1) + np.diag([0.7, 1.1, 3.0], -1))
        u = np.array([0.0, 1.0, -0.5, 2.0])
        pinned = {(0, False): ("0x1.a5eca4031f3fbp-4", "0x1.cfde24d03200ep+1"),
                  (0, True): ("0x1.a5eca3d62bad8p-4", "0x1.cf78539968de4p+1"),
                  (1, False): ("0x1.37eac7b362151p-2", "0x1.5994cf4d08d24p+1"),
                  (1, True): ("0x1.37eac7b193546p-2", "0x1.59b6dc831c288p+1")}
        for (k, coarse), (ratio, lam) in pinned.items():
            (got_ratio,), (got_lam,) = _best_lambda((dense, bd)[k], [u], extra=(0.37,),
                                                    coarse=coarse)
            assert (got_ratio.hex(), got_lam.hex()) == (ratio, lam)


class TestGoldenLockstep:
    def test_rows_match_scalar_searches(self):
        # each row keeps the scalar search's arithmetic and branches; fn is
        # called once per step for all rows
        peaks = np.array([0.3, 1.7, -2.0, 5.0, 0.0])
        lo, hi = peaks - np.array([1.0, 0.5, 3.0, 0.1, 2.0]), peaks + 1.25
        calls = []

        def rows_fn(x):
            calls.append(len(x))
            return -np.abs(x - peaks) ** 1.5

        mid, best = _golden_max(rows_fn, lo, hi, iters=40)
        assert calls == [5] * 42
        for r in range(len(peaks)):
            ref = _golden_max(lambda x: -abs(x - peaks[r]) ** 1.5, lo[r], hi[r], iters=40)
            assert (mid[r], best[r]) == ref


class TestPotentialConvolutions:
    def test_constant_fixed_point(self):
        d2 = CostMatrix.validate((np.ones((3, 3)) - np.eye(3)) * 4.0)
        v = np.full(3, 1.5)
        np.testing.assert_allclose(infconv_potential(d2, v), v)

    def test_two_point_hand_value(self):
        d2 = CostMatrix.validate(np.array([[0.0, 1.0], [1.0, 0.0]]))
        v = np.array([0.0, 3.0])
        np.testing.assert_allclose(infconv_potential(d2, v), [0.0, 1.0])
        u = np.array([0.0, 3.0])
        np.testing.assert_allclose(supconv_potential(d2, u), [2.0, 3.0])

    def test_order_relations_and_idempotence(self, rng):
        n = 5
        pts = np.sort(rng.uniform(0, 2, n))
        d2 = CostMatrix.validate((pts[:, None] - pts[None, :]) ** 2, aligned=True)
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        Su = supconv_potential(d2, u)
        Qv = infconv_potential(d2, v)
        assert np.all(infconv_potential(d2, Su) >= u - 1e-12)   # Q(S(u)) >= u
        assert np.all(supconv_potential(d2, Qv) <= v + 1e-12)   # S(Q(v)) <= v
        # double application stabilizes on c-concave envelopes
        QSu = infconv_potential(d2, Su)
        np.testing.assert_allclose(infconv_potential(d2, supconv_potential(d2, QSu)),
                                   QSu, atol=1e-12)


class TestTensorization:
    def test_product_measure_zero(self):
        c1 = CostMatrix.validate(np.ones((2, 2)) - np.eye(2))
        mu1 = np.array([0.5, 0.5])
        mu2 = np.array([0.4, 0.6])
        nu = np.outer(mu1, mu2)
        lhs, rhs = tensor_subadditivity_check([c1, c1], nu, [mu1, mu2])
        assert lhs == pytest.approx(0.0, abs=1e-10)
        assert rhs == pytest.approx(0.0, abs=1e-10)

    def test_independent_nu_additivity(self, rng):
        # independent nu = nu1 (x) nu2: conditionals constant, lhs = rhs
        c1 = CostMatrix.validate(np.ones((3, 3)) - np.eye(3))
        mu1 = rng.dirichlet(np.ones(3))
        mu2 = rng.dirichlet(np.ones(3))
        nu1 = rng.dirichlet(np.ones(3))
        nu2 = rng.dirichlet(np.ones(3))
        lhs, rhs = tensor_subadditivity_check([c1, c1], np.outer(nu1, nu2), [mu1, mu2])
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_perturbed_product_subadditive(self, rng):
        c1 = CostMatrix.validate(np.ones((2, 2)) - np.eye(2))
        mu1 = np.array([0.5, 0.5])
        mu2 = np.array([0.3, 0.7])
        for _ in range(20):
            nu = rng.dirichlet(np.ones(4)).reshape(2, 2)
            lhs, rhs = tensor_subadditivity_check([c1, c1], nu, [mu1, mu2])
            assert lhs <= rhs + 1e-9

    def test_fisher_additivity_on_products(self, rng):
        from transinfo.chains import product_chain
        c1 = random_reversible_chain(3, rng)
        c2 = random_reversible_chain(3, rng)
        prod = product_chain([c1, c2])
        for _ in range(20):
            raw = rng.dirichlet(np.ones(prod.n))
            f = raw / prod.mu
            f /= float(np.dot(prod.mu, f))
            lhs = fisher_information(prod, Density.validate(prod.mu, f))
            rhs = conditional_fisher_sum([c1, c2], prod.mu * f)
            assert lhs == pytest.approx(rhs, abs=1e-8)
