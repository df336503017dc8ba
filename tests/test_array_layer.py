"""The 1-D diffusion layer on arrays against its scalar oracles.

``_panel_quad`` (QUADPACK's first qk21 step on every panel, ``_quad`` for
the rest) is checked panel by panel against the adaptive ``_quad``; the
expression compiler's array and scalar forms against the math module; the
spec's array probe against per-point calls.  A counter on ``_quad`` guards
that grid routines make O(1) adaptive calls, not one per node.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import column_panel_quad, numpy_scalar_c_rho
from transinfo import diffusion1d
from transinfo.catalog import diffusion_from_json, quartic_spec
from transinfo.chains import dirichlet_energy, spectral_gap
from transinfo.diffusion1d import (
    DiffusionSpec1D,
    Grid1D,
    Warp,
    _drift_ratio,
    _panel_quad,
    _quad,
    _speed,
    c_rho,
    discretize,
    normalize,
    ou_spec,
)
from transinfo.errors import DivergenceDetected
from transinfo.exprutil import compile_expression
from transinfo.feynman_kac import lambda_max


@pytest.fixture
def quad_calls(monkeypatch):
    """Counts the calls that reach the adaptive ``diffusion1d._quad``."""
    calls = []

    def counted(fn, lo, hi):
        calls.append((lo, hi))
        return _quad(fn, lo, hi)

    monkeypatch.setattr(diffusion1d, "_quad", counted)
    return calls


def _per_panel(spec, lo, hi):
    return np.array([_quad(lambda z: spec.b(z) / spec.a(z), a, b) for a, b in zip(lo, hi)])


@st.composite
def polynomial_specs(draw):
    """Spec with a random quartic drift and a = 1 + c x^2, on a random grid in [-3, 3]."""
    coef = draw(st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5))
    c = draw(st.floats(0.0, 2.0))
    spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0 + c * x * x,
                           b=lambda x: np.polynomial.polynomial.polyval(x, coef), c_ref=0.0)
    n = draw(st.integers(16, 60))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    nodes = np.sort(np.random.default_rng(seed).uniform(-3.0, 3.0, n))
    return spec, nodes


class TestPanelQuad:
    @settings(max_examples=25)
    @given(polynomial_specs())
    def test_matches_per_panel_quad(self, case):
        spec, nodes = case
        got = _panel_quad(_drift_ratio(spec), nodes[:-1], nodes[1:])
        ref = _per_panel(spec, nodes[:-1], nodes[1:])
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    @settings(max_examples=10)
    @given(polynomial_specs())
    def test_anchored_integrand_matches_nested_quad(self, case):
        # the normalizer's integrand: m' on a panel relative to its left node
        spec, nodes = case
        lo, hi = nodes[:-3:4], nodes[1:-2:4]
        anchored = lambda z, left: np.exp(_panel_quad(_drift_ratio(spec), left, z)) / spec.a_on(z)
        got = _panel_quad(anchored, lo, hi)
        ref = [_quad(lambda z: math.exp(_quad(lambda y: spec.b(y) / spec.a(y), a, z)) / spec.a(z),
                     a, b) for a, b in zip(lo, hi)]
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_steep_panel_takes_the_fallback(self, quad_calls):
        # b/a peaks at 1e3 over a width of 0.03: one qk21 step cannot settle
        # the panels around it, which must go through the adaptive quad
        spec = DiffusionSpec1D(-2.0, 2.0, a=lambda x: 1e-3 + (x - 0.37) ** 2,
                               b=lambda x: 1.0 + 0.0 * x, c_ref=0.0)
        nodes = np.linspace(-1.0, 1.0, 16)
        got = _panel_quad(_drift_ratio(spec), nodes[:-1], nodes[1:])
        fallbacks = len(quad_calls)
        ref = _per_panel(spec, nodes[:-1], nodes[1:])
        assert 1 <= fallbacks < len(got)
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_degenerate_panels_are_zero(self):
        z = np.array([0.5, -1.0])
        assert np.array_equal(_panel_quad(lambda x, _: np.exp(x), z, z), [0.0, 0.0])

    def test_scalar_and_array_rho_a_agree(self):
        spec = DiffusionSpec1D(-10, 10, a=lambda x: 1 + x * x, b=lambda x: 0.0 * x, c_ref=0.0)
        xs = np.array([-2.0, -0.5, 0.0, 1e-12, 3.0])
        np.testing.assert_array_equal(diffusion1d.rho_a(spec, xs),
                                      [diffusion1d.rho_a(spec, float(x)) for x in xs])
        np.testing.assert_allclose(diffusion1d.rho_a(spec, xs), np.arcsinh(xs), rtol=1e-10)


@st.composite
def peaked_specs(draw):
    """Spec whose b/a peaks at about 1e3 / s near x0, on 16-24 nodes in [-1, 1]:
    one qk21 step does not settle the panels around the peak."""
    s, x0 = draw(st.floats(0.5, 2.0)), draw(st.floats(-0.5, 0.5))
    spec = DiffusionSpec1D(-2.0, 2.0, a=lambda x: 1e-3 * s + (x - x0) ** 2,
                           b=lambda x: 1.0 + 0.0 * x, c_ref=0.0)
    return spec, np.linspace(-1.0, 1.0, draw(st.integers(16, 24)))


def _same(got, want) -> bool:
    """Equal arrays, signs of zero included."""
    got, want = np.asarray(got), np.asarray(want)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestEarlierForms:
    """``_panel_quad`` on rows and ``c_rho``'s recurrences on Python floats
    against their earlier forms in conftest, bit for bit."""

    @settings(max_examples=25)
    @given(polynomial_specs())
    def test_panel_rows_equal_the_column_layout(self, case):
        # the drift ratio on the panels, both ways round, and the nested
        # speed integrand, whose inner panels run on each layout in turn
        spec, nodes = case
        drift, lo, hi = _drift_ratio(spec), nodes[:-1], nodes[1:]
        column_speed = lambda z, left: np.exp(column_panel_quad(drift, left, z)) / spec.a_on(z)
        assert _same(_panel_quad(drift, lo, hi), column_panel_quad(drift, lo, hi))
        assert _same(_panel_quad(drift, hi, lo), column_panel_quad(drift, hi, lo))
        assert _same(_panel_quad(_speed(spec), lo, hi), column_panel_quad(column_speed, lo, hi))

    @settings(max_examples=10)
    @given(peaked_specs())
    def test_fallback_panels_equal_the_column_layout(self, case):
        spec, nodes = case
        calls = []
        with mock.patch.object(diffusion1d, "_quad", lambda *a: calls.append(a) or _quad(*a)):
            got = _panel_quad(_drift_ratio(spec), nodes[:-1], nodes[1:])
        assert calls and _same(got, column_panel_quad(_drift_ratio(spec), nodes[:-1], nodes[1:]))

    @settings(max_examples=30)
    @given(st.floats(0.5, 40.0), st.floats(-4.0, -0.5), st.floats(0.5, 4.0), st.integers(16, 120),
           st.sampled_from(["identity", "tanh", "intrinsic"]), st.booleans())
    def test_c_rho_equals_the_numpy_scalar_recurrences(self, k, lo, hi, n, warp, corrected):
        # steep quartic drifts -k x^3: on coarse wide grids adjacent B differ
        # by more than 700, where the recurrences clamp, and may overflow
        spec = DiffusionSpec1D(-math.inf, math.inf, a=lambda x: 1.0, b=lambda x: -k * x ** 3,
                               c_ref=0.0)
        grid = Grid1D.uniform(lo, hi, n)
        rho = {"identity": Warp.identity(), "tanh": Warp.tanh_blend(),
               "intrinsic": Warp.intrinsic(spec)}[warp]
        want = numpy_scalar_c_rho(spec, rho, grid, corrected)
        try:
            got = c_rho(spec, rho, grid, corrected)
        except DivergenceDetected:
            assert not math.isfinite(want)
        else:
            assert got.hex() == want.hex()


def _ulps(got, ref) -> float:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.spacing(np.abs(ref))))


# expression, reference, domain of x
_FUNCTIONS = [
    ("exp(x)", math.exp, (-30.0, 30.0)),
    ("log(x)", math.log, (1e-3, 1e3)),
    ("log(x, 2)", lambda x: math.log(x, 2), (1e-3, 1e3)),
    ("pow(x, 2.5)", lambda x: pow(x, 2.5), (1e-2, 1e2)),
    ("x ** 3", lambda x: x ** 3, (-10.0, 10.0)),
    ("abs(x)", abs, (-5.0, 5.0)),
    ("sqrt(x)", math.sqrt, (0.0, 1e4)),
    ("sin(x)", math.sin, (-50.0, 50.0)),
    ("cos(x)", math.cos, (-50.0, 50.0)),
    ("x % 1.25", lambda x: x % 1.25, (-10.0, 10.0)),
    ("-x / 3 + 2 * x - pi", lambda x: -x / 3 + 2 * x - math.pi, (-10.0, 10.0)),
    ("+x * e", lambda x: +x * math.e, (-10.0, 10.0)),
]


class TestExpressionForms:
    @pytest.mark.parametrize("text, ref, domain", _FUNCTIONS, ids=[f[0] for f in _FUNCTIONS])
    def test_array_and_scalar_forms_within_two_ulp(self, text, ref, domain):
        fn = compile_expression(text)
        xs = np.random.default_rng(len(text)).uniform(*domain, size=2000)
        expected = np.array([ref(float(x)) for x in xs])
        arr = fn(xs)
        assert arr.shape == xs.shape
        assert _ulps(arr, expected) <= 2
        assert _ulps([fn(float(x)) for x in xs[:200]], expected[:200]) <= 2
        assert all(type(fn(float(x))) is float for x in xs[:3])

    @given(st.floats(-20.0, 20.0))
    def test_array_form_is_elementwise(self, x):
        # the scalar form uses math, the array form numpy: equal up to rounding
        fn = compile_expression("exp(-x*x/2) * cos(x) + sqrt(abs(x)) - pow(x, 2) % 3")
        grid = np.array([[x, 0.5 * x], [x + 1.0, -x]])
        np.testing.assert_allclose(fn(grid), [[fn(v) for v in row] for row in grid],
                                   rtol=1e-13, atol=1e-13)

    def test_scalar_form_keeps_math_semantics(self):
        assert compile_expression("exp(x) - log(x, 2)")(3.0) == math.exp(3.0) - math.log(3.0, 2)
        with pytest.raises(ValueError):
            compile_expression("log(x)")(-1.0)

    def test_constant_expression_broadcasts(self):
        out = compile_expression("2 * pi")(np.zeros((2, 3)))
        assert out.shape == (2, 3) and np.all(out == 2 * math.pi)


class TestSpecArrayForms:
    def test_scalar_only_callables_fall_back_to_a_loop(self):
        spec = DiffusionSpec1D(-5, 5, a=lambda x: 1 + x * x, b=lambda x: math.sin(x), c_ref=0.0)
        xs = np.linspace(-4.0, 4.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(spec.b_on(xs), np.vectorize(math.sin)(xs))
        np.testing.assert_array_equal(spec.a_on(xs), 1 + xs * xs)

    def test_array_call_with_wrong_values_is_not_used(self):
        # broadcasts fine, but the mean over the array is not the pointwise value
        spec = DiffusionSpec1D(-5, 5, a=lambda x: 1.0, b=lambda x: -np.mean(x), c_ref=0.0)
        xs = np.array([-1.0, 0.5, 2.0])
        np.testing.assert_array_equal(spec.b_on(xs), -xs)
        np.testing.assert_array_equal(spec.a_on(xs), np.ones(3))

    def test_other_functions_take_the_same_probe(self):
        spec = DiffusionSpec1D(-5, 5, a=lambda x: 1.0, b=lambda x: -x, c_ref=0.0)
        xs = np.array([[0.25, 1.0, 3.0], [0.5, 2.0, 4.5]])
        # an array call that reproduces the scalar values is used as it is
        np.testing.assert_array_equal(spec.on(np.abs)(xs), xs)
        np.testing.assert_array_equal(spec.on(lambda x: 2.0)(xs), np.full((2, 3), 2.0))
        # math.log fails on the negative probe points and on arrays: a loop
        np.testing.assert_array_equal(spec.on(math.log)(xs), np.vectorize(math.log)(xs))

    def test_expression_spec_matches_lambda_spec(self):
        expr = diffusion_from_json({"a": "1", "b": "-pow(x, 3)", "interval": [None, None]})
        grid = Grid1D.uniform(-4.0, 4.0, 200)
        assert c_rho(expr, Warp.identity(), grid) == pytest.approx(
            c_rho(quartic_spec(), Warp.identity(), grid), rel=1e-12)


class TestQuadCallGuard:
    """Grid routines call the adaptive quad O(1) times, however many nodes."""

    @pytest.mark.parametrize("spec, box", [(ou_spec(), 6.0), (quartic_spec(), 4.0)],
                             ids=["ou", "quartic"])
    def test_constant_adaptive_calls(self, quad_calls, spec, box):
        counts = {}
        for n in (100, 400):
            grid = Grid1D.uniform(-box, box, n)
            for name, run in [
                ("discretize", lambda: discretize(spec, grid)),
                ("normalize", lambda: normalize(spec, grid)),
                *[(f"c_rho/{w}", lambda w=w: c_rho(spec, warp, grid))
                  for w, warp in (("identity", Warp.identity()), ("tanh", Warp.tanh_blend()),
                                  ("intrinsic", Warp.intrinsic(spec)))],
            ]:
                before = len(quad_calls)
                run()
                counts[name, n] = len(quad_calls) - before
        for (name, n), count in counts.items():
            assert count <= 2, (name, n, count)
            assert count == counts[name, 100]

    def test_edge_routines_never_build_the_dense_matrix(self):
        grid = Grid1D.uniform(-6.0, 6.0, 400)
        chain = discretize(ou_spec(), grid)
        spectral_gap(chain)
        lambda_max(chain, np.sin(grid.nodes))
        dirichlet_energy(chain, grid.nodes)
        assert "Q" not in chain.__dict__
        assert "conjugated_neg_generator" not in chain.__dict__
