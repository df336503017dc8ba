"""Line metrics held as their points, against the dense matrix of the same points.

The oracle is the dense ``MetricMatrix`` that ``line_metric`` used to return:
d = |p_i - p_j| as an n x n array, with d[0] as the line embedding when the
points are a line.  Every reader of a ``LineMetric`` must give that
matrix's floats, compared by ``np.array_equal`` or float hex.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from transinfo import chains
from transinfo.chains import LineMetric, MetricMatrix, lipschitz_norm, line_metric
from transinfo.diffusion1d import Grid1D, discretize, ou_spec
from transinfo.errors import ModelValidation, TransinfoError
from transinfo.feynman_kac import (_lipschitz_candidates, best_w1i, best_w2i,
                                   w2i_dual_check)
from transinfo.transport import (CostMatrix, _metric_transport, _metric_transport_rows,
                                 infconv_potential, supconv_potential, w1, w2)

from conftest import random_reversible_chain


def dense_line_metric(p: np.ndarray) -> MetricMatrix:
    """The dense line metric of the points, as ``line_metric`` built it before it held them."""
    d = np.subtract.outer(p, p)
    np.abs(d, out=d)
    d.setflags(write=False)
    step, s = np.diff(p), d[0]
    line = (np.all(step > 0) or np.all(step < 0)) and np.all(np.diff(s) > 0)
    return MetricMatrix(d=d, line_embedding=s if line else None)


@st.composite
def points(draw):
    """Distinct points, ascending, descending or unsorted, 1 to 40 of them.

    Spans run from a few ulps (near-ties of the row d[0]) through order one
    to near the overflow of max - min."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["unit", "ulps", "huge", "tiny"]))
    if kind == "ulps":
        offset = draw(st.sampled_from([1.0, 3.0, 2.0 ** 52, 1e15, -1e16]))
        first = draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0]))
        ulps = np.cumsum(rng.integers(1, 4, size=n - 1))
        p = np.concatenate([[first], offset + ulps * np.spacing(offset)])
    else:
        scale = {"unit": 1.0, "huge": 1.7e308 / (n + 1), "tiny": 1e-300}[kind]
        p = (-0.5 * n + np.cumsum(rng.uniform(0.01, 1.0, size=n))) * scale
    assume(len(np.unique(p)) == n and np.isfinite(p).all() and np.isfinite(p.max() - p.min()))
    order = draw(st.sampled_from(["ascending", "descending", "unsorted"]))
    if order == "descending":
        return p[::-1].copy()
    return p[rng.permutation(n)] if order == "unsorted" else p


@st.composite
def potentials(draw, p: np.ndarray):
    """g on the points p: noise, plateaus, a cone |p - p_k|, or the cone times 1 + 1e-15 noise.

    A cone's slopes tie, so its Lipschitz norm and McShane minima sit on near-ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = max(float(p.max() - p.min()) / 2.0, 1e-300)
    kind = draw(st.sampled_from(["noise", "plateau", "cone", "noisy-cone"]))
    if kind == "noise":
        return rng.uniform(-scale, scale, size=len(p))
    if kind == "plateau":
        return np.repeat(rng.uniform(-scale, scale, size=3), -(-len(p) // 3))[:len(p)]
    cone = rng.uniform(0.5, 1.5) * np.abs(p - p[rng.integers(len(p))])
    return cone * (1.0 + 1e-15 * rng.standard_normal(len(p))) if kind == "noisy-cone" else cone


def _same_or_none(a, b) -> bool:
    return (a is None and b is None) or (a is not None and b is not None
                                         and a.tobytes() == b.tobytes())


class TestAgainstTheDenseMatrix:
    @settings(max_examples=200)
    @given(points())
    @np.errstate(over="ignore")     # d ** 2 of spans near overflow: inf on both sides
    def test_points_give_the_dense_floats(self, p):
        line, dense = line_metric(p), dense_line_metric(p)
        assert isinstance(line, LineMetric) and line.n == dense.n
        assert _same_or_none(line.line_embedding, dense.line_embedding)
        assert line.diameter.hex() == dense.diameter.hex()
        assert line.adjacent_gaps().tobytes() == np.diag(dense.d, 1).tobytes()
        assert "d" not in vars(line)            # none of the above built d
        assert np.array_equal(line.d, dense.d) and not line.d.flags.writeable
        for power in (1, 2):
            assert np.array_equal(CostMatrix.from_metric(line, power).c,
                                  CostMatrix.from_metric(dense, power).c)

    @settings(max_examples=200)
    @given(points(), st.data())
    @np.errstate(over="ignore", invalid="ignore")
    def test_lipschitz_norm_and_sweeps(self, p, data):
        line, dense = line_metric(p), dense_line_metric(p)
        n = len(p)
        g = data.draw(potentials(p))
        assert lipschitz_norm(line, g).hex() == lipschitz_norm(dense, g).hex()
        # the sweeps against the dense formulas they replace, at caps about n
        cap = data.draw(st.sampled_from([1, n - 1, n, n + 1, 2 * n + 1, n * n - 1, 2 ** 20]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chains, "BLOCK_ENTRIES", max(cap, 1))
            for metric in (line, dense):
                assert np.array_equal(metric.inf_convolution(g),
                                      np.min(g[None, :] + dense.d, axis=1))
                for power in (1, 2):
                    c = CostMatrix.from_metric(dense, power)
                    assert np.array_equal(metric.inf_convolution(g, power),
                                          infconv_potential(c, g))
                    assert np.array_equal(metric.sup_convolution(g, power),
                                          supconv_potential(c, g))

    @settings(max_examples=200)
    @given(points(), st.integers(0, 2 ** 32 - 1))
    @np.errstate(over="ignore", invalid="ignore")
    def test_lipschitz_candidates_keep_their_dots(self, p, seed):
        # the candidates and the mu-dots a search takes of them, as from the
        # strided columns of the dense d
        line, dense = line_metric(p), dense_line_metric(p)
        assume(dense.diameter < 8e307)      # uniform(-diameter, diameter) needs a finite width
        n = len(p)
        mu = np.random.default_rng(seed).dirichlet(np.ones(n))
        rng = np.random.default_rng(seed)
        base = range(n) if n <= 8 else rng.choice(n, size=8, replace=False)
        want = [dense.d[:, x0] for x0 in base] + [-dense.d[:, x0] for x0 in base]
        want += [np.min(rng.uniform(-dense.diameter, dense.diameter, size=n)[None, :] + dense.d,
                        axis=1) for _ in range(2)]
        for metric in (line, dense):
            got = _lipschitz_candidates(metric, 2, np.random.default_rng(seed))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
                assert float(np.dot(mu, a)).hex() == float(np.dot(mu, b)).hex()

    @settings(max_examples=200)
    @given(points(), st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]),
           st.sampled_from(["positive", "zero in nu", "zero in mu"]))
    @np.errstate(over="ignore", invalid="ignore")
    def test_metric_transport_rows(self, p, seed, power, masses):
        line, dense = line_metric(p), dense_line_metric(p)
        n = len(p)
        # the simplex needs sums of costs to stay finite
        assume(dense.diameter < (1e300 / n) ** (1.0 / power))
        rng = np.random.default_rng(seed)
        nu, mu = rng.dirichlet(np.ones(n), size=3), rng.dirichlet(np.ones(n))
        if masses != "positive" and n > 1:
            k = int(rng.integers(n))
            target = nu[1] if masses == "zero in nu" else mu
            target[k] = 0.0
            target /= target.sum()

        def solve(metric):
            try:
                values, duals, pots = _metric_transport_rows(metric, power, nu, mu)
                return values.tobytes(), duals.tobytes(), pots([0, 1, 2]).tobytes()
            except (TransinfoError, ArithmeticError, ValueError, RuntimeWarning) as exc:
                return type(exc), str(exc)      # an overflowing d ** 2, the same on both
        assert solve(line) == solve(dense)


class TestSearchesReadThePoints:
    def _ou(self, n):
        grid = Grid1D.uniform(-6.0, 6.0, n)
        return discretize(ou_spec(), grid), line_metric(grid.nodes)

    def test_line_routes_on_4000_points_never_build_d(self):
        p = np.linspace(-6.0, 6.0, 4000)
        rng = np.random.default_rng(3)
        nu, mu = rng.dirichlet(np.ones(4000)), rng.dirichlet(np.ones(4000))
        tracemalloc.start()
        try:
            d = line_metric(p)
            w1(d, nu, mu), w2(d, nu, mu), lipschitz_norm(d, np.sin(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "d" not in vars(d)
        assert peak < 5e6, peak          # one dense d is 128 MB

    def test_zero_mass_w2_on_4000_points_never_builds_d(self):
        # one zero mass sent line W_2 to the simplex on the dense d ** 2, at an
        # 899 MB traced peak; the staircase is optimal whatever the masses
        p = np.linspace(-6.0, 6.0, 4000)
        rng = np.random.default_rng(3)
        nu, mu = rng.dirichlet(np.ones(4000)), rng.dirichlet(np.ones(4000))
        nu[17] = 0.0
        nu /= nu.sum()
        tracemalloc.start()
        try:
            d = line_metric(p)
            value, dual, u = _metric_transport(d, 2, nu, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "d" not in vars(d)
        assert peak < 5e6, peak
        dist = w2(d, nu, mu)
        assert value == dual == dist * dist and u.shape == (4000,)
        # the simplex's value on the dense d ** 2
        assert value == pytest.approx(float.fromhex("0x1.18713ab3d9173p-6"), rel=1e-12)

    def test_w1i_rejects_a_diameter_past_the_noise_range(self):
        # the uniform noise of the McShane candidates spans [-diameter, diameter];
        # numpy raised OverflowError: high - low range exceeds valid bounds
        chain = random_reversible_chain(3, np.random.default_rng(0))
        with pytest.raises(ModelValidation, match="diameter"):
            best_w1i(chain, line_metric(np.array([0.0, 1.0, 9.5e307])))
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ModelValidation, match="diameter"):
            _lipschitz_candidates(line_metric(np.linspace(0.0, 9.5e307, 12)), 4, rng)
        assert rng.bit_generator.state == state      # rejected before any draw
        # the largest span whose range is finite still draws
        assert len(_lipschitz_candidates(line_metric(np.array([0.0, 8.98e307])), 4, rng)) == 8

    def test_w1i_and_w2i_searches_never_build_d(self):
        chain, d = self._ou(60)
        best_w1i(chain, d, rounds=2, primal_starts=2)
        best_w2i(chain, d, rounds=1, primal_starts=2)
        w2i_dual_check(chain, d, 1.0, [np.sin(np.arange(60.0))])
        assert "d" not in vars(d)

    def test_sweeps_stay_within_the_block_cap(self, monkeypatch):
        d = line_metric(np.cumsum(np.random.default_rng(1).uniform(0.1, 1.0, 50)))
        shapes = []
        block = LineMetric.block
        monkeypatch.setattr(LineMetric, "block",
                            lambda self, *a: shapes.append(block(self, *a).shape) or block(self, *a))
        monkeypatch.setattr(chains, "BLOCK_ENTRIES", 120)
        g = np.linspace(0.0, 1.0, 50)
        d.inf_convolution(g, 2), d.sup_convolution(g, 2)
        assert shapes and all(r * c <= 120 for r, c in shapes)
        assert sum(r for r, c in shapes if c == 50) == 50 == sum(c for r, c in shapes if r == 50)

    def test_points_are_a_frozen_copy(self):
        p = np.array([0.0, 1.0, 3.0])
        d = line_metric(p)
        p[1] = 2.0
        assert d.points.tolist() == [0.0, 1.0, 3.0] and not d.points.flags.writeable
        assert not d.line_embedding.flags.writeable
