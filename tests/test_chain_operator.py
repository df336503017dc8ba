"""The cached chain operator against the dense reference constructions.

Birth-death chains take the banded eigen route and every chain takes the
edge-list Dirichlet form and generator product; dense eigh of
``conjugated_neg_generator``, the n x n Dirichlet sum, the dense L^sigma
and the unconjugated Poisson solve are the oracles.  Chains are drawn with
mu down to 1e-8 and conductance spreads up to 1e6.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transinfo.catalog import product_3x3, quartic_spec
from transinfo.chains import (
    ReversibleChain,
    _apply_neg_generator,
    build_chain,
    dirichlet_bilinear,
    dirichlet_energy,
    line_metric,
    poisson_solve,
    product_chain,
    spectral_gap,
    trivial_metric,
)
from transinfo.diffusion1d import Grid1D, discretize, ou_spec
from transinfo.errors import DetailedBalanceViolated
from transinfo.feynman_kac import fisher_information_raw, lambda_max, lambda_max_witness

from conftest import (
    conjugated_neg_generator,
    random_birth_death_chain,
    random_reversible_chain,
    symmetrized_generator,
)


@st.composite
def birth_death_chains(draw, max_n=40):
    """Birth-death chain with conductances c_k = mu_k q(k, k+1) = mu_{k+1} q(k+1, k)."""
    n = draw(st.integers(2, max_n))
    log_mu = np.array(draw(st.lists(st.floats(-8.0, 0.0), min_size=n, max_size=n)))
    mu = 10.0 ** log_mu
    mu /= mu.sum()
    log_c = np.array(draw(st.lists(st.floats(-6.0, 0.0), min_size=n - 1, max_size=n - 1)))
    cond = 10.0 ** log_c
    rates = np.zeros((n, n))
    for k in range(n - 1):
        rates[k, k + 1] = cond[k] / mu[k]
        rates[k + 1, k] = cond[k] / mu[k + 1]
    return build_chain(rates, mu=mu)


@st.composite
def dense_chains(draw, max_n=10, bounded_rates=False):
    """Chain with a rate on every pair, mu down to 1e-8, in exact detailed balance.

    Conductances c_xy in [0.2, 1.5] give exit rates up to about 1e8 on the
    lightest states; with ``bounded_rates`` they are scaled by min(mu_x, mu_y),
    which keeps every exit rate below 1.5 n, as in the tails of a discretized
    diffusion.
    """
    n = draw(st.integers(2, max_n))
    log_mu = np.array(draw(st.lists(st.floats(-8.0, 0.0), min_size=n, max_size=n)))
    mu = 10.0 ** log_mu
    mu /= mu.sum()
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if not bounded_rates:
        return random_reversible_chain(n, rng, mu=mu)
    cond = np.triu(rng.uniform(0.2, 1.5, (n, n)) * np.minimum.outer(mu, mu), 1)
    return build_chain((cond + cond.T) / mu[:, None], mu=mu)


def _old_band(chain):
    """The band as built from the nonzero pattern of Q before the edge list owned it."""
    Q, mu, n = chain.Q, chain.mu, chain.n
    if np.count_nonzero(Q) != 3 * n - 2:
        return None
    upper, lower = np.diag(Q, 1), np.diag(Q, -1)
    if np.count_nonzero(upper) + np.count_nonzero(lower) != 2 * (n - 1):
        return None
    w = 0.5 * (mu[:-1] * upper + mu[1:] * lower)
    return -np.diag(Q), -w / np.sqrt(mu[:-1] * mu[1:])


def _unconjugated_poisson(chain, g):
    """-L^sigma h = g, mu(h) = 0 by the bordered system [[-L^sigma, 1], [mu^T, 0]]."""
    n = chain.n
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = -symmetrized_generator(chain)
    A[:n, n] = 1.0
    A[n, :n] = chain.mu
    h = np.linalg.solve(A, np.concatenate([g, [0.0]]))[:n]
    return h - chain.expectation(h)


def _scale(chain) -> float:
    """1e-10 * max(1, max exit rate): the eigen tolerance for this chain."""
    return 1e-10 * max(1.0, float(np.max(-np.diag(chain.Q))))


def _dense_dirichlet(chain, g, h):
    """1/2 sum_{x != y} mu_x q(x,y) (g_y - g_x)(h_y - h_x) over all ordered pairs."""
    flow = chain.mu[:, None] * chain.Q
    np.fill_diagonal(flow, 0.0)
    return 0.5 * float(np.sum(flow * (g[None, :] - g[:, None]) * (h[None, :] - h[:, None])))


class TestBand:
    def test_birth_death_band_matches_dense_conjugation(self):
        rng = np.random.default_rng(3)
        rates = np.diag(rng.uniform(0.5, 2.0, 5), 1) + np.diag(rng.uniform(0.5, 2.0, 5), -1)
        ch = build_chain(rates)
        diag, off = ch.band
        A = ch.conjugated_neg_generator
        np.testing.assert_allclose(diag, np.diag(A), rtol=1e-14)
        np.testing.assert_allclose(off, np.diag(A, 1), rtol=1e-12)

    def test_other_chains_have_no_band(self, rng):
        assert random_reversible_chain(5, rng).band is None
        # a cycle has the edges (k, k+1) plus (0, n-1): not a birth-death chain
        n = 5
        rates = np.eye(n, k=1) + np.eye(n, k=-1)
        rates[0, n - 1] = rates[n - 1, 0] = 1.0
        assert build_chain(rates).band is None

    def test_operator_cache_is_linear_in_size(self):
        n = 300
        rates = np.eye(n, k=1) + np.eye(n, k=-1)
        ch = build_chain(rates)
        cached = [*ch.edges, *ch.band]
        assert all(a.size <= n for a in cached)
        assert all(not a.flags.writeable for a in cached)

    @given(birth_death_chains(), st.integers(0, 2 ** 32 - 1))
    def test_banded_eigen_route_matches_dense(self, chain, seed):
        rng = np.random.default_rng(seed)
        assert chain.band is not None
        tol = _scale(chain)
        u = rng.uniform(-5.0, 5.0, chain.n)
        dense = np.linalg.eigh(-chain.conjugated_neg_generator + np.diag(u))
        assert lambda_max(chain, u) == pytest.approx(dense[0][-1], abs=tol)

        val, dens = lambda_max_witness(chain, u)
        assert val == pytest.approx(dense[0][-1], abs=tol)
        g = np.abs(dense[1][:, -1]) / np.sqrt(chain.mu)
        f_dense = g * g / float(np.dot(chain.mu, g * g))
        top_gap = dense[0][-1] - dense[0][-2]
        # eigenvectors are determined to roundoff / (distance to the next eigenvalue)
        assert float(np.dot(chain.mu, np.abs(dens.f - f_dense))) <= tol / min(1.0, top_gap)
        attained = float(np.dot(chain.mu, u * dens.f)) - fisher_information_raw(chain, dens.f)
        assert attained == pytest.approx(val, abs=tol)

        gap, c_p = spectral_gap(chain)
        assert gap == pytest.approx(np.linalg.eigvalsh(chain.conjugated_neg_generator)[1], abs=tol)
        assert c_p == 1.0 / gap


class TestCachedOperator:
    @given(st.one_of(birth_death_chains(), dense_chains()))
    def test_conjugated_matrix_cached_once(self, chain):
        A = chain.conjugated_neg_generator
        assert np.array_equal(A, conjugated_neg_generator(chain))
        assert not A.flags.writeable
        assert chain.conjugated_neg_generator is A

    @given(st.one_of(birth_death_chains(), dense_chains()))
    def test_band_matches_nonzero_pattern_construction(self, chain):
        old = _old_band(chain)
        if old is None:
            assert chain.band is None
        else:
            assert all(np.array_equal(a, b) for a, b in zip(chain.band, old))

    @given(st.one_of(birth_death_chains(), dense_chains()), st.integers(0, 2 ** 32 - 1))
    def test_edge_product_matches_dense_generator(self, chain, seed):
        g = np.random.default_rng(seed).standard_normal(chain.n)
        dense = -symmetrized_generator(chain) @ g
        tol = 1e-12 * float(np.max(np.abs(chain.Q))) * float(np.max(np.abs(g)))
        assert float(np.max(np.abs(_apply_neg_generator(chain, g) - dense))) <= tol


class TestConjugatedPoissonSolve:
    def _check(self, chain, g):
        g = g - chain.expectation(g)
        h = poisson_solve(chain, g)
        resid = float(np.max(np.abs(-symmetrized_generator(chain) @ h - g)))
        assert resid <= 1e-10 * max(1.0, float(np.max(np.abs(g))))
        ref = _unconjugated_poisson(chain, g)
        assert float(np.max(np.abs(h - ref))) <= 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("spec, half_width", [(ou_spec(), 8.0), (quartic_spec(), 4.0)],
                             ids=["ou", "quartic"])
    def test_diffusion_tails(self, spec, half_width):
        grid = Grid1D.uniform(-half_width, half_width, 400)
        chain, nodes = discretize(spec, grid), grid.nodes
        assert float(np.min(chain.mu)) < 1e-15
        rng = np.random.default_rng(4)
        for g in (nodes, nodes ** 3, np.sin(3.0 * nodes),
                  np.concatenate([[0.0], np.cumsum(rng.uniform(-1, 1, 399) * np.diff(nodes))])):
            self._check(chain, g)

    # exit rates stay bounded: with rates near 1e7 the absolute 1e-10 residual
    # check sits below the rounding floor eps * max|Q| * max|h| of any solve
    @given(dense_chains(bounded_rates=True), st.integers(0, 2 ** 32 - 1))
    def test_random_dense_chains(self, chain, seed):
        self._check(chain, np.random.default_rng(seed).standard_normal(chain.n))


class TestEdgeListDirichlet:
    @given(st.one_of(birth_death_chains(max_n=12),
                     st.builds(lambda n, seed: random_reversible_chain(n, np.random.default_rng(seed)),
                               st.integers(2, 12), st.integers(0, 2 ** 32 - 1))),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_sum(self, chain, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(chain.n)
        h = rng.standard_normal(chain.n)
        scale = max(1.0, float(np.sum(chain.mu * -np.diag(chain.Q))))
        assert dirichlet_energy(chain, g) == pytest.approx(_dense_dirichlet(chain, g, g),
                                                           rel=1e-12, abs=1e-14 * scale)
        assert dirichlet_bilinear(chain, g, h) == pytest.approx(_dense_dirichlet(chain, g, h),
                                                                rel=1e-12, abs=1e-12 * scale)

    def test_wrong_length_rejected(self, rng):
        # indexing by the edge list would silently accept a longer vector
        bd = build_chain(np.eye(4, k=1) + np.eye(4, k=-1))
        for ch in (random_reversible_chain(4, rng), bd):
            with pytest.raises(ValueError):
                dirichlet_energy(ch, np.ones(5))
            with pytest.raises(ValueError):
                dirichlet_bilinear(ch, np.ones(4), np.ones(3))
            with pytest.raises(ValueError):
                lambda_max(ch, np.ones(5))


class TestDetailedBalanceStillEnforced:
    @given(st.integers(3, 12), st.integers(0, 2 ** 32 - 1), st.floats(1e-8, 1.0))
    def test_perturbed_birth_death_rejected(self, n, seed, bump):
        rng = np.random.default_rng(seed)
        mu = rng.dirichlet(np.ones(n))
        cond = rng.uniform(0.1, 1.0, n - 1)
        rates = np.zeros((n, n))
        for k in range(n - 1):
            rates[k, k + 1] = cond[k] / mu[k]
            rates[k + 1, k] = cond[k] / mu[k + 1]
        k = int(rng.integers(n - 1))
        rates[k, k + 1] *= 1.0 + bump
        with pytest.raises(DetailedBalanceViolated):
            build_chain(rates, mu=mu)


def _dense_q(rates):
    """The rate matrix a chain stored before it held only edges: -row sums on the diagonal."""
    Q = np.array(rates, dtype=float)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def _dense_edges(chain, Q):
    """The edge list as read off the dense flow matrix mu_x Q_xy."""
    flow = chain.mu[:, None] * Q
    i, j = np.nonzero(np.triu(flow + flow.T, 1))
    return i, j, 0.5 * (flow[i, j] + flow[j, i])


def _off_diagonal(Q):
    rates = np.array(Q)
    np.fill_diagonal(rates, 0.0)
    return rates


class TestEdgeHeldStorage:
    """Chains hold off-diagonal rates and exit rates; Q is a lazy dense view."""

    def _check(self, chain, rates):
        Q = _dense_q(rates)
        assert "Q" not in chain.__dict__
        for got, ref in zip(chain.edges, _dense_edges(chain, Q)):
            assert np.array_equal(got, ref)
        band, old = chain.band, _old_band(chain)
        assert (band is None) == (old is None)
        if band is not None:
            assert all(np.array_equal(a, b) for a, b in zip(band, old))
        assert np.array_equal(chain.Q, Q)
        assert not chain.Q.flags.writeable and chain.Q is chain.Q

    @given(dense_chains())
    def test_random_dense(self, chain):
        rates = chain.Q.copy()
        rebuilt = build_chain(_off_diagonal(rates), mu=chain.mu)
        self._check(rebuilt, _off_diagonal(rates))

    @given(birth_death_chains())
    def test_random_birth_death(self, chain):
        self._check(build_chain(_off_diagonal(chain.Q), mu=chain.mu), _off_diagonal(chain.Q))

    def test_products(self, rng):
        factors = [random_reversible_chain(3, rng), random_birth_death_chain(4, rng)]
        for chains in (factors, list(product_3x3()[1])):
            Q, mu = np.zeros((1, 1)), np.ones(1)
            for c in chains:
                Q = np.kron(Q, np.eye(c.n)) + np.kron(np.eye(Q.shape[0]), _dense_q(c.Q))
                mu = np.kron(mu, c.mu)
            self._check(product_chain(chains), _off_diagonal(Q))

    @pytest.mark.parametrize("spec, box", [(ou_spec(), 6.0), (quartic_spec(), 4.0)])
    def test_discretized(self, spec, box):
        chain = discretize(spec, Grid1D.uniform(-box, box, 300))
        i, j, q = chain.rates
        rates = np.zeros((chain.n, chain.n))
        rates[i, j] = q
        self._check(chain, rates)

    def test_from_dense_round_trip_without_validation(self):
        # a zero-exit state and an edge with a rate one way only
        Q = np.array([[0.0, 0.0, 0.0], [1.0, -1.5, 0.5], [0.0, 2.0, -2.0]])
        ch = ReversibleChain.from_dense((0, 1, 2), Q, np.array([0.5, 0.25, 0.25]))
        assert np.array_equal(ch.Q, Q)
        assert np.array_equal(ch.exit_rates, [0.0, 1.5, 2.0])
        for got, ref in zip(ch.edges, _dense_edges(ch, Q)):
            assert np.array_equal(got, ref)


class TestLineEmbeddingCache:
    def test_cached_once_per_metric(self):
        pts = np.array([0.0, 0.5, 1.7, 2.0])
        d = line_metric(pts)
        emb = d.line_embedding
        np.testing.assert_array_equal(emb, pts)
        assert d.line_embedding is emb
        assert not emb.flags.writeable

    def test_non_line_metric(self):
        assert trivial_metric(4).line_embedding is None


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 20 MB and 0.35 s of start-up; nothing in the
    # package needs it
    code = "import transinfo.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
