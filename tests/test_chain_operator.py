"""The cached chain operator against the dense reference constructions.

Birth-death chains take the banded eigen route, the flux-sum Poisson
solve and the O(n) construction; line metrics declare their embedding and
take the adjacent-increment Lipschitz norm; every chain takes the edge
validator, the edge-list Dirichlet form and generator product.  The
oracles are the dense constructions: dense eigh of
``conjugated_neg_generator`` and scipy's ``eigh_tridiagonal``, the n x n
Dirichlet sum, the dense L^sigma, the bordered and unconjugated Poisson
solves, the dense validation checks, the pairwise Lipschitz maximum and
the O(n^2) inference of a line embedding from its matrix.  Chains are drawn with mu down to 1e-8
(1e-30 for validation and smooth tails) and conductance spreads up to 1e6.
"""

import re
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from transinfo import chains, diffusion1d
from transinfo.catalog import product_3x3, quartic_spec
from transinfo.chains import (
    _apply_neg_generator,
    _birth_death_chain,
    _lowest_eigenpairs,
    MetricMatrix,
    build_chain,
    dirichlet_energy,
    line_metric,
    lipschitz_norm,
    poisson_solve,
    product_chain,
    spectral_gap,
    trivial_metric,
)
from transinfo.diffusion1d import Grid1D, discretize, ou_spec
from transinfo.errors import (
    DetailedBalanceViolated,
    ModelValidation,
    NotIrreducible,
    TransinfoError,
)
from transinfo.feynman_kac import fisher_information_raw, lambda_max, lambda_max_witness
from transinfo.lyapunov import mminf_generator
from transinfo.transport import w1, w2

from conftest import (
    bernoulli_chain,
    bincount_neg_generator,
    bordered_poisson,
    chain_from_dense,
    conjugated_neg_generator,
    dense_build_chain,
    dirichlet_bilinear,
    inferred_line_embedding,
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
        # a star has n - 1 edges too, but not the edges (k, k+1)
        star = np.zeros((n, n))
        star[0, 1:] = star[1:, 0] = 1.0
        assert build_chain(star).band is None

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


    @given(st.one_of(birth_death_chains(), dense_chains()), st.integers(1, 20),
           st.integers(0, 2 ** 32 - 1))
    def test_edge_product_rows_equal_one_row_at_a_time(self, chain, rows, seed):
        G = np.random.default_rng(seed).standard_normal((rows, chain.n))
        assert np.array_equal(_apply_neg_generator(chain, G),
                              np.array([_apply_neg_generator(chain, g) for g in G]))

    def test_poincare_probe_kept_for_the_last_size(self):
        # spectral_gap's seed-7 draws, drawn once per size and read-only
        probe = chains._poincare_probe(37)
        assert np.array_equal(probe, np.random.default_rng(7).standard_normal((100, 37)))
        assert not probe.flags.writeable and chains._poincare_probe(37) is probe

    @given(st.one_of(birth_death_chains(), dense_chains(),
                     st.floats(0.05, 0.95).map(bernoulli_chain)),
           st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
    def test_edge_product_equals_the_bincount_form(self, chain, rows, seed):
        # band chains sum by slices, the others by bincounts: the bincount
        # form's bits and signs of zero either way, on 1-D and 2-D g with
        # +0.0 and -0.0 entries and, on 2-D g, a row of signed zeros
        rng = np.random.default_rng(seed)
        shape = (rows, chain.n) if rows else (chain.n,)
        g = rng.standard_normal(shape)
        g[rng.random(shape) < 0.3] = 0.0
        g[rng.random(shape) < 0.3] = -0.0
        if rows:
            g[0] = np.where(rng.random(chain.n) < 0.5, 0.0, -0.0)
        got, want = _apply_neg_generator(chain, g), bincount_neg_generator(chain, g)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


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
        ch = chain_from_dense((0, 1, 2), Q, np.array([0.5, 0.25, 0.25]))
        assert np.array_equal(ch.Q, Q)
        assert np.array_equal(ch.exit_rates, [0.0, 1.5, 2.0])
        for got, ref in zip(ch.edges, _dense_edges(ch, Q)):
            assert np.array_equal(got, ref)


@st.composite
def chain_inputs(draw):
    """(rates, mu, birth_death): a chain input carrying at most one fault.

    Birth-death inputs reach mu down to 1e-30, dense ones 1e-8.  The faults
    are a rate bumped by a relative 1e-12 to 0.5 (around the 1e-10 detailed
    balance tolerance), a rate set to 0 one way or both ways, a negative
    rate, a measure off mass 1 by more or less than 1e-9, a nonpositive mass,
    and a missing measure (solved from Q).
    """
    birth_death = draw(st.booleans())
    n = draw(st.integers(2, 30 if birth_death else 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mu = 10.0 ** rng.uniform(-30.0 if birth_death else -8.0, 0.0, n)
    mu /= mu.sum()
    if birth_death:
        k = np.arange(n - 1)
        cond = 10.0 ** rng.uniform(-6.0, 0.0, n - 1)
        rates = np.zeros((n, n))
        rates[k, k + 1], rates[k + 1, k] = cond / mu[:-1], cond / mu[1:]
    else:
        cond = np.triu(rng.uniform(0.2, 1.5, (n, n)), 1)
        rates = (cond + cond.T) / mu[:, None]
    x, y = (int(v) for v in np.argwhere(rates > 0)[int(rng.integers(np.count_nonzero(rates)))])
    fault = draw(st.sampled_from(["none", "bump", "one_way", "cut", "negative",
                                  "mass", "sign", "solve"]))
    if fault == "bump":
        rates[x, y] *= 1.0 + draw(st.sampled_from([1e-12, 5e-11, 2e-10, 1e-6, 0.5]))
    elif fault in ("one_way", "cut"):
        rates[x, y] = 0.0
        if fault == "cut":
            rates[y, x] = 0.0
    elif fault == "negative":
        rates[x, y] = -rates[x, y]
    elif fault == "mass":
        mu = mu * (1.0 + draw(st.sampled_from([5e-10, 2e-9])))
    elif fault == "sign":
        mu[x] = -mu[x]
    return rates, None if fault == "solve" else mu, birth_death


def _outcome(build):
    """The error (type, pair, residual) a build raises, or the chain's stored arrays."""
    try:
        ch = build()
    except TransinfoError as exc:
        return type(exc), getattr(exc, "pair", None), getattr(exc, "residual", None)
    band = None if ch.band is None else [a.tolist() for a in ch.band]
    return (ch.states, ch.mu.tolist(), [a.tolist() for a in ch.rates], ch.exit_rates.tolist(),
            [a.tolist() for a in ch.edges], band)


class TestEdgeValidator:
    @given(chain_inputs())
    def test_accepts_and_rejects_as_the_dense_checks(self, case):
        rates, mu, birth_death = case
        want = _outcome(lambda: dense_build_chain(rates, mu=mu))
        assert _outcome(lambda: build_chain(rates, mu=mu)) == want
        if birth_death and mu is not None:
            up, down = np.diag(rates, 1), np.diag(rates, -1)
            assert _outcome(lambda: _birth_death_chain(up, down, mu)) == want

    def test_worst_pair_first_in_row_major_order(self):
        # two pairs with the same residual 1: the dense argmax reports (0, 2)
        rates = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        mu = np.full(3, 1.0 / 3.0)
        with pytest.raises(DetailedBalanceViolated) as err:
            build_chain(rates, mu=mu)
        assert (err.value.pair, err.value.residual) == ((0, 2), 1.0)

    def test_non_finite_rates_rejected(self):
        for bad in (np.nan, np.inf):
            rates = np.eye(3, k=1) + np.eye(3, k=-1)
            rates[1, 2] = bad
            with pytest.raises(TransinfoError):
                build_chain(rates)
            with pytest.raises(TransinfoError):
                build_chain(rates, mu=np.full(3, 1.0 / 3.0))

    def test_reachability_searched_off_the_path_only(self, monkeypatch):
        calls = []
        unreached = chains._unreached
        monkeypatch.setattr(chains, "_unreached",
                            lambda *args: calls.append(1) or unreached(*args))
        discretize(ou_spec(), Grid1D.uniform(-6.0, 6.0, 400))
        mminf_generator(1.0, 40)
        assert len(calls) == 0
        random_reversible_chain(4, np.random.default_rng(5))
        assert len(calls) == 2

    @pytest.mark.parametrize("cut", ["up", "down"])
    def test_birth_death_with_a_zero_rate_is_reducible(self, cut):
        up, down = np.array([1.0, 2.0, 0.5, 1.5]), np.array([0.5, 1.0, 2.0, 1.0])
        (up if cut == "up" else down)[2] = 0.0
        mu = np.full(5, 0.2)
        with pytest.raises(NotIrreducible):
            _birth_death_chain(up, down, mu)
        with pytest.raises(NotIrreducible):
            build_chain(np.diag(up, 1) + np.diag(down, -1), mu=mu)


class TestDiscretizedChainBits:
    """discretize builds, in O(n), the chain the dense construction built from its rates."""

    @pytest.mark.parametrize("spec, lo, hi, n", [
        (ou_spec(), -6.0, 6.0, 400), (quartic_spec(), -4.0, 4.0, 400),
        (ou_spec(), -8.0, 8.0, 150), (ou_spec(), -6.0, 6.0, 60)],
        ids=["ou-400", "quartic-400", "line-150", "ou-60"])
    def test_equal_to_the_dense_construction(self, monkeypatch, spec, lo, hi, n):
        seen = []

        def capture(up, down, mu, states=None):
            seen.append((up, down, mu, states))
            return _birth_death_chain(up, down, mu, states)

        monkeypatch.setattr(diffusion1d, "_birth_death_chain", capture)
        chain = discretize(spec, Grid1D.uniform(lo, hi, n))
        (up, down, mu, states), = seen
        ref = dense_build_chain(np.diag(up, 1) + np.diag(down, -1), mu=mu, states=states)
        assert chain.states == ref.states
        for got, want in zip([*chain.rates, chain.mu, chain.exit_rates, *chain.edges, *chain.band],
                             [*ref.rates, ref.mu, ref.exit_rates, *ref.edges, *ref.band]):
            assert np.array_equal(got, want)
        assert "Q" not in chain.__dict__

    def test_2000_nodes_stay_below_one_dense_array(self):
        spec, grid = ou_spec(), Grid1D.uniform(-6.0, 6.0, 2000)
        tracemalloc.start()
        try:
            chain = discretize(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8
        assert "Q" not in chain.__dict__


@st.composite
def smooth_birth_death_chains(draw, max_n=60, min_cond=0.2):
    """Birth-death chain with a unimodal mu down to about 1e-30 and bounded rates.

    log10 mu falls by 0 to 2 decades a step away from its mode, as in the
    tails of a discretized diffusion; conductances c_k, log-uniform in
    [min_cond, 1.5] times min(mu_k, mu_{k+1}), keep every rate below 1.5.
    """
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mode = int(rng.integers(n))
    drops = rng.uniform(0.0, 2.0, n)
    log_mu = -np.abs(np.cumsum(drops) - np.cumsum(drops)[mode])
    mu = 10.0 ** np.maximum(log_mu, -30.0)
    mu /= mu.sum()
    cond = (10.0 ** rng.uniform(np.log10(min_cond), np.log10(1.5), n - 1)
            * np.minimum(mu[:-1], mu[1:]))
    return _birth_death_chain(cond / mu[:-1], cond / mu[1:], mu)


def _exact_poisson(chain, g):
    """-L^sigma h = g - mu(g), mu(h) = 0 in rational arithmetic on the float inputs.

    Gauss-Jordan elimination of [[-L^sigma, 1], [mu^T, 0]] over Fractions,
    with -L^sigma built from the off-diagonal rates alone, so its rows sum
    to exactly zero (the stored exit rates are rounded sums).
    """
    n, mu = chain.n, [Fraction(float(m)) for m in chain.mu]
    Q = [[Fraction(0)] * n for _ in range(n)]
    for x, y, q in zip(*chain.rates):
        Q[x][y] = Fraction(float(q))
    mean = sum(m * Fraction(float(x)) for m, x in zip(mu, g))
    A = []
    for x in range(n):
        row = [-(Q[x][y] + mu[y] * Q[y][x] / mu[x]) / 2 for y in range(n)]
        row[x] = -sum(row)
        A.append(row + [Fraction(1), Fraction(float(g[x])) - mean])
    A.append(mu + [Fraction(0), Fraction(0)])
    for c in range(n + 1):
        p = next(r for r in range(c, n + 1) if A[r][c] != 0)
        A[c], A[p] = A[p], A[c]
        A[c] = [a / A[c][c] for a in A[c]]
        for r in range(n + 1):
            if r != c and A[r][c] != 0:
                A[r] = [a - A[r][c] * b for a, b in zip(A[r], A[c])]
    return np.array([float(A[x][-1]) for x in range(n)])


class TestFluxPoisson:
    @given(smooth_birth_death_chains(), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_bordered_solve(self, chain, seed):
        g = np.random.default_rng(seed).standard_normal(chain.n)
        g -= chain.expectation(g)
        h = poisson_solve(chain, g)
        assert "Q" not in chain.__dict__      # the flux route never builds a dense matrix
        ref = bordered_poisson(chain, g)
        assert float(np.max(np.abs(h - ref))) <= 1e-12 * float(np.max(np.abs(ref)))

    # conductance spreads make the bordered solve itself lose digits, so these
    # chains are checked against the exact solution; beyond a spread of about
    # 1e3, |h| grows until the absolute 1e-10 residual check sits below the
    # rounding floor of any solve
    @given(smooth_birth_death_chains(max_n=8, min_cond=1e-3), st.integers(0, 2 ** 32 - 1))
    def test_exact_on_ill_conditioned_chains(self, chain, seed):
        g = np.random.default_rng(seed).standard_normal(chain.n)
        g -= chain.expectation(g)
        h = poisson_solve(chain, g)
        ref = _exact_poisson(chain, g)
        assert float(np.max(np.abs(h - ref))) <= 1e-12 * float(np.max(np.abs(ref)))


class TestDirectLapack:
    @given(birth_death_chains(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans())
    def test_equal_to_eigh_tridiagonal(self, chain, seed, count, vectors):
        count = min(count, chain.n)
        u = np.random.default_rng(seed).uniform(-5.0, 5.0, chain.n)
        got = _lowest_eigenpairs(chain, u, count=count, vectors=vectors)
        diag, off = chain.band
        want = eigh_tridiagonal(diag - u, off, eigvals_only=not vectors,
                                select="i", select_range=(0, count - 1))
        if vectors:
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        else:
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [60, 400, 2000])
    def test_equal_on_discretized_chains(self, n):
        chain = discretize(ou_spec(), Grid1D.uniform(-6.0, 6.0, n))
        diag, off = chain.band
        rng = np.random.default_rng(n)
        for _ in range(20):
            u = rng.uniform(-3.0, 3.0, n)
            assert np.array_equal(_lowest_eigenpairs(chain, u, count=2),
                                  eigh_tridiagonal(diag - u, off, eigvals_only=True,
                                                   select="i", select_range=(0, 1)))
        w, V = _lowest_eigenpairs(chain, u, vectors=True)
        w_ref, V_ref = eigh_tridiagonal(diag - u, off, select="i", select_range=(0, 0))
        assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_before_lapack(self, monkeypatch, bad):
        def unreachable(*args):
            raise AssertionError("LAPACK saw a non-finite input")

        monkeypatch.setattr(chains, "_scipy_extension",
                            lambda name: SimpleNamespace(dstebz=unreachable, dstein=unreachable))
        chain = random_birth_death_chain(6, np.random.default_rng(1))
        u = np.zeros(6)
        u[3] = bad
        with pytest.raises(ValueError):
            lambda_max(chain, u)
        with pytest.raises(ValueError):
            lambda_max_witness(chain, u)
        Q = chain.Q.copy()
        Q[2, 3] = bad
        Q[2, 2] = -np.sum(Q[2, [1, 3]])
        broken = chain_from_dense(chain.states, Q, chain.mu)
        assert broken.band is not None
        with pytest.raises(ValueError):
            spectral_gap(broken)
        # a dense chain raises the same error, before any dense eigensolve
        monkeypatch.setattr(np.linalg, "eigh", unreachable)
        monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
        dense = random_reversible_chain(4, np.random.default_rng(1))
        assert dense.band is None
        u = np.zeros(4)
        u[2] = bad
        with pytest.raises(ValueError):
            lambda_max(dense, u)
        with pytest.raises(ValueError):
            lambda_max_witness(dense, u)
        with pytest.raises(ValueError):
            _lowest_eigenpairs(dense, np.stack([np.zeros(4), u, np.ones(4)]), count=2)

    @given(dense_chains(), st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans(),
           st.booleans())
    def test_dense_row_equal_to_one_matrix_solve(self, chain, seed, count, vectors, drawn):
        # a 1-D call, a one-row stack, has the bits of eigvalsh / eigh on A - diag(u)
        assume(chain.band is None)      # two states are a birth-death chain
        count = min(count, chain.n)
        A = chain.conjugated_neg_generator
        u = np.random.default_rng(seed).uniform(-5.0, 5.0, chain.n) if drawn else None
        got = _lowest_eigenpairs(chain, u, count=count, vectors=vectors)
        M = A if u is None else A - np.diag(u)
        if vectors:
            w, V = np.linalg.eigh(M)
            assert np.array_equal(got[0], w[:count]) and np.array_equal(got[1], V[:, :count])
        else:
            assert np.array_equal(got, np.linalg.eigvalsh(M)[:count])


class TestStackedEigensolve:
    """A 2-D u, one potential per row, gives each row's 1-D result bit for bit."""

    @staticmethod
    def _per_row(chain, U, count):
        return np.array([_lowest_eigenpairs(chain, u, count=count) for u in U])

    @given(dense_chains(), st.integers(0, 2 ** 32 - 1), st.integers(1, 60), st.integers(1, 3))
    def test_dense_equal_to_per_row_solves(self, chain, seed, rows, count):
        count = min(count, chain.n)
        U = np.random.default_rng(seed).uniform(-5.0, 5.0, (rows, chain.n))
        assert np.array_equal(_lowest_eigenpairs(chain, U, count=count),
                              self._per_row(chain, U, count))

    def test_dense_stacks_of_at_most_2_20_entries(self):
        # 150 states: 46 matrices per stack, so 60 rows take two stacks
        chain = random_reversible_chain(150, np.random.default_rng(150))
        U = np.random.default_rng(1).uniform(-3.0, 3.0, (60, 150))
        assert np.array_equal(_lowest_eigenpairs(chain, U), self._per_row(chain, U, 1))

    @pytest.mark.parametrize("n", [60, 400])
    def test_band_equal_to_per_row_solves(self, n):
        chain = discretize(ou_spec(), Grid1D.uniform(-6.0, 6.0, n))
        U = np.random.default_rng(n).uniform(-3.0, 3.0, (49, n))
        assert np.array_equal(_lowest_eigenpairs(chain, U, count=2), self._per_row(chain, U, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_raises_before_lapack(self, monkeypatch, bad):
        # the check covers every row before the first row reaches dstebz
        def unreachable(*args):
            raise AssertionError("LAPACK saw a stack with a non-finite row")

        monkeypatch.setattr(chains, "_scipy_extension",
                            lambda name: SimpleNamespace(dstebz=unreachable))
        chain = random_birth_death_chain(6, np.random.default_rng(1))
        U = np.zeros((5, 6))
        U[3, 2] = bad
        with pytest.raises(ValueError):
            _lowest_eigenpairs(chain, U)

    def test_wrong_shape_rejected(self, rng):
        for ch in (random_reversible_chain(4, rng), random_birth_death_chain(4, rng)):
            with pytest.raises(ValueError):
                _lowest_eigenpairs(ch, np.ones((3, 5)))
            with pytest.raises(ValueError):
                _lowest_eigenpairs(ch, np.ones((3, 4)), vectors=True)


class TestLapackBinding:
    def test_first_band_solves_race_on_many_threads(self, monkeypatch):
        """Threads that all make the first band solve at once all get its result.

        Each round drops the LAPACK extension from ``sys.modules``, where the
        loader keeps it, so every thread may load it from its file."""
        chain = random_birth_death_chain(8, np.random.default_rng(3))
        w_ref, V_ref = _lowest_eigenpairs(chain, count=2, vectors=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
                start = threading.Barrier(8)
                results = []

                def solve():
                    start.wait()
                    try:
                        results.append(_lowest_eigenpairs(chain, count=2, vectors=True))
                    except Exception as exc:
                        results.append(exc)

                workers = [threading.Thread(target=solve) for _ in range(8)]
                for t in workers:
                    t.start()
                for t in workers:
                    t.join(timeout=30)
                    assert not t.is_alive()
                assert len(results) == 8
                for got in results:
                    assert not isinstance(got, Exception), got
                    assert np.array_equal(got[0], w_ref) and np.array_equal(got[1], V_ref)
        finally:
            sys.setswitchinterval(interval)


class TestLineLipschitz:
    @given(st.integers(2, 30), st.integers(0, 2 ** 32 - 1), st.floats(-6.0, 0.0))
    def test_matches_pairwise_maximum(self, n, seed, log_spread):
        rng = np.random.default_rng(seed)
        points = np.cumsum(10.0 ** rng.uniform(log_spread, 0.0, n)) - 3.0
        d = line_metric(points)
        assert d.line_embedding is not None
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        off = ~np.eye(n, dtype=bool)
        pairwise = float(np.max(np.abs(g[:, None] - g[None, :])[off] / d.d[off]))
        assert lipschitz_norm(d, g) == pytest.approx(pairwise, rel=1e-12)


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


@st.composite
def line_points(draw):
    """Distinct points: increasing, decreasing or permuted, at magnitudes 1e-300 to 1e300.

    Half the draws put points a few ulps apart at an offset up to 1e16 and a
    first point of order 1 away from them, so that the row d[0] rounds to
    ties."""
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        scale = 10.0 ** draw(st.integers(-300, 300))
        gaps = np.array(draw(st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n)))
        p = scale * (draw(st.integers(-5, 5)) + np.cumsum(gaps))
    else:
        offset = draw(st.sampled_from([1.0, 3.0, 2.0 ** 52, 2.0 ** 53, 1e15, 1e16, -1e16]))
        ulps = np.cumsum(draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1)))
        first = draw(st.sampled_from([-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5]))
        p = np.concatenate([[first], offset + ulps * np.spacing(offset)])
    assume(len(np.unique(p)) == n)
    order = draw(st.sampled_from(["increasing", "decreasing", "permuted"]))
    if order == "decreasing":
        return -p if draw(st.booleans()) else p[::-1]
    return p[draw(st.permutations(range(n)))] if order == "permuted" else p


@st.composite
def small_metrics(draw):
    """Matrices on one or two points that MetricMatrix.validate accepts.

    The off-diagonal pair differs by up to the symmetry tolerance and the
    diagonal by up to the zero-diagonal tolerance."""
    n = draw(st.integers(1, 2))
    d = np.zeros((n, n))
    d[np.diag_indices(n)] = draw(st.lists(st.sampled_from([0.0, 1e-16, -1e-16, 1e-15, -1e-15]),
                                          min_size=n, max_size=n))
    if n == 2:
        d[0, 1] = 10.0 ** draw(st.floats(-300.0, 300.0))
        d[1, 0] = d[0, 1] * (1.0 + draw(st.sampled_from([0.0, 1e-16, 1e-13, -1e-13, 1e-9, 1e-6])))
        d[1, 0] += draw(st.sampled_from([0.0, 1e-13, -1e-13]))
    try:
        return MetricMatrix.validate(d)
    except ModelValidation:
        assume(False)


def _same(a, b):
    return (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))


class TestDeclaredLineEmbedding:
    """The embedding a constructor declares against the O(n^2) inference from d."""

    @given(line_points())
    def test_line_metric_declares_the_inferred_embedding(self, p):
        d = line_metric(p)
        step = np.diff(p)
        if np.all(step > 0) or np.all(step < 0):
            assert _same(d.line_embedding, inferred_line_embedding(d.d))
        else:
            # a fold within 1e-12 of a line is inferred as one; it holds no embedding
            assert d.line_embedding is None
        assert np.array_equal(d.d, np.abs(p[:, None] - p[None, :]))
        assert not d.d.flags.writeable

    @given(small_metrics())
    def test_validated_metrics_on_two_points_declare_the_inferred_embedding(self, d):
        assert _same(d.line_embedding, inferred_line_embedding(d.d))

    @pytest.mark.parametrize("p", [[0.0, 0.5, 1.7, 4.0], [3.0, -1.0, -2.5], [0.0, 1e-13, -2e-13]],
                             ids=["increasing", "decreasing", "fold-within-1e-12"])
    def test_matrices_without_embedding_match_the_closed_forms(self, p):
        p = np.array(p)
        rng = np.random.default_rng(11)
        nu, mu = rng.dirichlet(np.ones(len(p))), rng.dirichlet(np.ones(len(p)))
        order = np.argsort(p)
        line = line_metric(p[order])
        hand = MetricMatrix.validate(np.abs(p[:, None] - p[None, :]))
        assert hand.line_embedding is None and inferred_line_embedding(hand.d) is not None
        step = np.diff(p)
        assert (line_metric(p).line_embedding is None) == (np.any(step > 0) and np.any(step < 0))
        for d in (hand, line_metric(p)):
            assert w1(d, nu, mu) == pytest.approx(w1(line, nu[order], mu[order]), rel=1e-12)
            assert w2(d, nu, mu) == pytest.approx(w2(line, nu[order], mu[order]), rel=1e-12)


class TestLineMetricInput:
    """line_metric names the bad points before it builds any n x n array."""

    @pytest.mark.parametrize("points, message", [
        ([0.0, np.inf, 5.0], "finite: point 1 is inf"),
        ([0.0, 1.0, np.nan], "finite: point 2 is nan"),
        ([5.0, 1.0, 5.0], "distinct: 0 and 2 are both 5.0"),
        ([0.0, -0.0], "distinct: 0 and 1"),
        (np.zeros((2, 3)), "1-D array"),
        ([], "nonempty"),
        ([-1e308, 0.0, 1e308], "span -1e+308 to 1e+308: not finite"),
    ])
    @pytest.mark.filterwarnings("error")      # the span check must not overflow on its own
    def test_bad_points_named(self, points, message):
        with pytest.raises(ModelValidation, match=re.escape(message)):
            line_metric(points)

    def test_rejected_before_the_matrix_is_built(self):
        p = np.arange(2000.0)
        p[1500] = p[7]
        tracemalloc.start()
        try:
            with pytest.raises(ModelValidation, match="7 and 1500"):
                line_metric(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * 8 / 10

    def test_4000_points_build_one_matrix(self):
        p = np.linspace(-6.0, 6.0, 4000)
        tracemalloc.start()
        try:
            d = line_metric(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.05 * 4000 * 4000 * 8
        assert d.line_embedding is not None


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about 20 MB and 0.35 s of start-up; nothing in the
    # package needs it
    code = "import transinfo.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
