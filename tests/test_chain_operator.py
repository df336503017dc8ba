"""The cached chain operator against the dense reference constructions.

Birth-death chains take the banded eigen route and every chain takes the
edge-list Dirichlet form; dense eigh of ``conjugated_neg_generator()`` and
the n x n Dirichlet sum are the oracles.  Chains are drawn with mu down to
1e-8 and conductance spreads up to 1e6.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from transinfo.chains import (
    build_chain,
    dirichlet_bilinear,
    dirichlet_energy,
    line_metric,
    spectral_gap,
    trivial_metric,
)
from transinfo.errors import DetailedBalanceViolated
from transinfo.feynman_kac import fisher_information_raw, lambda_max, lambda_max_witness

from conftest import random_reversible_chain


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
        A = ch.conjugated_neg_generator()
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
        dense = np.linalg.eigh(-chain.conjugated_neg_generator() + np.diag(u))
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
        assert gap == pytest.approx(np.linalg.eigvalsh(chain.conjugated_neg_generator())[1], abs=tol)
        assert c_p == 1.0 / gap


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
