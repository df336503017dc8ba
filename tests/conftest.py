import numpy as np
import pytest
from hypothesis import settings

from transinfo.chains import ReversibleChain, build_chain

# Property tests draw the same examples on every run (derandomized runs keep
# no example database) and never fail a slow example on a loaded host.
settings.register_profile("transinfo", deadline=None, derandomize=True,
                          max_examples=40)
settings.load_profile("transinfo")


def random_reversible_chain(n: int, rng: np.random.Generator,
                            mu: np.ndarray | None = None) -> ReversibleChain:
    """Random chain in exact detailed balance with a random positive measure.

    Conductances c_xy = c_yx >= 0 give rates q(x,y) = c_xy / mu_x, so
    mu_x q(x,y) = mu_y q(y,x) holds by construction.
    """
    if mu is None:
        mu = rng.dirichlet(np.ones(n) * 3.0)
        mu = np.maximum(mu, 0.02)
        mu = mu / mu.sum()
    cond = rng.uniform(0.2, 1.5, size=(n, n))
    cond = np.triu(cond, 1)
    cond = cond + cond.T
    rates = cond / mu[:, None]
    np.fill_diagonal(rates, 0.0)
    return build_chain(rates, mu=mu)


def random_birth_death_chain(n: int, rng: np.random.Generator) -> ReversibleChain:
    rates = np.zeros((n, n))
    for i in range(n - 1):
        rates[i, i + 1] = rng.uniform(0.5, 2.0)
        rates[i + 1, i] = rng.uniform(0.5, 2.0)
    return build_chain(rates)


def symmetrized_generator(chain: ReversibleChain) -> np.ndarray:
    """Dense L^sigma = (L + L*)/2, L* the L^2(mu) adjoint: the reference operator."""
    adj = (chain.Q.T * chain.mu[None, :]) / chain.mu[:, None]
    return 0.5 * (chain.Q + adj)


def conjugated_neg_generator(chain: ReversibleChain) -> np.ndarray:
    """Dense diag(sqrt mu) (-L^sigma) diag(1/sqrt mu), symmetrized: the reference."""
    s = np.sqrt(chain.mu)
    A = (s[:, None] * (-symmetrized_generator(chain))) / s[None, :]
    return 0.5 * (A + A.T)


def random_density(chain: ReversibleChain, rng: np.random.Generator,
                   concentration: float = 1.0) -> np.ndarray:
    raw = rng.dirichlet(np.ones(chain.n) * concentration)
    f = raw / chain.mu
    return f / float(np.dot(chain.mu, f))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


def bernoulli_chain(p: float) -> ReversibleChain:
    return build_chain(np.array([[0.0, 1.0 / (1.0 - p)], [1.0 / p, 0.0]]))
