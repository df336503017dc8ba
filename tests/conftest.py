import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from transinfo.chains import (
    ReversibleChain,
    _apply_neg_generator,
    build_chain,
    solve_invariant_measure,
)
from transinfo.errors import (
    DegenerateMeasure,
    DetailedBalanceViolated,
    ModelValidation,
    NotIrreducible,
)
from transinfo.feynman_kac import fisher_information_raw, project_density

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


def bordered_poisson(chain: ReversibleChain, g: np.ndarray) -> np.ndarray:
    """-L^sigma h = g, mu(h) = 0 by the dense bordered system on the conjugated matrix.

    [[A, sqrt mu], [sqrt mu^T, 0]] (sqrt(mu) h, lambda) = (sqrt(mu) g, 0): the
    reference for the flux-sum route of birth-death chains.
    """
    n = chain.n
    s = np.sqrt(chain.mu)
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = conjugated_neg_generator(chain)
    A[:n, n] = A[n, :n] = s
    h = np.linalg.solve(A, np.concatenate([s * g, [0.0]]))[:n] / s
    return h - chain.expectation(h)


def dense_check_irreducible(Q: np.ndarray) -> None:
    """Strong connectivity of the dense rate graph Q > 0: the reference."""
    graph = csr_matrix((Q > 0).astype(np.int8))
    ncomp, _ = connected_components(graph, directed=True, connection="strong")
    if ncomp != 1:
        raise NotIrreducible(f"rate graph has {ncomp} strongly connected components")


def dense_check_detailed_balance(Q: np.ndarray, mu: np.ndarray) -> None:
    """Detailed balance on the dense flow matrix mu_x Q_xy: the reference.

    Reports the worst relative residual, first in row-major order.
    """
    flow = mu[:, None] * Q
    resid = np.abs(flow - flow.T)
    scale = np.maximum(np.abs(flow), np.abs(flow.T))
    np.fill_diagonal(resid, 0.0)
    np.fill_diagonal(scale, 1.0)
    rel = resid / np.maximum(scale, 1e-300)
    rel[scale == 0.0] = 0.0
    worst = np.unravel_index(np.argmax(rel), rel.shape)
    if rel[worst] > 1e-10:
        raise DetailedBalanceViolated(pair=tuple(int(i) for i in worst), residual=float(rel[worst]))


def dense_build_chain(rates, mu=None, states=None) -> ReversibleChain:
    """``build_chain`` as it validated on n x n arrays: the reference for the edge validator."""
    Q = np.array(rates, dtype=float)
    n = Q.shape[0]
    if np.any(Q[~np.eye(n, dtype=bool)] < 0):
        raise ModelValidation("off-diagonal rates must be nonnegative")
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    dense_check_irreducible(Q)
    mu = solve_invariant_measure(Q) if mu is None else np.array(mu, dtype=float)
    if mu.shape != (n,):
        raise ModelValidation("mu has wrong length")
    if np.any(mu <= 0):
        raise DegenerateMeasure("invariant measure has nonpositive entries")
    if abs(mu.sum() - 1.0) > 1e-9:
        raise DegenerateMeasure("mu does not sum to 1")
    mu = mu / mu.sum()
    dense_check_detailed_balance(Q, mu)
    states = tuple(str(i) for i in range(n)) if states is None else tuple(states)
    return ReversibleChain.from_dense(states, Q, mu)


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


def sequential_legendre(chain: ReversibleChain, u: np.ndarray, lam: float,
                        multistarts: int = 32, iters: int = 400, seed: int = 5):
    """Each start's value of ``legendre_of_info``'s ascent, run one start at a time.

    The reference for the lockstep rows: the same starting densities from
    the same Dirichlet draws, each ascended alone on 1-D arrays.  Returns
    (values, stopped): ``stopped`` marks the starts whose step fell below
    1e-12 before the iteration cap.
    """
    rng = np.random.default_rng(seed)
    runs = []
    for start in range(multistarts):
        if start == 0:
            f = np.ones(chain.n)
        else:
            f = rng.dirichlet(np.ones(chain.n)) / chain.mu
            f /= float(np.dot(chain.mu, f))
        runs.append(_legendre_ascent(chain, u, lam, f, iters))
    values, stopped = zip(*runs)
    return np.array(values), np.array(stopped)


def _legendre_ascent(chain, u, lam, f, iters):
    floor = 1e-13
    step = 0.5
    val = _legendre_objective(chain, u, lam, f)
    for _ in range(iters):
        sq = np.sqrt(np.clip(f, floor, None))
        grad = lam * u - _apply_neg_generator(chain, sq) / sq
        cand = project_density(chain.mu, f + step * grad, floor)
        cand_val = _legendre_objective(chain, u, lam, cand)
        if cand_val > val + 1e-15:
            f, val = cand, cand_val
            step = min(step * 1.3, 1e3)
        else:
            step *= 0.4
            if step < 1e-12:
                return val, True
    return val, False


def _legendre_objective(chain, u, lam, f):
    return lam * float(np.dot(chain.mu, u * f)) - fisher_information_raw(chain, f)
