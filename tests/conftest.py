import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from transinfo.chains import (
    ReversibleChain,
    _apply_neg_generator,
    _frozen,
    _lowest_eigenpairs,
    _state_vector,
    build_chain,
    solve_invariant_measure,
)
from transinfo.diffusion1d import _quad
from transinfo.errors import (
    DegenerateMeasure,
    DetailedBalanceViolated,
    ModelValidation,
    NotIrreducible,
    QuadratureFailure,
)
from transinfo.feynman_kac import _lambda_grid, fisher_information_raw, lambda_max, project_density
from transinfo.transport import _golden_max

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
    return chain_from_dense(states, Q, mu)


def chain_from_dense(states, Q: np.ndarray, mu: np.ndarray) -> ReversibleChain:
    """Hold a rate matrix by its nonzero off-diagonal entries; validates nothing.

    Builds the chains no validator lets through: broken ones, and the
    output of the dense reference validator.
    """
    Q = np.asarray(Q, dtype=float)
    i, j = np.nonzero((Q != 0) & ~np.eye(len(Q), dtype=bool))
    return ReversibleChain(states=tuple(states), mu=_frozen(np.array(mu, dtype=float)),
                           rates=(_frozen(i), _frozen(j), _frozen(Q[i, j])),
                           exit_rates=_frozen(-np.diag(Q)))


def dirichlet_bilinear(chain: ReversibleChain, g: np.ndarray, h: np.ndarray) -> float:
    """E(g, h) = <-L^sigma g, h>_mu, summed over edges."""
    g = _state_vector(chain, g)
    h = _state_vector(chain, h)
    i, j, w = chain.edges
    return float(np.dot(w, (g[j] - g[i]) * (h[j] - h[i])))


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


def nested_nonexplosion(spec, ladders: dict) -> dict:
    """``check_nonexplosion`` by nested scalar quadrature at the given ladders.

    ``ladders`` maps "upper" and "lower" to their rungs R.  Between rungs
    (c = c_ref before the first) the partials I(R) = int s'(x) |int_c^x m'| dx
    grow by an adaptive ``_quad`` whose integrand adds a ``_quad`` of m' to
    the mass below the interval, each m' value a ``_quad`` of b/a from c:
    three nested scalar quadratures, the reference for the panel sums.
    """
    def scale_speed(x):
        inner = _quad(lambda z: spec.b(z) / spec.a(z), spec.c_ref, x)
        return math.exp(-inner), math.exp(inner) / spec.a(x)

    def mass(lo, hi):   # int m' between lo and hi, in either order
        return _quad(lambda z: scale_speed(z)[1], min(lo, hi), max(lo, hi))

    out = {}
    for side, ladder in ladders.items():
        vals, total, below, start = [], 0.0, 0.0, spec.c_ref
        overflow = False
        for R in ladder:
            try:
                total += _quad(lambda x, lo=start, m=below: scale_speed(x)[0] * (m + mass(lo, x)),
                               min(start, R), max(start, R))
                below += mass(start, R)
            except (QuadratureFailure, OverflowError):
                overflow = True
                break
            vals.append(total)
            start = R
        if overflow or (len(vals) >= 2 and vals[-1] > 1e12 * max(vals[0], 1e-30)):
            verdict = "divergent"
        elif len(vals) >= 3 and vals[-1] > 1e3 * max(vals[0], 1e-30) and \
                (vals[-1] - vals[-2]) > (vals[1] - vals[0]):
            verdict = "divergent"
        else:
            verdict = "inconclusive"
        out[side] = {"partials": vals, "verdict": verdict}
    return out


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


def rebuilding_network_simplex(c: np.ndarray, nu: np.ndarray, mu: np.ndarray):
    """``transport._network_simplex`` as it rebuilt the whole tree on every pivot.

    The reference for the incremental pivot: the child lists, the order, every
    potential and every depth are re-derived from the parent pointers after
    each pivot, on numpy arrays.  It must give the same vertex and the same
    potentials, bit for bit.

    Transportation network simplex (Ahuja, Magnanti & Orlin, *Network
    Flows*, ch. 11) on a spanning tree of the bipartite graph: nodes
    0..n-1 are the rows, n..n+m-1 the columns, row 0 is the root, and
    ``parent[x]``/``flow[x]`` describe the tree arc joining x to its parent.
    The tree stays strongly feasible: every zero-flow arc points toward
    the root.  The northwest-corner start has that property when a tie
    advances the row; leaving by the last blocking arc met from the apex
    keeps it (Cunningham 1976), so degenerate pivots cannot cycle.
    Entering arcs are priced by Dantzig's rule.

    A zero-mass column has no strongly feasible place in a tree, so
    zero-mass rows and columns stay out of it; their potentials are the
    c-transforms of the tree's.  The last row and column absorb the
    roundoff-sized mass imbalance the marginal check lets through.
    """
    rows, cols = np.flatnonzero(nu > 0), np.flatnonzero(mu > 0)
    if rows.size == 0 or cols.size == 0:
        u = np.zeros(c.shape[0])
        return np.zeros(c.shape), u, np.max(u[:, None] - c, axis=0)
    cost = c[np.ix_(rows, cols)]
    supply, demand = nu[rows], mu[cols]
    n, m = cost.shape
    parent = np.zeros(n + m, dtype=int)
    flow = np.zeros(n + m)
    # northwest corner; a and b are the unshipped masses of row i and column j
    i = j = 0
    a, b = supply[0], demand[0]
    x = n                                   # column 0 hangs from row 0
    while True:
        if x < n and j == m - 1:            # the last row and column take the
            f = a                           # roundoff-sized mass imbalance
        elif x >= n and i == n - 1:
            f = b
        else:
            f = min(a, b)
        flow[x] = f
        a, b = a - f, b - f
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1 or (i < n - 1 and a == 0.0):   # a tie advances the row
            i += 1
            x, parent[i], a = i, n + j, supply[i]
        else:
            j += 1
            x, parent[n + j], b = n + j, i, demand[j]
    tol = 1e-12 * max(1.0, float(cost.max()))
    pot = np.zeros(n + m)
    depth = np.zeros(n + m, dtype=int)
    while True:
        kids = [[] for _ in range(n + m)]
        for x in range(1, n + m):
            kids[parent[x]].append(x)
        order = [0]
        for x in order:
            order.extend(kids[x])
        for x in order[1:]:
            p = parent[x]
            pot[x] = pot[p] + cost[x, p - n] if x < n else pot[p] - cost[p, x - n]
            depth[x] = depth[p] + 1
        reduced = cost - pot[:n, None] + pot[None, n:]
        k, l = divmod(int(np.argmin(reduced)), m)
        if reduced[k, l] >= -tol:
            break
        # pivot cycle: entering arc k -> n+l, then the tree paths up to the apex
        side_k, side_l = [], []
        x, y = k, n + l
        while x != y:
            if depth[x] >= depth[y]:
                side_k.append(x)
                x = parent[x]
            else:
                side_l.append(y)
                y = parent[y]
        # flow falls on row arcs of the k side and column arcs of the l side;
        # walked from the apex, the k side comes first
        blocking = [x for x in reversed(side_k) if x < n] + [y for y in side_l if y >= n]
        theta, leave = math.inf, -1
        for x in blocking:
            if flow[x] <= theta:
                theta, leave = flow[x], x
        for x in side_k:
            flow[x] += theta if x >= n else -theta
        for y in side_l:
            flow[y] += theta if y < n else -theta
        # re-hang the cut-off subtree from the entering arc, reversing the
        # parent pointers on the path from its endpoint up to the leaving arc
        x, new_parent = (k, n + l) if leave in side_k else (n + l, k)
        new_flow = theta
        while True:
            old_parent, old_flow = parent[x], flow[x]
            parent[x], flow[x] = new_parent, new_flow
            if x == leave:
                break
            x, new_parent, new_flow = old_parent, x, old_flow
    pi = np.zeros(c.shape)
    child = np.arange(1, n + m)
    up = parent[1:]
    is_row = child < n
    pi[rows[np.where(is_row, child, up)], cols[np.where(is_row, up, child) - n]] = flow[1:]
    u = np.min(pot[None, n:] + c[:, cols], axis=1)
    u[rows] = pot[:n]
    v = np.max(u[:, None] - c, axis=0)
    v[cols] = pot[n:]
    return pi, u, v


def one_potential_best_lambda(chain: ReversibleChain, u: np.ndarray, extra=(), coarse=False):
    """``feynman_kac._best_lambda`` for one potential u, as it ran before rows.

    The reference for the lockstep rows: the grid is one stacked
    eigensolve, then a scalar golden search solves one lambda per step.
    Returns (ratio, lambda) as floats.
    """
    def dual_ratio(lam):
        return (lambda_max(chain, lam * u) - lam * chain.expectation(u)) / (lam * lam)

    base = np.logspace(-10, 6, 17, base=2.0) if coarse else _lambda_grid()
    extra = np.asarray(list(extra), dtype=float)
    grid = np.concatenate([base, extra[extra >= base[0]]])
    top = -_lowest_eigenpairs(chain, grid[:, None] * u)[:, 0]
    vals = (top - grid * chain.expectation(u)) / (grid * grid)
    k = np.argmax(vals)
    peak, lam = vals[k], grid[k]
    lam_best, best = _golden_max(dual_ratio, lam / 2.0, lam * 2.0, iters=12 if coarse else 40)
    return float(best if best > peak else peak), float(lam_best)
