import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from transinfo import catalog
from transinfo.chains import (
    Density,
    ReversibleChain,
    _apply_neg_generator,
    _frozen,
    _lowest_eigenpairs,
    _state_vector,
    build_chain,
    dirichlet_energy,
    fisher_information,
    lipschitz_norm,
    solve_invariant_measure,
    spectral_gap,
    tv_weighted,
)
from transinfo.cli import Outcome, write_json
from transinfo.diffusion1d import (_EPMACH, _UFLOW, _WG, _WGK, _XGK, QUAD_TOL, _broadcast,
                                   _panel_moments, _panel_quad, _quad, _speed, _speed_weights)
from transinfo.errors import (
    ConfigParse,
    DegenerateMeasure,
    DetailedBalanceViolated,
    ModelValidation,
    NotCertified,
    NotIrreducible,
    QuadratureFailure,
    SingularSystem,
)
from transinfo.feynman_kac import (
    DIVERGENCE_CAP,
    ROUNDOFF_COSTS,
    BestConstantReport,
    _lambda_grid,
    _lipschitz_candidates,
    _low_eigen_directions,
    _primal_ascents,
    _primal_starts,
    _ratios,
    fisher_information_raw,
    lambda_max,
    lambda_max_witness,
    linearization_probe,
    project_density,
)
from transinfo.lyapunov import (
    beta_potential_example,
    certify_H,
    drift_ratio,
    mminf_certificate,
    thm51_bounds,
)
from transinfo.transport import (
    CostMatrix,
    RateFunction,
    _exact_transport,
    _golden_max,
    _metric_transport,
    _staircase_potential,
    alpha_infconv,
    conditional_fisher_sum,
    tensor_subadditivity_check,
)
from transinfo.trivial_metric import ckp_extremal, ckp_gap

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
    output of the dense reference validator.  Its edges and band are built
    as a chain built them on first use before the validator handed them
    over: the reference for the validator's.
    """
    Q = np.asarray(Q, dtype=float)
    n = len(Q)
    mu = _frozen(np.array(mu, dtype=float))
    row, col = np.nonzero((Q != 0) & ~np.eye(n, dtype=bool))
    q, exit_rates = _frozen(Q[row, col]), _frozen(-np.diag(Q))
    pairs, slot = np.unique(np.minimum(row, col) * n + np.maximum(row, col), return_inverse=True)
    # flow[i, j] + flow[j, i] per pair; pairs whose flows sum to 0 carry no edge
    total = np.bincount(slot, weights=mu[row] * q, minlength=len(pairs))
    i, j = np.divmod(pairs[total != 0], n)
    w = _frozen(0.5 * total[total != 0])
    band = None
    if np.array_equal(i, np.arange(n - 1)) and np.array_equal(j, i + 1):
        band = exit_rates, _frozen(-w / np.sqrt(mu[:-1] * mu[1:]))
    return ReversibleChain(states=tuple(states), mu=mu,
                           rates=(_frozen(row), _frozen(col), q), exit_rates=exit_rates,
                           edges=(_frozen(i), _frozen(j), w), band=band)


def inferred_line_embedding(d: np.ndarray) -> np.ndarray | None:
    """Points s with d[i,j] = |s_i - s_j| and s increasing, or None.

    The O(n^2) inference a metric ran on its matrix before its constructor
    declared the embedding: s = d[0] when it increases strictly and
    |s_i - s_j| is within 1e-12 max(1, s[-1]) of every d[i,j].
    """
    s = d[0, :].copy()
    if np.any(np.diff(s) <= 0):
        return None
    if np.max(np.abs(np.abs(s[:, None] - s[None, :]) - d)) > 1e-12 * max(1.0, s[-1]):
        return None
    return _frozen(s)


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


def fk_norm_expm(chain: ReversibleChain, u: np.ndarray, t: float) -> float:
    """||P_t^u|| on L^2(mu) from the matrix exponential of t (Q + diag u); oracle for fk_norm."""
    from scipy.linalg import expm

    M = expm(t * (chain.Q + np.diag(u)))
    s = np.sqrt(chain.mu)
    return float(np.linalg.norm((s[:, None] * M) / s[None, :], 2))


def infconv_potential(d2: CostMatrix, v: np.ndarray) -> np.ndarray:
    """Qv(x) = min_y { v(y) + d^2(x, y) }, dense; oracle for Metric.inf_convolution."""
    v = np.asarray(v, dtype=float)
    return np.min(v[None, :] + d2.c, axis=1)


def supconv_potential(d2: CostMatrix, u: np.ndarray) -> np.ndarray:
    """Su(y) = max_x { u(x) - d^2(x, y) }, dense; oracle for Metric.sup_convolution."""
    u = np.asarray(u, dtype=float)
    return np.max(u[:, None] - d2.c, axis=0)


def marginal_residual(coupling) -> float:
    """The largest deviation of a coupling's row and column sums from (nu, mu)."""
    r0 = np.max(np.abs(coupling.pi.sum(axis=1) - coupling.nu))
    r1 = np.max(np.abs(coupling.pi.sum(axis=0) - coupling.mu))
    return float(max(r0, r1))


def random_density(chain: ReversibleChain, rng: np.random.Generator,
                   concentration: float = 1.0) -> np.ndarray:
    raw = rng.dirichlet(np.ones(chain.n) * concentration)
    f = raw / chain.mu
    return f / float(np.dot(chain.mu, f))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


@pytest.fixture
def no_draws(monkeypatch):
    """Make every sampler's path_streams fail, so an input check must come before any draw."""
    import importlib

    def fail(*args):
        raise AssertionError("drew paths for an invalid input")
    # the package exports functions of the modules' names, so fetch the modules
    for name in ("transinfo.simulate", "transinfo.trivial_metric"):
        monkeypatch.setattr(importlib.import_module(name), "path_streams", fail)


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


def w2_quantile_loop(grid: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> float:
    """``transport._w2_quantile`` as a loop over the merged quantile cells.

    The reference for the array form: two scalar ``searchsorted`` calls per
    cell, each cell's square taken on numpy scalars, summed in order.
    """
    cn = np.cumsum(nu)
    cm = np.cumsum(mu)
    q = np.union1d(cn, cm)
    q = q[q <= min(cn[-1], cm[-1]) + 1e-15]
    prev = 0.0
    total = 0.0
    for qk in q:
        seg = qk - prev
        if seg <= 0:
            continue
        # quantile of each marginal on (prev, qk]
        i = min(int(np.searchsorted(cn, prev + seg / 2)), len(grid) - 1)
        j = min(int(np.searchsorted(cm, prev + seg / 2)), len(grid) - 1)
        total += seg * (grid[i] - grid[j]) ** 2
        prev = qk
    return math.sqrt(max(total, 0.0))


def _one_metric_transport(d, power: int, nu: np.ndarray, mu: np.ndarray):
    """(value, dual value, potential) of d^power for one marginal pair, as
    ``transport._metric_transport`` computed them before it took rows."""
    nu, mu = np.clip(nu, 0.0, None), np.clip(mu, 0.0, None)
    emb = d.line_embedding
    if emb is not None and power == 1:
        gap = np.cumsum(nu - mu)[:-1]
        value = float(np.sum(np.abs(gap) * np.diff(emb)))
        return value, value, np.concatenate([[0.0], np.cumsum(-np.sign(gap) * np.diff(emb))])
    if emb is not None and power == 2 and np.all(nu > 0) and np.all(mu > 0):
        val = w2_quantile_loop(emb, nu, mu)
        return val * val, val * val, _staircase_potential(emb, nu, mu)
    _, value, dual_value, u = _exact_transport(d.d ** power, nu, mu)
    return value, dual_value, u


def _one_ratio_and_gradient(chain: ReversibleChain, d, f: np.ndarray, squared: bool):
    """(W^2 / (4 I), its gradient in f or None) for one density, from one solve."""
    info = dirichlet_energy(chain, np.sqrt(np.clip(f, 0.0, None)))
    value, dual, pot = _one_metric_transport(d, 2 if squared else 1, chain.mu * f, chain.mu)
    dist = math.sqrt(max(value, 0.0)) if squared else value
    floor = ROUNDOFF_COSTS * np.finfo(float).eps
    if dist <= (math.sqrt(floor) if squared else floor) * d.diameter:
        ratio = 0.0
    else:
        ratio = math.inf if info <= 0 else dist * dist / (4.0 * info)
    if info <= 1e-300:
        return ratio, None
    if squared:
        ddist2, dist2 = chain.mu * pot, dual
    else:
        ddist2, dist2 = chain.mu * (2.0 * dual * pot), dual * dual
    sq = np.sqrt(np.clip(f, 1e-13, None))
    dinfo = chain.mu * _apply_neg_generator(chain, sq) / sq
    return ratio, ddist2 / (4.0 * info) - dist2 * dinfo / (4.0 * info * info)


def sequential_primal_ascent(chain: ReversibleChain, d, f0: np.ndarray, squared: bool,
                             iters: int = 140, min_perturbation: float = 0.0):
    """``feynman_kac._primal_ascents`` for one start, run alone on 1-D arrays.

    The reference for the lockstep rows: every scored candidate is solved
    and its gradient built.  Returns (value, density, passes), where passes
    counts the loop passes begun before the ascent stopped (iters at the
    cap, 0 when the start itself ends it).
    """
    f = f0.copy()
    val, grad = _one_ratio_and_gradient(chain, d, f, squared)
    if math.isinf(val):
        return val, f, 0
    step = 0.25
    root_inv_mu = np.sqrt(1.0 / chain.mu)
    for k in range(iters):
        # a rejected step leaves f, and with it the gradient, unchanged
        if grad is None:
            return val, f, k + 1
        norm = float(np.linalg.norm(grad * root_inv_mu))
        if norm < 1e-14:
            return val, f, k + 1
        cand = project_density(chain.mu, f + step * grad / (chain.mu * norm), 1e-13)
        if min_perturbation > 0.0 and float(np.max(np.abs(cand - 1.0))) < min_perturbation:
            step *= 0.5
            if step < 1e-8:
                return val, f, k + 1
            continue
        cand_val, cand_grad = _one_ratio_and_gradient(chain, d, cand, squared)
        if math.isinf(cand_val):
            return cand_val, cand, k + 1
        if cand_val > val + 1e-15:
            f, val, grad = cand, cand_val, cand_grad
            step = min(step * 1.4, 50.0)
        else:
            step *= 0.5
            if step < 1e-8:
                return val, f, k + 1
    return val, f, iters


def _rows_best_lambda(chain: ReversibleChain, us, extra=(), coarse=False):
    """``feynman_kac._best_lambda`` on rows, one ``one_potential_best_lambda`` per row."""
    out = [one_potential_best_lambda(chain, np.asarray(u, dtype=float), extra, coarse)
           for u in us]
    return np.array([r for r, _ in out]), np.array([lam for _, lam in out])


def reference_best_w1i(chain: ReversibleChain, d, rounds: int = 3, primal_starts: int = 8,
                       seed: int = 17) -> BestConstantReport:
    """``feynman_kac.best_w1i`` as it ran before a search reused its eigensolves.

    The reference for the reuse: every round scores every candidate afresh,
    each one alone, and the full scan after the coarse prune rescores the
    coarse grid's lambdas.
    """
    rng = np.random.default_rng(seed)
    best_primal, best_f = 0.0, np.ones(chain.n)
    vals, fs = _primal_ascents(chain, d, _primal_starts(chain, rng, primal_starts), squared=False)
    for val, f in zip(vals.tolist(), fs):
        if val > best_primal:
            best_primal, best_f = val, f

    cands = _lipschitz_candidates(d, n_random=4, rng=rng)
    best_dual, best_u = 0.0, cands[0]
    for _ in range(rounds):
        extra_lams = []
        info = fisher_information_raw(chain, best_f)
        dist, _, pot = _metric_transport(d, 1, chain.mu * best_f, chain.mu)
        if info > 0 and dist > 0:
            cands.append(d.inf_convolution(pot))
            extra_lams.append(2.0 * info / dist)
        feasible = [u for u in cands if lipschitz_norm(d, u) <= 1.0 + 1e-9]
        if chain.n > 50:
            coarse = _rows_best_lambda(chain, feasible, extra=extra_lams, coarse=True)[0]
            scores = sorted(zip(coarse.tolist(), range(len(feasible))), reverse=True)
            feasible = [feasible[k] for _, k in scores[:4]]
        ratios, lams = _rows_best_lambda(chain, feasible, extra=extra_lams)
        seeds = []
        for u, ratio, lam_star in zip(feasible, ratios.tolist(), lams.tolist()):
            if ratio > best_dual:
                best_dual, best_u = ratio, np.asarray(u, dtype=float)
                seeds.append(lambda_max_witness(chain, lam_star * u)[1].f)
        if not seeds:
            break
        vals, fs = _primal_ascents(chain, d, seeds, squared=False, iters=120)
        for val, f in zip(vals.tolist(), fs):
            if val > best_primal:
                best_primal, best_f = val, f
    best_u = np.asarray(best_u, dtype=float)
    return BestConstantReport(
        c_dual=math.sqrt(max(best_dual, 0.0)),
        c_primal=math.sqrt(max(best_primal, 0.0)),
        witness_u=best_u - np.min(best_u),
        witness_density=best_f,
        diverged=bool(best_primal > DIVERGENCE_CAP),
    )


def reference_best_w2i(chain: ReversibleChain, d, rounds: int = 2, primal_starts: int = 8,
                       seed: int = 19) -> BestConstantReport:
    """``feynman_kac.best_w2i`` as it ran before a search kept its v candidates'
    theta roots: every round bisects every candidate afresh, 80 steps each."""
    rng = np.random.default_rng(seed)
    dirs = _low_eigen_directions(chain, 4)
    probe_rows = linearization_probe(chain, d, dirs)
    diverged = False
    g = dirs[0]
    eps = 0.5
    last = float(_ratios(chain, d, 1.0 + eps * g, True)[0][0])
    while not math.isinf(last) and last <= DIVERGENCE_CAP:
        eps *= 0.5
        ratio = float(_ratios(chain, d, 1.0 + eps * g, True)[0][0])
        if not math.isinf(ratio) and ratio < 1.5 * last:
            break
        last = ratio
    else:
        diverged = True
    if diverged:
        return BestConstantReport(
            c_dual=math.inf, c_primal=math.inf,
            witness_u=np.zeros(chain.n), witness_density=np.ones(chain.n),
            diverged=True, probe=tuple(probe_rows),
        )

    best_primal, best_f = 0.0, np.ones(chain.n)
    guard = 0.25
    vals, fs = _primal_ascents(chain, d, _primal_starts(chain, rng, primal_starts), squared=True,
                               min_perturbation=guard)
    for val, f in zip(vals.tolist(), fs):
        if not math.isinf(val) and val > best_primal:
            best_primal, best_f = val, f

    d2 = CostMatrix.from_metric(d, 2)
    v_cands = [d.d[:, x0] ** 2 for x0 in (range(chain.n) if chain.n <= 8 else
                                          rng.choice(chain.n, 8, replace=False))]
    for _ in range(3):
        v_cands.append(np.abs(rng.standard_normal(chain.n)) * d.diameter ** 2)
    best_dual = 0.0
    best_v = v_cands[0]
    for _ in range(rounds):
        dist2, _, pot = _metric_transport(d, 2, chain.mu * best_f, chain.mu)
        if fisher_information_raw(chain, best_f) > 0 and dist2 > 0:
            v_star = supconv_potential(d2, pot)
            v_cands.append(v_star - float(np.min(v_star)))
        improved = False
        for v in v_cands:
            c2 = reference_w2_dual_constant(chain, d2, v)
            if c2 > best_dual:
                best_dual, best_v = c2, v
                improved = True
        if not improved:
            break
        theta = 1.0 / (4.0 * best_dual) if best_dual > 0 else 1.0
        q = infconv_potential(d2, best_v)
        _, dens = lambda_max_witness(chain, theta * q)
        (val,), (f,) = _primal_ascents(chain, d, dens.f, squared=True, iters=120,
                                       min_perturbation=guard)
        if val > best_primal and not math.isinf(val):
            best_primal, best_f = val, f

    return BestConstantReport(
        c_dual=math.sqrt(max(best_dual, 0.0)),
        c_primal=math.sqrt(max(best_primal, 0.0)),
        witness_u=np.asarray(best_v, dtype=float),
        witness_density=best_f,
        diverged=False,
        probe=tuple(probe_rows),
    )


def reference_w2_dual_constant(chain: ReversibleChain, d2, v: np.ndarray) -> float:
    """``feynman_kac._w2_dual_constant`` with all 80 bisection steps, fixed point or not."""
    v = np.asarray(v, dtype=float)
    q = infconv_potential(d2, v)
    mv = chain.expectation(v)
    phi = lambda th: lambda_max(chain, th * q) - th * mv
    theta = 1e-6
    if phi(theta) > 1e-13 * max(1.0, abs(mv)):
        return math.inf
    hi = theta
    while phi(hi) <= 0.0:
        hi *= 2.0
        if hi > 1e15:
            return 0.0
    lo = hi / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if phi(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    theta_star = 0.5 * (lo + hi)
    return 1.0 / (4.0 * theta_star)


# ---------------------------------------------------------------------------
# One-row loops: the sampled-density scans as they ran before their row
# forms, one draw, one validation and one reduction per sample
# ---------------------------------------------------------------------------

def loop_validate(mu: np.ndarray, f: np.ndarray) -> np.ndarray:
    """``Density.validate`` of each row of f, stacked; raises at the first failing row."""
    return np.array([Density.validate(mu, row).f for row in f]).reshape(np.shape(f))


def loop_poincare_certificate(chain: ReversibleChain, c_p: float) -> None:
    """``spectral_gap``'s check of Var <= c_P E on 100 draws, one draw at a time."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        g = rng.standard_normal(chain.n)
        if chain.variance(g) > c_p * dirichlet_energy(chain, g) + 1e-9:
            raise SingularSystem("Poincare certificate failed; eigensolve inconsistent")


def loop_drift_info_bound_check(chain: ReversibleChain, U: np.ndarray, densities) -> float:
    """``lyapunov.drift_info_bound_check``, one density at a time."""
    ratio = drift_ratio(chain, U)
    worst = math.inf
    for f in densities:
        fv = f.f if isinstance(f, Density) else np.asarray(f, dtype=float)
        info = fisher_information(chain, Density.validate(chain.mu, fv))
        lhs = float(np.dot(chain.mu * fv, ratio))
        worst = min(worst, info - lhs)
    return worst


def loop_verify_thm51(chain: ReversibleChain, cert, density_samples):
    """``lyapunov.verify_thm51``, one density at a time."""
    if not cert.certified:
        raise NotCertified(f"certificate has violation {cert.max_violation:.3e}")
    _, c_p = spectral_gap(chain)
    phi_l2 = math.sqrt(float(np.dot(chain.mu, cert.phi ** 2)))
    rows = []
    worst = math.inf
    for idx, f in enumerate(density_samples):
        fv = f.f if isinstance(f, Density) else np.asarray(f, dtype=float)
        dens = Density.validate(chain.mu, fv)
        info = fisher_information(chain, dens)
        lhs1 = tv_weighted(chain, dens, cert.phi)
        lhs2 = tv_weighted(chain, dens, np.sqrt(cert.phi)) ** 2
        bound_a, bound_b = thm51_bounds(c_p, cert.b, phi_l2, 2.0, info)
        slack = min(bound_a - lhs1, bound_b - lhs2)
        worst = min(worst, slack)
        rows.append((idx, lhs1, bound_a, lhs2, bound_b, slack))
    return {"rows": rows, "worst_slack": float(worst),
            "passed": bool(worst >= -1e-8), "c_p": float(c_p), "phi_l2": phi_l2}


def loop_write_csv(path, header: list[str], rows: list[tuple]) -> None:
    """``cli.write_csv`` with a formatting call per value."""
    def fmt(x) -> str:
        if isinstance(x, float):
            return "{:.17g}".format(x)
        return str(x)

    lines = [",".join(header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def loop_run_ckp_scan(params, out_dir, seed: int, name: str) -> Outcome:
    """The CLI's ``ckp-scan`` kind, one draw per sample."""
    n = int(params.get("n", 6))
    count = int(params.get("count", 2000))
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n) * 2.0)
    worst = math.inf
    rows = []
    for k in range(count):
        f = rng.dirichlet(np.ones(n)) / mu
        f = f / float(np.dot(mu, f))
        tv2, four_var = ckp_gap(mu, f)
        worst = min(worst, four_var - tv2)
        if k < 200:
            rows.append((k, tv2, four_var, four_var - tv2))
    eq_gap = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        mu2 = np.array([p, 1.0 - p])
        f = ckp_extremal(p, mu2)
        tv2, four_var = ckp_gap(mu2, f)
        eq_gap = max(eq_gap, abs(tv2 - four_var))
    path = out_dir / f"{name}-scan.csv"
    loop_write_csv(path, ["sample", "tv_sq", "four_var", "gap"], rows)
    passed = worst >= -1e-12 and eq_gap <= 1e-10
    return Outcome(name, bool(passed),
                   {"worst_gap": worst, "extremal_equality_gap": eq_gap}, [path])


def loop_run_lyapunov(params, out_dir, seed: int, name: str) -> Outcome:
    """The CLI's ``lyapunov`` kind, one draw per sample, checked by ``loop_verify_thm51``."""
    model_name = params.get("model", "mminf")
    samples = int(params.get("samples", 200))
    rng = np.random.default_rng(seed)
    if model_name == "mminf":
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
    elif model_name == "beta-potential":
        model = beta_potential_example(float(params.get("beta", 2.0)))
        chain = model.chain
        cert = certify_H(chain, model.U, model.phi, model.b, exclude=(0, chain.n - 1))
    else:
        raise ConfigParse(f"unknown lyapunov model {model_name!r}")
    dens = []
    for _ in range(samples):
        raw = rng.dirichlet(np.ones(chain.n) * 0.8)
        f = raw / chain.mu
        dens.append(f / float(np.dot(chain.mu, f)))
    rep = loop_verify_thm51(chain, cert, dens)
    cert_path = out_dir / f"{name}-certificate.json"
    write_json(cert_path, cert.to_json_dict())
    rows_path = out_dir / f"{name}-verify.csv"
    loop_write_csv(rows_path, ["sample", "lhs_phi", "bound_phi", "lhs_sqrtphi_sq",
                               "bound_sqrtphi_sq", "slack"], rep["rows"])
    passed = cert.certified and rep["passed"]
    return Outcome(name, bool(passed),
                   {"max_violation": cert.max_violation,
                    "worst_slack": rep["worst_slack"]}, [cert_path, rows_path])


def loop_run_tensorize(params, out_dir, seed: int, name: str) -> Outcome:
    """The CLI's ``tensorize`` kind, one draw per sample."""
    count = int(params.get("count", 25))
    prod_model = catalog.load_example("product-3x3")
    prod, factors = prod_model["chain"], prod_model["factors"]
    rng = np.random.default_rng(seed)
    worst_fisher = 0.0
    for _ in range(count):
        raw = rng.dirichlet(np.ones(prod.n))
        f = raw / prod.mu
        f = f / float(np.dot(prod.mu, f))
        lhs = fisher_information(prod, Density.validate(prod.mu, f))
        rhs = conditional_fisher_sum(factors, (prod.mu * f))
        worst_fisher = max(worst_fisher, abs(lhs - rhs))
    c1 = CostMatrix.validate(np.array([[0., 1.], [1., 0.]]))
    worst_sub = 0.0
    for _ in range(count):
        nu = rng.dirichlet(np.ones(4)).reshape(2, 2)
        lhs, rhs = tensor_subadditivity_check([c1, c1], nu,
                                              [np.array([0.5, 0.5]), np.array([0.4, 0.6])])
        worst_sub = max(worst_sub, lhs - rhs)
    alpha = RateFunction.quadratic(1.3)
    grid = np.linspace(0.0, 4.0, 41)
    worst_inf = max(abs(alpha_infconv([alpha, alpha], float(r)) - 2.0 * alpha(r / 2.0))
                    for r in grid)
    path = out_dir / f"{name}-report.csv"
    loop_write_csv(path, ["fisher_additivity_gap", "subadditivity_excess", "infconv_gap"],
                   [(worst_fisher, worst_sub, worst_inf)])
    passed = worst_fisher <= 1e-8 and worst_sub <= 1e-9 and worst_inf <= 1e-10
    return Outcome(name, bool(passed),
                   {"fisher_gap": worst_fisher, "sub_excess": worst_sub,
                    "infconv_gap": worst_inf}, [path])


# ---------------------------------------------------------------------------
# Earlier forms of the band-chain and diffusion kernels, kept as oracles: the
# bincount -L g, the column-layout qk21 panels and C(rho)'s tail recurrences
# on numpy scalars, bit for bit, and normalize's nested speed mass to 4 ulp
# ---------------------------------------------------------------------------

def bincount_neg_generator(chain: ReversibleChain, g: np.ndarray) -> np.ndarray:
    """-L^sigma g by two bincounts over the edges, each row in its own block of bins."""
    i, j, w = chain.edges
    bins = np.arange(0, g.size, chain.n)[:, None]
    flux = (np.bincount((bins + i).ravel(), weights=(w * g[..., j]).ravel(), minlength=g.size)
            + np.bincount((bins + j).ravel(), weights=(w * g[..., i]).ravel(), minlength=g.size))
    return chain.exit_rates * g - flux.reshape(g.shape) / chain.mu


def column_panel_quad(fn, lo, hi) -> np.ndarray:
    """``_panel_quad`` with one row per panel: fn gets (panels, 21) points, (panels, 1) left ends."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    absc = hlgth[:, None] * _XGK
    with np.errstate(all="ignore"):
        f = fn(np.hstack([centr[:, None] - absc, centr[:, None] + absc, centr[:, None]]),
               lo[:, None])
        fv1, fv2, fc = f[:, :10], f[:, 10:20], f[:, 20]
        resg, resk = 0.0, _WGK[10] * fc
        resabs = np.abs(resk)
        for j in (*range(1, 10, 2), *range(0, 10, 2)):
            fsum = fv1[:, j] + fv2[:, j]
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * np.abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))
        result = resk * hlgth
        resabs, resasc = resabs * np.abs(hlgth), resasc * np.abs(hlgth)
        abserr = np.abs((resk - resg) * hlgth)
        scaled = (resasc != 0) & (abserr != 0)
        abserr = np.where(scaled, resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5),
                          abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                          np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
        settled = np.isfinite(result) & (
            ((abserr <= np.maximum(QUAD_TOL, QUAD_TOL * np.abs(result))) & (abserr != resasc))
            | (abserr == 0))
    for k in np.flatnonzero(~settled):
        result[k] = _quad(lambda z: float(fn(np.float64(z), lo[k])), lo[k], hi[k])
    return result.reshape(shape)


def numpy_scalar_c_rho(spec, rho, grid, corrected: bool = True) -> float:
    """``c_rho`` with its tail recurrences T and S run on numpy scalars and arrays.

    numpy's scalars warn where they overflow; the warning is off, so an
    overflow gives the inf of Python floats."""
    nodes = grid.nodes
    n = len(nodes)
    rho_slopes = _broadcast(rho.slope, nodes)
    B = _speed_weights(spec, nodes)[0]
    mass_p, moment_p = _panel_moments(spec, rho, nodes)
    shift = B[:-1] - np.max(B)
    mu_rho = float(np.sum(np.exp(shift) * moment_p)) / float(np.sum(np.exp(shift) * mass_p))
    centered_p = moment_p - mu_rho * mass_p
    T, S = np.zeros(n), np.zeros(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 2, -1, -1):
            T[i] = centered_p[i] + math.exp(min(B[i + 1] - B[i], 700.0)) * T[i + 1]
        for i in range(1, n):
            S[i] = math.exp(min(B[i - 1] - B[i], 700.0)) * (S[i - 1] - centered_p[i - 1])
        tails_scaled = np.where(np.arange(n) >= int(np.argmax(B)), T, S)
        vals = tails_scaled / rho_slopes if corrected else np.exp(B) * tails_scaled / rho_slopes
    return float(np.max(vals))


def nested_speed_mass(spec, grid) -> float:
    """``normalize``'s earlier Z: e^{B_k} times each panel's qk21 quadrature of
    m' relative to its left node, whose exponent is itself a qk21 quadrature."""
    nodes = grid.nodes
    B = _speed_weights(spec, nodes)[0]
    return float(np.dot(np.exp(B[:-1]), _panel_quad(_speed(spec), nodes[:-1], nodes[1:])))
