"""Transport costs, Kantorovich duality and the rate-function calculus.

The optimal-transport solver is a transportation network simplex on a
spanning tree of the bipartite transport graph; it ends on an exact
optimal vertex together with the tree's dual potentials.  The tree is
held in Python lists, and a pivot re-derives only the re-hung subtree, by
the same formula, so every potential keeps its bits.  The instances here
are small and the identities under test (duality, the half-TV formula for
the trivial metric) are exact, so entropic regularization would only
pollute the tolerance budgets.  Dual potentials are tightened by a
c-transform so the returned (u, v) are exactly feasible.

Metric costs d^p (W_1, W_2 off the line, and the potentials of the
best-constant searches) go through one entry, ``_metric_transport``, or
``_metric_transport_rows`` for one marginal per row: it checks the
marginals once, takes the closed form on line metrics, zero masses
included, and the simplex otherwise, and returns the value, the tightened
dual value and a Kantorovich potential from that one solve, since the
vertex that gives the value already carries the potentials.  A line
potential is built only when asked for.

Rate functions alpha: [0, inf) -> [0, inf] come in three parametric
flavors; their monotone conjugate sup_{r>=0} (lambda r - alpha(r)) and
inf-convolution inf{sum alpha_i(r_i) : r_i >= 0, sum r_i = r} are the
calculus needed by the tensorization statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import Density, Metric, ReversibleChain, _frozen, fisher_information
from .errors import (
    InfeasibleMarginals,
    ModelValidation,
    ProductTooLarge,
    UnsortedGrid,
)

MARGINAL_TOL = 1e-9
DUALITY_GAP_TOL = 1e-9


@dataclass(frozen=True)
class CostMatrix:
    """Nonnegative cost c(x, y); zero diagonal in the square aligned case."""

    c: np.ndarray

    @staticmethod
    def validate(c: np.ndarray, aligned: bool | None = None) -> "CostMatrix":
        c = np.asarray(c, dtype=float).copy()
        if c.ndim != 2:
            raise ModelValidation("cost must be a matrix")
        if not np.isfinite(c).all():
            raise ModelValidation("cost entries must be finite")
        if np.any(c < 0):
            raise ModelValidation("cost entries must be nonnegative")
        square = c.shape[0] == c.shape[1]
        if aligned is None:
            aligned = square
        if aligned and square and np.any(np.abs(np.diag(c)) > 1e-15):
            raise ModelValidation("aligned square cost must vanish on the diagonal")
        return CostMatrix(c=_frozen(c))

    @staticmethod
    def from_metric(d: Metric, power: int = 1) -> "CostMatrix":
        """d ** power, dense: d itself for power 1; an overflow stays inf, for the simplex."""
        if power == 1:
            return CostMatrix(c=d.d)
        with np.errstate(over="ignore"):
            return CostMatrix(c=_frozen(d.d ** power))


@dataclass(frozen=True)
class Coupling:
    """Feasible transport plan with marginals (nu, mu)."""

    pi: np.ndarray
    nu: np.ndarray
    mu: np.ndarray

    def to_csv(self, row_labels=None, col_labels=None) -> str:
        n, m = self.pi.shape
        rows = ["," + ",".join(col_labels or [str(j) for j in range(m)])]
        for i in range(n):
            lbl = (row_labels or [str(k) for k in range(n)])[i]
            rows.append(lbl + "," + ",".join(f"{v:.17g}" for v in self.pi[i]))
        return "\n".join(rows) + "\n"


def _check_marginals(nu: np.ndarray, mu: np.ndarray,
                     shape: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Checked marginals, with roundoff-sized negatives set to 0.

    nu may hold one marginal per row, each checked against mu; a NaN fails every clause.
    """
    nu, mu = np.asarray(nu, dtype=float), np.asarray(mu, dtype=float)
    if not (nu.min(initial=0.0) >= -1e-15 and mu.min(initial=0.0) >= -1e-15):
        raise InfeasibleMarginals("marginals must be nonnegative")
    mass = nu.sum(axis=-1)
    if not (abs(mass - mu.sum()) <= MARGINAL_TOL).all():
        raise InfeasibleMarginals(f"marginal masses differ: {mass!r} vs {mu.sum()!r}")
    if shape is not None and (nu.shape[-1], len(mu)) != tuple(shape):
        raise InfeasibleMarginals("marginal lengths do not match the cost shape")
    return np.maximum(nu, 0.0), np.maximum(mu, 0.0)


def _network_simplex(c: np.ndarray, nu: np.ndarray, mu: np.ndarray):
    """Optimal vertex pi of the transport polytope and its tree's row potentials u.

    Transportation network simplex (Ahuja, Magnanti & Orlin, *Network
    Flows*, ch. 11) on a spanning tree of the bipartite graph: nodes
    0..n-1 are the rows, n..n+m-1 the columns, row 0 is the root, and
    ``parent[x]``/``flow[x]`` describe the tree arc joining x to its parent.
    The tree stays strongly feasible: every zero-flow arc points toward
    the root.  The northwest-corner start has that property when a tie
    advances the row; leaving by the last blocking arc met from the apex
    keeps it (Cunningham 1976), so degenerate pivots cannot cycle.
    Entering arcs are priced by Dantzig's rule.

    The tree is held in Python lists.  A pivot re-derives the potentials
    and depths of the re-hung subtree only (ibid., section 11.3), top-down
    by the same pot[x] = pot[parent] +- c; every other node keeps its path
    to the root, so each potential keeps the bits of a full re-derivation.

    A zero-mass column has no strongly feasible place in a tree, so
    zero-mass rows and columns stay out of it; a zero-mass row's potential
    is the c-transform of the tree's column potentials.  The last row and
    column absorb the roundoff-sized mass imbalance the marginal check
    lets through.  A cost that is not finite, such as a d ** 2 that
    overflows, is rejected before the first pivot, and finite costs whose
    potentials overflow are rejected at the first NaN reduced cost: on
    either, the pivots would never end.
    """
    if not np.isfinite(c).all():
        raise ModelValidation("cost entries must be finite")
    supply, demand = nu.tolist(), mu.tolist()
    rows = [i for i, a in enumerate(supply) if a > 0]
    cols = [j for j, b in enumerate(demand) if b > 0]
    if not rows or not cols:
        return np.zeros(c.shape), np.zeros(c.shape[0])
    full = (len(rows), len(cols)) == c.shape
    cost = c if full else c[np.ix_(rows, cols)]
    supply, demand = [supply[i] for i in rows], [demand[j] for j in cols]
    n, m = cost.shape
    parent, flow = [0] * (n + m), [0.0] * (n + m)
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
    kids = [[] for _ in range(n + m)]
    for x in range(1, n + m):
        kids[parent[x]].append(x)
    pot, depth = [0.0] * (n + m), [0] * (n + m)
    stale = list(kids[0])                   # roots of the subtrees to re-derive
    item = cost.item
    with np.errstate(over="ignore", invalid="ignore"):   # the NaN check below names overflows
        while True:
            for x in stale:                     # grows as it goes: top-down
                p = parent[x]
                pot[x] = pot[p] + item(x, p - n) if x < n else pot[p] - item(p, x - n)
                depth[x] = depth[p] + 1
                stale.extend(kids[x])
            pots = np.array(pot)
            reduced = cost - pots[:n, None]
            reduced += pots[None, n:]
            enter = int(reduced.argmin())
            price = reduced.item(enter)         # NaN if any reduced cost is NaN
            if price >= -tol:
                break
            if math.isnan(price):
                raise ModelValidation("cost entries too large: the tree's potentials overflow")
            k, l = divmod(enter, m)
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
            stale, new_flow = [x], theta
            while True:
                old_parent, old_flow = parent[x], flow[x]
                kids[old_parent].remove(x)
                kids[new_parent].append(x)
                parent[x], flow[x] = new_parent, new_flow
                if x == leave:
                    break
                x, new_parent, new_flow = old_parent, x, old_flow
    pi = np.zeros(c.shape)
    for x in range(1, n + m):
        i, j = (x, parent[x] - n) if x < n else (parent[x], x - n)
        pi[rows[i], cols[j]] = flow[x]
    if full:      # the c-transform below would overwrite every entry
        return pi, pots[:n]
    u = (pots[None, n:] + c[:, cols]).min(axis=1)
    u[rows] = pots[:n]
    return pi, u


def ot_cost(c: CostMatrix, nu: np.ndarray, mu: np.ndarray) -> tuple[float, Coupling]:
    """Minimal coupling cost inf_pi sum c(x,y) pi(x,y) with marginals (nu, mu).

    The transportation simplex returns an exact vertex with its spanning
    tree's potentials; the duality gap against those potentials, tightened
    by a c-transform, must close below 1e-9.
    """
    nu, mu = _check_marginals(nu, mu, c.c.shape)
    pi, value, _, _ = _exact_transport(c.c, nu, mu)
    return value, Coupling(pi=pi, nu=nu, mu=mu)


def _exact_transport(c: np.ndarray, nu: np.ndarray, mu: np.ndarray):
    """(pi, value, tightened dual value, u) from one simplex vertex, gap-checked."""
    pi, u = _network_simplex(c, nu, mu)
    value = float((pi * c).sum())
    dual_value, u, _ = _dual_value(c, nu, mu, u)
    if abs(value - dual_value) > DUALITY_GAP_TOL * max(1.0, abs(value)):
        raise InfeasibleMarginals(f"duality gap {abs(value - dual_value):.3e} exceeds tolerance")
    return pi, value, dual_value, u


def _dual_value(c, nu, mu, u):
    # tighten by a c-transform: keeps feasibility exact and can only
    # increase the dual value toward the primal
    v = (u[:, None] - c).max(axis=0)
    u = (v[None, :] + c).min(axis=1)
    v = (u[:, None] - c).max(axis=0)
    return float(np.dot(u, nu) - np.dot(v, mu)), u, v


def kantorovich_dual(c: CostMatrix, nu: np.ndarray, mu: np.ndarray):
    """Dual value sup { <u, nu> - <v, mu> : u(x) - v(y) <= c(x,y) }."""
    nu, mu = _check_marginals(nu, mu, c.c.shape)
    _, u = _network_simplex(c.c, nu, mu)
    return _dual_value(c.c, nu, mu, u)


def _metric_transport(d: Metric, power: int, nu, mu) -> tuple[float, float, np.ndarray]:
    """(value, dual value, potential u) of the cost d^power from one solve.

    u maximizes <u, nu> - <u^c, mu> and is the gradient of nu -> value used
    by the best-constant ascents (defined up to an additive constant).
    Line metrics take the closed forms, zero masses included: W_1 through
    the cumulative gaps, W_2^2 through the quantile coupling and its
    monotone staircase, whose dual is optimal for the Monge cost (s_i -
    s_j)^2 whatever the masses (Hoffman 1963).  Their value is exact, so it
    is also returned as the dual value.  Every other metric runs the simplex
    on d^power with the c-transform tightening and the 1e-9 gap check of
    ``ot_cost``.
    """
    values, duals, potentials = _metric_transport_rows(d, power, np.asarray(nu)[None], mu)
    return float(values[0]), float(duals[0]), potentials([0])[0]


def _metric_transport_rows(d: Metric, power: int, nu, mu):
    """``_metric_transport`` for each row of nu: (values, dual values, potentials).

    ``potentials(rows)`` stacks the potentials of the listed rows.  The route
    is chosen once per call.  A line metric builds a potential only when
    asked for, so callers that need only values never build one: W_1 runs on
    all rows at once, W_2 row by row.  Any other metric solves each row by
    the simplex, which gives its potential; only that route reads the dense d.
    """
    nu, mu = _check_marginals(nu, mu, (d.n, d.n))
    emb = d.line_embedding
    if emb is not None and power == 1:
        steps = np.diff(emb)
        gap = (nu - mu).cumsum(axis=-1)[:, :-1]
        values = (np.abs(gap) * steps).sum(axis=-1)

        def potentials(rows):
            # <u, nu-mu> = -sum_k (u_{k+1}-u_k) cum_k by Abel summation; u_0 = 0
            u = np.zeros((len(rows), len(mu)))
            np.cumsum(-np.sign(gap[rows]) * steps, axis=-1, out=u[:, 1:])
            return u
        return values, values, potentials
    if emb is not None and power == 2:
        dist = np.array([_w2_quantile(emb, row, mu) for row in nu])
        values = duals = dist * dist
        potential = lambda r: _staircase_potential(emb, nu[r], mu)
    else:
        cost = CostMatrix.from_metric(d, power).c
        solves = [_exact_transport(cost, row, mu)[1:] for row in nu]
        values, duals = np.array([solve[:2] for solve in solves]).reshape(-1, 2).T
        potential = lambda r: solves[r][2]

    def potentials(rows):
        return np.array([potential(r) for r in rows], dtype=float).reshape(len(rows), len(mu))
    return values, duals, potentials


def w1(d: Metric, nu: np.ndarray, mu: np.ndarray) -> float:
    """L^1-Wasserstein distance: transport cost of the metric itself."""
    return _metric_transport(d, 1, nu, mu)[0]


def w2(d: Metric, nu: np.ndarray, mu: np.ndarray) -> float:
    """L^2-Wasserstein distance: sqrt of the quadratic-cost optimum."""
    emb = d.line_embedding
    if emb is not None:
        return w2_quantile_1d(emb, nu, mu)
    return math.sqrt(max(_metric_transport(d, 2, nu, mu)[0], 0.0))


def _staircase_potential(s: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> np.ndarray:
    n = len(s)
    cost = lambda i, j: (s[i] - s[j]) ** 2
    u, v = np.zeros(n), np.zeros(n)
    i = j = 0
    a, b = nu[0], mu[0]
    v[0] = -cost(0, 0)
    # walk the monotone coupling support; equality u_i - v_j = c_ij on cells
    while i < n - 1 or j < n - 1:
        if a < b - 1e-18 and i < n - 1 or j == n - 1:
            i += 1
            b -= a
            a = nu[i]
            u[i] = v[j] + cost(i, j)
        else:
            j += 1
            a -= b
            b = mu[j]
            v[j] = u[i] - cost(i, j)
    return u


def w2_quantile_1d(grid: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> float:
    """W_2 of two distributions on a common sorted grid via quantiles.

    The monotone (quantile) coupling is optimal for convex costs in 1-D;
    this is the route ``w2`` takes on line metrics.
    """
    grid = np.asarray(grid, dtype=float)
    if np.any(np.diff(grid) <= 0):
        raise UnsortedGrid("grid must be strictly increasing")
    nu, mu = _check_marginals(nu, mu, (len(grid), len(grid)))
    return _w2_quantile(grid, nu, mu)


def _w2_quantile(grid: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> float:
    """The quantile-coupling W_2 on a sorted grid, for marginals already checked.

    The merged CDF levels cut (0, 1] into cells; each cell's mass moves
    from nu's quantile at the cell's midpoint to mu's.  Each square is a
    scalar ``** 2`` (libm pow), since an array's x * x can differ from it
    in the last bit, and the cells are summed in order.
    """
    span = float(grid[-1] - grid[0])
    if not math.isfinite(span * span):
        raise ModelValidation(f"grid span {span!r} is too large for W_2: its square overflows")
    cn, cm = np.cumsum(nu), np.cumsum(mu)
    q = _sorted_union(cn, cm)
    q = q[(q > 0.0) & (q <= min(cn[-1], cm[-1]) + 1e-15)]
    prev = np.concatenate([[0.0], q[:-1]])
    seg = q - prev
    mid = prev + seg / 2
    last = len(grid) - 1
    move = (grid[np.minimum(np.searchsorted(cn, mid), last)]
            - grid[np.minimum(np.searchsorted(cm, mid), last)])
    sq = np.array([x ** 2 for x in move], dtype=float)
    total = np.cumsum(np.concatenate([[0.0], seg * sq]))[-1]
    return math.sqrt(max(total, 0.0))


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b)`` for arrays without NaN: the first of each run of equal values.

    ``np.unique``, which ``np.union1d`` calls, imports ``numpy.ma``."""
    q = np.sort(np.concatenate([a, b]))
    return q[np.concatenate([[True], q[1:] != q[:-1]])]


def tensor_cost(costs: list[CostMatrix]) -> CostMatrix:
    """Sum-cost on the row-major product space: (+c)(x,y) = sum c_i(x_i,y_i)."""
    sizes = [c.c.shape[0] for c in costs]
    for c in costs:
        if c.c.shape[0] != c.c.shape[1]:
            raise ModelValidation("tensor factors must be square")
    total = int(np.prod(sizes))
    if total * total > 10_000:
        raise ProductTooLarge(f"product space has {total}^2 cost entries")
    k = len(sizes)
    out = np.zeros(sizes + sizes)
    for i, c in enumerate(costs):
        shape = [1] * (2 * k)
        shape[i] = shape[k + i] = sizes[i]
        out = out + c.c.reshape(shape)
    return CostMatrix.validate(out.reshape(total, total))


# ---------------------------------------------------------------------------
# Rate functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    """Left-continuous increasing alpha with alpha(0) = 0.

    Variants:
      quadratic(c):    alpha(r) = r^2 / (4 c^2)
      power(kappa, p): alpha(r) = kappa [(1 + r^2)^{p/2} - 1]
      tabulated(...):  left-continuous step function on knots, +inf
                       beyond the last knot; params holds the table, so
                       equality and hash compare it
    """

    kind: str
    params: tuple = ()
    knots: np.ndarray | None = field(default=None, compare=False)
    values: np.ndarray | None = field(default=None, compare=False)

    @staticmethod
    def quadratic(c: float) -> "RateFunction":
        if c <= 0:
            raise ValueError("quadratic rate function needs c > 0")
        return RateFunction(kind="quadratic", params=(float(c),))

    @staticmethod
    def power(kappa: float, p: float) -> "RateFunction":
        if kappa <= 0 or p <= 1:
            raise ValueError("power rate function needs kappa > 0, p > 1")
        return RateFunction(kind="power", params=(float(kappa), float(p)))

    @staticmethod
    def tabulated(knots, values) -> "RateFunction":
        knots = np.array(knots, dtype=float)
        values = np.array(values, dtype=float)
        if knots.ndim != 1 or knots.shape != values.shape:
            raise ValueError(f"knots and values must be 1-D of one length, not shapes "
                             f"{knots.shape} and {values.shape}")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(values))):
            raise ValueError("knots and values must be finite")
        if knots.size == 0 or knots[0] != 0.0 or values[0] != 0.0:
            raise ValueError("tabulated rate function must start at (0, 0)")
        if np.any(np.diff(knots) <= 0) or np.any(np.diff(values) < 0):
            raise ValueError("knots must increase strictly, values non-decreasingly")
        table = (tuple(knots.tolist()), tuple(values.tolist()))
        return RateFunction(kind="tabulated", params=table, knots=knots, values=values)

    @property
    def convex(self) -> bool:
        return self.kind in ("quadratic", "power")

    def __call__(self, r: float) -> float:
        if r < 0:
            raise ValueError("rate functions are defined on r >= 0")
        if self.kind == "quadratic":
            (c,) = self.params
            return r * r / (4.0 * c * c)
        if self.kind == "power":
            kappa, p = self.params
            return kappa * ((1.0 + r * r) ** (p / 2.0) - 1.0)
        # left-continuous step: alpha(r) = values[k] for r in (knots[k-1], knots[k]]
        if r > self.knots[-1]:
            return math.inf
        k = int(np.searchsorted(self.knots, r, side="left"))
        return float(self.values[k])


def alpha_conjugate(alpha: RateFunction, lam: float) -> float:
    """Monotone conjugate alpha*(lambda) = sup_{r >= 0} (lambda r - alpha(r))."""
    if lam < 0:
        raise ValueError("monotone conjugate is defined for lambda >= 0")
    if lam == 0.0:
        return 0.0
    if alpha.kind == "quadratic":
        (c,) = alpha.params
        return c * c * lam * lam
    if alpha.kind == "tabulated":
        # sup on each step interval is attained at its right endpoint,
        # where left-continuity makes alpha equal the tabulated value
        return float(np.max(lam * alpha.knots - alpha.values))
    # power: objective lam*r - alpha(r) is concave; bracket then golden-section
    hi = 1.0
    while lam - _power_slope(alpha, hi) > 0:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    return _golden_max(lambda r: lam * r - alpha(r), 0.0, hi, iters=200, tol=1e-12)[1]


def _power_slope(alpha: RateFunction, r: float) -> float:
    kappa, p = alpha.params
    return kappa * p * r * (1.0 + r * r) ** (p / 2.0 - 1.0)


def _golden_max(fn, lo, hi, iters: int, tol: float = 0.0):
    """Golden-section search for the max of a unimodal fn on [lo, hi].

    Returns (midpoint of the final bracket, best value seen at its interior
    points); stops early once the bracket is below tol relative.  Array lo, hi
    run one search per row in lockstep for all iters steps, each row with the
    scalar arithmetic and branch; fn then maps all rows' points in one call.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    rows = np.ndim(lo) > 0
    pick = np.where if rows else (lambda keep, x, y: x if keep else y)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if not rows and b - a < tol * max(1.0, abs(a) + abs(b)):
            break
        keep = fc >= fd                     # the max lies in [a, d], else in [c, b]
        a, b, c, d = pick(keep, (a, d, d - invphi * (d - a), c), (c, b, d, c + invphi * (b - c)))
        new = fn(pick(keep, c, d))
        fc, fd = pick(keep, (new, fc), (fd, new))
    return 0.5 * (a + b), pick(fd > fc, fd, fc)


def alpha_infconv(alphas: list[RateFunction], r: float) -> float:
    """inf { sum_i alpha_i(r_i) : r_i >= 0, sum r_i = r }.

    Identical convex summands have the closed form n alpha(r/n); the
    numerical route is cyclic pairwise golden-section descent on the
    splitting simplex.  For convex alphas any local minimum is global,
    so the 16 multistarts only guard the tabulated variant.
    """
    if r < 0:
        raise ValueError("inf-convolution needs r >= 0")
    n = len(alphas)
    if n == 0:
        raise ValueError("need at least one rate function")
    if n == 1:
        return alphas[0](r)
    first = alphas[0]
    if all(a == first for a in alphas[1:]) and first.convex:
        return n * first(r / n)
    if r == 0.0:
        return float(sum(a(0.0) for a in alphas))

    rng = np.random.default_rng(11)
    best = math.inf
    for start in range(16):
        split = _pairwise_descent(alphas, np.full(n, r / n) if start == 0
                                  else r * rng.dirichlet(np.ones(n)), r)
        val = sum(a(x) for a, x in zip(alphas, split))
        best = min(best, val)
    return float(best)


def _pairwise_descent(alphas, split, r):
    n = len(alphas)
    split = split.copy()
    for _ in range(40):
        moved = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                mass = split[i] + split[j]
                if mass <= 0:
                    continue

                def pair_obj(x, i=i, j=j, mass=mass):
                    return alphas[i](x) + alphas[j](mass - x)

                xs = np.linspace(0.0, mass, 33)
                vals = [pair_obj(x) for x in xs]
                k = int(np.argmin(vals))
                x_best, _ = _golden_max(lambda x: -pair_obj(x), xs[max(0, k - 1)],
                                        xs[min(len(xs) - 1, k + 1)], iters=80)
                if pair_obj(x_best) <= min(vals):
                    moved += abs(split[i] - x_best)
                    split[i] = x_best
                    split[j] = mass - x_best
        if moved < 1e-14 * max(1.0, r):
            break
    return split


# ---------------------------------------------------------------------------
# Inf / sup convolution of potentials and tensorization checks
# ---------------------------------------------------------------------------

def tensor_subadditivity_check(costs: list[CostMatrix], nu_joint: np.ndarray,
                               mus: list[np.ndarray]) -> tuple[float, float]:
    """Sum-cost transport against the conditional decomposition.

    Checks T_{+c}(mu, nu) <= E^nu [ T_{c1}(mu_1, nu(.|x2)) + T_{c2}(mu_2, nu(.|x1)) ]
    for a two-factor product; returns (lhs, rhs).
    """
    if len(costs) != 2 or len(mus) != 2:
        raise ModelValidation("subadditivity check is implemented for two factors")
    n1, n2 = costs[0].c.shape[0], costs[1].c.shape[0]
    if n1 > 4 or n2 > 4:
        raise ProductTooLarge("factors must have at most 4 states")
    nu = np.asarray(nu_joint, dtype=float).reshape(n1, n2)
    mu1, mu2 = np.asarray(mus[0], dtype=float), np.asarray(mus[1], dtype=float)
    mu_prod = np.outer(mu1, mu2)

    big = tensor_cost(costs)
    lhs, _ = ot_cost(big, mu_prod.ravel(), nu.ravel())

    # factor 1 against nu(. | x2) for each column x2, then factor 2 against nu(. | x1)
    rhs = 0.0
    for cost, mu_k, marg, slices in ((costs[0], mu1, nu.sum(axis=0), nu.T),
                                     (costs[1], mu2, nu.sum(axis=1), nu)):
        for mass, joint in zip(marg, slices):
            if mass <= 0:
                continue
            val, _ = ot_cost(cost, mu_k, joint / mass)
            rhs += mass * val
    if lhs > rhs + 1e-9:
        raise AssertionError(f"subadditivity violated: {lhs} > {rhs}")
    return float(lhs), float(rhs)


def conditional_fisher_sum(chains: list[ReversibleChain], nu_joint: np.ndarray) -> float:
    """E^nu sum_i I_i(nu_i | mu_i) with nu_i the conditional of x_i given the rest.

    Companion of the additivity identity for the product-chain information;
    implemented for two factors.
    """
    if len(chains) != 2:
        raise ModelValidation("conditional decomposition implemented for two factors")
    c1, c2 = chains
    nu = np.asarray(nu_joint, dtype=float).reshape(c1.n, c2.n)
    total = 0.0
    for chain, marg, slices in ((c1, nu.sum(axis=0), nu.T), (c2, nu.sum(axis=1), nu)):
        for mass, joint in zip(marg, slices):
            if mass <= 0:
                continue
            f = (joint / mass) / chain.mu
            total += mass * fisher_information(chain, Density.validate(chain.mu, f))
    return float(total)
