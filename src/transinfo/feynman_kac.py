"""Feynman-Kac growth rates and best-constant searches.

The weighted semigroup P_t^u g = E^x[ g(X_t) exp(int_0^t u(X_s) ds) ]
grows in L^2(mu) at the rate

    Lambda(u) = sup { <u, g^2>_mu - E(g, g) : mu(g^2) = 1 },

the top eigenvalue of L^sigma + diag(u) as a self-adjoint operator in
L^2(mu).  For reversible chains ||P_t^u|| = exp(t Lambda(u)) exactly;
the tests cross-check that against the matrix exponential.

Lambda(lambda u) is also the convex conjugate of the information rate
nu -> I(nu | mu) along the observable u; ``legendre_of_info`` recomputes
that supremum by concave ascent over densities, deliberately independent
of the eigensolver, and stops once a Frank-Wolfe gap certifies it to
1e-6 relative.  Independent small problems are solved as one array
problem: the Legendre ascent runs its multistarts in lockstep as rows, and
so do the primal ascents of a best-constant search; a lambda search scores
its grid with one stacked eigensolve, and a dual round runs its
candidates' searches in lockstep, one stacked solve per golden step.
A search solves each eigenproblem once: ``best_w1i`` keeps Lambda(lambda u)
for one call, by the candidate's bytes and lambda's bits, so later rounds
and the full scan after the coarse prune solve only pairs not yet seen;
``best_w2i`` keeps each v candidate's constant across rounds, and its theta
bisection stops at its first fixed step.  No bit can move: lambda u is a
function of those bytes and bits, a row's eigenvalue does not depend on
its stack, and every step after a fixed one would repeat it.

Best constants: mu satisfies W_1 I(c) when W_1(nu, mu)^2 <= 4 c^2
I(nu | mu) for all nu, equivalently Lambda(lambda u) <= lambda mu(u) +
c^2 lambda^2 for every 1-Lipschitz u and lambda >= 0.  The primal and
dual searches bound the same supremum from below and are cross-fed:
the Kantorovich potential of the primal witness enters the dual
candidate set (with its analytically optimal lambda = 2 I / W_1), and
the eigen-density of the best dual pair re-seeds the primal, so the
reported dual/primal gap measures optimizer quality only.  The ascent
solves each candidate density once: that transport solve gives the ratio
(from the primal value) and, from the same simplex vertex under the same
1e-9 gap check, the potential behind the gradient.  Only an accepted
candidate builds its gradient, which drives the next step; a rejected
step reuses the gradient already held.  Each dual round likewise takes W
and the witness potential from one solve.  W_2 I gets an extra linearization
probe nu_eps = (1 + eps g) mu, which turns "no finite constant" into a
measurable 1/eps slope.  A density whose transport value lies within
ROUNDOFF_COSTS * eps of zero, in units of the largest cost, scores 0:
such a value is the roundoff of a mass-1 marginal, not a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import (
    Density,
    Metric,
    ReversibleChain,
    _apply_neg_generator,
    _lowest_eigenpairs,
    _state_vector,
    dirichlet_energy,
    lipschitz_norm,
    min_nan,
    relative_entropy,
)
from .errors import HorizonOverflow, ModelValidation, PhiConstraintViolated
from .transport import (
    RateFunction,
    _golden_max,
    _metric_transport,
    _metric_transport_rows,
    alpha_conjugate,
)

DIVERGENCE_CAP = 1e6
# A mass-1 marginal carries absolute error of order eps, so a transport value
# W_1 (or W_2^2) within ROUNDOFF_COSTS * eps of zero, in units of the largest
# cost, is roundoff: on a 41-state queue the W_1 ascent otherwise reached
# W_1 = 1.9e-16 with I = 3.2e-32 and reported their ratio.
ROUNDOFF_COSTS = 16
ROUNDOFF_FLOOR = ROUNDOFF_COSTS * float(np.finfo(float).eps)
LEGENDRE_GAP = 1e-6    # over max(1, |value|); a gap is linear in the miss, so stalls near 1e-7


@dataclass(frozen=True)
class PhiPair:
    """Observable pair (u, v) with u <= v, the membership constraint of a Phi class."""

    u: np.ndarray
    v: np.ndarray

    @staticmethod
    def validate(u, v) -> "PhiPair":
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if np.any(u > v + 1e-12):
            raise PhiConstraintViolated("pair violates u <= v")
        return PhiPair(u=u, v=v)


def lambda_max(chain: ReversibleChain, u: np.ndarray) -> float:
    """Top L^2(mu) eigenvalue of L^sigma + diag(u)."""
    return -float(_lowest_eigenpairs(chain, u)[0])


def lambda_max_witness(chain: ReversibleChain, u: np.ndarray):
    """(Lambda(u), maximizing density f = g^2) from the principal eigenvector."""
    w, V = _lowest_eigenpairs(chain, u, vectors=True)
    g = np.abs(V[:, 0]) / np.sqrt(chain.mu)  # Perron eigenvector is signless
    f = g * g
    f /= float(np.dot(chain.mu, f))
    return -float(w[0]), Density.validate(chain.mu, f)


def fk_norm(chain: ReversibleChain, u: np.ndarray, t: float) -> float:
    """||P_t^u|| on L^2(mu) = exp(t Lambda(u)), from the spectrum."""
    if t < 0:
        raise ModelValidation("t must be nonnegative")
    lam = lambda_max(chain, u)
    if t * lam > 700:
        raise HorizonOverflow(f"t * Lambda = {t * lam:.3g} would overflow")
    return math.exp(t * lam)


# ---------------------------------------------------------------------------
# Density-space Legendre oracle
# ---------------------------------------------------------------------------

def fisher_information_raw(chain: ReversibleChain, f: np.ndarray):
    """E(sqrt f, sqrt f) without the Density mass check (optimizer internals)."""
    return dirichlet_energy(chain, np.sqrt(np.maximum(f, 0.0)))


def legendre_of_info(chain: ReversibleChain, u: np.ndarray, lam: float,
                     multistarts: int = 32, iters: int = 400, seed: int = 5) -> float:
    """sup_nu { lambda nu(u) - I(nu | mu) } by projected ascent on densities.

    The objective f -> lambda <u, f mu> - I(f mu | mu) is concave (the
    information is convex in f), so projected gradient ascent converges
    globally; multistarts hedge against the simplex boundary, where the
    gradient degenerates.  By concavity a row's value plus its Frank-Wolfe
    gap max_x g_x - mu(g f), g the gradient, bounds the supremum: once one
    row's gap is at most LEGENDRE_GAP * max(1, |value|), the ascent stops
    within that of it.  A run that no row certifies ends on its step rule
    or iteration cap, with no bound on its miss.  Agreement with
    lambda_max(lam * u) measures pure optimizer quality.
    """
    return float(np.max(_legendre_values(chain, u, lam, multistarts, iters, seed)))


def _legendre_values(chain, u, lam, multistarts, iters, seed):
    """Each multistart's ascent value; the starts run in lockstep as rows.

    Row 0 starts at f = 1, the others at Dirichlet draws.  Each row keeps
    its own step and accept rule, and leaves once its step is below 1e-12;
    all stop once one row's gap certifies its value.
    """
    u = _state_vector(chain, u)
    if not (math.isfinite(lam) and np.isfinite(u).all()):
        raise ModelValidation("array must not contain infs or NaNs")
    if multistarts < 1:
        raise ModelValidation("multistarts must be at least 1")
    rng = np.random.default_rng(seed)
    f = np.ones((multistarts, chain.n))
    f[1:] = rng.dirichlet(np.ones(chain.n), size=multistarts - 1) / chain.mu
    f[1:] /= (f[1:] @ chain.mu)[:, None]
    floor, step = 1e-13, np.full(multistarts, 0.5)
    val = _legendre_objective(chain, u, lam, f)
    out, live, lam_u = val.copy(), np.arange(multistarts), lam * u
    for _ in range(iters):
        sq = np.sqrt(np.maximum(f, floor))
        grad = lam_u - _apply_neg_generator(chain, sq) / sq
        gap = grad.max(axis=1) - (grad * f) @ chain.mu     # sup <= val + gap, by concavity
        if any((gap <= LEGENDRE_GAP * np.maximum(1.0, abs(val))).tolist()):
            break
        cand = project_density(chain.mu, f + step[:, None] * grad, floor)
        cand_val = _legendre_objective(chain, u, lam, cand)
        up = cand_val > val + 1e-15
        f, val = np.where(up[:, None], cand, f), np.where(up, cand_val, val)
        step = np.where(up, np.minimum(step * 1.3, 1e3), step * 0.4)
        keep = step >= 1e-12
        if not all(keep.tolist()):
            out[live] = val
            f, val, step, live = f[keep], val[keep], step[keep], live[keep]
            if not len(live):
                break
    out[live] = val
    return out


def _legendre_objective(chain, u, lam, f):
    """lambda <u, f mu> - I(f mu | mu) for each row f."""
    i, j, w = chain.edges
    sq = np.sqrt(np.maximum(f, 0.0))
    diff = sq[:, j] - sq[:, i]
    return lam * ((u * f) @ chain.mu) - (diff * diff) @ w


def project_density(mu, y, floor=0.0):
    """mu-weighted Euclidean projection onto {f >= floor, sum mu f = 1}.

    The projection is f = max(y - theta, floor) with theta fixed by the
    mass constraint; sorting y makes the active set a prefix, so theta is
    exact from cumulative sums (a bisection on theta over the bracket
    1/min mu loses all precision once mu reaches 1e-30).  Projects along
    the last axis of y, each row as if alone.
    """
    mu = np.asarray(mu, dtype=float)
    y = np.asarray(y, dtype=float)
    start = np.arange(0, y.size, y.shape[-1]).reshape(y.shape[:-1] + (1,))  # rows in y.ravel()
    order = (-y).argsort(axis=-1, kind="stable")
    ys, ms = y.ravel()[start + order], mu[order]
    mass = ms.cumsum(axis=-1)
    # theta_k makes the k+1 largest entries active: sum_{i<=k} m_i (y_i - theta) +
    # floor * (rest of the mass) = 1; the true active set is the longest
    # prefix whose last entry still clears the floor
    excess = 1.0 - floor * (mass[..., -1:] - mass)
    theta = ((ms * ys).cumsum(axis=-1) - excess) / mass
    k = (ys - theta > floor).sum(axis=-1, keepdims=True) - 1
    return np.maximum(y - theta.ravel()[start + np.maximum(k, 0)], floor)


# ---------------------------------------------------------------------------
# Dual verification of T_Phi I
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TphiDualReport:
    rows: tuple          # (pair_index, lambda, slack)
    worst_slack: float
    passed: bool


def verify_tphi_dual(chain: ReversibleChain, pairs: list[PhiPair], alpha: RateFunction,
                     lambda_grid: np.ndarray) -> TphiDualReport:
    """Check Lambda(lambda u) <= lambda mu(v) + alpha*(lambda) on a lambda grid."""
    rows = []
    worst = math.inf
    for idx, pair in enumerate(pairs):
        PhiPair.validate(pair.u, pair.v)
        for lam in np.asarray(lambda_grid, dtype=float):
            lhs = lambda_max(chain, lam * pair.u)
            rhs = lam * chain.expectation(pair.v) + alpha_conjugate(alpha, float(lam))
            if math.isinf(rhs):
                continue
            slack = rhs - lhs
            worst = min_nan(worst, slack)
            rows.append((idx, float(lam), float(slack)))
    return TphiDualReport(rows=tuple(rows), worst_slack=float(worst),
                          passed=bool(worst >= -1e-8))


# ---------------------------------------------------------------------------
# Best-constant searches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestConstantReport:
    c_dual: float
    c_primal: float
    witness_u: np.ndarray
    witness_density: np.ndarray
    diverged: bool
    probe: tuple = field(default=())   # ((eps, ratio), ...) for the W2 linearization


def _lambda_grid() -> np.ndarray:
    return np.logspace(-10, 6, 49, base=2.0)


def _dual_ratios(chain, rows, lams, known):
    """(Lambda(lam u_r) - lam mu(u_r)) / lam^2 for each row u_r, at each of lams
    or, for a 2-D lams, at row r of lams.

    ``rows`` is (u, means): the potentials as one array and each one's mean,
    a column.  ``known[r]`` maps lambda's bits to Lambda(lam u_r); the pairs
    not in it yet, each once, go to one stacked eigensolve and are added.
    lam * u_r is a function of those bits alone, and a row's solve does not
    depend on the stack it is in, so a stored Lambda is the one a new solve
    would return.
    """
    u, mean = rows
    bits = lams.view(np.int64).tolist()
    bits = bits if lams.ndim == 2 else [bits] * len(u)     # each row's lambdas
    todo = []
    for r, (seen, row_bits) in enumerate(zip(known, bits)):
        for k, b in enumerate(row_bits):
            if b not in seen:
                seen[b] = None      # solved below, once
                todo.append((seen, b, r, k))
    if todo:
        dicts, keys, r, k = zip(*todo)
        tops = -_lowest_eigenpairs(chain, (lams[..., None] * u[:, None, :])[r, k])[:, 0]
        for seen, b, top in zip(dicts, keys, tops.tolist()):
            seen[b] = top
    top = [[seen[b] for b in row_bits] for seen, row_bits in zip(known, bits)]
    return (np.array(top) - lams * mean) / (lams * lams)


def _best_lambda(chain, u, extra=(), coarse=False, solved=None):
    """max over lambda > 0 of (Lambda(lambda u) - lambda mu(u)) / lambda^2, per row.

    u holds one potential per row (an array or a sequence of them); returns
    arrays of (ratio, lambda), from one stacked solve for all grids and one
    per lockstep golden step.  ``solved`` is the search's store of Lambda by
    row bytes, then lambda bits (a new one by default): a pair that it holds
    is not solved again.  The grid and every golden step reuse one row
    state, built once: the rows, their entries in the store, and each mean,
    taken from the potential as given (a strided dot product rounds
    differently from a copy's).  An extra lambda below the grid's floor
    2^-10 is not scored: there the ratio divides the roundoff of Lambda by
    lambda^2 (at lambda = 1e-16 it read 4e16 on a 41-state chain).
    """
    solved = {} if solved is None else solved
    rows = np.array(u, dtype=float)
    known = [solved.setdefault(row.tobytes(), {}) for row in rows]
    rows = rows, np.array([[chain.expectation(row)] for row in u])
    base = np.logspace(-10, 6, 17, base=2.0) if coarse else _lambda_grid()
    extra = np.asarray(list(extra), dtype=float)
    grid = np.concatenate([base, extra[extra >= base[0]]])
    vals = _dual_ratios(chain, rows, grid, known)
    k = np.argmax(vals, axis=-1)
    peak, lam = vals[np.arange(len(k)), k], grid[k]
    lam_best, best = _golden_max(lambda x: _dual_ratios(chain, rows, x[:, None], known)[:, 0],
                                 lam / 2.0, lam * 2.0, iters=12 if coarse else 40)
    return np.where(best > peak, best, peak), lam_best


def _lipschitz_candidates(d: Metric, n_random: int, rng) -> list[np.ndarray]:
    """d(., x0) and -d(., x0) for 8 base points x0 (all, up to 8 states), then McShane
    regularizations of uniform noise.

    The d(., x0) are the strided columns of one C-ordered (n, k) block.  np.dot
    runs BLAS's strided loop on any non-unit stride, so each keeps the bits it
    has as a column of the n x n d; a contiguous copy would not.  The noise
    spans [-diameter, diameter], so a diameter whose double overflows is
    rejected before any draw.
    """
    n, scale = d.n, d.diameter
    if not math.isfinite(scale + scale):
        raise ModelValidation(f"metric diameter {scale!r} is too large for the McShane "
                              f"candidates: the noise range 2 * diameter overflows")
    base_points = np.arange(n) if n <= 8 else rng.choice(n, size=8, replace=False)
    columns = d.block(slice(None), base_points).T
    cands = list(columns)
    cands += [-col for col in columns]
    for _ in range(n_random):
        cands.append(d.inf_convolution(rng.uniform(-scale, scale, size=n)))
    return cands


def _ratios(chain, d, f, squared):
    """W^2 / (4 I) for each row nu = f mu, and what its gradient needs.

    Returns (ratios, infos, dual values, potentials), with ``potentials``
    as from ``_metric_transport_rows``.  The ratio comes from the primal
    value: +inf when I vanishes with W > 0, and 0 when the transport value
    is at the roundoff floor ROUNDOFF_COSTS * eps * max cost, which on W_2
    reads sqrt(ROUNDOFF_COSTS * eps) * diameter.  Each row's I is
    ``fisher_information_raw`` of that row, bit for bit.
    """
    f = np.asarray(f, dtype=float).reshape(-1, chain.n)
    infos = fisher_information_raw(chain, f)
    values, duals, potentials = _metric_transport_rows(d, 2 if squared else 1,
                                                       chain.mu * f, chain.mu)
    cut = (math.sqrt(ROUNDOFF_FLOOR) if squared else ROUNDOFF_FLOOR) * d.diameter
    dists = [math.sqrt(max(v, 0.0)) for v in values.tolist()] if squared else values.tolist()
    ratios = [0.0 if dist <= cut else math.inf if info <= 0 else dist * dist / (4.0 * info)
              for dist, info in zip(dists, infos.tolist())]
    return np.array(ratios), infos, duals, potentials


def _gradients(chain, f, squared, infos, duals, pots):
    """Gradient in f of W^2 / (4 I) for each row f, from its I, dual value and potential."""
    info, dual = infos[:, None], duals[:, None]
    if squared:
        ddist2, dist2 = chain.mu * pots, dual
    else:
        ddist2, dist2 = chain.mu * (2.0 * dual * pots), dual * dual
    sq = np.sqrt(np.maximum(f, 1e-13))
    dinfo = chain.mu * _apply_neg_generator(chain, sq) / sq
    four_info = 4.0 * info
    return ddist2 / four_info - dist2 * dinfo / (four_info * info)


def _primal_ascents(chain, d, f0, squared, iters=140, min_perturbation=0.0):
    """Projected ascents of W^2 / (4 I), one per row of f0, run in lockstep.

    Returns each row's (value, density).  The projections, transport solves
    and gradients of all rows go in one call each.  As in ``_legendre_values``,
    the live rows' densities, gradients, values, steps and gradient norms are
    arrays; every row keeps its own step, accept rule and stops, and leaves
    them all by one keep mask: at a vanishing I or gradient, at a step below
    1e-8, or at an infinite ratio, which it returns with the density that
    reached it.  A rejected step leaves f, and with it the gradient,
    unchanged, so only accepted candidates build a gradient.  With
    min_perturbation > 0, a candidate within it of f = 1 in sup norm is not
    scored and counts as rejected; see best_w2i.
    """
    f = np.array(f0, dtype=float).reshape(-1, chain.n)
    val, infos, duals, potentials = _ratios(chain, d, f, squared)
    out_val, out_f = val.copy(), f.copy()
    live = (~np.isinf(val) & ~(infos <= 1e-300)).nonzero()[0]
    if not len(live):
        return out_val, out_f
    root_inv_mu = np.sqrt(1.0 / chain.mu)

    def norms(grad):
        # each row's own dot product, as np.linalg.norm takes it
        scaled = grad * root_inv_mu
        return np.sqrt(np.vecdot(scaled, scaled))

    f, val, step = f[live], val[live], np.full(len(live), 0.25)
    grad = _gradients(chain, f, squared, infos[live], duals[live], potentials(live))
    norm = norms(grad)
    keep = ~(norm < 1e-14)
    for _ in range(iters):
        if not all(keep.tolist()):      # Python's all: one numpy call fewer per pass
            out_val[live], out_f[live] = val, f
            live, f, grad, val, step, norm = (a[keep] for a in (live, f, grad, val, step, norm))
            if not len(live):
                break
        cand = project_density(chain.mu, f + step[:, None] * grad / (chain.mu * norm[:, None]),
                               1e-13)
        if min_perturbation > 0.0:
            # a candidate the guard keeps from being scored gets a NaN value, which rejects it
            scored = (~(np.abs(cand - 1.0).max(axis=-1) < min_perturbation)).nonzero()[0]
            cand_val, info = np.full((2, len(live)), np.nan)
            cand_val[scored], info[scored], duals, potentials = _ratios(chain, d, cand[scored],
                                                                        squared)
        else:
            scored = slice(None)
            cand_val, info, duals, potentials = _ratios(chain, d, cand, squared)
        inf = np.isinf(cand_val)
        up = inf | (cand_val > val + 1e-15)
        f, val = np.where(up[:, None], cand, f), np.where(up, cand_val, val)
        step = np.minimum(step * np.where(up, 1.4, 0.5), 50.0)
        grown = up & ~(inf | (info <= 1e-300))
        if any(grown.tolist()):
            pos = grown[scored].nonzero()[0]        # among the scored rows
            new = _gradients(chain, f[grown], squared, info[grown], duals[pos], potentials(pos))
            grad[grown], norm[grown] = new, norms(new)
        keep = np.where(up, grown & ~(norm < 1e-14), step >= 1e-8)
    out_val[live], out_f[live] = val, f
    return out_val, out_f


def _low_eigen_directions(chain, count):
    """Sup-normalized low nontrivial eigenvectors of -L^sigma.

    These are the smooth perturbation directions; white-noise directions
    would oscillate at the grid scale and probe discreteness instead of
    the measure.
    """
    _, V = _lowest_eigenpairs(chain, count=count + 1, vectors=True)
    return [g / max(float(np.max(np.abs(g))), 1e-300) for g in V[:, 1:].T / np.sqrt(chain.mu)]


def _primal_starts(chain, rng, count):
    out = []
    g = _low_eigen_directions(chain, 1)[0]      # the gap direction
    for k in range(count):
        if k == 0:
            f = project_density(chain.mu, 1.0 + 0.5 * g, 1e-13)
        elif k == 1:
            f = project_density(chain.mu, 1.0 - 0.5 * g, 1e-13)
        elif k == 2 and chain.n <= 16:
            # near-boundary start: most mass on one state
            f = np.full(chain.n, 0.05)
            f[int(rng.integers(chain.n))] = 1.0
            f = project_density(chain.mu, f / float(np.dot(chain.mu, f)), 1e-13)
        else:
            raw = rng.dirichlet(np.ones(chain.n) * rng.uniform(0.3, 3.0))
            f = project_density(chain.mu, raw / chain.mu, 1e-13)
        out.append(f)
    return out


def best_w1i(chain: ReversibleChain, d: Metric, rounds: int = 3,
             primal_starts: int = 8, seed: int = 17) -> BestConstantReport:
    """Best constant in W_1(nu, mu)^2 <= 4 c^2 I(nu | mu)."""
    rng = np.random.default_rng(seed)
    best_primal, best_f = 0.0, np.ones(chain.n)
    vals, fs = _primal_ascents(chain, d, _primal_starts(chain, rng, primal_starts), squared=False)
    for val, f in zip(vals.tolist(), fs):
        if val > best_primal:
            best_primal, best_f = val, f

    cands = _lipschitz_candidates(d, n_random=4, rng=rng)
    best_dual, best_u = 0.0, cands[0]
    solved = {}     # this search's Lambda(lambda u), see _dual_ratios
    for _ in range(rounds):
        extra_lams = []
        info = fisher_information_raw(chain, best_f)
        dist, _, pot = _metric_transport(d, 1, chain.mu * best_f, chain.mu)
        if info > 0 and dist > 0:
            cands.append(d.inf_convolution(pot))
            extra_lams.append(2.0 * info / dist)
        feasible = [u for u in cands if lipschitz_norm(d, u) <= 1.0 + 1e-9]
        if chain.n > 50:
            # prune with a coarse scan; refine only the leaders
            coarse = _best_lambda(chain, feasible, extra_lams, coarse=True, solved=solved)[0]
            scores = sorted(zip(coarse.tolist(), range(len(feasible))), reverse=True)
            feasible = [feasible[k] for _, k in scores[:4]]
        ratios, lams = _best_lambda(chain, feasible, extra_lams, solved=solved)
        # each improving candidate's eigen-density seeds an ascent; the ascents
        # run as rows and merge in candidate order
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
        # the ratio ignores constants added to u; min u = 0 fixes the one reported
        witness_u=best_u - np.min(best_u),
        witness_density=best_f,
        diverged=bool(best_primal > DIVERGENCE_CAP),
    )


def linearization_probe(chain: ReversibleChain, d: Metric, directions):
    """Ratios W_2^2 / (4 I) along nu_eps = (1 + eps g) mu for eps = 1e-1, ..., 1e-6.

    Each row takes the best of the directions.  Directions are normalized
    to sup-norm one so the reported eps is the actual relative
    perturbation size.
    """
    epsilons = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    ratios = _ratios(chain, d, [1.0 + eps * g for eps in epsilons for g in directions], True)[0]
    return [(float(eps), float(max([0.0] + row)))
            for eps, row in zip(epsilons, ratios.reshape(len(epsilons), -1).tolist())]


def best_w2i(chain: ReversibleChain, d: Metric, rounds: int = 2,
             primal_starts: int = 8, seed: int = 19) -> BestConstantReport:
    """Best constant in W_2^2 <= 4 c^2 I, with a divergence probe.

    On a finite space any vanishing perturbation eventually moves mass by
    at least one grid step, so the raw ratio grows like 1/eps below that
    scale no matter what; genuine failure of W_2 I shows the 1/eps law
    already from macroscopic eps on.  The shrink loop therefore halves
    eps only while each halving multiplies the ratio by >= 1.5 (the law's
    signature); a sustained run crossing the cap 1e6 sets ``diverged``,
    while chains whose ratio plateaus report the macroscopic constant.
    """
    rng = np.random.default_rng(seed)
    dirs = _low_eigen_directions(chain, 4)
    probe_rows = linearization_probe(chain, d, dirs)

    # law-based shrink from the macroscopic end: sustained >= 1.5x growth
    # under halving is the 1/eps signature and runs into the cap.  Only the
    # gap direction is used: genuine failure of W_2 I on a finite space
    # (metric bounded below) shows the law along it, while rougher
    # directions feel the grid scale even on chains that discretize a
    # measure satisfying the inequality.
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
    guard = 0.25   # macroscopic-witness floor; sub-grid ratios are artifacts
    vals, fs = _primal_ascents(chain, d, _primal_starts(chain, rng, primal_starts), squared=True,
                               min_perturbation=guard)
    for val, f in zip(vals.tolist(), fs):
        if not math.isinf(val) and val > best_primal:
            best_primal, best_f = val, f

    # the squared columns d(., x0) ** 2, each a new contiguous array
    base_points = np.arange(chain.n) if chain.n <= 8 else rng.choice(chain.n, 8, replace=False)
    v_cands = [col ** 2 for col in d.block(slice(None), base_points).T]
    for _ in range(3):
        v_cands.append(np.abs(rng.standard_normal(chain.n)) * d.diameter ** 2)
    best_dual = 0.0
    best_v = v_cands[0]
    c2_of = {}      # each candidate's c^2 by its bytes, kept across rounds
    for _ in range(rounds):
        dist2, _, pot = _metric_transport(d, 2, chain.mu * best_f, chain.mu)
        if fisher_information_raw(chain, best_f) > 0 and dist2 > 0:
            v_star = d.sup_convolution(pot, 2)  # c-transform partner of u*
            v_cands.append(v_star - float(np.min(v_star)))
        improved = False
        for v in v_cands:
            key = v.tobytes()
            if key not in c2_of:
                c2_of[key] = _w2_dual_constant(chain, d, v)
            c2 = c2_of[key]
            if c2 > best_dual:
                best_dual, best_v = c2, v
                improved = True
        if not improved:
            break
        # re-seed primal from the critical pair's eigen-density
        theta = 1.0 / (4.0 * best_dual) if best_dual > 0 else 1.0
        q = d.inf_convolution(best_v, 2)
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


def _w2_dual_constant(chain, d, v):
    """Smallest admissible c^2 for the pair (Qv, v): the critical theta root.

    phi(theta) = Lambda(theta Qv) - theta mu(v) is convex with phi(0) = 0
    and phi'(0) <= 0; the constraint Lambda(Qv/(4c^2)) <= mu(v)/(4c^2)
    holds exactly for 1/(4c^2) <= theta*, the positive root of phi.  The
    bisection ends at its 80th step or after the first step that leaves
    (lo, hi) as it was: phi is deterministic, so every later step would
    repeat that one.
    """
    v = np.asarray(v, dtype=float)
    q = d.inf_convolution(v, 2)
    mv = chain.expectation(v)
    phi = lambda th: lambda_max(chain, th * q) - th * mv
    hi = 1e-6
    val = phi(hi)
    if val > 1e-13 * max(1.0, abs(mv)):
        return math.inf  # critical theta is essentially zero: no finite c works
    while val <= 0.0:
        hi *= 2.0
        if hi > 1e15:
            return 0.0   # constraint never binds: c can be arbitrarily small
        val = phi(hi)
    lo = hi / 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        bracket = (mid, hi) if phi(mid) <= 0.0 else (lo, mid)
        if bracket == (lo, hi):
            break
        lo, hi = bracket
    theta_star = 0.5 * (lo + hi)
    return 1.0 / (4.0 * theta_star)


def w2i_dual_check(chain: ReversibleChain, d: Metric, c: float,
                   v_samples: list[np.ndarray]):
    """Check Lambda(Qv / (4 c^2)) <= mu(v) / (4 c^2) over sampled v."""
    if c <= 0:
        raise ModelValidation("c must be positive")
    rows, worst = [], math.inf
    for idx, v in enumerate(v_samples):
        v = np.asarray(v, dtype=float)
        lhs = lambda_max(chain, d.inf_convolution(v, 2) / (4.0 * c * c))
        rhs = chain.expectation(v) / (4.0 * c * c)
        slack = rhs - lhs
        worst = min_nan(worst, slack)
        rows.append((idx, float(slack)))
    return {"rows": rows, "worst_slack": float(worst), "passed": bool(worst >= -1e-8)}


def lsi_ratio_scan(chain: ReversibleChain, samples: int = 200, seed: int = 23) -> float:
    """sup over sampled densities of H(f mu | mu) / (2 I(f mu | mu)).

    A lower estimate of the log-Sobolev constant; densities with
    vanishing information are skipped (the 0/0 case f = 1).
    """
    if samples < 100:
        raise ModelValidation("need at least 100 samples")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        raw = rng.dirichlet(np.ones(chain.n) * rng.uniform(0.2, 5.0))
        f = raw / chain.mu
        f /= float(np.dot(chain.mu, f))
        info = fisher_information_raw(chain, f)
        if info < 1e-14:
            continue
        best = max(best, relative_entropy(chain, Density.validate(chain.mu, f)) / (2.0 * info))
    return float(best)
