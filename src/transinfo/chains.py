"""Finite reversible Markov chains and their energy functionals.

A chain is a triple (states, Q, mu): Q is a conservative rate matrix
(off-diagonal >= 0, rows sum to zero) and mu a strictly positive
probability vector in detailed balance with Q.  On this carrier we
compute the Dirichlet form

    E(g, g) = <-L g, g>_mu = 1/2 sum_{x != y} mu_x q(x,y) (g_y - g_x)^2,

the information functional I(f mu | mu) = E(sqrt f, sqrt f), relative
entropy, weighted total variation, the spectral gap / Poincare constant,
and solutions of the Poisson equation -L h = g.

All eigenproblems are solved on the symmetric conjugation
diag(sqrt mu) (-L) diag(1/sqrt mu), which is the matrix of the
self-adjoint operator in L^2(mu); this keeps spectra real by
construction instead of by luck.

A chain stores Q as its nonzero off-diagonal rates (row, col, q) and
its exit rates -Q_xx; the dense Q is a view built on first use, so a
chain whose callers need only edges, exit rates or the band stays
O(n + |E|) in memory.  One validator checks every chain on that edge
list in O(n + |E|): dense input reaches it through ``build_chain``, with
exit rates from the dense row sums, and birth-death rates through
``_birth_death_chain`` without any n x n array.  Its pair scan builds
-L^sigma once, as the edge list (i, j, w_ij) with symmetric conductances
w_ij, over which the Dirichlet forms and ``_apply_neg_generator`` are
O(n + |E|) sums (on a band chain by slices, with the bits of the general
bincounts), and, for birth-death chains (edges exactly (k, k+1)), as the
tridiagonal band of the conjugated operator.  The read-only dense
``conjugated_neg_generator``, which carries dense eigensolves and the
Poisson solve of other chains, is cached on first use.  The eigen entry
point ``_lowest_eigenpairs`` solves every call as a stack of rows (a 1-D
potential is one row), after one finiteness check, by one route per
structure: band chains by LAPACK's tridiagonal bisection (dstebz per row,
then dstein for vectors), called directly for the requested indices only,
and any other chain by dense eigvalsh or eigh on stacks of A - diag(row);
``poisson_solve`` solves band chains in O(n) from the edge fluxes.
A line metric (``LineMetric``) holds its points, and its dense d is, like
Q, a view built on first use: only a route off the line reads it, such as
``CostMatrix.from_metric`` and the simplex it feeds, or unsorted points.
The line routes read the points: W_1 and W_2 in closed form whatever the
masses, ``lipschitz_norm`` from the adjacent gaps, and the searches' min
and max sweeps over d ** power, which every metric runs in blocks of at
most 2^20 entries.
The functionals take rows: an (N, n) block gives per row the 1-D call's
bits, as each reduction is ``dots``, and ``Density.validate`` raises the
1-D call's error for the first failing row.  Importing this module loads
no scipy.  The first band solve loads only the compiled LAPACK module
``scipy.linalg._flapack``, through ``_scipy_extension``, which does not
run ``scipy.linalg``'s ``__init__``.  Likewise ``_special_ufunc`` and
``_betaincinv`` give the package its ``scipy.special`` routines, with the
public bits, without running ``scipy.special``'s ``__init__``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import threading
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np

from .errors import (
    DegenerateMeasure,
    DetailedBalanceViolated,
    MeanNotZero,
    ModelValidation,
    NotIrreducible,
    SingularSystem,
)

DETAILED_BALANCE_RTOL = 1e-10
DENSITY_RENORM_TOL = 1e-9


@dataclass(frozen=True)
class ReversibleChain:
    """Validated finite reversible chain; immutable after construction."""

    states: tuple
    mu: np.ndarray
    rates: tuple[np.ndarray, np.ndarray, np.ndarray]   # (row, col, q), row-major
    exit_rates: np.ndarray                             # -Q_xx
    edges: tuple[np.ndarray, np.ndarray, np.ndarray]   # (i < j, j, (mu_i q_ij + mu_j q_ji) / 2)
    band: tuple[np.ndarray, np.ndarray] | None         # (exit rates, -w/sqrt(mu_k mu_k+1)) or None

    @property
    def n(self) -> int:
        return len(self.states)

    @cached_property
    def Q(self) -> np.ndarray:
        """The dense rate matrix, built on first use; read-only."""
        i, j, q = self.rates
        Q = np.zeros((self.n, self.n))
        Q[i, j] = q
        np.fill_diagonal(Q, -self.exit_rates)
        return _frozen(Q)

    @cached_property
    def conjugated_neg_generator(self) -> np.ndarray:
        """diag(sqrt mu) (-L^sigma) diag(1/sqrt mu), symmetrized for eigh; read-only.

        L^sigma = (L + L*)/2 averages L with its L^2(mu) adjoint, which equals L
        only up to the detailed-balance tolerance of a validated chain.
        """
        Q, mu = self.Q, self.mu
        sym = 0.5 * (Q + (Q.T * mu[None, :]) / mu[:, None])
        s = np.sqrt(mu)
        A = (s[:, None] * (-sym)) / s[None, :]
        return _frozen(0.5 * (A + A.T))

    def expectation(self, g: np.ndarray):
        return dots(self.mu, np.asarray(g, dtype=float))

    def variance(self, g: np.ndarray):
        g = np.asarray(g, dtype=float)
        return dots(self.mu, (g - np.asarray(self.expectation(g))[..., None]) ** 2)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def dots(a: np.ndarray, b: np.ndarray):
    """np.dot(a, b) as a float for a 1-D array b, else np.dot(a, b_k) for each row b_k.

    np.vecdot runs np.dot's BLAS dot on each contiguous row; a stacked b @ a
    (gemv) sums in another order."""
    if b.ndim != 2:
        return float(np.dot(a, b))
    return np.vecdot(a, np.ascontiguousarray(b, dtype=float))


@dataclass(frozen=True)
class Density:
    """Nonnegative f with sum_i mu_i f_i = 1, representing nu = f mu; or rows of such f."""

    f: np.ndarray

    @staticmethod
    def validate(mu: np.ndarray, f: np.ndarray) -> "Density":
        """Validate (and gently renormalize) a candidate density vector, or each row of a 2-D f.

        Renormalizes when |sum mu f - 1| <= 1e-9 and rejects otherwise, a
        NaN mass included; silently fixing larger errors would mask caller
        bugs.  A block raises the error of its first failing row.
        """
        f = np.asarray(f, dtype=float).copy()
        if f.shape[-1:] != np.shape(mu) or f.ndim > 2:
            raise ModelValidation("density and measure have different lengths")
        rows = f.reshape(-1, f.shape[-1])
        total = dots(mu, rows)
        negative = (rows < 0).any(axis=1)
        bad = negative | ~(np.abs(total - 1.0) <= DENSITY_RENORM_TOL)
        if bad.any():
            k = int(np.argmax(bad))
            if negative[k]:
                raise ModelValidation("density has negative entries")
            raise ModelValidation(f"density mass {float(total[k])!r} differs from 1 beyond "
                                  "renormalization tolerance")
        rows /= total[:, None]
        return Density(f=_frozen(f))


# Entries per block of the metrics' min and max sweeps.
BLOCK_ENTRIES = 2 ** 20


class Metric:
    """A finite metric d, as the searches read it: in blocks of d ** power.

    A subclass gives ``n``, ``diameter``, ``line_embedding`` (increasing s
    with d[i,j] = |s_i - s_j|, which gives W_1 / W_2 in closed form, or
    None), the dense ``d``, ``block(rows, cols, power)``, the block
    d[rows, cols] ** power as a C-ordered array, and ``adjacent_gaps``.
    The sweeps take blocks of at most BLOCK_ENTRIES entries; a min or a max
    is exact, so the block size never moves a bit.
    """

    def inf_convolution(self, g: np.ndarray, power: int = 1) -> np.ndarray:
        """min_y (g(y) + d(x, y) ** power) for each x, over blocks of rows."""
        g = np.asarray(g, dtype=float)
        step = max(1, BLOCK_ENTRIES // self.n)
        return np.concatenate([np.min(g + self.block(slice(a, a + step), slice(None), power),
                                      axis=1) for a in range(0, self.n, step)])

    def sup_convolution(self, u: np.ndarray, power: int = 1) -> np.ndarray:
        """max_x (u(x) - d(x, y) ** power) for each y, over blocks of columns."""
        u = np.asarray(u, dtype=float)[:, None]
        step = max(1, BLOCK_ENTRIES // self.n)
        return np.concatenate([np.max(u - self.block(slice(None), slice(a, a + step), power),
                                      axis=0) for a in range(0, self.n, step)])


@dataclass(frozen=True)
class MetricMatrix(Metric):
    """Symmetric nonnegative matrix with zero diagonal and triangle inequality."""

    d: np.ndarray
    line_embedding: np.ndarray | None

    @staticmethod
    def validate(d: np.ndarray) -> "MetricMatrix":
        d = np.asarray(d, dtype=float).copy()
        n = d.shape[0]
        if d.ndim != 2 or d.shape[1] != n:
            raise ModelValidation("metric matrix must be square")
        if not np.isfinite(d).all():
            raise ModelValidation("metric matrix must be finite")
        if np.any(np.abs(d - d.T) > 1e-12 * max(1.0, np.max(np.abs(d), initial=0.0))):
            raise ModelValidation("metric matrix must be symmetric")
        if np.any(np.abs(np.diag(d)) > 1e-15):
            raise ModelValidation("metric matrix must have zero diagonal")
        off = d[~np.eye(n, dtype=bool)]
        if np.any(off <= 0):
            raise ModelValidation("metric must be positive off the diagonal")
        # d[x,z] <= d[x,y] + d[y,z]; loop over y to stay O(n^2) in memory
        for y in range(n):
            if np.any(d > d[:, y][:, None] + d[y, :][None, :] + 1e-12):
                raise ModelValidation("triangle inequality fails")
        d.setflags(write=False)
        # one or two points are a line if d[0] increases and gives d back to 1e-12
        s = d[0] if n in (1, 2) else None
        if s is not None and not (np.all(np.diff(s) > 0) and np.max(
                np.abs(np.abs(s[:, None] - s) - d)) <= 1e-12 * max(1.0, s[-1])):
            s = None
        return MetricMatrix(d=d, line_embedding=s)

    @property
    def n(self) -> int:
        return len(self.d)

    @cached_property
    def diameter(self) -> float:
        """max d[x, y], computed on first use."""
        return float(np.max(self.d))

    def block(self, rows, cols, power: int = 1) -> np.ndarray:
        b = np.ascontiguousarray(self.d[rows, cols])
        return b if power == 1 else b ** power

    def adjacent_gaps(self) -> np.ndarray:
        """d[k, k+1] for each k."""
        return np.diag(self.d, 1)


@dataclass(frozen=True)
class LineMetric(Metric):
    """The metric d[i,j] = |p_i - p_j| of distinct finite points, held as the points.

    Like ``ReversibleChain.Q``, the dense d is a read-only view built on
    first use; the line routes read the points, so they stay O(n) in
    memory.  Every entry they read is the dense formula's float:
    ``diameter`` is p.max() - p.min(), the largest |p_i - p_j| since
    rounding is monotone, and ``adjacent_gaps`` is |p_{k+1} - p_k|, whose
    sign flip is exact.
    """

    points: np.ndarray
    line_embedding: np.ndarray | None

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def d(self) -> np.ndarray:
        """The dense n x n metric, built on first use; read-only."""
        return _frozen(self.block(slice(None), slice(None)))

    @cached_property
    def diameter(self) -> float:
        return float(self.points.max() - self.points.min())

    def block(self, rows, cols, power: int = 1) -> np.ndarray:
        b = np.subtract.outer(self.points[rows], self.points[cols])
        np.abs(b, out=b)
        return b if power == 1 else b ** power

    def adjacent_gaps(self) -> np.ndarray:
        return np.abs(np.diff(self.points))


def trivial_metric(n: int) -> MetricMatrix:
    """d(x,y) = 1 for x != y."""
    return MetricMatrix.validate(np.ones((n, n)) - np.eye(n))


def line_metric(points: np.ndarray) -> LineMetric:
    """Euclidean metric of a 1-D embedding: d[i,j] = |p_i - p_j|, held as a copy of the points.

    Finite distinct points of finite span make d a metric, so only they are checked.
    If they are strictly monotone and s = |p_0 - p| (the row d[0]) rounds to increasing
    values, s is the line embedding: |s_i - s_j| is within 3 eps max(s) of d[i,j].
    """
    p = np.array(points, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ModelValidation(f"line metric points must be a nonempty 1-D array, not {p.shape}")
    bad = np.flatnonzero(~np.isfinite(p))
    if len(bad):
        raise ModelValidation(f"line metric points must be finite: point {bad[0]} is {p[bad[0]]}")
    if not math.isfinite(float(p.max()) - float(p.min())):    # Python floats overflow silently
        raise ModelValidation(f"line metric points span {p.min()} to {p.max()}: not finite")
    order = np.argsort(p, kind="stable")
    tie = np.flatnonzero(np.diff(p[order]) == 0)
    if len(tie):
        i, j = sorted(order[tie[0]:tie[0] + 2].tolist())
        raise ModelValidation(f"line metric points must be distinct: {i} and {j} are both {p[i]}")
    step, s = np.diff(p), _frozen(np.abs(p[0] - p))
    line = (np.all(step > 0) or np.all(step < 0)) and np.all(np.diff(s) > 0)
    return LineMetric(points=_frozen(p), line_embedding=s if line else None)


def _as_density_vector(chain: ReversibleChain, f) -> np.ndarray:
    if isinstance(f, Density):
        return f.f
    return Density.validate(chain.mu, np.asarray(f, dtype=float)).f


def solve_invariant_measure(Q: np.ndarray) -> np.ndarray:
    """Solve mu Q = 0, sum mu = 1 by a dense least-squares solve."""
    n = Q.shape[0]
    A = np.vstack([Q.T, np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def build_chain(rates: np.ndarray, mu: np.ndarray | None = None, states=None) -> ReversibleChain:
    """Build and validate a reversible chain from off-diagonal rates.

    The diagonal is filled so rows sum to zero.  When ``mu`` is absent the
    invariant measure is obtained from the dense solve of mu Q = 0, which
    is unique for irreducible rate graphs.
    """
    Q = np.array(rates, dtype=float)
    n = Q.shape[0]
    if Q.ndim != 2 or Q.shape[1] != n or n < 2:
        raise ModelValidation("rates must be a square matrix of size >= 2")
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    i, j = np.nonzero((Q != 0) & ~np.eye(n, dtype=bool))
    if mu is None and np.all(np.isfinite(Q)):   # the validator rejects non-finite rates
        mu = solve_invariant_measure(Q)
    return _validated_chain((i, j, Q[i, j]), -np.diag(Q), mu, states)


def _birth_death_chain(up: np.ndarray, down: np.ndarray, mu: np.ndarray,
                       states=None) -> ReversibleChain:
    """Build and validate the chain with rates up[k] on k -> k+1 and down[k] on k+1 -> k.

    Takes O(n): the rates go to the validator in the row-major order of the
    dense matrix, and each exit rate is up[k] + down[k-1], the one rounding
    of the dense row sum.
    """
    up, down = np.asarray(up, dtype=float), np.asarray(down, dtype=float)
    k = np.arange(len(up))
    row, col = np.column_stack([k, k + 1]).ravel(), np.column_stack([k + 1, k]).ravel()
    q = np.column_stack([up, down]).ravel()
    exit_rates = np.zeros(len(up) + 1)
    exit_rates[:-1] = up
    exit_rates[1:] += down
    keep = q != 0
    return _validated_chain((row[keep], col[keep], q[keep]), exit_rates, mu, states)


def _validated_chain(rates, exit_rates: np.ndarray, mu, states) -> ReversibleChain:
    """Validate a chain given by its nonzero off-diagonal rates (row, col, q), row-major.

    Checks, in this order: finite nonnegative rates; irreducibility, by
    forward and backward reachability from state 0 over the edges, except
    on a path, pairs exactly (k, k+1) with both rates positive; a positive
    measure summing to 1 within 1e-9, which is then renormalized; detailed
    balance per pair, |mu_x q_xy - mu_y q_yx| / max of the two within
    DETAILED_BALANCE_RTOL, reporting the worst pair (first in (x, y)
    order).  Its pair scan gives the chain its edges and band.  Takes
    O(n + |E|) apart from one sort of the pairs.
    """
    row, col, q = rates
    n = len(exit_rates)
    if not np.all(np.isfinite(q)):
        raise ModelValidation("rates must be finite")
    if np.any(q < 0):
        raise ModelValidation("off-diagonal rates must be nonnegative")
    pairs, slot = np.unique(np.minimum(row, col) * n + np.maximum(row, col), return_inverse=True)
    path = np.arange(n - 1) * (n + 1) + 1      # the pairs (k, k+1) as k * n + k + 1
    positive = q > 0
    if not (len(q) == 2 * len(path) and positive.all() and np.array_equal(pairs, path)):
        for src, dst, what in ((row, col, "state {} is not reachable from state 0"),
                               (col, row, "state 0 is not reachable from state {}")):
            unreached = _unreached(n, src[positive], dst[positive])
            if unreached is not None:
                raise NotIrreducible(what.format(unreached))

    mu = np.array(mu, dtype=float)
    if mu.shape != (n,):
        raise ModelValidation("mu has wrong length")
    if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
        raise DegenerateMeasure(f"invariant measure has nonpositive or non-finite entries: {mu}")
    total = mu.sum()
    if abs(total - 1.0) > 1e-9:
        raise DegenerateMeasure(f"mu sums to {float(total)!r}, not 1")
    mu = _frozen(mu / total)

    flow = mu[row] * q
    forward, backward = np.zeros(len(pairs)), np.zeros(len(pairs))
    ahead = row < col
    forward[slot[ahead]] = flow[ahead]
    backward[slot[~ahead]] = flow[~ahead]
    scale = np.maximum(np.abs(forward), np.abs(backward))
    rel = np.abs(forward - backward) / np.maximum(scale, 1e-300)
    rel[scale == 0.0] = 0.0
    worst = int(np.argmax(rel))
    if rel[worst] > DETAILED_BALANCE_RTOL:
        raise DetailedBalanceViolated(pair=tuple(int(x) for x in divmod(int(pairs[worst]), n)),
                                      residual=float(rel[worst]))

    states = tuple(str(i) for i in range(n)) if states is None else tuple(states)
    if len(states) != n:
        raise ModelValidation("states list has wrong length")
    pair_flow = forward + backward
    carried = pair_flow != 0                    # pairs whose flows sum to 0 carry no edge
    i, j = np.divmod(pairs[carried], n)
    w, exit_rates = _frozen(0.5 * pair_flow[carried]), _frozen(exit_rates)
    band = ((exit_rates, _frozen(-w / np.sqrt(mu[:-1] * mu[1:])))
            if np.array_equal(pairs[carried], path) else None)
    return ReversibleChain(states=states, mu=mu, rates=(_frozen(row), _frozen(col), _frozen(q)),
                           exit_rates=exit_rates, edges=(_frozen(i), _frozen(j), w), band=band)


def _unreached(n: int, src: np.ndarray, dst: np.ndarray) -> int | None:
    """The first state that no path src -> dst from state 0 reaches, or None."""
    order = np.argsort(src, kind="stable")
    starts = np.searchsorted(src[order], np.arange(n + 1)).tolist()
    targets = dst[order].tolist()
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        x = stack.pop()
        for y in targets[starts[x]:starts[x + 1]]:
            if not seen[y]:
                seen[y] = True
                stack.append(y)
    return None if all(seen) else seen.index(False)


def chain_from_json(obj: dict | str) -> ReversibleChain:
    """Load a chain from the JSON file schema {states, rates, mu?}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    return build_chain(
        np.asarray(obj["rates"], dtype=float),
        mu=None if obj.get("mu") is None else np.asarray(obj["mu"], dtype=float),
        states=obj.get("states"),
    )


# ---------------------------------------------------------------------------
# Energy / information functionals
# ---------------------------------------------------------------------------

def dirichlet_energy(chain: ReversibleChain, g: np.ndarray):
    """E(g, g) = 1/2 sum_{x != y} mu_x q(x,y) (g_y - g_x)^2, over edges; a band's by slices."""
    g = np.asarray(g, dtype=float)
    if not (g.ndim == 2 and g.shape[1] == chain.n):
        g = _state_vector(chain, g)
    if not np.isfinite(g).all():
        raise ValueError("g must be finite")
    i, j, w = chain.edges
    if chain.band is not None:
        i, j = slice(None, -1), slice(1, None)      # the edges (k, k+1), as views
    diff = g[..., j] - g[..., i]
    return dots(w, diff * diff)


def _state_vector(chain: ReversibleChain, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (chain.n,):
        raise ValueError(f"expected a vector of length {chain.n}, got shape {g.shape}")
    return g


def fisher_information(chain: ReversibleChain, f):
    """I(f mu | mu) = E(sqrt f, sqrt f); always finite on finite spaces."""
    fv = _as_density_vector(chain, f)
    return dirichlet_energy(chain, np.sqrt(fv))


def relative_entropy(chain: ReversibleChain, f) -> float:
    """H(f mu | mu) = sum mu_i f_i log f_i, with 0 log 0 := 0."""
    fv = _as_density_vector(chain, f)
    terms = np.zeros_like(fv)
    pos = fv > 0
    terms[pos] = fv[pos] * np.log(fv[pos])
    return float(np.dot(chain.mu, terms))


def tv_weighted(chain: ReversibleChain, f, phi: np.ndarray):
    """Weighted total variation sum_i mu_i phi_i |f_i - 1|.

    With phi = 1 this is the full total variation ||f mu - mu||_TV
    = 2 sup_A |nu(A) - mu(A)|.  phi is checked before f.
    """
    phi = np.asarray(phi, dtype=float)
    if (phi < 0).any():
        raise ValueError("phi must be nonnegative")
    fv = _as_density_vector(chain, f)
    return dots(chain.mu * phi, np.abs(fv - 1.0))


def spectral_gap(chain: ReversibleChain) -> tuple[float, float]:
    """Spectral gap of -L^sigma in L^2(mu) and the Poincare constant.

    Returns (gap, c_P) with c_P = 1/gap.  The eigenproblem is solved
    on the symmetric conjugated matrix; afterwards the Poincare
    inequality Var_mu(g) <= c_P E(g,g) is spot-checked on 100 random g
    (seed 7, drawn as the rows of one block, kept for the last n) within
    1e-9 slack as a guard against a mis-sorted spectrum.
    """
    gap = float(_lowest_eigenpairs(chain, count=2)[1])
    if gap <= 0:
        raise NotIrreducible("nonpositive spectral gap; chain is not irreducible")
    c_p, g = 1.0 / gap, _poincare_probe(chain.n)
    if np.any(chain.variance(g) > c_p * dirichlet_energy(chain, g) + 1e-9):
        raise SingularSystem("Poincare certificate failed; eigensolve inconsistent")
    return gap, c_p


@lru_cache(maxsize=1)
def _poincare_probe(n: int) -> np.ndarray:
    """``spectral_gap``'s 100 seed-7 draws of g on n states, kept for the last n; read-only."""
    return _frozen(np.random.default_rng(7).standard_normal((100, n)))


def _lowest_eigenpairs(chain: ReversibleChain, u: np.ndarray | None = None,
                      count: int = 1, vectors: bool = False):
    """The ``count`` lowest eigenvalues of the conjugated -L^sigma - diag(u).

    The top eigenvalue of L^sigma + diag(u) in L^2(mu) is minus the lowest
    one here.  Every call is a stack of rows: a 2-D ``u`` holds one potential
    per row and gives an (N, count) array; a 1-D ``u``, or none, is one row
    and gives its row, or (eigenvalues, eigenvectors as columns) when
    ``vectors`` is set.  One finiteness check covers the shifted diagonals
    of all rows (and a band's off-diagonal), so a NaN or inf raises
    ValueError on either structure.  Birth-death chains are then solved on
    their cached band by LAPACK's tridiagonal bisection (dstebz) for the
    requested indices only, per row, with inverse iteration (dstein) for
    vectors; every other chain by eigvalsh, or eigh for vectors, on stacks
    of A - diag(row) of at most 2^20 entries.  A row's bits do not depend
    on its stack.
    """
    if u is None:
        rows = np.zeros((1, chain.n))
    else:
        u = np.asarray(u, dtype=float)
        rows = (u if u.ndim == 2 and u.shape[1] == chain.n and not vectors
                else _state_vector(chain, u)[None])
    band = chain.band
    diag, off = band if band is not None else (chain.conjugated_neg_generator.diagonal(), None)
    diags = diag - rows
    # LAPACK's bisection need not terminate on NaN; a dense solve fails on it or returns NaN
    if not (np.isfinite(diags).all() and (off is None or np.isfinite(off).all())):
        raise ValueError("array must not contain infs or NaNs")
    out = np.empty((len(rows), min(count, chain.n)))
    if band is not None:
        lapack = _scipy_extension("linalg._flapack")
        for r, d in enumerate(diags):
            m, w, iblock, isplit, info = lapack.dstebz(d, off, 2, 0.0, 1.0, 1, count, 0.0,
                                                       "B" if vectors else "E")
            _check_lapack_info(info, "dstebz")
            out[r] = w[:m]
        if vectors:     # one row; dstein's block order to ascending order
            V, info = lapack.dstein(d, off, w[:m], iblock, isplit)
            _check_lapack_info(info, "dstein")
            order = np.argsort(out[0])
            return out[0, order], V[:, order]
    else:
        A = chain.conjugated_neg_generator
        step = max(1, 2 ** 20 // A.size)
        for start in range(0, len(diags), step):
            part = diags[start:start + step]
            stack = np.empty((len(part), *A.shape))
            stack[:] = A
            stack.reshape(len(part), -1)[:, ::chain.n + 1] = part       # the diagonals
            if vectors:     # one row
                w, V = np.linalg.eigh(stack)
                return w[0, :count], V[0, :, :count]
            out[start:start + step] = np.linalg.eigvalsh(stack)[:, :count]
    return out if rows is u else out[0]


_EXTENSION_LOAD = threading.Lock()


def _scipy_extension(name: str):
    """The compiled module ``scipy.<name>``, loaded without its package's ``__init__``.

    Importing ``scipy.linalg``, ``scipy.signal`` or ``scipy.special`` costs
    more than most runs spend in the routines they need from it, so the
    extension module is loaded from its file beside the package, once: it
    is kept in ``sys.modules`` under its full name, which is also where the
    package's own import finds it.  The public wrappers and this module
    therefore call the same routine objects, in either load order.  One
    thread at a time loads: a second load of a module that another thread
    is still running hands out its capsules before their pointers are set.
    """
    full = f"scipy.{name}"
    with _EXTENSION_LOAD:
        module = sys.modules.get(full)
        if module is None:
            root = importlib.util.find_spec("scipy").submodule_search_locations[0]
            spec = importlib.machinery.PathFinder.find_spec(
                full, [os.path.join(root, *name.split(".")[:-1])])
            if spec is None:
                raise ImportError(f"scipy has no compiled module {full}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            module = sys.modules.setdefault(full, module)
    return module


def _special_ufunc(name: str):
    """The ufunc ``scipy.special.<name>`` itself, from ``scipy.special._special_ufuncs``."""
    try:
        return getattr(_scipy_extension("special._special_ufuncs"), name)
    except AttributeError:
        raise ImportError(f"scipy.special._special_ufuncs has no {name}") from None


@cache
def _betaincinv():
    """``betaincinv(a, b, p)`` on floats, with the bits of ``scipy.special.betaincinv``.

    That ufunc's double loop calls Boost's ``ibeta_inv`` through the function
    pointer ``scipy.special._ufuncs_cxx`` exports in a capsule named
    ``"void *"``; this calls the same pointer through ctypes.
    """
    import ctypes

    export = "_export_ibeta_inv_double"
    capsule = _scipy_extension("special._ufuncs_cxx").__pyx_capi__.get(export)
    if capsule is None:
        raise ImportError(f"scipy.special._ufuncs_cxx has no {export}")
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    routine = ctypes.c_void_p.from_address(get_pointer(capsule, b"void *")).value
    return ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_double, ctypes.c_double,
                            ctypes.c_double)(routine)


def _check_lapack_info(info: int, routine: str) -> None:
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{routine} did not converge (info={info})")


def _apply_neg_generator(chain: ReversibleChain, g: np.ndarray) -> np.ndarray:
    """-L^sigma g = -Q_xx g_x - (1/mu_x) sum_y w_xy g_y over edges, along g's last axis.

    A band chain's edges are (k, k+1), so its sums are two slice additions
    onto zeros, which round as the bincounts do.  Any other chain gives each
    row its own block of bincount bins, so a row equals the 1-D result."""
    i, j, w = chain.edges
    if chain.band is not None:
        flux = np.zeros(g.shape)
        flux[..., :-1] += w * g[..., 1:]
        flux[..., 1:] += w * g[..., :-1]
        return chain.exit_rates * g - flux / chain.mu
    bins = np.arange(0, g.size, chain.n)[:, None]
    flux = (np.bincount((bins + i).ravel(), weights=(w * g[..., j]).ravel(), minlength=g.size)
            + np.bincount((bins + j).ravel(), weights=(w * g[..., i]).ravel(), minlength=g.size))
    return chain.exit_rates * g - flux.reshape(g.shape) / chain.mu


def poisson_solve(chain: ReversibleChain, g: np.ndarray) -> np.ndarray:
    """Solve -L^sigma h = g with mu(h) = 0 for centered g.

    Birth-death chains take the O(n) flux sums of ``_flux_poisson``; any
    other chain solves the symmetric bordered system [[A, sqrt mu],
    [sqrt mu^T, 0]] on the conjugated A = diag(sqrt mu) (-L^sigma)
    diag(1/sqrt mu) for y = sqrt(mu) h, which is regular exactly when the
    chain is irreducible.  Either way the residual is checked.
    """
    g = np.asarray(g, dtype=float)
    if abs(chain.expectation(g)) > 1e-10:
        raise MeanNotZero(f"mu(g) = {chain.expectation(g)!r} exceeds 1e-10")
    if chain.band is not None:
        h = _flux_poisson(chain, g)
    else:
        n, s = chain.n, np.sqrt(chain.mu)
        A = np.zeros((n + 1, n + 1))
        A[:n, :n] = chain.conjugated_neg_generator
        A[:n, n] = A[n, :n] = s
        b = np.concatenate([s * g, [0.0]])
        try:
            sol = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - internal error
            raise SingularSystem(str(exc)) from exc
        h = sol[:n] / s
    resid = float(np.max(np.abs(_apply_neg_generator(chain, h) - g)))
    if resid > 1e-10 * max(1.0, float(np.max(np.abs(g)))):
        raise SingularSystem(f"Poisson residual {resid:.3e} exceeds tolerance")
    return h - chain.expectation(h)


def _flux_poisson(chain: ReversibleChain, g: np.ndarray) -> np.ndarray:
    """-L^sigma h = g - mu(g) on a birth-death chain, by its edge fluxes.

    Summing mu_x (-L^sigma h)_x over x <= k telescopes to the flux across
    the edge (k, k+1): w_k (h_k - h_{k+1}) = G_k = sum_{x<=k} mu_x g'_x with
    g' = g - mu(g).  Below the mode of mu, G_k is summed from the left; from
    the mode on it is minus the sum from the right, so both tails keep the
    relative accuracy of their own small masses.
    """
    mu = chain.mu
    m = mu * (g - chain.expectation(g))
    mode = int(np.argmax(mu))
    G = np.cumsum(m[:-1])
    G[mode:] = -np.cumsum(m[:0:-1])[::-1][mode:]
    h = np.concatenate([[0.0], np.cumsum(-G / chain.edges[2])])
    return h - chain.expectation(h)


def lipschitz_norm(d: Metric, g: np.ndarray) -> float:
    """Smallest M with |g_x - g_y| <= M d[x,y] over all pairs.

    On a line metric the adjacent pairs are the extreme ones, so the norm
    takes O(n) from ``d.adjacent_gaps()``, the superdiagonal of d.
    """
    g = np.asarray(g, dtype=float)
    if len(g) < 2:
        return 0.0
    if d.line_embedding is not None:
        return _line_lipschitz(d.adjacent_gaps(), g)
    diff = np.abs(g[:, None] - g[None, :])
    off = ~np.eye(len(g), dtype=bool)
    return float(np.max(diff[off] / d.d[off]))


def _line_lipschitz(gaps: np.ndarray, g: np.ndarray) -> float:
    """max_k |g_{k+1} - g_k| / gaps_k: the Lipschitz norm on points with these gaps."""
    return float(np.max(np.abs(np.diff(g)) / gaps))


def oscillation(g: np.ndarray) -> float:
    """delta(g) = max g - min g."""
    g = np.asarray(g, dtype=float)
    return float(np.max(g) - np.min(g))


def product_chain(chains: list[ReversibleChain]) -> ReversibleChain:
    """Independent product: Kronecker-sum generator, product measure.

    Product states are indexed row-major: x = (x_1, ..., x_k) maps to
    x_1 * n_2 ... n_k + ... + x_k.
    """
    Q, mu, states = np.zeros((1, 1)), np.ones(1), [""]
    for c in chains:
        Q = np.kron(Q, np.eye(c.n)) + np.kron(np.eye(Q.shape[0]), c.Q)
        mu = np.kron(mu, c.mu)
        states = [f"{a},{b}" if a else str(b) for a in states for b in c.states]
    return build_chain(Q, mu=mu, states=states)     # which zeroes the diagonal first
