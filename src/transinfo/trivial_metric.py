"""Sharp results for the trivial metric d(x,y) = 1_{x != y}.

Built around the rate-1 resampling process X_t = Y_{N_t} (Poisson clock,
iid relabeling by mu), whose generator is Lg = mu(g) - g and whose
Dirichlet form is the plain variance: E(g, g) = Var_mu(g).  On this
carrier the square of the total variation is dominated by four times
the variance of sqrt(f),

    ||f mu - mu||_TV^2 <= 4 Var_mu(sqrt f),

with equality exactly on the two-valued density family, and the
exponential growth rate of E exp(lambda int u) over centered u with
oscillation <= 2 is capped by

    rho(lambda) = lambda^2             for |lambda| <= 1,
                  2|lambda| - 1        for |lambda| >  1.

The 2x2 reduction of the weighted process gives the growth rate in
closed form (the JumpSpectrum), which doubles as the finite-horizon
oracle for the Monte Carlo estimator.  That estimator (fk_growth_mc)
samples the process exactly, in lockstep over paths grouped by their
event count, with the bits of a one-path-at-a-time loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ReversibleChain, build_chain, dots
from .errors import DegenerateMeasure, EstimatorOverflow, ModelValidation, NoExactSplit
from .rng import by_chunks, check_count, check_seed, path_streams


def build_jump_chain(mu: np.ndarray, states=None) -> ReversibleChain:
    """Rate-1 pure-jump chain with Lg = mu(g) - g: q(x, y) = mu_y for x != y."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu <= 0):
        raise DegenerateMeasure("jump chain needs a strictly positive measure")
    mu = mu / mu.sum()
    n = len(mu)
    rates = np.tile(mu, (n, 1))
    np.fill_diagonal(rates, 0.0)
    return build_chain(rates, mu=mu, states=states)


def ckp_gap(mu: np.ndarray, f: np.ndarray):
    """(||f mu - mu||_TV^2, 4 Var_mu(sqrt f)), per row of a 2-D f; always TV^2 <= 4 Var."""
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    tv = dots(mu, np.abs(f - 1.0))
    m = dots(mu, np.sqrt(f))
    return tv * tv, 4.0 * (1.0 - m * m)


def ckp_extremal(p: float, mu: np.ndarray, subset=None) -> np.ndarray:
    """Two-valued density achieving equality in the TV^2 <= 4 Var bound.

    Takes the value (1-p)/p on a support part of mu-mass exactly p and
    p/(1-p) on the rest.  On a finite space such a part must exist as a
    subset (p = 0.5 degenerates to f = 1).
    """
    if not 0.0 < p < 1.0:
        raise ModelValidation("p must lie in (0, 1)")
    mu = np.asarray(mu, dtype=float)
    if subset is None:
        subset = _find_split(mu, p)
    mask = np.zeros(len(mu), dtype=bool)
    mask[list(subset)] = True
    wt = float(mu[mask].sum())
    if abs(wt - p) > 1e-12:
        raise NoExactSplit(f"subset carries mass {wt!r}, requested {p!r}")
    f = np.where(mask, (1.0 - p) / p, p / (1.0 - p))
    return f


def _find_split(mu: np.ndarray, p: float):
    n = len(mu)
    # subsets of a small support; fall back to error when nothing matches
    if n <= 20:
        for bits in range(1, 2 ** n - 1):
            idx = [i for i in range(n) if bits >> i & 1]
            if abs(mu[idx].sum() - p) <= 1e-12:
                return idx
    raise NoExactSplit(f"no subset of the support has mu-mass {p!r}")


def rho(lam: float) -> float:
    """Growth-rate cap: lambda^2 inside [-1, 1], 2|lambda| - 1 outside."""
    a = abs(lam)
    return a * a if a <= 1.0 else 2.0 * a - 1.0


@dataclass(frozen=True)
class JumpSpectrum:
    """2x2 spectral data of the weighted jump process at (p, lambda)."""

    p: float
    lam: float
    Delta: float
    s1: float
    s2: float
    growth: float


def jump_spectrum(p: float, lam: float) -> JumpSpectrum:
    """Closed-form growth rate of E exp(lambda int u) for the two-point family.

    u takes the values 2 - 2p (mass p) and -2p (mass 1 - p), so mu(u) = 0
    and the oscillation is 2.  The growth rate is lambda (1 - 2p) + s1
    with s1 the top eigenvalue of the reduced 2x2 operator; it equals
    rho(lambda) exactly on the curve lambda = 1 - 2p.
    """
    if not 0.0 < p < 1.0:
        raise ModelValidation("p must lie in (0, 1)")
    delta = 1.0 + 4.0 * lam * (lam + 2.0 * p - 1.0)
    sq = math.sqrt(delta)
    s1 = -0.5 + sq / 2.0
    s2 = -0.5 - sq / 2.0
    return JumpSpectrum(p=p, lam=lam, Delta=delta, s1=s1, s2=s2,
                        growth=lam * (1.0 - 2.0 * p) + s1)


def extremal_potential(p: float) -> np.ndarray:
    """The centered oscillation-2 observable (2 - 2p, -2p) on masses (p, 1-p)."""
    return np.array([2.0 - 2.0 * p, -2.0 * p])


def default_p_grid() -> np.ndarray:
    """199 uniform points on (0.005, 0.995); fixed so scans are reproducible."""
    return np.linspace(0.005, 0.995, 199)


def rho_sup_scan(lam: float, p_grid: np.ndarray | None = None):
    """Scan sup_p growth(p, lambda) against rho(lambda).

    For |lambda| < 1 the supremum is attained at p = (1 - lambda)/2 and
    equals lambda^2; for |lambda| >= 1 it stays strictly below rho(lambda),
    approached only toward the p -> 0 or p -> 1 boundary.
    """
    if p_grid is None:
        p_grid = default_p_grid()
    growths = np.array([jump_spectrum(p, lam).growth for p in p_grid])
    k = int(np.argmax(growths))
    return {
        "lam": lam,
        "rho": rho(lam),
        "sup": float(growths[k]),
        "argmax_p": float(p_grid[k]),
        "p_grid": np.asarray(p_grid, dtype=float),
        "growths": growths,
    }


def hellinger_check(mu: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """(TV^2 / 4, d_H^2 (2 - d_H^2)) with d_H^2 = 1 - mu(sqrt f).

    The Hellinger bound d_H^2 (2 - d_H^2) equals 1 - mu(sqrt f)^2, which
    is exactly Var_mu(sqrt f) for a probability density.
    """
    mu = np.asarray(mu, dtype=float)
    f = np.asarray(f, dtype=float)
    tv = float(np.dot(mu, np.abs(f - 1.0)))
    dh2 = 1.0 - float(np.dot(mu, np.sqrt(f)))
    return tv * tv / 4.0, dh2 * (2.0 - dh2)


# ---------------------------------------------------------------------------
# Monte Carlo growth estimate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthEstimate:
    estimate: float          # (1/t) log of the empirical exponential moment
    std_error: float         # delta-method standard error on the same scale
    exact_finite_t: float    # (1/t) log E exp(...) from the 2x2 matrix exponential
    growth: float            # t -> infinity rate from the spectrum
    n_paths: int
    t: float


def fk_growth_mc(p: float, lam: float, t: float, n_paths: int, seed: int) -> GrowthEstimate:
    """Monte Carlo exponential-moment growth for the two-point jump process.

    Simulates X = Y_{N_t} exactly (Poisson(1) event clock, iid relabeling)
    and averages exp(lambda int_0^t u(X_s) ds) for the extremal observable
    at parameter p.  The acceptance oracle is the exact finite-horizon
    value from the 2x2 matrix exponential rather than the t -> infinity
    limit, whose O(1/t) bias would force impractically long horizons.

    Paths run in lockstep, a range at a time, with the bits of a loop
    that draws one path at a time from its stream: a Poisson(t) count k,
    k event times uniform(0, t), then k + 1 label uniforms.  One
    random(2k + 1) call reads the same doubles, since uniform(0, t) is
    0 + t U for the next double U and the k + 1 doubles after those are
    what random(k + 1) reads.  A range's paths with k events form one
    (m, k + 2) array of interval bounds, sorted by row, and np.vecdot over
    its contiguous rows gives each path's np.dot bits (the chains.dots
    rule).
    """
    if not 0.0 < t <= 50:
        raise ModelValidation(f"horizon t must lie in (0, 50] for this estimator, not {t!r}")
    if not 0.0 < p < 1.0:
        raise ModelValidation("p must lie in (0, 1)")
    if not math.isfinite(lam):
        raise ModelValidation(f"lambda must be finite, not {lam!r}")
    if n_paths < 2:
        raise ModelValidation(f"a standard error needs at least 2 paths, not {n_paths!r}")
    check_count(n_paths)
    check_seed(seed)
    u = extremal_potential(p)
    if abs(lam) * t * float(np.max(np.abs(u))) > 700:
        raise EstimatorOverflow("lambda * t too large for a double-precision mean")
    # the inverse-CDF lookup Generator.choice(2, p=[p, 1 - p]) makes, same bits
    cdf = np.array([p, 1.0 - p]).cumsum()
    cdf /= cdf[-1]

    log_vals = by_chunks(lambda paths: _growth_log_moments(seed, paths, lam, t, u, cdf),
                         n_paths)
    vals = np.exp(log_vals)
    mean = float(vals.mean())
    se_mean = float(vals.std(ddof=1) / math.sqrt(n_paths))
    spec = jump_spectrum(p, lam)
    return GrowthEstimate(
        estimate=math.log(mean) / t,
        std_error=se_mean / (mean * t),
        exact_finite_t=exact_growth_finite_t(p, lam, t),
        growth=spec.growth,
        n_paths=n_paths,
        t=t,
    )


def _growth_log_moments(seed, paths: range, lam: float, t: float, u: np.ndarray,
                        cdf: np.ndarray) -> np.ndarray:
    """lambda int_0^t u(X_s) ds for the given paths, grouped by event count."""
    counts = np.empty(len(paths), dtype=np.int64)
    draws = []
    for j, (_, rng) in enumerate(path_streams(seed, paths)):
        k = counts[j] = rng.poisson(t)
        draws.append(rng.random(2 * k + 1))

    out = np.empty(len(paths))
    order = np.argsort(counts, kind="stable")
    ks, starts = np.unique(counts[order], return_index=True)
    for k, rows in zip(ks.tolist(), np.split(order, starts[1:])):
        D = np.array([draws[j] for j in rows])
        bounds = np.empty((len(rows), k + 2))      # 0, the sorted event times, t
        bounds[:, 0], bounds[:, -1] = 0.0, t
        bounds[:, 1:-1] = t * D[:, :k]
        bounds[:, 1:-1].sort(axis=1)
        labels = cdf.searchsorted(D[:, k:], side="right")
        out[rows] = lam * np.vecdot(u[labels], np.diff(bounds, axis=1))
    return out


def exact_growth_finite_t(p: float, lam: float, t: float) -> float:
    """(1/t) log E_mu exp(lambda int u) via the 2x2 matrix exponential."""
    from scipy.linalg import expm

    u = extremal_potential(p)
    weights = np.array([p, 1.0 - p])
    A = np.tile(weights, (2, 1)) - np.eye(2) + np.diag(lam * u)
    val = float(weights @ expm(t * A) @ np.ones(2))
    return math.log(val) / t
