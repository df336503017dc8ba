"""Drift conditions -LU/U >= phi - b and the bounds they buy.

A continuous U >= 1 with -LU/U >= phi - b couples the weighted total
variation of nu - mu to the information I(nu | mu): the key fact, exact
on finite chains, is

    <-LU/U, nu>  <=  I(nu | mu)        for every density nu = f mu,

because -L - diag(LU/U) annihilates the positive function U and is
therefore nonnegative definite (ground-state transform).  On top of a
Poincare constant c_P this yields, for phi in L^2(mu) and any a >= 2,

    ||phi (nu-mu)||_TV      <= (1+2b c_P) (a+1)/(a-1) I + a sqrt(2)||phi||_2 sqrt(c_P I)
    ||sqrt(phi)(nu-mu)||_TV^2 <= 2 [3(1+2b c_P) + 2 sqrt(2)||phi||_2 c_P] I   (a = 2)

and, under curvature bounded below by K <= 0 with phi = c d(.,x0)^2, a
log-Sobolev constant A + (B+2) c_P with A = (1-K/2)(2/c)+1 and
B = (2/c)(b + mu(phi))(1-K/2).

Worked generators: the service-queue birth-death chain with Poisson
invariant measure (birth rate lambda, death rate n, where
-LU/U(n) = n(1-e^{-c}) - lambda(e^c - 1) for U = e^{cn}), and the
|x|^beta potential family with U = e^{lambda V}, phi = delta(1+|V'|^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import (Density, ReversibleChain, _birth_death_chain, _special_ufunc, dots,
                     fisher_information, min_nan, spectral_gap, tv_weighted)
from .diffusion1d import DiffusionSpec1D, Grid1D, discretize
from .errors import ModelValidation, NotCertified, TruncationTooSmall, UBelowOne
from .transport import RateFunction

CERT_TOL = 1e-10


@dataclass(frozen=True)
class LyapunovCertificate:
    U: np.ndarray
    phi: np.ndarray
    b: float
    max_violation: float
    excluded: tuple = ()          # boundary nodes left out of certification
    excluded_violation: float = 0.0

    @property
    def certified(self) -> bool:
        return self.max_violation <= CERT_TOL


def drift_ratio(chain: ReversibleChain, U: np.ndarray) -> np.ndarray:
    """-(LU)/U entrywise; requires U >= 1."""
    U = np.asarray(U, dtype=float)
    if np.any(U < 1.0 - 1e-12):
        raise UBelowOne("drift test function must satisfy U >= 1")
    return -(chain.Q @ U) / U


def certify_H(chain: ReversibleChain, U: np.ndarray, phi: np.ndarray, b: float,
              exclude=()) -> LyapunovCertificate:
    """Certificate for -LU/U >= phi - b, checked entrywise.

    Truncation distorts the generator at boundary states; indices in
    ``exclude`` are dropped from certification and their worst violation
    is reported separately.
    """
    phi = np.asarray(phi, dtype=float)
    if np.any(phi < 0) or b < 0:
        raise ModelValidation("phi and b must be nonnegative")
    ratio = drift_ratio(chain, U)
    violation = (phi - b) - ratio
    mask = np.ones(chain.n, dtype=bool)
    mask[list(exclude)] = False
    max_v = float(np.max(violation[mask])) if np.any(mask) else -math.inf
    exc_v = float(np.max(violation[~mask])) if np.any(~mask) else 0.0
    return LyapunovCertificate(U=np.asarray(U, dtype=float), phi=phi, b=float(b),
                               max_violation=max_v,
                               excluded=tuple(int(i) for i in exclude),
                               excluded_violation=exc_v)


def _density_rows(chain: ReversibleChain, densities) -> np.ndarray:
    """The densities as rows: a 2-D array as it is, else one row per vector or Density."""
    if isinstance(densities, np.ndarray) and densities.ndim == 2:
        return densities
    rows = [f.f if isinstance(f, Density) else f for f in densities]
    return np.array(rows, dtype=float).reshape(len(rows), -1) if rows else np.empty((0, chain.n))


def drift_info_bound_check(chain: ReversibleChain, U: np.ndarray,
                           densities) -> float:
    """min over densities of I(f mu | mu) - <(-LU/U), f mu>; never negative."""
    ratio = drift_ratio(chain, U)
    f = _density_rows(chain, densities)
    info = fisher_information(chain, Density.validate(chain.mu, f))
    # a running min from inf, which carries a NaN
    return min_nan(math.inf, *(info - dots(ratio, chain.mu * f)).tolist())


def thm51_bounds(c_p: float, b: float, phi_l2: float, a_param: float,
                 info: float) -> tuple[float, float]:
    """RHS values of the two weighted-TV bounds at information level ``info``."""
    if a_param < 2:
        raise ModelValidation("a must be at least 2")
    if min(c_p, b, phi_l2, info) < 0:
        raise ModelValidation("all arguments must be nonnegative")
    base = 1.0 + 2.0 * b * c_p
    bound_a = base * (a_param + 1.0) / (a_param - 1.0) * info \
        + a_param * math.sqrt(2.0) * phi_l2 * math.sqrt(c_p * info)
    bound_b = 2.0 * (3.0 * base + 2.0 * math.sqrt(2.0) * phi_l2 * c_p) * info
    return bound_a, bound_b


def verify_thm51(chain: ReversibleChain, cert: LyapunovCertificate, density_samples):
    """Both weighted-TV bounds (a = 2) against sampled densities; PASS needs slack >= -1e-8."""
    if not cert.certified:
        raise NotCertified(f"certificate has violation {cert.max_violation:.3e}")
    _, c_p = spectral_gap(chain)
    phi_l2 = math.sqrt(float(np.dot(chain.mu, cert.phi ** 2)))
    dens = Density.validate(chain.mu, _density_rows(chain, density_samples))
    infos = fisher_information(chain, dens).tolist()
    tv_phi = tv_weighted(chain, dens, cert.phi).tolist()
    tv_sqrt = tv_weighted(chain, dens, np.sqrt(cert.phi)).tolist()
    rows = []
    worst = math.inf
    for idx, (info, lhs1, tv) in enumerate(zip(infos, tv_phi, tv_sqrt)):
        lhs2 = tv ** 2
        bound_a, bound_b = thm51_bounds(c_p, cert.b, phi_l2, 2.0, info)
        slack = min_nan(bound_a - lhs1, bound_b - lhs2)
        worst = min_nan(worst, slack)
        rows.append((idx, lhs1, bound_a, lhs2, bound_b, slack))
    return {"rows": rows, "worst_slack": float(worst),
            "passed": bool(worst >= -1e-8), "c_p": float(c_p), "phi_l2": phi_l2}


def cor52_alpha(kappa: float, p: float) -> RateFunction:
    """Deviation rate kappa [(1 + r^2)^{p/2} - 1] for the phi^{1/p} class."""
    return RateFunction.power(kappa, p)


def lsi_constant_from_lyapunov(K: float, c: float, b: float, mu_phi: float,
                               c_p: float) -> float:
    """Tight log-Sobolev constant A + (B + 2) c_P from the drift data.

    A = (1 - K/2)(2/c) + 1 and B = (2/c)(b + mu(phi))(1 - K/2); requires
    curvature bound K <= 0 and phi of the squared-distance form.
    """
    if K > 0:
        raise ModelValidation("this route takes a nonpositive curvature bound")
    if c <= 0:
        raise ModelValidation("c must be positive")
    factor = 1.0 - K / 2.0
    A = factor * (2.0 / c) + 1.0
    B = (2.0 / c) * (b + mu_phi) * factor
    return A + (B + 2.0) * c_p


# ---------------------------------------------------------------------------
# Worked generators
# ---------------------------------------------------------------------------

def mminf_generator(lambda_rate: float, n_max: int) -> tuple[ReversibleChain, np.ndarray]:
    """Truncated service queue: birth rate lambda, death rate n, Poisson measure.

    Detailed balance mu(n) lambda = mu(n+1) (n+1) is exact for the
    (renormalized) Poisson weights; truncation must leave less than
    1e-10 tail mass.
    """
    gammaln, gammainc, xlogy = map(_special_ufunc, ("gammaln", "gammainc", "xlogy"))
    if lambda_rate <= 0 or n_max < 2:
        raise ModelValidation("need lambda_rate > 0 and n_max >= 2")
    tail = float(gammainc(np.floor(n_max) + 1.0, lambda_rate))   # pdtrc(n_max, lambda)
    if tail >= 1e-10:
        raise TruncationTooSmall(f"Poisson tail beyond n_max is {tail:.3e}")
    counts = np.arange(n_max + 1)
    weights = np.exp(xlogy(counts, lambda_rate) - gammaln(counts + 1.0) - lambda_rate)
    mu = weights / weights.sum()
    chain = _birth_death_chain(np.full(n_max, lambda_rate), counts[1:], mu,
                               states=[str(k) for k in counts])
    return chain, mu


def mminf_certificate(lambda_rate: float, n_max: int, c: float):
    """(chain, certificate) for U = e^{cn}, phi(n) = n(1-e^{-c}), b = lambda(e^c-1).

    Exact at every node: the interior identity is algebraic, n = 0 is an
    equality by the reflecting convention, and the truncated top node
    only gains margin by losing its arrival term.
    """
    chain, _ = mminf_generator(lambda_rate, n_max)
    n_vals = np.arange(n_max + 1, dtype=float)
    U = np.exp(c * n_vals)
    phi = n_vals * (1.0 - math.exp(-c))
    b = lambda_rate * (math.exp(c) - 1.0)
    cert = certify_H(chain, U, phi, b)
    return chain, cert


@dataclass(frozen=True)
class BetaPotentialModel:
    spec: DiffusionSpec1D
    grid: Grid1D
    chain: ReversibleChain       # the discretization of spec on grid
    U: np.ndarray
    phi: np.ndarray
    b: float
    lam: float
    delta: float
    p_exponent: float | None     # 2(beta-1) when beta > 3/2, else None


def beta_potential_example(beta: float, grid: Grid1D | None = None) -> BetaPotentialModel:
    """Drift data for the |x|^beta potential, smoothed to C^2 near zero.

    V(x) = |x|^beta outside |x| <= 1 and an even quartic blend inside
    (value and two derivatives matched at |x| = 1).  With U = e^{lam V}
    the drift is (lam - lam^2)|V'|^2 - lam V'' and the choice
    lam = (1 - gamma')/2, delta = lam^2/2 (gamma' midway between the
    V''/|V'|^2 tail ratio gamma and 1) satisfies
    lam - lam^2 = gamma' lam + 2 delta, giving phi = delta(1 + |V'|^2).
    The constant b is taken from the discretized generator, which the
    model carries as ``chain``, so that the certificate is exact on
    interior nodes.
    """
    if not beta >= 1:
        raise ModelValidation(f"beta must be at least 1, not {beta!r}")
    if grid is None:
        grid = Grid1D.uniform(-6.0, 6.0, 481)
    # e^-V at the widest node must be a normal double; by logs, so a huge beta cannot overflow
    widest = float(np.max(np.abs(grid.nodes)))
    if beta * math.log(widest) > math.log(-math.log(np.finfo(float).tiny)):
        raise ModelValidation(f"beta {beta!r} is too large for the grid: e^-|x|^beta is below "
                              f"the smallest normal double at its widest node {widest!r}")
    V, Vp, Vpp = _blended_potential(beta)
    spec = DiffusionSpec1D(x0=-math.inf, y0=math.inf,
                           a=lambda x: 1.0, b=lambda x: -Vp(x), c_ref=0.0)
    nodes = grid.nodes
    outer = np.abs(nodes) >= 0.6 * float(np.max(np.abs(nodes)))
    vp_outer = Vp(nodes[outer])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(vp_outer != 0, Vpp(nodes[outer]) / vp_outer ** 2, 0.0)
    gamma = max(0.0, float(np.max(ratios)))
    gamma_p = (gamma + 1.0) / 2.0
    lam = (1.0 - gamma_p) / 2.0
    delta = lam * lam / 2.0

    # -LU/U is invariant under constant scaling of U, so anchor at the
    # potential minimum to keep U >= 1 (the blend constant can be negative)
    v_vals = V(nodes)
    U = np.exp(lam * (v_vals - float(np.min(v_vals))))
    phi = delta * (1.0 + Vp(nodes) ** 2)

    chain = discretize(spec, grid)
    ratio = drift_ratio(chain, U)
    interior = np.ones(len(nodes), dtype=bool)
    interior[[0, -1]] = False
    b = float(np.max(phi[interior] - ratio[interior]))
    b = max(b, 0.0)
    return BetaPotentialModel(spec=spec, grid=grid, chain=chain, U=U, phi=phi, b=b,
                              lam=lam, delta=delta,
                              p_exponent=2.0 * (beta - 1.0) if beta > 1.5 else None)


def _blended_potential(beta: float):
    # quartic even blend p(x) = a0 + a2 x^2 + a4 x^4 matching value and two
    # derivatives of |x|^beta at |x| = 1; each function maps arrays
    a4 = beta * (beta - 2.0) / 8.0
    a2 = beta * (4.0 - beta) / 4.0
    a0 = 1.0 - a2 - a4

    def V(x):
        ax = np.abs(x)
        return np.where(ax >= 1.0, ax ** beta, a0 + a2 * x * x + a4 * x ** 4)

    def Vp(x):
        ax = np.abs(x)
        return np.where(ax >= 1.0, beta * ax ** (beta - 1.0) * np.copysign(1.0, x),
                        2.0 * a2 * x + 4.0 * a4 * x ** 3)

    def Vpp(x):
        ax = np.abs(x)
        return np.where(ax >= 1.0, beta * (beta - 1.0) * ax ** (beta - 2.0),
                        2.0 * a2 + 12.0 * a4 * x * x)

    return V, Vp, Vpp
