"""One-dimensional diffusions: scale/speed data, discretization, C(rho).

A diffusion on (x0, y0) with generator a(x) g'' + b(x) g' carries Feller's
scale and speed derivatives

    s'(x) = exp(-int_c^x b/a),   m'(x) = (1/a) exp(int_c^x b/a),

with a s' m' = 1 identically and invariant density m'/Z.  For a warp
rho (increasing, C^1, in L^2(mu)) the Lipschitz-Poisson constant

    C(rho) = sup_x  (s'(x) / rho'(x)) int_x^{y0} [rho(z) - mu(rho)] m'(z) dz

bounds the Lipschitz norm of the solution of -(a h'' + b h') = g by
C(rho) ||g||_Lip(rho).  The s'(x) factor is a deliberate correction: the
solution h(x) = int_c^x s'(y) dy int_y^{y0} g m' satisfies the equation
exactly (via a s' m' = 1), whereas the variant without s' does not; both
values are computed and the grid Poisson solver arbitrates.

Discretization produces a birth-death chain in exact detailed balance
with the node weights: conservative fluxes through 1/s' at cell
midpoints make reversibility an identity, not an approximation, and the
scheme stays second-order consistent with a d^2 + b d at interior nodes.

Every integral over the interval runs on panels, evaluated on whole
arrays: the callables a and b are probed once for an array call (see
``DiffusionSpec1D``).  The error-controlled ones (B at the nodes,
``discretize``'s rates, ``scale_speed``, ``rho_a``, ``check_nonexplosion``)
run QUADPACK's first 21-point Gauss-Kronrod step on all panels at once,
its points as rows and the panels as columns, with the adaptive ``_quad``
for any panel that step does not settle; the panel masses that ``c_rho``
and ``normalize`` share take a fixed Gauss-Legendre rule.  A spec keeps
per grid its speed weights, those panel weights and ``discretize``'s
rates (see ``_per_grid``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chains import (ReversibleChain, _birth_death_chain, _frozen, _line_lipschitz,
                     _special_ufunc, min_nan, poisson_solve)
from .errors import (
    DivergenceDetected,
    DivergentSpeedMeasure,
    ModelValidation,
    QuadratureFailure,
    StepTooCoarse,
)

QUAD_TOL = 1e-10
_RUNG_PANELS = 16   # base panels per ladder interval of check_nonexplosion


@dataclass(frozen=True)
class DiffusionSpec1D:
    """Interval, diffusion coefficient a > 0, drift b, interior reference point.

    a and b must be pure functions: the array forms are chosen from their
    values on probe points, and the spec keeps the speed weights, panel
    weights and rates of the last grid it saw (see ``_per_grid``), all of
    which assume that a call returns the same float whenever it is made.
    """

    x0: float
    y0: float
    a: object            # callable x -> positive float
    b: object            # callable x -> float
    c_ref: float = 0.0

    # a_on / b_on evaluate a and b elementwise on an array of points:
    # through the callable's own array call when that call broadcasts and
    # reproduces its scalar values on the probe points to 4 ulp, else by a
    # loop over the points; ``on`` does the same for any other function
    def __post_init__(self):
        if not self.x0 < self.c_ref < self.y0:
            raise ModelValidation("c_ref must lie inside (x0, y0)")
        lo = self.x0 if math.isfinite(self.x0) else self.c_ref - 10.0
        hi = self.y0 if math.isfinite(self.y0) else self.c_ref + 10.0
        probe = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 33)
        av = np.array([self.a(x) for x in probe], dtype=float)
        bv = np.array([self.b(x) for x in probe], dtype=float)
        if not (np.all(np.isfinite(av)) and np.all(av > 0)):
            raise ModelValidation("a must be finite and positive on the interval")
        if not np.all(np.isfinite(bv)):
            raise ModelValidation("b must be finite on the interval")
        object.__setattr__(self, "_probe", probe)
        object.__setattr__(self, "_grid_entry", (None, {}))
        object.__setattr__(self, "a_on", _array_form(self.a, probe, av))
        object.__setattr__(self, "b_on", _array_form(self.b, probe, bv))

    def on(self, fn):
        """fn mapped over arrays of points, probed like ``a_on`` and ``b_on``."""
        return _array_form(fn, self._probe)


def _array_form(fn, probe: np.ndarray, values: np.ndarray | None = None):
    """fn mapped over arrays: its own array call if it matches its scalar values to 4 ulp.

    ``values`` are fn's scalar values on the probe points, computed here
    when not given; a function that fails on a probe point gets the loop.
    """
    try:
        if values is None:
            values = np.array([fn(x) for x in probe], dtype=float)
        with np.errstate(all="ignore"):
            got = _broadcast(fn, probe.reshape(3, 11)).ravel()
        vectorized = bool(np.all(np.abs(got - values) <= 4 * np.spacing(np.abs(values))))
    except Exception:   # a scalar-only callable may fail on arrays in any way
        vectorized = False
    if vectorized:
        return lambda x: _broadcast(fn, x)
    return lambda x: np.reshape(np.array([fn(v) for v in np.ravel(x)], dtype=float),
                                np.shape(x))


def _broadcast(fn, x) -> np.ndarray:
    """fn(x) as a float array of x's shape (a constant result is filled in)."""
    y = np.asarray(fn(x), dtype=float)
    if y.shape == np.shape(x):
        return y
    out = np.empty(np.shape(x))
    out[...] = y
    return out


@dataclass(frozen=True)
class Grid1D:
    """Strictly increasing nodes inside the diffusion interval."""

    nodes: np.ndarray

    @staticmethod
    def uniform(lo: float, hi: float, n: int) -> "Grid1D":
        return Grid1D.validate(np.linspace(lo, hi, n))

    @staticmethod
    def validate(nodes) -> "Grid1D":
        nodes = np.asarray(nodes, dtype=float).copy()
        if len(nodes) < 16:
            raise ModelValidation("grid needs at least 16 nodes")
        bad = np.flatnonzero(~np.isfinite(nodes))
        if len(bad):
            raise ModelValidation(f"grid nodes must be finite: node {bad[0]} is {nodes[bad[0]]}")
        if np.any(np.diff(nodes) <= 0):
            raise ModelValidation("grid nodes must be strictly increasing")
        return Grid1D(nodes=_frozen(nodes))


def _quad(fn, lo, hi):
    from scipy.integrate import quad

    val, err = quad(fn, lo, hi, epsabs=QUAD_TOL, epsrel=QUAD_TOL, limit=400)
    if not math.isfinite(val) or err > max(QUAD_TOL * 100, 1e-8 * abs(val)):
        raise QuadratureFailure(f"quadrature error {err:.2e} on [{lo}, {hi}]")
    return val


# QUADPACK's dqk21: the positive 21-point Kronrod abscissae (the Gauss
# ones at odd indices) and their weights, and the 10-point Gauss weights,
# as the nearest doubles to QUADPACK's 33-digit constants
_XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                 0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                 0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                 0.14887433898163122])
_WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                 0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                 0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
                0.26926671930999635, 0.29552422471475287])
_EPMACH, _UFLOW = np.finfo(float).eps, np.finfo(float).tiny


def _panel_quad(fn, lo, hi) -> np.ndarray:
    """int_{lo_k}^{hi_k} fn(z, lo_k) dz for every panel k, elementwise in lo, hi.

    fn maps a (21, panels) array of points, one row per Kronrod point, and
    the panels' left ends as one (1, panels) row, so that every term of the
    sums is a contiguous row.  Every panel gets QUADPACK's qk21 step with
    its error estimate, summed in dqk21's order, and keeps that value
    exactly where qagse (the adaptive routine behind ``_quad``) would stop
    after its first step: abserr <= max(QUAD_TOL, QUAD_TOL |value|), and
    abserr != resasc or abserr = 0.  Every other panel, non-finite ones
    included, goes through ``_quad`` with its checks.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape, lo, hi = lo.shape, lo.ravel(), hi.ravel()
    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    absc = _XGK[:, None] * hlgth
    with np.errstate(all="ignore"):
        f = fn(np.concatenate([centr - absc, centr + absc, centr[None]]), lo[None])
        fv1, fv2, fc = f[:10], f[10:20], f[20]
        resg, resk = 0.0, _WGK[10] * fc
        resabs = np.abs(resk)
        for j in (*range(1, 10, 2), *range(0, 10, 2)):
            fsum = fv1[j] + fv2[j]
            if j % 2:
                resg = resg + _WG[j // 2] * fsum
            resk = resk + _WGK[j] * fsum
            resabs = resabs + _WGK[j] * (np.abs(fv1[j]) + np.abs(fv2[j]))
        reskh = resk * 0.5
        resasc = _WGK[10] * np.abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK[j] * (np.abs(fv1[j] - reskh) + np.abs(fv2[j] - reskh))
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


def _drift_ratio(spec: DiffusionSpec1D):
    """b/a on arrays, as a ``_panel_quad`` integrand."""
    return lambda z, _left: spec.b_on(z) / spec.a_on(z)


def _speed(spec: DiffusionSpec1D):
    """m' relative to the panel's left end, e^{B(z) - B(left)} / a(z), on arrays."""
    return lambda z, left: np.exp(_panel_quad(_drift_ratio(spec), left, z)) / spec.a_on(z)


def scale_speed(spec: DiffusionSpec1D, x: float) -> tuple[float, float]:
    """(s'(x), m'(x)); satisfies a(x) s'(x) m'(x) = 1."""
    if not spec.x0 < x < spec.y0:
        raise ModelValidation(f"x = {x} outside the open interval")
    inner = float(_panel_quad(_drift_ratio(spec), spec.c_ref, x))
    return math.exp(-inner), math.exp(inner) / float(spec.a_on(x))


def _per_grid(build):
    """build(spec, nodes), kept on the spec for the last grid it saw.

    The spec holds one entry, keyed by the nodes' bytes, with each
    builder's arrays, read-only; another grid replaces it.  a and b are
    pure, so a kept value is the one a new build would return, bit for bit.
    """
    def kept(spec: DiffusionSpec1D, nodes: np.ndarray):
        key, entry = nodes.tobytes(), spec._grid_entry
        if entry[0] != key:
            entry = (key, {})
            object.__setattr__(spec, "_grid_entry", entry)
        parts = entry[1]
        if build not in parts:
            parts[build] = tuple(_frozen(a) for a in build(spec, nodes))
        return parts[build]

    return functools.update_wrapper(kept, build)


@_per_grid
def _speed_weights(spec: DiffusionSpec1D, nodes: np.ndarray):
    """(B, m', w) at the nodes: B = int_c^x b/a, m' = e^B / a, w = m' times the cell width."""
    panels = _panel_quad(_drift_ratio(spec), np.append(spec.c_ref, nodes[:-1]), nodes)
    B = panels[0] + np.concatenate([[0.0], np.cumsum(panels[1:])])
    with np.errstate(over="ignore"):    # a far c_ref; normalize and discretize name it
        m_prime = np.exp(B) / spec.a_on(nodes)
    return B, m_prime, m_prime * np.convolve(np.diff(nodes), [0.5, 0.5])   # cell widths


def normalize(spec: DiffusionSpec1D, grid: Grid1D) -> tuple[float, np.ndarray]:
    """(Z, mu_grid): speed-measure mass over the grid span and node weights.

    When an endpoint of the grid truncates the interval (rather than
    hitting it), the speed density must decay there; this is checked by
    a ratio test on the outer 10% of nodes.

    Z = sum_k e^{B_k} mass_k takes the fixed-rule panel masses of
    ``_panel_weights``, which ``c_rho`` shares.  On the catalog grids it
    is within 2 ulp of a nested qk21 quadrature; wider panels are weaker
    (up to 2e-9 relative at width 1.5, 7e-8 at 2, 6e-6 at 3; see README).
    """
    nodes = grid.nodes
    B, m_prime, weights = _speed_weights(spec, nodes)
    _check_tail_decay(spec, nodes, m_prime)
    with np.errstate(over="ignore"):
        Z = float(np.dot(np.exp(B[:-1]), _panel_weights(spec, nodes)[3]))
    if not (Z > 0 and math.isfinite(Z)):
        raise DivergentSpeedMeasure(f"speed mass Z = {Z!r}")
    return Z, weights / weights.sum()


def _check_tail_decay(spec, nodes, m_prime):
    # only a genuine truncation (interval reaching beyond ~2 steps past the
    # grid) needs decay; grids ending within a couple of steps of an open
    # endpoint are treated as covering it.  A ratio of underflowed or
    # overflowed densities is NaN and passes; later checks name the failure
    k = max(2, len(nodes) // 10)
    with np.errstate(divide="ignore", invalid="ignore"):
        if spec.y0 > nodes[-1] + 2.0 * (nodes[-1] - nodes[-2]):
            tail = m_prime[-k:]
            if np.mean(tail[1:] / tail[:-1]) >= 1.0:
                raise DivergentSpeedMeasure("speed density does not decay at the upper cut")
        if spec.x0 < nodes[0] - 2.0 * (nodes[1] - nodes[0]):
            head = m_prime[:k]
            if np.mean(head[:-1] / head[1:]) >= 1.0:
                raise DivergentSpeedMeasure("speed density does not decay at the lower cut")


def _ladder_partials(spec: DiffusionSpec1D, ladder: np.ndarray) -> list[float]:
    """I(R) = int_c^R s'(x) int_c^x m' dx at each rung R, up to the first that overflows.

    Each base panel is cut into ceil(|dB| / 8) equal ones, dB its integral
    of b/a, so that one qk21 step settles them.  A panel anchored at its left
    node x_k, beta = int_{x_k}^x b/a, adds e^{-B_k} M_k int e^{-beta} +
    int e^{-beta} int_{x_k}^x e^beta / a, M_k = int_c^{x_k} m'.  A rung
    where e^{+-B} is not finite ends the ladder before its panels run.
    """
    drift, speed = _drift_ratio(spec), _speed(spec)
    decay = lambda x, left: np.exp(-_panel_quad(drift, left, x))
    outer = lambda x, left: decay(x, left) * _panel_quad(speed, left, x)
    B, M, total, start, vals = 0.0, 0.0, 0.0, spec.c_ref, []
    for R in ladder:
        x = np.linspace(start, R, _RUNG_PANELS + 1)
        try:
            dB = _panel_quad(drift, x[:-1], x[1:])
            with np.errstate(over="ignore", invalid="ignore"):
                if not np.all(np.isfinite(np.exp(np.abs(B + np.cumsum(dB))))):
                    break
                cuts = np.maximum(np.ceil(np.abs(dB) / 8.0), 1).astype(int)
                x = np.append(np.concatenate([np.linspace(a, b, n, endpoint=False)
                                              for a, b, n in zip(x[:-1], x[1:], cuts)]), R)
                lo, hi = x[:-1], x[1:]
                Bx = B + np.cumsum(np.append(0.0, _panel_quad(drift, lo, hi)))
                Mx = M + np.cumsum(np.append(0.0, np.exp(Bx[:-1]) * _panel_quad(speed, lo, hi)))
                total += float(np.sum(np.exp(-Bx[:-1]) * Mx[:-1] * _panel_quad(decay, lo, hi)
                                      + _panel_quad(outer, lo, hi)))
        except QuadratureFailure:
            break
        if not math.isfinite(total):
            break
        vals.append(total)
        B, M, start = Bx[-1], Mx[-1], R
    return vals


def check_nonexplosion(spec: DiffusionSpec1D, cutoff: float) -> dict:
    """Divergence evidence for the boundary-inaccessibility integrals.

    Monitors I(R) = int_c^R s'(x) |int_c^x m'| dx at eight R from c + 0.2 (end - c)
    to nearly each end, which lies ``cutoff`` from c = c_ref, clipped to the
    interval.  Returns each side's ``partials`` (cut short where the integrand
    overflows) and ``verdict``, and an overall one: "divergent" (overflow, growth
    by 1e12, or by 1e3 with growing increments) or "inconclusive", never convergence.
    """
    if not cutoff > 0:
        raise ModelValidation(f"cutoff must be positive, not {cutoff!r}")
    out, c = {}, spec.c_ref
    for side, end in (("upper", min(c + cutoff, spec.y0)), ("lower", max(c - cutoff, spec.x0))):
        vals = _ladder_partials(spec, c + (end - c) * np.linspace(0.2, 1.0 - 1e-9, 8))
        divergent = len(vals) < 8 or vals[-1] > 1e12 * max(vals[0], 1e-30) or (
            vals[-1] > 1e3 * max(vals[0], 1e-30) and vals[-1] - vals[-2] > vals[1] - vals[0])
        out[side] = {"partials": vals, "verdict": "divergent" if divergent else "inconclusive"}
    divergent = out["upper"]["verdict"] == out["lower"]["verdict"] == "divergent"
    out["verdict"] = "divergent" if divergent else "inconclusive"
    return out


# ---------------------------------------------------------------------------
# Warps and the Lipschitz-Poisson constant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Warp:
    """Increasing C^1 reparametrization rho with its derivative.

    Both callables map an array of points elementwise.
    """

    value: object   # callable
    slope: object   # callable

    @staticmethod
    def identity() -> "Warp":
        return Warp(value=lambda x: x, slope=np.ones_like)

    @staticmethod
    def tanh_blend() -> "Warp":
        """x + tanh(x) / 2: an uneven but smooth strictly increasing warp."""
        return Warp(value=lambda x: x + 0.5 * np.tanh(x),
                    slope=lambda x: 1.0 + 0.5 / np.cosh(x) ** 2)

    @staticmethod
    def intrinsic(spec: DiffusionSpec1D) -> "Warp":
        """rho_a(x) = int_c^x dz / sqrt(a): the carre-du-champ metric warp."""
        return Warp(value=lambda x: rho_a(spec, x),
                    slope=lambda x: 1.0 / np.sqrt(spec.a_on(x)))


def rho_a(spec: DiffusionSpec1D, x):
    """Intrinsic-metric coordinate int_c^x dz / sqrt(a(z)), elementwise in x."""
    xs = np.asarray(x, dtype=float)
    if not np.all((spec.x0 < xs) & (xs < spec.y0)):
        raise ModelValidation(f"x outside the open interval ({spec.x0}, {spec.y0})")
    val = _panel_quad(lambda z, _left: 1.0 / np.sqrt(spec.a_on(z)),
                      np.minimum(spec.c_ref, xs), np.maximum(spec.c_ref, xs))
    val = np.where(xs >= spec.c_ref, val, -val)
    return float(val) if val.ndim == 0 else val


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_INNER, _GL_INNER_W = np.polynomial.legendre.leggauss(8)


@_per_grid
def _panel_weights(spec, nodes):
    """Per panel: half its width, its 12 Gauss points z, e^{B(z) - B(x_k)} / a(z) times
    the Gauss weights, and their mass, the parts of ``_panel_moments`` no warp enters."""
    lo, hi = nodes[:-1, None], nodes[1:, None]
    half = 0.5 * (hi - lo)
    zs = 0.5 * (hi + lo) + half * _GL_NODES                       # (panels, 12)
    ihalf, imid = 0.5 * (zs - lo), 0.5 * (zs + lo)
    inner = imid[..., None] + ihalf[..., None] * _GL_INNER       # (panels, 12, 8)
    dB = ihalf * ((spec.b_on(inner) / spec.a_on(inner)) @ _GL_INNER_W)
    with np.errstate(over="ignore"):
        val = np.exp(dB) / spec.a_on(zs) * _GL_WEIGHTS
    if not np.isfinite(val).all():
        raise StepTooCoarse("speed density overflows within a panel: the grid is too coarse "
                            "for the drift")
    return half, zs, val, np.sum(val, axis=1) * half[:, 0]


def _panel_moments(spec, rho, nodes):
    """Per-panel mass and rho-moment of e^{B(z) - B(x_k)} / a(z).

    Anchoring each panel's exponent at its own left node keeps every
    number O(1): the huge s'(x) prefactor of the Lipschitz-Poisson
    integrand enters only through exponent differences, never through a
    small-integral-times-huge-factor product that would amplify
    quadrature noise.
    """
    half, zs, val, mass = _panel_weights(spec, nodes)
    return mass, np.sum(val * rho.value(zs), axis=1) * half[:, 0]


def c_rho(spec: DiffusionSpec1D, rho: Warp, grid: Grid1D, corrected: bool = True) -> float:
    """The Lipschitz-Poisson constant C(rho) over the grid span.

    corrected=True includes the s'(x) factor (the variant the Poisson
    identity requires); corrected=False evaluates the bare 1/rho' form
    for comparison.  The corrected value is accumulated by directional
    recurrences anchored at the mode of the speed density: factors
    e^{B_{k+1} - B_k} are contractive on each side, so the O(1) result
    never passes through a tiny-integral-times-e^{+B} product.  The span
    total of (rho - mu(rho)) m' vanishes by the definition of mu(rho),
    which lets the left half use the mirrored left-tail integral.
    """
    nodes, n = grid.nodes, len(grid.nodes)
    rho_slopes = _broadcast(rho.slope, nodes)
    if not np.all(rho_slopes > 0):      # a NaN slope fails too
        raise ModelValidation("warp slope must be positive on the grid")
    B = _speed_weights(spec, nodes)[0]

    mass_p, moment_p = _panel_moments(spec, rho, nodes)
    shift = B[:-1] - np.max(B)
    Z = float(np.sum(np.exp(shift) * mass_p))
    mu_rho = float(np.sum(np.exp(shift) * moment_p)) / Z
    rho2 = float(np.dot(np.exp(shift) * mass_p, rho.value(0.5 * (nodes[:-1] + nodes[1:])) ** 2))
    if not math.isfinite(rho2 / Z):
        raise DivergenceDetected("rho is not square-integrable against mu")
    centered_p = moment_p - mu_rho * mass_p   # anchored at the panel's left node

    # right-tail recurrence T_i = P_i + e^{B_{i+1}-B_i} T_{i+1} (stable
    # where B decreases rightward) and the mirrored left-tail form, on
    # Python floats, which round as numpy's scalars do
    Bs, P, T, S = B.tolist(), centered_p.tolist(), [0.0] * n, [0.0] * n
    for i in range(n - 2, -1, -1):
        T[i] = P[i] + math.exp(min(Bs[i + 1] - Bs[i], 700.0)) * T[i + 1]
    for i in range(1, n):
        S[i] = math.exp(min(Bs[i - 1] - Bs[i], 700.0)) * (S[i - 1] - P[i - 1])
    i_mode = int(np.argmax(B))
    tails_scaled = np.array(S[:i_mode] + T[i_mode:])   # = s'(x_i) * tail_i

    vals = tails_scaled / rho_slopes if corrected else np.exp(B) * tails_scaled / rho_slopes
    if not np.all(np.isfinite(vals)):
        raise DivergenceDetected("C(rho) integrand overflowed")
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# Discretization
# ---------------------------------------------------------------------------

@_per_grid
def _rates(spec: DiffusionSpec1D, nodes: np.ndarray):
    """(up, down, mu) of ``discretize``'s chain, with 1/s' at the cell midpoints."""
    h = np.diff(nodes)
    B, _, w = _speed_weights(spec, nodes)
    half_cells = _panel_quad(_drift_ratio(spec), nodes[:-1], 0.5 * (nodes[:-1] + nodes[1:]))
    with np.errstate(all="ignore"):     # discretize names non-finite or zero rates
        conduct = np.exp(B[:-1] + half_cells)
        return conduct / (w[:-1] * h), conduct / (w[1:] * h), w / w.sum()


def discretize(spec: DiffusionSpec1D, grid: Grid1D) -> ReversibleChain:
    """Birth-death chain consistent with a g'' + b g' and reversible for mu_grid.

    Conservative form: (Lg)_i = (1/w_i) [ F_{i+1/2} - F_{i-1/2} ] with flux
    F_{i+1/2} = (g_{i+1} - g_i) / (s'(x_{i+1/2}) h_i) and w_i the speed
    weight of the node cell; reflecting (no-flux) truncation boundaries.
    Detailed balance for the cell weights holds exactly by symmetry of
    the edge conductances.
    """
    up, down, mu = _rates(spec, grid.nodes)
    if not np.all(np.isfinite(up) & np.isfinite(down) & (up >= 0) & (down >= 0)):
        raise StepTooCoarse("non-finite or nonpositive rates on the grid")
    return _birth_death_chain(up, down, mu=mu, states=[f"{x:.12g}" for x in grid.nodes.tolist()])


def lip_poisson_ratio(spec: DiffusionSpec1D, grid: Grid1D, rho: Warp,
                      g_samples: int = 12, seed: int = 29) -> float:
    """Empirical Poisson-Lipschitz ratio max ||h||_Lip(rho) / ||g||_Lip(rho).

    Solves the discretized Poisson equation for sampled 1-Lipschitz(rho)
    right-hand sides plus the extremal witness g = rho - mu(rho); the
    result is the sharp lower oracle for the corrected C(rho).  Its chain
    is ``discretize``'s, from the rates the spec keeps per grid.
    """
    chain = discretize(spec, grid)
    nodes = grid.nodes
    rho_vals = _broadcast(rho.value, nodes)
    gaps = np.diff(rho_vals)
    slopes = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(g_samples, len(nodes) - 1))
    walks = np.cumsum(slopes * gaps, axis=1)
    candidates = np.vstack([rho_vals, np.hstack([np.zeros((g_samples, 1)), walks])])
    best = 0.0
    for g in candidates - (candidates @ chain.mu)[:, None]:
        lip_g = _line_lipschitz(gaps, g)
        if lip_g <= 0:
            continue
        h = poisson_solve(chain, g)
        best = max(best, _line_lipschitz(gaps, h) / lip_g)
    return best


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck closed forms and dissipativity
# ---------------------------------------------------------------------------

def ou_spec() -> DiffusionSpec1D:
    """Standard mean-reverting unit diffusion: a = 1, b = -x on the line."""
    return DiffusionSpec1D(x0=-math.inf, y0=math.inf,
                           a=lambda x: 1.0, b=lambda x: -x, c_ref=0.0)


def ou_sigma2(t: float) -> float:
    """Variance rate of the time average: 2/t - (2/t^2)(1 - e^{-t})."""
    if t <= 0:
        raise ModelValidation("t must be positive")
    return 2.0 / t - 2.0 / (t * t) * (1.0 - math.exp(-t))


def ou_tail_lograte(r: float, t: float) -> float:
    """(1/t) log P(N(0, sigma^2(t)) > r); tends to -r^2/4 for large t."""
    sigma = math.sqrt(ou_sigma2(t))
    return float(_special_ufunc("log_ndtr")(-r / sigma)) / t


def dissipativity_margin(sigma_fn, b_fn, pairs: np.ndarray) -> float:
    """Sampled lower bound on the contraction rate delta.

    delta <= -[ tr((sigma(y)-sigma(x))(sigma(y)-sigma(x))^T)
                + <y-x, b(y)-b(x)> ] / |y-x|^2 over all pairs; the
    infimum over the samples estimates (does not certify) the best delta.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.shape[0] < 1000:
        raise ModelValidation("need at least 1000 sampled pairs")
    worst = math.inf
    for x, y in pairs:
        dx = y - x
        norm2 = float(np.dot(dx, dx))
        if norm2 < 1e-14:
            continue
        ds = np.atleast_2d(np.asarray(sigma_fn(y), dtype=float) -
                           np.asarray(sigma_fn(x), dtype=float))
        db = np.asarray(b_fn(y), dtype=float) - np.asarray(b_fn(x), dtype=float)
        worst = min_nan(worst, -(float(np.sum(ds * ds)) + float(np.dot(dx, db))) / norm2)
    return worst
