"""Exact path simulation and deviation-bound stress tests.

Chain paths are exact (exponential holding times, jump proportional to
rates) with exact piecewise-constant occupation integrals, so the only
randomness in a tail estimate is binomial.  They advance in lockstep:
each step of the event loop moves every live path of a range by one
event on arrays, with the same floating-point operations, in the same
order, as a path simulated on its own.  The mean-reverting unit
diffusion has exact Gaussian transition updates; other 1-D diffusions
use Euler-Maruyama with trapezoidal integrals.  Euler paths also advance
in lockstep: each path of a range draws its shocks into one row of a
buffer, then every step moves all the range's paths on arrays, with the
same operations in the same order as one path on its own, and writes u
at the new points over the shocks it used.  The samples equal those of
one-at-a-time paths.  The callables
a, b and u are called on arrays only where their array call reproduces
their scalar values on the spec's probe points (see ``DiffusionSpec1D``);
where that array call takes an exp, a log or a power, whose numpy forms
can differ from the scalar ones in the last bit, a sample can move in its
last digits.

Every path draws from its own counter-based stream keyed by
(master_seed, path index), in a fixed per-path order, and every sampler
hands its paths to ``rng.by_chunks``: estimates are bitwise reproducible
however the paths are chunked or spread over threads.  Exact OU paths
run on threads, so their observable u must be a pure function of its
argument.

Tail probabilities of time averages are compared against the proven
bounds ||d beta/d mu||_2 exp(-t alpha(r)); exact Clopper-Pearson
intervals at 99% make "bound_violated" an unambiguous verdict before it
is treated as an implementation-bug signal, since asymptotic intervals
understate uncertainty exactly in the near-zero regime of interest.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .chains import ReversibleChain, _betaincinv, _scipy_extension
from .diffusion1d import DiffusionSpec1D
from .errors import ModelValidation, StepTooLarge
from .rng import CHUNK, by_chunks, check_count, check_seed, path_streams
from .transport import RateFunction


@dataclass(frozen=True)
class OUModel:
    """Mean-reverting unit diffusion dX = -X dt + sqrt(2) dB, stationary N(0,1)."""


@dataclass(frozen=True)
class EnsembleConfig:
    """An ensemble of paths: the model, its start, the horizon and the seed.

    ``beta`` is a probability vector on a chain's states; for a diffusion
    it is a point or "stationary".  With "stationary", exact OU paths draw
    their start from N(0, 1), but Euler paths of a ``DiffusionSpec1D`` all
    start at the spec's ``c_ref``.  ``sde_step`` is the step of the OU and
    Euler grids; a whole number of steps must cover the horizon, to 1e-9
    relative.
    """

    model: object               # ReversibleChain | DiffusionSpec1D | OUModel
    beta: object                # probability vector | "stationary" | float (point mass)
    t: float
    n_paths: int
    master_seed: int
    sde_step: float = 1e-3

    def __post_init__(self):
        check_count(self.n_paths)
        check_seed(self.master_seed)
        if not 0 < self.t < math.inf:
            raise ModelValidation(f"horizon must be positive and finite, not {self.t!r}")
        if isinstance(self.model, ReversibleChain):
            b = np.asarray(self.beta, dtype=float)
            # NaN fails b >= 0, and an inf entry fails it or the mass check
            if b.shape != (self.model.n,) or not np.all(b >= 0) or abs(b.sum() - 1) > 1e-9:
                raise ModelValidation("beta must be a probability vector on the states")
            return
        if isinstance(self.beta, str):
            if self.beta != "stationary":
                raise ModelValidation(f"beta must be 'stationary' or a point, not {self.beta!r}")
        elif not math.isfinite(self.beta):
            raise ModelValidation(f"beta must be a finite point, not {self.beta!r}")
        # the samplers integrate over round(t/h) steps of h and divide by t,
        # so the steps must cover the horizon
        h = self.sde_step
        if not 0 < h < math.inf:
            raise ModelValidation(f"sde_step must be positive and finite, not {h!r}")
        if math.isinf(self.t / h):
            raise ModelValidation(f"horizon {self.t!r} is too many steps of {h!r}")
        n = round(self.t / h)
        if n < 1 or abs(n * h - self.t) > 1e-9 * self.t:
            raise ModelValidation(f"sde_step {h!r} does not tile the horizon {self.t!r}: "
                                  f"{n} steps cover {n * h!r}")

    def beta_l2(self) -> float:
        """||d beta / d mu||_2; +inf marks an illustrative (non-L^2) start."""
        if isinstance(self.model, ReversibleChain):
            b = np.asarray(self.beta, dtype=float)
            return float(math.sqrt(np.dot(self.model.mu, (b / self.model.mu) ** 2)))
        if isinstance(self.beta, str) and self.beta == "stationary":
            return 1.0
        return math.inf


@dataclass(frozen=True)
class DeviationEstimate:
    p_hat: float
    ci_low: float
    ci_high: float
    bound_value: float
    verdict: str                  # consistent | bound_violated | inconclusive
    n_paths: int
    hits: int
    threshold: float
    beta_l2: float


def clopper_pearson(hits: int, n: int, level: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial interval at the given confidence level."""
    betaincinv = _betaincinv()
    tail = (1.0 - level) / 2.0
    lo = 0.0 if hits == 0 else betaincinv(float(hits), float(n - hits + 1), tail)
    hi = 1.0 if hits == n else betaincinv(float(hits + 1), float(n - hits), 1.0 - tail)
    return lo, hi


# ---------------------------------------------------------------------------
# Path sampling
# ---------------------------------------------------------------------------

def sample_time_average(config: EnsembleConfig, u) -> np.ndarray:
    """Vector of time averages (1/t) int_0^t u(X_s) ds, one entry per path."""
    if isinstance(config.model, ReversibleChain):
        return _chain_time_averages(config, np.asarray(u, dtype=float))
    if isinstance(config.model, OUModel):
        return _ou_time_averages(config, u)
    if isinstance(config.model, DiffusionSpec1D):
        return _euler_time_averages(config, u)
    raise ModelValidation(f"unknown model type {type(config.model)!r}")


# A path draws its start uniform, then blocks of _BLOCK holding-time
# exponentials and _BLOCK jump uniforms as it needs them; the paths of a
# range share one pair of block buffers.
_BLOCK = 64


def _cumulative_table(weights: np.ndarray) -> np.ndarray:
    """Inverse-CDF table: state = searchsorted(table, U) for U in [0, 1).

    Entries from the last positive weight onward are exactly 1.0, so a
    cumulative sum that ends just below 1 can never send a uniform past
    the last state that carries mass.  No other entry changes.
    """
    cum = np.cumsum(weights)
    positive = np.flatnonzero(weights > 0)
    if positive.size:
        cum[positive[-1]:] = 1.0
    return cum


def _draw_block(rng, exps: np.ndarray, unis: np.ndarray) -> None:
    # standard_exponential(out=) draws the bits of exponential(size=_BLOCK)
    rng.standard_exponential(out=exps)
    rng.random(out=unis)


def _chain_time_averages(config: EnsembleConfig, u: np.ndarray) -> np.ndarray:
    chain = config.model
    # per-state jump distributions as cumulative tables; a state without
    # exits keeps a row of ones that no path consults (its holding time is
    # infinite)
    jump_cum = np.ones((chain.n, chain.n))
    for x in range(chain.n):
        row = chain.Q[x].copy()
        row[x] = 0.0
        total = row.sum()
        if total > 0:
            jump_cum[x] = _cumulative_table(row / total)
    beta_cum = _cumulative_table(np.asarray(config.beta, dtype=float))
    return by_chunks(lambda paths: _chain_chunk(config.master_seed, paths, config.t, u,
                                                chain.exit_rates, jump_cum, beta_cum),
                     config.n_paths)


def _chain_chunk(seed, paths: range, t: float, u: np.ndarray, exit_rates: np.ndarray,
                 jump_cum: np.ndarray, beta_cum: np.ndarray) -> np.ndarray:
    """Time averages of u for the given paths, one event per loop step."""
    m = len(paths)
    start = np.empty(m)
    exps = np.empty((m, _BLOCK))
    unis = np.empty((m, _BLOCK))
    for j, (_, rng) in enumerate(path_streams(seed, paths)):
        start[j] = rng.random()
        _draw_block(rng, exps[j], unis[j])

    out = np.empty(m)
    live = np.arange(m)                    # rows whose path has not reached t
    state = np.searchsorted(beta_cum, start)
    clock = np.zeros(m)
    integral = np.zeros(m)
    resumed = {}                           # row -> its stream, past the drawn blocks
    k = 0
    while live.size:
        if k == _BLOCK:
            # rare: a path outlived its block; replay its stream once, then
            # keep that stream for any further blocks
            for j in live:
                rng = resumed.get(j)
                if rng is None:
                    _, rng = next(path_streams(seed, [paths[j]]))
                    rng.random()
                    _draw_block(rng, exps[j], unis[j])
                    resumed[j] = rng
                _draw_block(rng, exps[j], unis[j])
            k = 0
        rate = exit_rates[state]
        hold = np.divide(exps[live, k], rate, out=np.full(live.size, np.inf),
                         where=rate > 0)
        ends = clock + hold >= t
        out[live[ends]] = (integral[ends] + u[state[ends]] * (t - clock[ends])) / t
        go = ~ends
        live, state, clock, integral, hold = live[go], state[go], clock[go], integral[go], hold[go]
        integral += u[state] * hold
        clock += hold
        # the count of table entries below U is searchsorted(row, U, 'left')
        state = (jump_cum[state] < unis[live, k][:, None]).sum(axis=1)
        k += 1
    return out


def _ou_initial(config, rng):
    if isinstance(config.beta, str) and config.beta == "stationary":
        return rng.standard_normal()
    return float(config.beta)


# OU paths run in blocks of _OU_BLOCK on threads, one worker per usable CPU;
# the stream draws, scipy's compiled one-pole filter and most of trapezoid
# release the GIL.
_OU_BLOCK = 64


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # platforms without CPU affinity
        return os.cpu_count() or 1


def _ou_time_averages(config: EnsembleConfig, u) -> np.ndarray:
    """Exact Gaussian transition updates on a uniform step grid.

    The update x_{k+1} = d x_k + s xi_k is a linear recursion, evaluated
    per path with a one-pole filter so long horizons stay cheap without
    giving up per-path streams.  The filter is scipy's compiled
    ``_linear_filter`` from ``scipy.signal._sigtools``, called with the
    arguments that ``lfilter(b, a, x)`` passes it for a two-term ``a``:
    the same routine on the same float64 arrays, so the same bits, without
    importing ``scipy.signal``.
    """
    linear_filter = _scipy_extension("signal._sigtools")._linear_filter
    h = config.sde_step
    n_steps = int(round(config.t / h))
    decay = math.exp(-h)
    noise_sd = math.sqrt(1.0 - decay * decay)
    b, a = np.array([noise_sd]), np.array([1.0, -decay])
    powers = decay ** np.arange(1, n_steps + 1)

    def run_block(paths: range) -> np.ndarray:
        shocks = np.empty(n_steps)
        path = np.empty(n_steps + 1)
        out = np.empty(len(paths))
        for j, (_, rng) in enumerate(path_streams(config.master_seed, paths)):
            x0 = _ou_initial(config, rng)
            rng.standard_normal(out=shocks)
            path[0] = x0
            np.multiply(powers, x0, out=path[1:])
            path[1:] += linear_filter(b, a, shocks, -1)
            vals = u(path) if callable(u) else path
            out[j] = float(np.trapezoid(vals, dx=h)) / config.t
        return out

    return by_chunks(run_block, config.n_paths, _OU_BLOCK, workers=_usable_cpus())


# An Euler chunk holds its paths in one (paths, steps + 1) buffer, first of
# shocks, then of u values; the chunk is cut so that the buffer stays
# within _EULER_FLOATS floats (8 MB), however long the horizon.
_EULER_FLOATS = 1 << 20


def _euler_time_averages(config: EnsembleConfig, u) -> np.ndarray:
    spec = config.model
    h = config.sde_step
    if h > 0.1:
        raise StepTooLarge("sde_step above 0.1 violates the stability heuristic")
    n_steps = int(round(config.t / h))
    x_start = float(config.beta) if not isinstance(config.beta, str) else spec.c_ref
    u_on = spec.on(u)
    chunk = max(1, min(CHUNK, _EULER_FLOATS // (n_steps + 1)))
    return by_chunks(lambda paths: _euler_chunk(config.master_seed, paths, spec, x_start,
                                                h, n_steps, u_on) / config.t,
                     config.n_paths, chunk)


def _euler_chunk(seed, paths: range, spec: DiffusionSpec1D, x_start: float, h: float,
                 n_steps: int, u_on) -> np.ndarray:
    """Integrals of u along the chunk's Euler paths, one array step per Euler step.

    Row j of the buffer first holds path j's shocks in columns 1..n_steps;
    step k reads the shocks of column k and writes u at the new points
    over them.  Each row is then integrated on its own, as a lone path's
    values are, which needs no temporary the size of the buffer.
    """
    m = len(paths)
    vals = np.empty((m, n_steps + 1))
    for j, (_, rng) in enumerate(path_streams(seed, paths)):
        rng.standard_normal(out=vals[j, 1:])
    lo, hi = spec.x0 + 1e-12, spec.y0 - 1e-12
    lowest_var = np.full(m, np.inf)
    x = np.full(m, x_start)
    vals[:, 0] = u_on(x)
    for k in range(1, n_steps + 1):
        drift = x + spec.b_on(x) * h
        var = 2.0 * spec.a_on(x) * h
        np.fmin(lowest_var, var, out=lowest_var)
        x = drift + np.sqrt(var) * vals[:, k]
        # min(max(x, lo), hi), in the order of the scalar clip
        np.minimum(np.maximum(x, lo, out=x), hi, out=x)
        vals[:, k] = u_on(x)
    if np.any(lowest_var < 0):
        raise ModelValidation("a is negative at a point of an Euler path")
    return np.array([np.trapezoid(row, dx=h) for row in vals])


# ---------------------------------------------------------------------------
# Deviation bounds
# ---------------------------------------------------------------------------

def hoeffding_bound(c_p: float, delta_u: float, t: float, r: float) -> float:
    """exp(-t r^2 / (c_P delta(u)^2)): the oscillation bound from the gap."""
    if min(c_p, delta_u, t, r) <= 0:
        raise ModelValidation("all arguments must be positive")
    return math.exp(-t * r * r / (c_p * delta_u * delta_u))


def lipschitz_gauss_bound(C: float, lip_u: float, t: float, r: float) -> float:
    """exp(-t r^2 / (4 C^2 ||u||_Lip^2)): the Lipschitz spectral-gap bound."""
    if min(C, lip_u, t) <= 0 or r < 0:
        raise ModelValidation("C, lip_u, t must be positive and r nonnegative")
    return math.exp(-t * r * r / (4.0 * C * C * lip_u * lip_u))


def mu_of_observable(config: EnsembleConfig, v) -> float:
    """mu(v) under the model's stationary measure."""
    if isinstance(config.model, ReversibleChain):
        return config.model.expectation(np.asarray(v, dtype=float))
    if isinstance(config.model, OUModel):
        from scipy.integrate import quad

        fn = v if callable(v) else (lambda x: x)
        val, _ = quad(
            lambda x: float(np.asarray(fn(np.array([x])))[0])
            * math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi),
            -12, 12)
        return val
    raise ModelValidation("supply mu_v explicitly for generic diffusions")


def tail_estimate(config: EnsembleConfig, u, v_or_same, r: float,
                  alpha: RateFunction, mu_v: float | None = None,
                  samples: np.ndarray | None = None) -> DeviationEstimate:
    """P(time average of u >= mu(v) + r) versus ||dbeta/dmu||_2 e^{-t alpha(r)}."""
    if r <= 0:
        raise ModelValidation("r must be positive")
    if samples is None:
        samples = sample_time_average(config, u)
    if mu_v is None:
        mu_v = mu_of_observable(config, v_or_same)
    return _deviation_estimate(samples, mu_v + r, config.beta_l2(), config.t * alpha(r))


def tensor_deviation_demo(chain: ReversibleChain, u: np.ndarray, v: np.ndarray,
                          n_copies: int, t: float, r: float, n_paths: int,
                          alpha: RateFunction, seed: int) -> DeviationEstimate:
    """Tail of the averaged time-averages over independent copies.

    The product bound gains a factor n in the exponent:
    P( (1/n) sum_i L_t^i(u) >= mu(v) + r ) <= ||.||_2 e^{-n t alpha(r)}.
    """
    if n_copies * n_paths > 5_000_000:
        raise ModelValidation("ensemble exceeds the desk-scale guard")
    u = np.asarray(u, dtype=float)
    base = EnsembleConfig(model=chain, beta=chain.mu, t=t,
                          n_paths=n_paths * n_copies, master_seed=seed)
    singles = sample_time_average(base, u)
    means = singles.reshape(n_paths, n_copies).mean(axis=1)
    threshold = chain.expectation(np.asarray(v, dtype=float)) + r
    return _deviation_estimate(means, threshold, 1.0, n_copies * t * alpha(r))


def _deviation_estimate(values: np.ndarray, threshold: float, norm: float,
                        exponent: float) -> DeviationEstimate:
    """Hits of values >= threshold and their 99% interval against the bound norm e^{-exponent}."""
    hits = int(np.sum(values >= threshold))
    n = len(values)
    lo, hi = clopper_pearson(hits, n)
    if math.isfinite(norm):
        bound = norm * math.exp(-exponent)
        verdict = "bound_violated" if lo > bound else "consistent"
    else:
        bound, verdict = math.inf, "inconclusive"   # illustrative run: beta not in L^2(mu)
    return DeviationEstimate(p_hat=hits / n, ci_low=lo, ci_high=hi,
                             bound_value=min(bound, 1e308), verdict=verdict,
                             n_paths=n, hits=hits, threshold=threshold,
                             beta_l2=norm if math.isfinite(norm) else -1.0)
