"""The four benchmark workloads.

Each workload turns ``--seed`` into plain inputs (numbers and arrays,
never transinfo objects), runs one pass of calls into the package, and
checks every recorded outcome against oracles computed outside the timed
section, at the acceptance module's tolerances.

A pass records one outcome per call: the returned value, or the exception
it raised.  ``Checker`` turns outcomes into task verdicts:

- ``raised``: the call raised;
- ``wrong``: a deterministic check against an oracle failed;
- ``statistical``: a Monte Carlo verdict missed (expected about 1% of
  seeds even for a correct program, so it is reported, never re-seeded);
- ``missing``: the task left no recorded outcome.

``correct`` is false as soon as any task raised, was wrong or left no
outcome, unless the workload lists that task among its known failures
(the program's documented defects, with the kind and reason they show).
Statistical misses alone never make a run incorrect.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.optimize import linprog

from transinfo import catalog, cli
from transinfo.chains import (
    Density,
    MetricMatrix,
    build_chain,
    dirichlet_energy,
    fisher_information,
    line_metric,
    spectral_gap,
    trivial_metric,
)
from transinfo.diffusion1d import (
    Grid1D,
    Warp,
    c_rho,
    discretize,
    lip_poisson_ratio,
    normalize,
    ou_spec,
)
from transinfo.feynman_kac import best_w1i, best_w2i, lambda_max, legendre_of_info
from transinfo.simulate import (
    EnsembleConfig,
    OUModel,
    hoeffding_bound,
    lipschitz_gauss_bound,
    sample_time_average,
    tail_estimate,
)
from transinfo.transport import CostMatrix, RateFunction, ot_cost, w1, w2
from transinfo.trivial_metric import fk_growth_mc

from spans import Tracer, percentile

SUBPROCESS_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# Outcomes and checks
# ---------------------------------------------------------------------------

class Raised:
    def __init__(self, exc: BaseException):
        self.reason = f"{type(exc).__name__}: {exc}"


class Pass:
    """One pass: task key -> returned value or ``Raised``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.values: dict[str, object] = {}
        self.layers: dict[str, str] = {}

    def call(self, key: str, layer: str, name: str, thunk):
        self.layers[key] = layer
        with self.tracer.span(layer, name):
            try:
                value = thunk()
            except Exception as exc:  # a failing call is an outcome, not a crash
                value = Raised(exc)
        self.values[key] = value
        return value


@dataclass
class Checker:
    known: dict = field(default_factory=dict)      # task -> (kind, reason prefix)
    attempted: int = 0
    failures: list = field(default_factory=list)   # (task, kind, reason)

    def record(self, task: str, ok: bool, reason: str = "", kind: str = "wrong"):
        self.attempted += 1
        if not ok:
            self.failures.append((task, kind, reason))

    def outcomes(self, values: dict, checks: dict):
        """One task per recorded value; ``checks`` maps key -> (ok, reason[, kind])."""
        for key, value in values.items():
            if isinstance(value, Raised):
                self.record(key, False, value.reason, "raised")
            else:
                verdict = checks.get(key, (True, ""))
                self.record(key, bool(verdict[0]), verdict[1], *verdict[2:])

    @property
    def failed(self) -> int:
        return len(self.failures)

    def tolerated(self, task: str, kind: str, reason: str) -> bool:
        if kind == "statistical":
            return True
        known = self.known.get(task)
        return known is not None and kind == known[0] and reason.startswith(known[1])

    @property
    def correct(self) -> bool:
        return all(self.tolerated(*failure) for failure in self.failures)


def _close(value, ref, tol, rel=True) -> tuple[bool, str]:
    scale = max(1.0, abs(ref)) if rel else 1.0
    err = abs(float(value) - float(ref))
    return err <= tol * scale, f"|{float(value):.17g} - {float(ref):.17g}| = {err:.3e} > {tol:g}"


def _ok(value) -> bool:
    return value is not None and not isinstance(value, Raised)


def _guard(check):
    """Run a check now; a value that cannot be checked fails it."""
    try:
        return check()
    except Exception as exc:
        return False, f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Independent oracles, built from raw arrays only
# ---------------------------------------------------------------------------

def reversible_rates(rng: np.random.Generator, n: int):
    """Random rates in exact detailed balance: q(x,y) = c_xy / mu_x, c symmetric."""
    mu = rng.dirichlet(np.ones(n) * 3.0)
    mu = np.maximum(mu, 0.02)
    mu = mu / mu.sum()
    cond = rng.uniform(0.2, 1.5, size=(n, n))
    cond = np.triu(cond, 1)
    cond = cond + cond.T
    rates = cond / mu[:, None]
    np.fill_diagonal(rates, 0.0)
    return rates, mu


def planar_metric(points: np.ndarray) -> np.ndarray:
    return np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)


def lp_ot_value(c: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> float:
    """OT value from scipy's LP with every marginal constraint kept."""
    n, m = c.shape
    rows = np.concatenate([np.repeat(np.arange(n), m), n + np.tile(np.arange(m), n)])
    cols = np.concatenate([np.arange(n * m), np.arange(n * m)])
    A = sparse.csr_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m))
    res = linprog(c.ravel(), A_eq=A, b_eq=np.concatenate([nu, mu]), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return float(res.fun)


def line_w1_value(points: np.ndarray, nu: np.ndarray, mu: np.ndarray) -> float:
    """W1 on sorted points: integral of |F_nu - F_mu|."""
    return float(np.sum(np.abs(np.cumsum(nu - mu)[:-1]) * np.diff(points)))


def top_eigenvalue(Q: np.ndarray, mu: np.ndarray, u: np.ndarray) -> float:
    """Top eigenvalue of diag(sqrt mu) Q diag(1/sqrt mu) + diag(u), by dense eigh."""
    s = np.sqrt(mu)
    K = (s[:, None] * Q) / s[None, :]
    K = 0.5 * (K + K.T) + np.diag(u)
    n = len(u)
    return float(scipy.linalg.eigh(K, eigvals_only=True, subset_by_index=[n - 1, n - 1])[0])


def dirichlet_value(Q: np.ndarray, mu: np.ndarray, g: np.ndarray) -> float:
    """E(g, g) = 1/2 sum_xy mu_x q(x,y) (g_y - g_x)^2."""
    off = Q - np.diag(np.diag(Q))
    return float(0.5 * np.sum(mu[:, None] * off * (g[None, :] - g[:, None]) ** 2))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """An in-process workload; subclasses supply inputs, a pass and checks."""

    name = ""
    full: dict = {}
    tiny: dict = {}
    known_failures: dict = {}   # task -> (kind, reason prefix); see Checker

    def __init__(self, seed: int, tiny_sizes: bool, out_dir: Path | None):
        self.size = self.tiny if tiny_sizes else self.full
        self.out_dir = out_dir
        self.inputs = self.make_inputs(np.random.default_rng(seed))

    def make_inputs(self, rng) -> dict:
        raise NotImplementedError

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def checks(self, values: dict, first: dict) -> dict:
        raise NotImplementedError

    def timed_pass(self):
        """(values, wall_s, cpu_s) of one untraced end-to-end pass."""
        p = Pass(Tracer("", self.name, enabled=False))
        c0, w0 = _cpu(), time.perf_counter()
        self.run_pass(p)
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        return p.values, wall, cpu

    def finish(self, checker: Checker, trace: bool) -> dict:
        """Work done once per run after the timed passes; returns extra metrics."""
        return {}

    def layer_metrics(self, spans, values: dict) -> dict:
        return {}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu() -> float:
    """User+sys CPU seconds of this process and its waited-for children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _durations(spans, layer: str, name: str) -> list[float]:
    return [s.duration for s in spans if s.layer == layer and s.name == name]


class SmallSpace(Workload):
    """Sharp small-space constants: tiny OT and tiny dense eigensolves."""

    name = "small-space"
    full = {"ot": 40, "lam_chains": 38, "legendre": 2, "search_states": 4, "search_starts": 1}
    tiny = {"ot": 3, "lam_chains": 2, "legendre": 1, "search_states": 2, "search_starts": 1}
    lams = (0.5, 1.0, 2.0)

    def make_inputs(self, rng) -> dict:
        s = self.size
        # The search chain is fixed: a search's time depends on its chain by
        # up to a factor of 2.7 (2.0 s to 5.5 s over the first six criterion-8
        # chains), which would swamp run-to-run comparisons.  It is the
        # fourth chain criterion 8 draws (generator seed 808, search seed 903).
        pinned = np.random.default_rng(808)
        for _ in range(4):
            rates, mu = reversible_rates(pinned, s["search_states"])
            points = pinned.uniform(0.0, 2.0, size=(s["search_states"], 2))
        ot = []
        for _ in range(s["ot"]):
            ot.append({"points": rng.uniform(0.0, 2.0, size=(4, 2)),
                       "nu": rng.dirichlet(np.ones(4)), "mu": rng.dirichlet(np.ones(4))})
        # The Legendre-checked chains are fixed too: one legendre_of_info call
        # takes 0.23 s to 0.92 s depending on its chain.  They are the first
        # chains criterion 4 draws (generator seed 404).
        pinned = np.random.default_rng(404)
        lam = []
        for _ in range(s["legendre"]):
            n = int(pinned.integers(4, 7))
            r, m = reversible_rates(pinned, n)
            lam.append({"rates": r, "mu": m, "u": pinned.standard_normal(n)})
        for _ in range(s["lam_chains"]):
            n = int(rng.integers(4, 7))
            r, m = reversible_rates(rng, n)
            lam.append({"rates": r, "mu": m, "u": rng.standard_normal(n)})
        return {"search": {"rates": rates, "mu": mu, "points": points, "seed": 903,
                           "primal_starts": s["search_starts"]},
                "ot": ot, "lam": lam}

    def run_pass(self, p: Pass) -> None:
        inp = self.inputs
        for k, case in enumerate(inp["ot"]):
            d = p.call(f"metric/{k}", "chains", "MetricMatrix.validate",
                       lambda: MetricMatrix.validate(planar_metric(case["points"])))
            cost = p.call(f"cost/{k}", "transport", "CostMatrix.from_metric",
                          lambda: CostMatrix.from_metric(d, 1))
            p.call(f"ot/{k}", "transport", "ot_cost[4x4]",
                   lambda: ot_cost(cost, case["nu"], case["mu"])[0])
        for k, case in enumerate(inp["lam"]):
            ch = p.call(f"chain/{k}", "chains", "build_chain",
                        lambda: build_chain(case["rates"], mu=case["mu"]))
            for lam in self.lams:
                p.call(f"lam/{k}/{lam}", "feynman_kac", "lambda_max[small]",
                       lambda: lambda_max(ch, lam * case["u"]))
            if k < self.size["legendre"]:
                p.call(f"legendre/{k}", "feynman_kac", "legendre_of_info",
                       lambda: legendre_of_info(ch, case["u"], 1.0, multistarts=16))
        bern = p.call("bernoulli", "chains", "build_chain",
                      lambda: build_chain(np.array([[0.0, 1.0 / 0.7], [1.0 / 0.3, 0.0]])))
        p.call("w2i/bernoulli", "feynman_kac", "best_w2i",
               lambda: best_w2i(bern, trivial_metric(2)))
        s = inp["search"]
        ch = p.call("search/chain", "chains", "build_chain",
                    lambda: build_chain(s["rates"], mu=s["mu"]))
        d = p.call("search/metric", "chains", "MetricMatrix.validate",
                   lambda: MetricMatrix.validate(planar_metric(s["points"])))
        p.call("w1i/search", "feynman_kac", "best_w1i[small]",
               lambda: best_w1i(ch, d, primal_starts=s["primal_starts"], seed=s["seed"]))

    @functools.cached_property
    def oracle(self) -> dict:
        lp = [_guard(lambda: (True, lp_ot_value(planar_metric(c["points"]), c["nu"], c["mu"])))
              for c in self.inputs["ot"]]
        eig = {(k, lam): top_eigenvalue(build_q(c["rates"]), c["mu"], lam * c["u"])
               for k, c in enumerate(self.inputs["lam"]) for lam in self.lams}
        return {"lp": [v if ok else None for ok, v in lp], "eig": eig}

    def checks(self, values: dict, first: dict) -> dict:
        orc = self.oracle
        out = {}
        for k in range(len(self.inputs["ot"])):
            out[f"ot/{k}"] = _guard(lambda: _close(values[f"ot/{k}"], orc["lp"][k], 1e-9))
        for k in range(len(self.inputs["lam"])):
            for lam in self.lams:
                out[f"lam/{k}/{lam}"] = _guard(
                    lambda: _close(values[f"lam/{k}/{lam}"], orc["eig"][(k, lam)], 1e-10))
            if f"legendre/{k}" in values:
                out[f"legendre/{k}"] = _guard(lambda: _close(
                    values[f"lam/{k}/1.0"], values[f"legendre/{k}"], 1e-5, rel=False))
        bern = values["w2i/bernoulli"]
        out["w2i/bernoulli"] = _guard(lambda: (
            bern.diverged and dict(bern.probe)[1e-4] >= 1e3,
            f"diverged={bern.diverged}, probe={bern.probe}"))
        rep = values["w1i/search"]
        out["w1i/search"] = _guard(lambda: _close(rep.c_dual, rep.c_primal, 1e-3, rel=False))
        return out

    def layer_metrics(self, spans, values: dict) -> dict:
        ot = _durations(spans, "transport", "ot_cost[4x4]")
        lam = _durations(spans, "feynman_kac", "lambda_max[small]")
        orc = self.oracle
        gaps = [abs(values[f"ot/{k}"] - ref) for k, ref in enumerate(orc["lp"])
                if ref is not None and _ok(values.get(f"ot/{k}"))]
        rep = values.get("w1i/search")
        return {
            "transport.ot_small_ms_p50": 1e3 * percentile(ot, 50),
            "transport.ot_small_ms_p90": 1e3 * percentile(ot, 90),
            "transport.oracle_gap_max": max(gaps, default=0.0),
            "feynman_kac.lambda_max_small_us_p50": 1e6 * percentile(lam, 50),
            "feynman_kac.lambda_max_small_us_p90": 1e6 * percentile(lam, 90),
            "feynman_kac.legendre_s": sum(_durations(spans, "feynman_kac", "legendre_of_info")),
            "feynman_kac.best_w1i_small_s_p50":
                percentile(_durations(spans, "feynman_kac", "best_w1i[small]"), 50),
            "feynman_kac.search_gap_max": abs(rep.c_dual - rep.c_primal) if _ok(rep) else 0.0,
        }


def build_q(rates: np.ndarray) -> np.ndarray:
    Q = np.array(rates, dtype=float)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


class Grid400(Workload):
    """1-D diffusion grids: large dense eigensolves, large OT, expression evaluation."""

    name = "grid-400"
    full = {"nodes": 400, "ot_nodes": 150, "search_nodes": 60, "shifts": 4, "lam": 8,
            "dirichlet": 12}
    tiny = {"nodes": 60, "ot_nodes": 60, "search_nodes": 20, "shifts": 1, "lam": 2,
            "dirichlet": 2}
    quartic_json = {"a": "1", "b": "-pow(x, 3)", "interval": [None, None], "c_ref": 0}
    # HiGHS reports the 150-node line LP at shift 0.4 infeasible
    known_failures = {"line/0/ot": ("raised", "InfeasibleMarginals")}

    def make_inputs(self, rng) -> dict:
        s = self.size
        return {"shifts": rng.uniform(0.4, 0.6, size=s["shifts"]),
                # fixed: ot_cost raises InfeasibleMarginals on about one shift in
                # five at 150 nodes, so a drawn shift would make time and failures
                # depend on the seed; these three include one such shift
                "ot_shifts": [0.4, 0.5, 0.6],
                "lam_u": rng.uniform(-1.0, 1.0, size=(s["lam"], s["nodes"])),
                "dirichlet_g": rng.standard_normal((s["dirichlet"], s["nodes"])),
                "poisson_seed": int(rng.integers(1 << 30)),
                "quartic_json": self.quartic_json}

    @staticmethod
    def _shift_density(mu, nodes, m):
        f = np.exp(m * nodes - m * m / 2.0)
        return f / float(np.dot(mu, f))

    def run_pass(self, p: Pass) -> None:
        inp, n = self.inputs, self.size["nodes"]
        models = {"ou": (ou_spec(), Grid1D.uniform(-6.0, 6.0, n)),
                  "quartic": (catalog.quartic_spec(), Grid1D.uniform(-4.0, 4.0, n))}
        chains = {}
        for key, (spec, grid) in models.items():
            chains[key] = p.call(f"{key}/discretize", "diffusion1d", "discretize[400]",
                                 lambda: discretize(spec, grid))
            p.call(f"{key}/normalize", "diffusion1d", "normalize",
                   lambda: normalize(spec, grid)[0])
            p.call(f"{key}/c_P", "chains", "spectral_gap[400]",
                   lambda: spectral_gap(chains[key])[1])
            for warp in ("identity", "tanh", "intrinsic"):
                p.call(f"{key}/c_rho/{warp}", "diffusion1d", "c_rho[400]",
                       lambda: c_rho(spec, _warp(warp, spec), grid))
            p.call(f"{key}/lip_poisson", "diffusion1d", "lip_poisson_ratio",
                   lambda: lip_poisson_ratio(spec, grid, Warp.identity(),
                                             seed=inp["poisson_seed"]))
        qgrid = models["quartic"][1]
        qspec = p.call("json/spec", "diffusion1d", "diffusion_from_json",
                       lambda: catalog.diffusion_from_json(inp["quartic_json"]))
        p.call("json/discretize", "diffusion1d", "discretize[expr]",
               lambda: discretize(qspec, qgrid))
        p.call("json/c_rho", "diffusion1d", "c_rho[expr]",
               lambda: c_rho(qspec, Warp.identity(), qgrid))

        ou = chains["ou"]
        for k, u in enumerate(inp["lam_u"]):
            p.call(f"lam/{k}", "feynman_kac", "lambda_max[400]", lambda: lambda_max(ou, u))
        for k, g in enumerate(inp["dirichlet_g"]):
            p.call(f"dirichlet/{k}", "chains", "dirichlet_energy[400]",
                   lambda: dirichlet_energy(ou, g))

        ggrid = Grid1D.uniform(-8.0, 8.0, n)
        gchain = p.call("gauss/discretize", "diffusion1d", "discretize[400]",
                        lambda: discretize(ou_spec(), ggrid))
        p.call("gauss/c_P", "chains", "spectral_gap[400]", lambda: spectral_gap(gchain)[1])
        gmetric = p.call("gauss/metric", "chains", "line_metric",
                         lambda: line_metric(ggrid.nodes))
        for k, m in enumerate(inp["shifts"]):
            f = p.call(f"gauss/{k}/density", "chains", "Density.validate",
                       lambda: Density.validate(gchain.mu,
                                                self._shift_density(gchain.mu, ggrid.nodes, m)))
            p.call(f"gauss/{k}/fisher", "chains", "fisher_information",
                   lambda: fisher_information(gchain, f))
            p.call(f"gauss/{k}/w1", "transport", "w1[line400]",
                   lambda: w1(gmetric, gchain.mu * f.f, gchain.mu))
            p.call(f"gauss/{k}/w2", "transport", "w2[line400]",
                   lambda: w2(gmetric, gchain.mu * f.f, gchain.mu))

        lgrid = Grid1D.uniform(-8.0, 8.0, self.size["ot_nodes"])
        lchain = p.call("line/discretize", "diffusion1d", "discretize[line]",
                        lambda: discretize(ou_spec(), lgrid))
        lcost = p.call("line/cost", "transport", "CostMatrix.from_metric",
                       lambda: CostMatrix.from_metric(line_metric(lgrid.nodes), 1))
        for k, m in enumerate(inp["ot_shifts"]):
            nu = p.call(f"line/{k}/nu", "chains", "Density.validate",
                        lambda: lchain.mu * Density.validate(
                            lchain.mu, self._shift_density(lchain.mu, lgrid.nodes, m)).f)
            p.call(f"line/{k}/ot", "transport", "ot_cost[line]",
                   lambda: ot_cost(lcost, nu, lchain.mu)[0])

        sgrid = Grid1D.uniform(-6.0, 6.0, self.size["search_nodes"])
        schain = p.call("search/discretize", "diffusion1d", "discretize[search]",
                        lambda: discretize(ou_spec(), sgrid))
        p.call("search/w1i", "feynman_kac", "best_w1i[ou]",
               lambda: best_w1i(schain, line_metric(sgrid.nodes), primal_starts=4))

    def _line_w1(self, values: dict, k: int) -> float:
        nodes = Grid1D.uniform(-8.0, 8.0, self.size["ot_nodes"]).nodes
        return line_w1_value(nodes, values[f"line/{k}/nu"], values["line/discretize"].mu)

    def checks(self, values: dict, first: dict) -> dict:
        inp = self.inputs
        out = {}
        for key in ("ou", "quartic"):
            c_p = values[f"{key}/c_P"]
            for warp in ("identity", "tanh", "intrinsic"):
                cr = values[f"{key}/c_rho/{warp}"]
                out[f"{key}/c_rho/{warp}"] = _guard(lambda: (
                    c_p <= cr * 1.02 + 1e-12, f"c_P {c_p:.17g} > 1.02 C(rho) {cr:.17g}"))
        if out["ou/c_rho/identity"][0]:
            out["ou/c_rho/identity"] = _guard(
                lambda: _close(values["ou/c_rho/identity"], 1.0, 1e-6, rel=False))
        out["ou/lip_poisson"] = _guard(
            lambda: _close(values["ou/lip_poisson"], 1.0, 1e-3, rel=False))
        out["quartic/lip_poisson"] = _guard(lambda: _close(
            values["quartic/lip_poisson"], values["quartic/c_rho/identity"], 1e-3, rel=False))
        out["json/c_rho"] = _guard(
            lambda: _close(values["json/c_rho"], values["quartic/c_rho/identity"], 1e-9))
        ou = values["ou/discretize"]
        for k, u in enumerate(inp["lam_u"]):
            out[f"lam/{k}"] = _guard(
                lambda: _close(values[f"lam/{k}"], top_eigenvalue(ou.Q, ou.mu, u), 1e-10))
        for k, g in enumerate(inp["dirichlet_g"]):
            out[f"dirichlet/{k}"] = _guard(
                lambda: _close(values[f"dirichlet/{k}"], dirichlet_value(ou.Q, ou.mu, g), 1e-10))
        out["gauss/c_P"] = _guard(lambda: _close(values["gauss/c_P"], 1.0, 0.01, rel=False))
        for k, m in enumerate(inp["shifts"]):
            out[f"gauss/{k}/fisher"] = _guard(lambda: _close(
                values[f"gauss/{k}/fisher"], m * m / 4.0, 0.01 * m * m / 4.0, rel=False))
            for dist in ("w1", "w2"):
                out[f"gauss/{k}/{dist}"] = _guard(
                    lambda: _close(values[f"gauss/{k}/{dist}"], m, 0.01 * m, rel=False))
        for k in range(len(inp["ot_shifts"])):
            out[f"line/{k}/ot"] = _guard(
                lambda: _close(values[f"line/{k}/ot"], self._line_w1(values, k), 1e-9))
        rep = values["search/w1i"]
        out["search/w1i"] = _guard(lambda: (
            abs(rep.c_dual - 1.0) <= 0.02 and abs(rep.c_dual - rep.c_primal) <= 1e-3,
            f"c_dual {rep.c_dual:.17g}, c_primal {rep.c_primal:.17g}"))
        return out

    def layer_metrics(self, spans, values: dict) -> dict:
        def p50(layer, name, scale):
            return scale * percentile(_durations(spans, layer, name), 50)
        lam = _durations(spans, "feynman_kac", "lambda_max[400]")
        rep = values.get("search/w1i")
        gaps = [_guard(lambda: (True, abs(values[f"line/{k}/ot"] - self._line_w1(values, k))))
                for k in range(len(self.inputs["ot_shifts"]))]
        return {
            "transport.ot_line150_s": p50("transport", "ot_cost[line]", 1.0),
            "transport.w1_line_us_p50": p50("transport", "w1[line400]", 1e6),
            "transport.w2_line_us_p50": p50("transport", "w2[line400]", 1e6),
            "transport.oracle_gap_max": max((g for ok, g in gaps if ok), default=0.0),
            "feynman_kac.lambda_max_400_ms_p50": 1e3 * percentile(lam, 50),
            "feynman_kac.lambda_max_400_ms_p90": 1e3 * percentile(lam, 90),
            "feynman_kac.best_w1i_ou60_s": p50("feynman_kac", "best_w1i[ou]", 1.0),
            "feynman_kac.search_gap_max": abs(rep.c_dual - rep.c_primal) if _ok(rep) else 0.0,
            "chains.dirichlet_energy_us_p50": p50("chains", "dirichlet_energy[400]", 1e6),
            "chains.spectral_gap_ms_p50": p50("chains", "spectral_gap[400]", 1e3),
            "diffusion1d.discretize_ms_p50": p50("diffusion1d", "discretize[400]", 1e3),
            "diffusion1d.c_rho_ms_p50": p50("diffusion1d", "c_rho[400]", 1e3),
            "diffusion1d.c_rho_expr_ms": p50("diffusion1d", "c_rho[expr]", 1e3),
            "diffusion1d.lip_poisson_ms": p50("diffusion1d", "lip_poisson_ratio", 1e3),
        }


def _warp(name, spec):
    if name == "identity":
        return Warp.identity()
    if name == "tanh":
        return Warp.tanh_blend()
    return Warp.intrinsic(spec)


class MonteCarlo(Workload):
    """The exact samplers: chain paths, the jump exponential moment, OU and Euler."""

    name = "montecarlo"
    full = {"chain_paths": 6000, "fk_paths": 10000, "ou_paths": 1500, "euler_paths": 150}
    tiny = {"chain_paths": 100, "fk_paths": 200, "ou_paths": 20, "euler_paths": 4}
    radii = (0.1, 0.2, 0.3)
    ou_t, ou_step = 100.0, 0.01
    euler_t, euler_step = 10.0, 0.01
    samplers = ("chain/samples", "fk", "ou/samples", "euler/samples")

    def make_inputs(self, rng) -> dict:
        seeds = rng.integers(1 << 31, size=4)
        return {"chain_seed": int(seeds[0]), "fk_seed": int(seeds[1]),
                "ou_seed": int(seeds[2]), "euler_seed": int(seeds[3])}

    def run_pass(self, p: Pass) -> None:
        inp, s = self.inputs, self.size
        u = np.array([0.0, 1.0])
        bern = p.call("chain/build", "chains", "build_chain",
                      lambda: build_chain(np.array([[0.0, 1.0 / 0.7], [1.0 / 0.3, 0.0]])))
        c_p = p.call("chain/c_P", "chains", "spectral_gap", lambda: spectral_gap(bern)[1])
        cfg = p.call("chain/config", "simulate", "EnsembleConfig",
                     lambda: EnsembleConfig(model=bern, beta=bern.mu, t=20.0,
                                            n_paths=s["chain_paths"],
                                            master_seed=inp["chain_seed"]))
        samples = p.call("chain/samples", "simulate", "sample_time_average[chain]",
                         lambda: sample_time_average(cfg, u))
        for r in self.radii:
            p.call(f"chain/tail/{r}", "simulate", "tail_estimate",
                   lambda: tail_estimate(cfg, u, u, r,
                                         RateFunction.quadratic(math.sqrt(c_p) / 2.0),
                                         samples=samples))
        p.call("fk", "trivial_metric", "fk_growth_mc",
               lambda: fk_growth_mc(0.35, 0.3, 30.0, s["fk_paths"], seed=inp["fk_seed"]))
        ou_cfg = p.call("ou/config", "simulate", "EnsembleConfig",
                        lambda: EnsembleConfig(model=OUModel(), beta="stationary", t=self.ou_t,
                                               n_paths=s["ou_paths"],
                                               master_seed=inp["ou_seed"],
                                               sde_step=self.ou_step))
        ou = p.call("ou/samples", "simulate", "sample_time_average[ou]",
                    lambda: sample_time_average(ou_cfg, None))
        p.call("ou/tail", "simulate", "tail_estimate",
               lambda: tail_estimate(ou_cfg, None, None, 0.5, RateFunction.quadratic(1.0),
                                     mu_v=0.0, samples=ou))
        eu_cfg = p.call("euler/config", "simulate", "EnsembleConfig",
                        lambda: EnsembleConfig(model=ou_spec(), beta="stationary",
                                               t=self.euler_t, n_paths=s["euler_paths"],
                                               master_seed=inp["euler_seed"],
                                               sde_step=self.euler_step))
        eu = p.call("euler/samples", "simulate", "sample_time_average[euler]",
                    lambda: sample_time_average(eu_cfg, lambda x: x))
        p.call("euler/tail", "simulate", "tail_estimate",
               lambda: tail_estimate(eu_cfg, lambda x: x, None, 0.5,
                                     RateFunction.quadratic(1.0), mu_v=0.0, samples=eu))

    @staticmethod
    def _verdict(est, bound: float):
        """Bound formula to 1e-12, then the 99% verdict (statistical)."""
        if abs(est.bound_value - bound) > 1e-12 * bound:
            return False, f"bound {est.bound_value!r} != {bound!r}"
        return est.verdict == "consistent", f"verdict {est.verdict}", "statistical"

    def checks(self, values: dict, first: dict) -> dict:
        out = {}
        c_p = values["chain/c_P"]
        for r in self.radii:
            out[f"chain/tail/{r}"] = _guard(lambda: self._verdict(
                values[f"chain/tail/{r}"], hoeffding_bound(c_p, 1.0, 20.0, r)))
        g = values["fk"]
        out["fk"] = _guard(lambda: (
            abs(g.estimate - g.exact_finite_t) <= 3.0 * g.std_error,
            f"|{g.estimate:.17g} - {g.exact_finite_t:.17g}| > 3 se {3 * g.std_error:.3g}",
            "statistical"))
        for key, t in (("ou/tail", self.ou_t), ("euler/tail", self.euler_t)):
            out[key] = _guard(
                lambda: self._verdict(values[key], lipschitz_gauss_bound(1.0, 1.0, t, 0.5)))
        # the seeding contract: per-path samples do not depend on repetition
        for key in self.samplers:
            a, b = values[key], first[key]
            if key == "fk":
                same = _guard(lambda: (a.estimate == b.estimate
                                       and a.std_error == b.std_error, ""))[0]
            else:
                same = _guard(lambda: (np.array_equal(a, b), ""))[0]
            if not same:
                out[key] = (False, "samples differ from the run's first pass")
        return out

    def layer_metrics(self, spans, values: dict) -> dict:
        s = self.size
        def rate(name, layer, work):
            t = percentile(_durations(spans, layer, name), 50)
            return work / t if t > 0 else 0.0
        return {
            "simulate.chain_paths_per_s":
                rate("sample_time_average[chain]", "simulate", s["chain_paths"]),
            "simulate.ou_steps_per_s":
                rate("sample_time_average[ou]", "simulate",
                     s["ou_paths"] * round(self.ou_t / self.ou_step)),
            "simulate.euler_steps_per_s":
                rate("sample_time_average[euler]", "simulate",
                     s["euler_paths"] * round(self.euler_t / self.euler_step)),
            "trivial_metric.fk_growth_paths_per_s":
                rate("fk_growth_mc", "trivial_metric", s["fk_paths"]),
        }


class BatchCli(Workload):
    """``transinfo run`` on a many-experiment spec, as a user runs it."""

    name = "batch-cli"
    full = {"beta_samples": 25, "mminf_samples": 1000, "nodes": 400, "ckp": 5000,
            "tensorize": 5, "sim_bernoulli": 1000, "sim_product": 1000}
    tiny = {"beta_samples": 3, "mminf_samples": 10, "nodes": 40, "ckp": 20,
            "tensorize": 2, "sim_bernoulli": 50, "sim_product": 20}
    kinds = ("paper-suite", "lyapunov", "diffusion", "ckp-scan", "rho-scan", "verify-tci",
             "tensorize", "best-constant", "simulate")
    # the inline diffusion model kills ``transinfo run`` before summary.json
    # is written, so no fault-spec experiment has a recorded outcome
    known_failures = {f"fault/{n}": ("missing", "")
                      for n in ("f-rho", "f-inline-diffusion", "f-ckp", "f-negative-alpha",
                                "f-tens")}

    def make_inputs(self, rng) -> dict:
        s = self.size
        exps = [
            ("paper-suite", "suite", {}),
            ("lyapunov", "lya-beta", {"model": "beta-potential", "samples": s["beta_samples"]}),
            ("lyapunov", "lya-mminf", {"model": "mminf", "samples": s["mminf_samples"]}),
            ("diffusion", "diff-quartic", {"model": "quartic", "rho": "tanh",
                                           "nodes": s["nodes"]}),
            ("diffusion", "diff-ou", {"model": "ou", "rho": "intrinsic", "nodes": s["nodes"]}),
            ("ckp-scan", "ckp", {"n": 6, "count": s["ckp"]}),
            ("rho-scan", "rho", {}),
            ("verify-tci", "tci", {"model": "product-3x3",
                                   "alpha": {"kind": "quadratic", "c": 1.0}}),
            ("tensorize", "tens", {"count": s["tensorize"]}),
            ("best-constant", "bc-jump2", {"model": "jump2", "which": "w2i"}),
            ("best-constant", "bc-bernoulli", {"model": "bernoulli", "which": "w1i"}),
            ("simulate", "sim-bernoulli", {"model": "bernoulli",
                                           "n_paths": s["sim_bernoulli"]}),
            ("simulate", "sim-product", {"model": "product-3x3", "n_paths": s["sim_product"]}),
        ]
        seeds = rng.integers(1 << 30, size=len(exps))
        good = [{"kind": k, "name": n, "params": p, "seed": int(sd)}
                for (k, n, p), sd in zip(exps, seeds)]
        # good experiments around two known crashes: an inline diffusion model
        # (no grid) and a negative quadratic rate constant
        fault = [
            {"kind": "rho-scan", "name": "f-rho", "params": {"lambdas": [0.3, 2.0]}},
            {"kind": "diffusion", "name": "f-inline-diffusion", "expect": "failed",
             "params": {"model": {"a": "1", "b": "-x", "interval": [None, None]}}},
            {"kind": "ckp-scan", "name": "f-ckp", "params": {"n": 4, "count": 50}},
            {"kind": "verify-tci", "name": "f-negative-alpha", "expect": "failed",
             "params": {"alpha": {"kind": "quadratic", "c": -1}}},
            {"kind": "tensorize", "name": "f-tens", "params": {"count": 2}},
        ]
        return {"good": good, "fault": fault}

    # -- files and subprocesses ------------------------------------------------

    def _spec(self, name: str, experiments: list) -> Path:
        path = self.out_dir / f"{name}.json"
        clean = [{k: v for k, v in e.items() if k != "expect"} for e in experiments]
        path.write_text(json.dumps({"experiments": clean}, indent=1, sort_keys=True))
        return path

    def _cli(self, spec: Path, out: Path, jobs: int):
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, "-m", "transinfo.cli", "run", str(spec), "--out", str(out),
               "--jobs", str(jobs)]
        c0, w0 = _cpu(), time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=cli_env(), stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S)
            rc, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            rc, err = None, "timed out"
        wall, cpu = time.perf_counter() - w0, _cpu() - c0
        return rc, err, wall, cpu

    @staticmethod
    def _summary(out: Path) -> dict:
        try:
            doc = json.loads((out / "summary.json").read_text())
        except (OSError, json.JSONDecodeError):
            return {}
        return {e["name"]: e for e in doc.get("experiments", [])}

    def _experiment_values(self, out: Path, rc) -> dict:
        summary = self._summary(out)
        values = {"exit": rc}
        for exp in self.inputs["good"]:
            values[f"exp/{exp['name']}"] = summary.get(exp["name"])
        return values

    def timed_pass(self):
        spec = self._spec("good", self.inputs["good"])
        out = self.out_dir / "jobs1"
        rc, err, wall, cpu = self._cli(spec, out, 1)
        return self._experiment_values(out, rc), wall, cpu

    def run_pass(self, p: Pass) -> None:
        """In-process: every experiment as a one-experiment spec (traced runs)."""
        for exp in self.inputs["good"]:
            spec = self._spec(f"one-{exp['name']}", [exp])
            out = self.out_dir / "inproc"
            with contextlib.redirect_stdout(io.StringIO()):
                p.call(f"inproc/{exp['name']}", "cli", f"kind:{exp['kind']}",
                       lambda: cli.run_spec_file(spec, out, None, 1))

    def checks(self, values: dict, first: dict) -> dict:
        out = {}
        for key, value in values.items():
            if key == "exit":
                out[key] = (value == 0, f"exit status {value}")
            elif key.startswith("exp/"):
                out[key] = (value is not None and value.get("passed") is True,
                            f"summary entry {value}", "wrong" if value else "missing")
            elif key.startswith("inproc/"):
                out[key] = (value == 0, f"run_spec_file returned {value}")
        return out

    def finish(self, checker: Checker, trace: bool) -> dict:
        """--jobs 2 against the last --jobs 1 output, then the fault spec."""
        extra = {}
        if trace:  # traced passes ran in-process, so run the CLI once here
            values, wall1, _ = self.timed_pass()
            checker.outcomes(values, self.checks(values, {}))
        one, two = self.out_dir / "jobs1", self.out_dir / "jobs2"
        rc2, _, wall2, _ = self._cli(self._spec("good", self.inputs["good"]), two, 2)
        values2 = self._experiment_values(two, rc2)
        checker.outcomes(values2, self.checks(values2, {}))
        same, nbytes = _same_tree(one, two)
        checker.record("artifacts/jobs1-vs-jobs2", same, "artifacts differ between --jobs 1 and 2")
        extra["cli.artifact_bytes"] = float(nbytes)
        if trace:
            extra["cli.jobs2_speedup"] = wall1 / wall2

        fault_spec = self._spec("fault", self.inputs["fault"])
        fout = self.out_dir / "fault"
        rc, err, _, _ = self._cli(fault_spec, fout, 1)
        summary = self._summary(fout)
        for exp in self.inputs["fault"]:
            entry = summary.get(exp["name"])
            task = f"fault/{exp['name']}"
            if entry is None:
                last = err.strip().splitlines()[-1] if err and err.strip() else f"exit {rc}"
                checker.record(task, False, f"no recorded outcome ({last})", "missing")
            elif exp.get("expect") == "failed":
                checker.record(task, entry.get("passed") is False
                               and bool(entry.get("details", {}).get("error")),
                               f"expected a failure with a reason, got {entry}")
            else:
                checker.record(task, entry.get("passed") is True, f"summary entry {entry}")
        return extra

    def layer_metrics(self, spans, values: dict) -> dict:
        out = {}
        for kind in self.kinds:
            out[f"cli.kind.{kind}_s"] = sum(
                s.duration for s in spans if s.layer == "cli" and s.name == f"kind:{kind}")
        return out

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _same_tree(a: Path, b: Path) -> tuple[bool, int]:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()) if a.exists() else []
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) if b.exists() else []
    nbytes = sum((a / f).stat().st_size for f in files_a)
    same = bool(files_a) and files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)
    return same, nbytes


def cli_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (SmallSpace, Grid400, MonteCarlo, BatchCli)}
