"""Batch front-end: run archivable experiment specs, emit CSV/JSON reports.

One JSON document describes one or more experiments; rerunning the same
document with the same seed reproduces every artifact byte for byte.
This is the only module that turns results into files: the library
returns plain data, and ``write_csv`` and ``write_json`` alone format it.
Floats are printed with 17 significant digits so the files round-trip;
tolerances live in the checks, never in the printing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import catalog
from .chains import (Metric, chain_from_json, dots, fisher_information, line_metric, max_nan,
                     min_nan, oscillation, spectral_gap, trivial_metric)
from .diffusion1d import Warp, c_rho, lip_poisson_ratio, normalize
from .errors import ConfigParse, TransinfoError
from .feynman_kac import PhiPair, best_w1i, best_w2i, verify_tphi_dual
from .lyapunov import beta_potential_example, certify_H, mminf_certificate, verify_thm51
from .rng import _is_integer
from .simulate import EnsembleConfig, sample_time_average, tail_estimate
from .transport import (CostMatrix, RateFunction, alpha_infconv, conditional_fisher_sum,
                        tensor_subadditivity_check)
from .trivial_metric import ckp_extremal, ckp_gap, default_p_grid, rho_sup_scan

def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    if any(isinstance(v, str) and any(c in v for c in ',"\r\n') for row in rows for v in row):
        raise ValueError(f"{path.name}: an unquoted field holds a comma, a quote or a newline")
    lines = [",".join(header)]
    lines += [",".join([f"{v:.17g}" if isinstance(v, float) else str(v) for v in row])
              for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True,
                               default=_json_default) + "\n")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return [float(v) for v in x.ravel()]
    raise TypeError(f"cannot serialize {type(x)!r}")


# ---------------------------------------------------------------------------
# Parameters.  Each kind declares its keys once, key -> (parser, default).  A parser
# takes (value, key) and returns the value to run with, or raises ConfigParse naming
# the key; defaults are parsed too, but None is the model's (see _load).

def _count(least: int = 1):
    """A parser of integers (not bools) of at least ``least``; zero samples draw nothing."""
    def count(value, key: str) -> int:
        if not _is_integer(value):
            raise ConfigParse(f"{key} must be an integer, not {value!r}")
        if value < least:
            raise ConfigParse(f"{key} must be {least or 'zero'} or more, not {value}")
        return int(value)
    return count


def _real(value, key: str, many: bool = False):
    """A finite real, not a bool (JSON's 1e999 is inf); with ``many``, a non-empty list or one."""
    values = value if many and isinstance(value, list) else [value]
    if not all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
               for x in values):
        raise ConfigParse(f"{key} must be a number{' or a list of numbers' * many}, not {value!r}")
    if not all(abs(x) <= sys.float_info.max for x in values):
        raise ConfigParse(f"{key} must be finite, not {value!r}")
    if not values:
        raise ConfigParse(f"{key} must not be empty")
    return [float(x) for x in values] if many else float(value)


def _reals(value, key: str) -> list[float]:
    return _real(value, key, many=True)


def _choice(*allowed):
    """A parser of the values ``allowed``, each with its own type, so 1 is not JSON true."""
    def choice(value, key: str):
        if not any(type(value) is type(a) and value == a for a in allowed):
            raise ConfigParse(f"{key} must be one of {', '.join(map(json.dumps, allowed))}, "
                              f"not {value!r}")
        return value
    return choice


def _known(obj, keys, where: str) -> None:
    """Raise ConfigParse unless ``obj`` is an object whose keys are among ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigParse(f"{where} must be an object, not {obj!r}")
    for key in obj:
        if key not in keys:
            raise ConfigParse(f"unknown key {key!r} in {where}, which takes "
                              f"{', '.join(keys) or 'no keys'}")


def _rate_function(obj, key: str = "alpha") -> RateFunction:
    """{"kind": "quadratic", "c"}, {"kind": "power", "kappa", "p"} or {"kind":
    "tabulated", "knots", "values"}, with finite constants; {} (absent) is none."""
    if obj is None or obj == {}:
        raise ConfigParse("experiment needs an alpha specification")
    if not isinstance(obj, dict):
        raise ConfigParse(f"{key} must be an object, not {obj!r}")
    names = {"quadratic": ("c",), "power": ("kappa", "p"), "tabulated": ("knots", "values")}
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in names:
        raise ConfigParse(f"unknown rate-function kind {kind!r}")
    _known(obj, ("kind", *names[kind]), key)
    constants = [_real(obj.get(k), k, kind == "tabulated") for k in names[kind]]
    try:
        return getattr(RateFunction, kind)(*constants)
    except ValueError as exc:
        raise ConfigParse(f"invalid rate function {obj!r}: {exc}") from exc


def _model(value, key: str = "model"):
    """A catalog name, or an inline chain: "rates", a square list of rows of finite
    reals, with optional "mu" (finite reals) and "states" (a list of labels)."""
    if isinstance(value, dict) and "rates" in value:
        _known(value, ("rates", "mu", "states"), key)
        rates = value["rates"]
        if not (isinstance(rates, list) and isinstance(value.get("states", []), list)
                and all(isinstance(row, list) and len(row) == len(rates) for row in rates)):
            raise ConfigParse(f"{key} needs square rows of rates and a list of states")
        for k, v in [("mu", value.get("mu", 1.0)), *(("rates", row) for row in rates)]:
            _real(v, k, many=True)
    elif not isinstance(value, str):
        raise ConfigParse(f"cannot interpret model {value!r}: a model is a catalog name "
                          "or an inline chain with rates")
    return value


def _load(p: dict) -> dict:
    """``p`` with its model loaded, named (catalog name or "inline"), and what depends on it
    resolved: ``metric`` (the model's own, else trivial) and ``u`` (of the chain's length)."""
    spec, nodes = p["model"], {"grid_nodes": p["nodes"]} if "nodes" in p else {}
    model = catalog.load_example(spec, **nodes) if isinstance(spec, str) \
        else {"chain": chain_from_json(spec)}
    if nodes and "grid" not in model:     # a diffusion runs on a catalog model's grid
        raise ConfigParse(f"diffusion experiments need a catalog model with a grid, not {spec!r}")
    n = model["chain"].n
    if "metric" in p:
        p["metric"] = _metric_for(model, p["metric"] or ("default" if "metric" in model
                                                         else "trivial"))
    if "u" in p:
        p["u"] = np.asarray(p["u"] or [0.0, 1.0] + [0.0] * (n - 2))
        if p["u"].size != n or p["u"].min() == p["u"].max():   # one per state, not constant
            raise ConfigParse(f"u must be {n} reals, not all equal, not {p['u'].tolist()}")
    p["model"] = {**model, "name": spec if isinstance(spec, str) else "inline"}
    return p


def _metric_for(model: dict, name: str) -> Metric:
    if name == "trivial":
        return trivial_metric(model["chain"].n)
    if name == "line":
        if "grid" in model:
            return line_metric(model["grid"].nodes)
        raise ConfigParse("line metric needs a grid-backed model")
    if name == "default" and "metric" in model:
        return model["metric"]
    raise ConfigParse(f"unknown metric {name!r}")


_KINDS = {}


def _kind(kind: str, **table):
    """Register the decorated run as ``kind``, taking the keys ``table`` declares: every
    call parses its params first, so the run reads parsed values only."""
    def register(run):
        def parsed(params, out_dir: Path, seed: int, name: str) -> Outcome:
            _known(params, table, "params")
            p = {key: parse(params[key] if key in params else default, key)
                 if key in params or default is not None else None
                 for key, (parse, default) in table.items()}
            return run(_load(p) if _model in table.get("model", ()) else p, out_dir, seed, name)
        parsed.table = table
        _KINDS[kind] = parsed
        return parsed
    return register


@dataclass
class Outcome:
    name: str
    passed: bool
    details: dict
    artifacts: list


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

@_kind("verify-tci", model=(_model, "bernoulli"), alpha=(_rate_function, {}),
       lambda_grid=(_reals, [0.25, 0.5, 1.0, 2.0]), n_pairs=(_count(), 8))
def run_verify_tci(p, out_dir: Path, seed: int, name: str) -> Outcome:
    chain = p["model"]["chain"]
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(p["n_pairs"]):
        u = rng.uniform(-0.5, 0.5, size=chain.n)
        u = u - u.min()
        u = u / max(u.max(), 1e-12)          # oscillation exactly one
        u = u - chain.expectation(u)
        pairs.append(PhiPair.validate(u, u))
    report = verify_tphi_dual(chain, pairs, p["alpha"], np.asarray(p["lambda_grid"]))
    path = out_dir / f"{name}-slack.csv"
    write_csv(path, ["pair", "lambda", "slack"], report.rows)
    return Outcome(name, report.passed, {"worst_slack": report.worst_slack}, [path])


@_kind("best-constant", model=(_model, "bernoulli"),
       metric=(_choice("default", "trivial", "line"), None), which=(_choice("w1i", "w2i"), "w1i"))
def run_best_constant(p, out_dir: Path, seed: int, name: str) -> Outcome:
    chain = p["model"]["chain"]
    search = best_w1i if p["which"] == "w1i" else best_w2i
    report = search(chain, p["metric"], seed=seed)
    _, c_p = spectral_gap(chain)
    path = out_dir / f"{name}-report.json"
    write_json(path, {**asdict(report), "c_P": c_p})
    ok = report.diverged or abs(report.c_dual - report.c_primal) <= 1e-2 * max(1.0, report.c_dual)
    return Outcome(name, bool(ok),
                   {"c_dual": report.c_dual, "c_primal": report.c_primal,
                    "diverged": report.diverged, "c_P": c_p}, [path])


@_kind("ckp-scan", n=(_count(), 6), count=(_count(0), 2000))
def run_ckp_scan(p, out_dir: Path, seed: int, name: str) -> Outcome:
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(p["n"]) * 2.0)
    # one draw of `count` rows gives the bits of `count` single draws
    f = rng.dirichlet(np.ones(p["n"]), size=p["count"]) / mu
    tv2, four_var = ckp_gap(mu, f / dots(mu, f)[:, None])
    gap = four_var - tv2
    worst = min_nan(math.inf, *gap.tolist())
    rows = list(zip(range(200), *(a[:200].tolist() for a in (tv2, four_var, gap))))
    eq_gap = 0.0
    for prob in (0.1, 0.3, 0.5, 0.7, 0.9):
        mu2 = np.array([prob, 1.0 - prob])
        f = ckp_extremal(prob, mu2)
        tv2, four_var = ckp_gap(mu2, f)
        eq_gap = max_nan(eq_gap, abs(tv2 - four_var))
    path = out_dir / f"{name}-scan.csv"
    write_csv(path, ["sample", "tv_sq", "four_var", "gap"], rows)
    passed = worst >= -1e-12 and eq_gap <= 1e-10
    return Outcome(name, bool(passed),
                   {"worst_gap": worst, "extremal_equality_gap": eq_gap}, [path])


@_kind("rho-scan", lambdas=(_reals, [0.1, 0.3, 0.5, 0.7, 0.9, 2.0]))
def run_rho_scan(p, out_dir: Path, seed: int, name: str) -> Outcome:
    p_grid = default_p_grid()
    rows = []
    worst = -math.inf
    for lam in p["lambdas"]:
        scan = rho_sup_scan(lam, p_grid)
        for q, g in zip(scan["p_grid"], scan["growths"]):
            rows.append((lam, q, g, scan["rho"], scan["rho"] - g))
        worst = max_nan(worst, scan["sup"] - scan["rho"])
    path = out_dir / f"{name}-scan.csv"
    write_csv(path, ["lambda", "p", "growth", "rho", "gap"], rows)
    return Outcome(name, bool(worst <= 1e-10), {"worst_excess": worst}, [path])


@_kind("diffusion", model=(_model, "ou"), nodes=(_count(), 400),
       rho=(_choice("identity", "tanh", "intrinsic"), "identity"))
def run_diffusion(p, out_dir: Path, seed: int, name: str) -> Outcome:
    model = p["model"]
    spec, grid = model["spec"], model["grid"]
    warp = {"identity": Warp.identity(), "tanh": Warp.tanh_blend(),
            "intrinsic": Warp.intrinsic(spec)}[p["rho"]]
    Z, mu_grid = normalize(spec, grid)
    corrected = c_rho(spec, warp, grid, corrected=True)
    literal = c_rho(spec, warp, grid, corrected=False)
    ratio = lip_poisson_ratio(spec, grid, warp, seed=seed)
    _, c_p = spectral_gap(model["chain"])
    path = out_dir / f"{name}-report.csv"
    write_csv(path, ["Z", "c_rho_corrected", "c_rho_literal", "lip_poisson_ratio", "c_P"],
              [(Z, corrected, literal, ratio, c_p)])
    ok = ratio <= corrected + 1e-3 and c_p <= corrected * 1.02 + 1e-9
    return Outcome(name, bool(ok),
                   {"c_rho": corrected, "lip_ratio": ratio, "c_P": c_p}, [path])


@_kind("lyapunov", model=(_choice("mminf", "beta-potential"), "mminf"),
       samples=(_count(0), 200), beta=(_real, 2.0))
def run_lyapunov(p, out_dir: Path, seed: int, name: str) -> Outcome:
    rng = np.random.default_rng(seed)
    if p["model"] == "mminf":
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
    else:
        model = beta_potential_example(p["beta"])
        chain = model.chain
        cert = certify_H(chain, model.U, model.phi, model.b, exclude=(0, chain.n - 1))
    f = rng.dirichlet(np.ones(chain.n) * 0.8, size=p["samples"]) / chain.mu
    rep = verify_thm51(chain, cert, f / chain.expectation(f)[:, None])
    cert_path = out_dir / f"{name}-certificate.json"
    write_json(cert_path, {**asdict(cert), "certified": cert.certified})
    rows_path = out_dir / f"{name}-verify.csv"
    write_csv(rows_path, ["sample", "lhs_phi", "bound_phi", "lhs_sqrtphi_sq",
                          "bound_sqrtphi_sq", "slack"], rep["rows"])
    passed = cert.certified and rep["passed"]
    return Outcome(name, bool(passed),
                   {"max_violation": cert.max_violation,
                    "worst_slack": rep["worst_slack"]}, [cert_path, rows_path])


@_kind("simulate", model=(_model, "bernoulli"), u=(_reals, None), t=(_real, 20.0),
       r=(_reals, [0.2]), n_paths=(_count(), 20000), dump_samples=(_choice(False, True), False))
def run_simulate(p, out_dir: Path, seed: int, name: str) -> Outcome:
    chain, u, t = p["model"]["chain"], p["u"], p["t"]
    _, c_p = spectral_gap(chain)
    alpha = RateFunction.quadratic(math.sqrt(c_p) * oscillation(u) / 2.0)  # Hoeffding form
    config = EnsembleConfig(model=chain, beta=chain.mu, t=t,
                            n_paths=p["n_paths"], master_seed=seed)
    samples = sample_time_average(config, u)
    rows = []
    for r in p["r"]:
        est = tail_estimate(config, u, u, r, alpha, samples=samples)
        rows.append((p["model"]["name"], "u", t, r, est.n_paths, est.p_hat, est.ci_low,
                     est.ci_high, est.bound_value, est.verdict, seed))
    path = out_dir / f"{name}-ledger.csv"
    write_csv(path, ["model", "u", "t", "r", "n_paths", "p_hat", "ci_low", "ci_high",
                     "bound", "verdict", "seed"], rows)
    artifacts, ok = [path], all(row[9] != "bound_violated" for row in rows)
    if p["dump_samples"]:
        spath = out_dir / f"{name}-samples.csv"
        write_csv(spath, ["path", "time_average"], list(enumerate(samples)))
        artifacts.append(spath)
    return Outcome(name, bool(ok), {"rows": len(rows)}, artifacts)


@_kind("tensorize", count=(_count(0), 25))
def run_tensorize(p, out_dir: Path, seed: int, name: str) -> Outcome:
    prod_model = catalog.load_example("product-3x3")
    prod, factors = prod_model["chain"], prod_model["factors"]
    rng = np.random.default_rng(seed)
    f = rng.dirichlet(np.ones(prod.n), size=p["count"]) / prod.mu
    f = f / prod.expectation(f)[:, None]
    rhs = [conditional_fisher_sum(factors, joint) for joint in prod.mu * f]
    worst_fisher = max_nan(0.0, *np.abs(fisher_information(prod, f) - rhs).tolist())
    c1 = CostMatrix.validate(np.array([[0., 1.], [1., 0.]]))
    worst_sub = 0.0
    for _ in range(p["count"]):
        nu = rng.dirichlet(np.ones(4)).reshape(2, 2)
        lhs, rhs = tensor_subadditivity_check([c1, c1], nu,
                                              [np.array([0.5, 0.5]), np.array([0.4, 0.6])])
        worst_sub = max_nan(worst_sub, lhs - rhs)
    alpha = RateFunction.quadratic(1.3)
    grid = np.linspace(0.0, 4.0, 41)
    worst_inf = max_nan(*(abs(alpha_infconv([alpha, alpha], float(r)) - 2.0 * alpha(r / 2.0))
                          for r in grid))
    path = out_dir / f"{name}-report.csv"
    write_csv(path, ["fisher_additivity_gap", "subadditivity_excess", "infconv_gap"],
              [(worst_fisher, worst_sub, worst_inf)])
    passed = worst_fisher <= 1e-8 and worst_sub <= 1e-9 and worst_inf <= 1e-10
    return Outcome(name, bool(passed),
                   {"fisher_gap": worst_fisher, "sub_excess": worst_sub,
                    "infconv_gap": worst_inf}, [path])


# the paper suite's parts; each runs as the experiment "{suite name}-{part}"
_SUITE = (
    ("ckp", run_ckp_scan, {"n": 5, "count": 500}),
    ("rho", run_rho_scan, {"lambdas": [0.3, 0.5, 2.0]}),
    ("tci", run_verify_tci,
     {"model": "bernoulli", "alpha": {"kind": "quadratic", "c": math.sqrt(0.21) / 2.0}}),
    ("bc", run_best_constant, {"model": "bernoulli", "metric": "trivial"}),
    ("diff", run_diffusion, {"model": "ou", "nodes": 200}),
    ("lya", run_lyapunov, {"model": "mminf", "samples": 100}),
    ("tens", run_tensorize, {"count": 10}),
    ("sim", run_simulate, {"model": "bernoulli", "t": 10.0, "r": [0.2], "n_paths": 4000}),
)


@_kind("paper-suite")
def run_paper_suite(p, out_dir: Path, seed: int, name: str) -> Outcome:
    """Abbreviated end-to-end pass over the bundled models."""
    sub = [run(part_params, out_dir, seed, f"{name}-{part}") for part, run, part_params in _SUITE]
    return Outcome(name, all(o.passed for o in sub), {o.name: o.passed for o in sub},
                   [a for o in sub for a in o.artifacts])


def _parse_spec_file(path: Path) -> list[tuple[str, dict]]:
    """The spec's experiments as (name, experiment) pairs.  A name (given, or
    ``{kind}-{index}``) prefixes the experiment's files in the output directory, so it
    must be a non-empty string, not "." or "..", without "/" or "\\", and unique in
    the spec, counting the names a paper-suite gives its parts (``{name}-ckp`` ...)."""
    try:    # RFC 8259 has no NaN or Infinity: they read as bytes, which no parser takes
        doc = json.loads(path.read_text(), parse_constant=str.encode)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read spec {path}: {exc}") from exc
    experiments = doc["experiments"] if isinstance(doc, dict) and "experiments" in doc \
        else [doc]
    if not isinstance(experiments, list):
        raise ConfigParse(f"experiments must be a list, not {experiments!r}")
    named, seen = [], set()
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict) or "kind" not in exp:
            raise ConfigParse(f"experiment {i} lacks a kind")
        if exp["kind"] not in _KINDS:
            raise ConfigParse(f"unknown kind {exp['kind']!r}")
        name = exp.get("name", f"{exp['kind']}-{i}")
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise ConfigParse(f"experiment {i} has an invalid name {name!r}")
        parts = [f"{name}-{part}" for part, _, _ in _SUITE] if exp["kind"] == "paper-suite" else []
        for taken in (name, *parts):
            if taken in seen:
                raise ConfigParse(f"experiment name {taken!r} is used twice")
            seen.add(taken)
        named.append((name, exp))
    return named


def run_spec_file(path: Path, out_dir: Path, seed_override=None, jobs: int = 1) -> int:
    experiments = _parse_spec_file(path)
    out_dir.mkdir(parents=True, exist_ok=True)

    def _one(named):
        name, exp = named
        try:
            _known(exp, ("kind", "name", "params", "seed"), "the experiment")
            seed = exp.get("seed", 0) if seed_override is None else int(seed_override)
            seed = _count(0)(seed, "seed")
            return _KINDS[exp["kind"]](exp.get("params", {}), out_dir, seed, name)
        except Exception as exc:  # a failing experiment is recorded; the batch goes on
            if not isinstance(exc, TransinfoError):
                traceback.print_exc()
            return Outcome(name, False, {"error": f"{type(exc).__name__}: {exc}"}, [])

    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_one, experiments))
    else:
        outcomes = [_one(named) for named in experiments]

    summary = {
        "passed": all(o.passed for o in outcomes),
        "experiments": [
            {"name": o.name, "passed": o.passed, "details": o.details,
             "artifacts": [str(Path(a).relative_to(out_dir)) for a in o.artifacts]}
            for o in outcomes
        ],
    }
    write_json(out_dir / "summary.json", summary)
    print(json.dumps(summary, indent=2, sort_keys=True, default=_json_default))
    return 0 if summary["passed"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="transinfo",
        description="transport-information inequality experiments on finite Markov models")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run an experiment spec file")
    runp.add_argument("spec", type=Path)
    runp.add_argument("--seed", type=int, default=None, help="override every experiment seed")
    runp.add_argument("--out", type=Path, default=Path("out"))
    runp.add_argument("--jobs", type=int, default=1)
    sub.add_parser("list-examples", help="catalog of bundled models")
    args = parser.parse_args(argv)

    if args.command == "list-examples":
        for key, desc in sorted(catalog.list_examples().items()):
            print(f"{key}: {desc}")
        return 0
    try:
        return run_spec_file(args.spec, args.out, args.seed, args.jobs)
    except ConfigParse as exc:
        print(json.dumps({"passed": False, "error": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
