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
from .chains import (
    Metric,
    chain_from_json,
    dots,
    fisher_information,
    line_metric,
    oscillation,
    spectral_gap,
    trivial_metric,
)
from .diffusion1d import Warp, c_rho, lip_poisson_ratio, normalize
from .errors import ConfigParse, TransinfoError
from .feynman_kac import PhiPair, best_w1i, best_w2i, verify_tphi_dual
from .lyapunov import beta_potential_example, certify_H, mminf_certificate, verify_thm51
from .rng import _is_integer
from .simulate import EnsembleConfig, sample_time_average, tail_estimate
from .transport import (
    CostMatrix,
    RateFunction,
    alpha_infconv,
    tensor_subadditivity_check,
    conditional_fisher_sum,
)
from .trivial_metric import ckp_extremal, ckp_gap, default_p_grid, rho_sup_scan

def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
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


def _rate_function(obj) -> RateFunction:
    if obj is None:
        raise ConfigParse("experiment needs an alpha specification")
    kind = obj.get("kind")
    try:
        if kind == "quadratic":
            return RateFunction.quadratic(_real(obj, "c", None))
        if kind == "power":
            return RateFunction.power(_real(obj, "kappa", None), _real(obj, "p", None))
        if kind == "tabulated":
            return RateFunction.tabulated(_real(obj, "knots", []), _real(obj, "values", []))
    except ValueError as exc:
        raise ConfigParse(f"invalid rate function {obj!r}: {exc}") from exc
    raise ConfigParse(f"unknown rate-function kind {kind!r}")


def _load_model(spec) -> dict:
    if isinstance(spec, str):
        return catalog.load_example(spec)
    if isinstance(spec, dict) and "rates" in spec:
        return {"chain": chain_from_json(spec)}
    raise ConfigParse(f"cannot interpret model {spec!r}: a model is a catalog name "
                      "or an inline chain with rates")


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


@dataclass
class Outcome:
    name: str
    passed: bool
    details: dict
    artifacts: list


# ---------------------------------------------------------------------------
# Experiment kinds
# ---------------------------------------------------------------------------

def run_verify_tci(params, out_dir: Path, seed: int, name: str) -> Outcome:
    model = _load_model(params.get("model", "bernoulli"))
    chain = model["chain"]
    alpha = _rate_function(params.get("alpha"))
    lambdas = np.asarray(_real(params, "lambda_grid", [0.25, 0.5, 1.0, 2.0]))
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(_count(params, "n_pairs", 8)):
        u = rng.uniform(-0.5, 0.5, size=chain.n)
        u = u - u.min()
        u = u / max(u.max(), 1e-12)          # oscillation exactly one
        u = u - chain.expectation(u)
        pairs.append(PhiPair.validate(u, u))
    report = verify_tphi_dual(chain, pairs, alpha, lambdas)
    path = out_dir / f"{name}-slack.csv"
    write_csv(path, ["pair", "lambda", "slack"], report.rows)
    return Outcome(name, report.passed,
                   {"worst_slack": report.worst_slack}, [path])


def run_best_constant(params, out_dir: Path, seed: int, name: str) -> Outcome:
    model = _load_model(params.get("model", "bernoulli"))
    chain = model["chain"]
    metric = _metric_for(model, params.get("metric", "default" if "metric" in model else "trivial"))
    search = best_w1i if _choice(params, "which", ("w1i", "w2i")) == "w1i" else best_w2i
    report = search(chain, metric, seed=seed)
    _, c_p = spectral_gap(chain)
    path = out_dir / f"{name}-report.json"
    write_json(path, {**asdict(report), "c_P": c_p})
    ok = report.diverged or abs(report.c_dual - report.c_primal) <= 1e-2 * max(1.0, report.c_dual)
    return Outcome(name, bool(ok),
                   {"c_dual": report.c_dual, "c_primal": report.c_primal,
                    "diverged": report.diverged, "c_P": c_p}, [path])


def _count(params, key: str, default: int, least: int = 1) -> int:
    """A count from the params: an integer (not a bool) of at least ``least``.

    A sample count takes least 0, and zero draws nothing."""
    count = params.get(key, default)
    if not _is_integer(count):
        raise ConfigParse(f"{key} must be an integer, not {count!r}")
    if count < least:
        raise ConfigParse(f"{key} must be {least or 'zero'} or more, not {count}")
    return int(count)


def _real(params, key: str, default):
    """A real from the params: an int or a float, not a bool, or a list of them
    where the default is a list.  Anything else raises ConfigParse naming the key."""
    value = params.get(key, default)
    many = isinstance(default, list) and isinstance(value, list)
    if not all(isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
               for x in (value if many else [value])):
        form = "a number or a list of numbers" if isinstance(default, list) else "a number"
        raise ConfigParse(f"{key} must be {form}, not {value!r}")
    return [float(x) for x in value] if many else float(value)


def _choice(params, key: str, allowed: tuple):
    """The value at ``key`` (``allowed[0]`` when absent), which must equal one of
    ``allowed`` and have its type, so 1 is not JSON true.  Anything else raises
    ConfigParse naming the key and the allowed values."""
    value = params.get(key, allowed[0])
    if not any(type(value) is type(a) and value == a for a in allowed):
        raise ConfigParse(f"{key} must be one of {', '.join(map(json.dumps, allowed))}, "
                          f"not {value!r}")
    return value


def run_ckp_scan(params, out_dir: Path, seed: int, name: str) -> Outcome:
    n = _count(params, "n", 6)
    count = _count(params, "count", 2000, least=0)
    rng = np.random.default_rng(seed)
    mu = rng.dirichlet(np.ones(n) * 2.0)
    # one draw of `count` rows gives the bits of `count` single draws
    f = rng.dirichlet(np.ones(n), size=count) / mu
    tv2, four_var = ckp_gap(mu, f / dots(mu, f)[:, None])
    gap = four_var - tv2
    worst = min([math.inf, *gap.tolist()])      # a running min from inf passes over a NaN gap
    rows = list(zip(range(200), *(a[:200].tolist() for a in (tv2, four_var, gap))))
    eq_gap = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        mu2 = np.array([p, 1.0 - p])
        f = ckp_extremal(p, mu2)
        tv2, four_var = ckp_gap(mu2, f)
        eq_gap = max(eq_gap, abs(tv2 - four_var))
    path = out_dir / f"{name}-scan.csv"
    write_csv(path, ["sample", "tv_sq", "four_var", "gap"], rows)
    passed = worst >= -1e-12 and eq_gap <= 1e-10
    return Outcome(name, bool(passed),
                   {"worst_gap": worst, "extremal_equality_gap": eq_gap}, [path])


def run_rho_scan(params, out_dir: Path, seed: int, name: str) -> Outcome:
    lambdas = _real(params, "lambdas", [0.1, 0.3, 0.5, 0.7, 0.9, 2.0])
    p_grid = default_p_grid()
    rows = []
    worst = -math.inf
    for lam in lambdas:
        scan = rho_sup_scan(lam, p_grid)
        for p, g in zip(scan["p_grid"], scan["growths"]):
            rows.append((lam, p, g, scan["rho"], scan["rho"] - g))
        worst = max(worst, scan["sup"] - scan["rho"])
    path = out_dir / f"{name}-scan.csv"
    write_csv(path, ["lambda", "p", "growth", "rho", "gap"], rows)
    return Outcome(name, bool(worst <= 1e-10), {"worst_excess": worst}, [path])


def run_diffusion(params, out_dir: Path, seed: int, name: str) -> Outcome:
    model_name = params.get("model", "ou")
    nodes = _count(params, "nodes", 400)
    warp_name = _choice(params, "rho", ("identity", "tanh", "intrinsic"))
    model = catalog.load_example(model_name, grid_nodes=nodes) \
        if isinstance(model_name, str) else {}
    if "grid" not in model:
        raise ConfigParse("diffusion experiments need a catalog model with a grid, "
                          f"not {model_name!r}")
    spec, grid = model["spec"], model["grid"]
    warp = {"identity": Warp.identity(), "tanh": Warp.tanh_blend(),
            "intrinsic": Warp.intrinsic(spec)}[warp_name]
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


def run_lyapunov(params, out_dir: Path, seed: int, name: str) -> Outcome:
    model_name = params.get("model", "mminf")
    samples = _count(params, "samples", 200, least=0)
    rng = np.random.default_rng(seed)
    if model_name == "mminf":
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        exclude = ()
    elif model_name == "beta-potential":
        model = beta_potential_example(_real(params, "beta", 2.0))
        chain = model.chain
        exclude = (0, chain.n - 1)
        cert = certify_H(chain, model.U, model.phi, model.b, exclude=exclude)
    else:
        raise ConfigParse(f"unknown lyapunov model {model_name!r}")
    f = rng.dirichlet(np.ones(chain.n) * 0.8, size=samples) / chain.mu
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


def run_simulate(params, out_dir: Path, seed: int, name: str) -> Outcome:
    model = _load_model(params.get("model", "bernoulli"))
    chain = model["chain"]
    u = np.asarray(_real(params, "u", [0.0, 1.0] + [0.0] * (chain.n - 2)))
    t = _real(params, "t", 20.0)
    r_list = _real(params, "r", [0.2])
    n_paths = _count(params, "n_paths", 20000)
    dump_samples = _choice(params, "dump_samples", (False, True))
    _, c_p = spectral_gap(chain)
    alpha = RateFunction.quadratic(math.sqrt(c_p) * oscillation(u) / 2.0)  # Hoeffding form
    config = EnsembleConfig(model=chain, beta=chain.mu, t=t,
                            n_paths=n_paths, master_seed=seed)
    samples = sample_time_average(config, u)
    model_name = str(params.get("model", "bernoulli"))
    rows = []
    ok = True
    for r in np.atleast_1d(r_list):
        est = tail_estimate(config, u, u, float(r), alpha, samples=samples)
        rows.append((model_name, "u", t, float(r), est.n_paths, est.p_hat, est.ci_low,
                     est.ci_high, est.bound_value, est.verdict, seed))
        ok = ok and est.verdict != "bound_violated"
    path = out_dir / f"{name}-ledger.csv"
    write_csv(path, ["model", "u", "t", "r", "n_paths", "p_hat", "ci_low", "ci_high",
                     "bound", "verdict", "seed"], rows)
    artifacts = [path]
    if dump_samples:
        spath = out_dir / f"{name}-samples.csv"
        write_csv(spath, ["path", "time_average"], list(enumerate(samples)))
        artifacts.append(spath)
    return Outcome(name, bool(ok), {"rows": len(rows)}, artifacts)


def run_tensorize(params, out_dir: Path, seed: int, name: str) -> Outcome:
    count = _count(params, "count", 25, least=0)
    prod_model = catalog.load_example("product-3x3")
    prod, factors = prod_model["chain"], prod_model["factors"]
    rng = np.random.default_rng(seed)
    f = rng.dirichlet(np.ones(prod.n), size=count) / prod.mu
    f = f / prod.expectation(f)[:, None]
    rhs = [conditional_fisher_sum(factors, joint) for joint in prod.mu * f]
    worst_fisher = max([0.0, *np.abs(fisher_information(prod, f) - rhs).tolist()])
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


def run_paper_suite(params, out_dir: Path, seed: int, name: str) -> Outcome:
    """Abbreviated end-to-end pass over the bundled models."""
    sub = [run(part_params, out_dir, seed, f"{name}-{part}") for part, run, part_params in _SUITE]
    passed = all(o.passed for o in sub)
    artifacts = [a for o in sub for a in o.artifacts]
    return Outcome(name, passed, {o.name: o.passed for o in sub}, artifacts)


_KINDS = {
    "verify-tci": run_verify_tci,
    "best-constant": run_best_constant,
    "ckp-scan": run_ckp_scan,
    "rho-scan": run_rho_scan,
    "diffusion": run_diffusion,
    "lyapunov": run_lyapunov,
    "simulate": run_simulate,
    "tensorize": run_tensorize,
    "paper-suite": run_paper_suite,
}


def _parse_spec_file(path: Path) -> list[tuple[str, dict]]:
    """The spec's experiments as (name, experiment) pairs.

    A name (given, or ``{kind}-{index}``) prefixes the experiment's files in
    the output directory, so it must be a non-empty string, not "." or "..",
    without "/" or "\\", and unique in the spec, counting the names a
    paper-suite gives its parts (``{name}-ckp`` and so on).
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read spec {path}: {exc}") from exc
    experiments = doc["experiments"] if isinstance(doc, dict) and "experiments" in doc \
        else [doc]
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
            seed = int(seed_override) if seed_override is not None else exp.get("seed", 0)
            if not isinstance(seed, int) or isinstance(seed, bool):
                raise ConfigParse(f"seed must be an integer, not {seed!r}")
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
