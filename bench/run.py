"""Benchmark for transinfo: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the package from ``src/`` of the checkout this file sits in; nothing
is installed or built.  The seed makes every input; the program only sees
those inputs.  Passes repeat until ``--seconds`` have elapsed (at least
three), and every recorded outcome is checked afterwards, outside the
timed section.

- ``--trace 0``: the end-to-end metrics of BENCHMARK.json, as medians over
  untraced passes, plus the median of several fresh-interpreter set-ups.
  Pass wall and CPU times are reported relative to a fixed reference
  computation timed between passes (``wall_rel``, ``cpu_rel``); the raw
  seconds are printed too.
- ``--trace 1``: the per-layer metrics, from spans the benchmark opens
  around its own calls into each module.  After one untraced warm-up pass,
  traced and untraced passes alternate (ABBA, at least two of each); their
  median walls, each over the reference timed after it, give
  ``trace_overhead_frac``.

Human-readable lines come first.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Provenance, failures and spans go to ``bench/out/<run>/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
LOOP_CAP_S = 100.0   # keeps a run inside its 180 s limit when a pass is slow
LAYERS = ("chains", "transport", "feynman_kac", "trivial_metric", "diffusion1d",
          "simulate", "cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; the figures mean nothing")
    ap.add_argument("--setup-only", action="store_true",
                    help="import transinfo and build the inputs, then exit (times set-up)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "transinfo" / "__init__.py").is_file():
        print(f"error: no transinfo sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import transinfo
    if Path(transinfo.__file__).resolve().parent != (SRC / "transinfo").resolve():
        print(f"error: imported transinfo from {transinfo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    if args.setup_only:
        WORKLOADS[args.workload](args.seed, args.tiny, None)
        return 0
    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_start = os.getloadavg()
    setup = None if args.trace else measure_setup(args)
    wl = WORKLOADS[args.workload](args.seed, args.tiny, out_dir)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if args.trace:
        checker, metrics, spans = traced_run(wl, args.seconds, run_id)
        wanted = contract["per_layer"]
    else:
        checker, metrics = untraced_run(wl, args.seconds, setup)
        spans = []
        wanted = contract["end_to_end"]

    missing = [m["name"] for m in wanted if args.trace == 0 and m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2
    result = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
              for m in wanted}
    prov = provenance(args, wl, load_start)
    (out_dir / "result.json").write_text(json.dumps(
        {"provenance": prov, "metrics": result, "attempted": checker.attempted,
         "failures": checker.failures,
         **{k: metrics.get(k) for k in ("wall_s", "wall_rel", "cpu_s", "pass_walls",
                                        "pass_cpus", "reference_walls", "setup_walls")}}, indent=1,
        default=str))
    if spans:
        (out_dir / "spans.json").write_text(json.dumps(spans))

    fail_frac = checker.failed / max(checker.attempted, 1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{checker.attempted} tasks, {checker.failed} failed")
    for name, m in result.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  wall_s {metrics['wall_s']:.6g} s")
        print(f"  cpu_s {metrics['cpu_s']:.6g} s")
    print(f"  fail_frac {fail_frac:.6g} ratio")
    for task, kind, reason in checker.failures[:20]:
        print(f"  failed {task} [{kind}] {reason}")
    print("provenance " + json.dumps(prov, default=str))
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result}))
    return 0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure_setup(args) -> list[float]:
    """Walls of fresh interpreters that import transinfo and build the inputs."""
    from workloads import cli_env
    if args.workload == "batch-cli":
        cmd = [sys.executable, "-m", "transinfo.cli", "list-examples"]
    else:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    walls = []
    for _ in range(1 if args.tiny else SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=cli_env(), stdout=subprocess.DEVNULL, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return walls


def _keep_going(n_passes: int, started: float, seconds: float, last: float) -> bool:
    elapsed = time.perf_counter() - started
    if elapsed + last > LOOP_CAP_S:
        return False
    return n_passes < MIN_PASSES or elapsed < seconds


def reference() -> tuple[float, float]:
    """(wall, CPU) seconds of a fixed single-threaded mix: bytecode, small LAPACK, tiny LPs.

    The host's speed drifts by 20% and more within minutes (other tenants
    share its cores), and not by the same factor for every kind of work.
    The mix resembles the workloads, so a pass divided by the reference
    timed right before and after it cancels much of that drift.  It stays
    single-threaded: a BLAS pool's spinning threads would add CPU time that
    varies from call to call.
    """
    import numpy as np
    from scipy.optimize import linprog
    small = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5.0 + 6.0 * np.eye(6)
    cost = np.abs(np.subtract.outer(np.arange(5.0), np.arange(5.0))).ravel()
    a_eq = np.vstack([np.kron(np.eye(5), np.ones(5)), np.kron(np.ones(5), np.eye(5))])
    b_eq = np.concatenate([np.full(5, 0.2), np.arange(1.0, 6.0) / 15.0])
    w0, c0 = time.perf_counter(), time.process_time()
    acc = 0
    for i in range(1_600_000):
        acc += i * i
    for _ in range(7000):
        np.linalg.eigvalsh(small)
    for _ in range(45):
        linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    return time.perf_counter() - w0, time.process_time() - c0


def untraced_run(wl, seconds: float, setup: list[float]):
    from workloads import Checker
    passes, refs = [], [reference()]
    started = time.perf_counter()
    while _keep_going(len(passes), started, seconds, passes[-1][1] if passes else 0.0):
        passes.append(wl.timed_pass())
        refs.append(reference())
    peak = wl.peak_rss_mb()
    checker = Checker(wl.known_failures)
    for values, _, _ in passes:
        checker.outcomes(values, wl.checks(values, passes[0][0]))
    wl.finish(checker, trace=False)
    # each pass against the mean of the references on either side of it
    ref_wall = [(a[0] + b[0]) / 2 for a, b in zip(refs, refs[1:])]
    ref_cpu = [(a[1] + b[1]) / 2 for a, b in zip(refs, refs[1:])]
    metrics = {
        "wall_s": statistics.median(w for _, w, _ in passes),
        "cpu_s": statistics.median(c for _, _, c in passes),
        "wall_rel": statistics.median(w / r for (_, w, _), r in zip(passes, ref_wall)),
        "cpu_rel": statistics.median(c / r for (_, _, c), r in zip(passes, ref_cpu)),
        "setup_s": statistics.median(setup),
        "setup_walls": setup,
        "peak_rss_mb": peak,
        "pass_frac": (checker.attempted - checker.failed) / max(checker.attempted, 1),
        "pass_walls": [w for _, w, _ in passes],
        "pass_cpus": [c for _, _, c in passes],
        "reference_walls": [w for w, _ in refs],
    }
    return checker, metrics


def traced_run(wl, seconds: float, run_id: str):
    from spans import Tracer, self_times
    from workloads import Checker, Pass
    tracer = Tracer(run_id, wl.name, enabled=False)
    walls = {False: [], True: []}   # pass wall / the reference timed after it
    raw, refs = [], []   # every pass wall and the reference timed after it
    traced = []          # (values, spans, task -> layer) of each traced pass
    all_values = []
    started = time.perf_counter()

    def one_pass(enabled: bool):
        tracer.enabled = enabled
        first_span = len(tracer.spans)
        p = Pass(tracer)
        t0 = time.perf_counter()
        with tracer.span("bench", "pass"):
            wl.run_pass(p)
        wall = time.perf_counter() - t0
        raw.append(wall)
        refs.append(reference()[0])
        all_values.append(p.values)
        if enabled:
            traced.append((p.values, tracer.spans[first_span:], p.layers))
        return wall

    one_pass(False)      # warm-up: lazy imports and first-touch allocations
    order = (True, False, False, True)       # ABBA, so drift cancels in pairs
    k = 0
    while (k < len(order) or time.perf_counter() - started < seconds) \
            and time.perf_counter() - started < LOOP_CAP_S:
        enabled = order[k % len(order)]
        walls[enabled].append(one_pass(enabled) / refs[-1])
        k += 1
    tracer.enabled = False

    checker = Checker(wl.known_failures)
    for values in all_values:
        checker.outcomes(values, wl.checks(values, all_values[0]))
    extra = wl.finish(checker, trace=True)

    per_pass = []
    for values, spans, layers in traced:
        c = Checker()
        c.outcomes(values, wl.checks(values, all_values[0]))
        selfs = self_times(spans)
        m = {}
        for layer in LAYERS:
            mine = [s for s in spans if s.layer == layer]
            m[f"{layer}.calls"] = len(mine)
            m[f"{layer}.self_s"] = sum(selfs[s.span_id] for s in mine)
            m[f"{layer}.failed"] = sum(1 for task, _, _ in c.failures if layers.get(task) == layer)
        m.update(wl.layer_metrics(spans, values))
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics.update(extra)
    untraced = statistics.median(walls[False])
    metrics["trace_overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
    metrics["pass_walls"], metrics["reference_walls"] = raw, refs
    return checker, metrics, tracer.to_json()


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _openblas():
    import numpy as np
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (KeyError, TypeError):
        version = None
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return version, threads


def _git_revision():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _jsonable(x):
    if hasattr(x, "tolist"):
        return x.tolist()
    raise TypeError(type(x))


def provenance(args, wl, load_start) -> dict:
    import numpy as np
    import scipy
    blas_version, blas_threads = _openblas()
    blob = json.dumps(wl.inputs, sort_keys=True, default=_jsonable).encode()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "inputs_sha256": hashlib.sha256(blob).hexdigest(),
        "git_revision": _git_revision(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": blas_version,
        "openblas_default_threads": blas_threads,
    }


if __name__ == "__main__":
    sys.exit(main())
