"""The BLAS thread policy: importing transinfo sets one thread for the OpenBLAS
that loads after it.

Each test runs a fresh interpreter, since OpenBLAS reads
OPENBLAS_NUM_THREADS once, when it loads.  A caller's own setting is
kept.  The guarantee is that the default gives every result the
one-thread bits.  That two threads leave products such as Q @ U alone is
a property of OpenBLAS's kernels and blocking on the host's CPU, not of
transinfo; dense eigensolves of some 250 states and more move under two
threads by about 1e-14 of the matrix norm.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transinfo

SRC = str(Path(transinfo.__file__).resolve().parents[1])
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1

# Prints OPENBLAS_NUM_THREADS, the thread count of each loaded OpenBLAS
# (numpy's and scipy's), read as bench/run.py reads it, and the number of
# the process's threads after both libraries have run a call.
THREADS = """
import ctypes, json, os
import transinfo
import numpy as np
import scipy.linalg
np.ones((64, 64)) @ np.ones((64, 64))
scipy.linalg.expm(np.eye(2))
counts = []
with open("/proc/self/maps") as maps:
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            fn = getattr(lib, sym)
            fn.restype = ctypes.c_int
            counts.append(int(fn()))
            break
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), counts,
                  len(os.listdir("/proc/self/task"))]))
"""

# Prints, a line each, the float hex of lya-beta's drift ratio (a 481 x 481
# Q @ U), of fk_growth_mc's exact finite-horizon value (a 2 x 2 expm) and
# estimate, and of a dense spectral gap and top eigenvalue on a 300-state
# chain without a band.  transinfo loads numpy, as in the console script.
RESULTS = """
from transinfo.chains import build_chain, spectral_gap
from transinfo.feynman_kac import lambda_max
import numpy as np
from transinfo.lyapunov import beta_potential_example, drift_ratio
from transinfo.trivial_metric import fk_growth_mc
model = beta_potential_example(2.0)
ratio = drift_ratio(model.chain, model.U)
print(len(ratio), *(x.hex() for x in ratio.tolist()))
growth = fk_growth_mc(0.35, 0.3, 30.0, 2000, seed=222)
print(growth.exact_finite_t.hex(), growth.estimate.hex())
rng = np.random.default_rng(29)
n = 300
mu = rng.dirichlet(np.full(n, 3.0)) + 1e-3
mu /= mu.sum()
cond = np.triu(rng.uniform(0.2, 1.5, (n, n)) * (rng.random((n, n)) < 0.05), 1)
cond[np.arange(n - 1), np.arange(1, n)] += 1.0       # a path keeps it irreducible
chain = build_chain((cond + cond.T) / mu[:, None], mu=mu)
assert chain.band is None
print(spectral_gap(chain)[0].hex(), lambda_max(chain, np.sin(np.arange(n))).hex())
"""

# Prints what `import transinfo` alone loads and binds, the variable it
# leaves, and the names that submodule imports bind.
NAMESPACE = """
import json, os, sys
import transinfo
loaded = sorted(name for name in sys.modules
                if name.split(".")[0] == "numpy" or name.startswith("transinfo."))
public = sorted(name for name in vars(transinfo) if not name.startswith("_"))
variable = os.environ.get("OPENBLAS_NUM_THREADS")
import transinfo.trivial_metric as tm
from transinfo import catalog, cli
print(json.dumps([loaded, public, variable, tm.__name__, catalog.__name__, cli.__name__]))
"""


@functools.lru_cache(maxsize=None)
def _fresh(script: str, threads: str | None) -> str:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    res = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return res.stdout


def _threads(preset: str | None):
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("reads the loaded libraries from /proc/self/maps")
    variable, counts, tasks = json.loads(_fresh(THREADS, preset))
    if not counts:
        pytest.skip("numpy and scipy are not linked to OpenBLAS")
    return variable, counts, tasks


def test_import_loads_openblas_with_one_thread():
    variable, counts, tasks = _threads(None)
    assert variable == "1"
    assert counts == [1] * len(counts)
    assert tasks == 1     # no BLAS worker beside the main thread


def test_package_import_loads_nothing_and_only_sets_the_thread_default():
    for preset, expected in ((None, "1"), ("3", "3")):
        loaded, public, variable, *names = json.loads(_fresh(NAMESPACE, preset))
        assert loaded == [] and public == ["os"]
        assert variable == expected
        assert names == ["transinfo.trivial_metric", "transinfo.catalog", "transinfo.cli"]


@pytest.mark.skipif(CPUS < 2, reason="OpenBLAS caps its threads at the CPUs it may run on")
def test_caller_thread_count_is_kept():
    variable, counts, tasks = _threads("2")
    assert variable == "2"
    assert counts == [2] * len(counts)
    assert tasks > 1


def test_default_gives_every_result_the_one_thread_bits():
    default, one = _fresh(RESULTS, None), _fresh(RESULTS, "1")
    assert default.startswith("481 ")
    assert default == one


def test_blas_products_have_the_same_bits_under_one_and_two_threads():
    # host-dependent: OpenBLAS picks its GEMM kernel and its split between
    # threads per CPU architecture, and the bits hold only where that split
    # leaves each output entry summed in one order
    one, two = _fresh(RESULTS, "1").splitlines(), _fresh(RESULTS, "2").splitlines()
    assert one[:2] == two[:2]


def test_dense_eigensolves_agree_to_rounding_under_two_threads():
    # from about 250 states the thread count moves the last bits of a dense
    # eigh, so one thread makes them the same on hosts with any core count
    one, two = (_fresh(RESULTS, t).splitlines()[2].split() for t in ("1", "2"))
    gap, top = (float.fromhex(x) for x in one)
    gap2, top2 = (float.fromhex(x) for x in two)
    assert abs(gap2 - gap) <= 1e-12 * gap and abs(top2 - top) <= 1e-12 * gap
