"""The compiled scipy routines that the package calls without their packages.

``chains._scipy_extension`` loads ``scipy.linalg._flapack`` (the band
solves' dstebz and dstein), ``scipy.signal._sigtools`` (the OU sampler's
one-pole filter) and ``scipy.special._special_ufuncs`` and
``scipy.special._ufuncs_cxx`` (gammaln, gammainc, xlogy, log_ndtr and
Boost's ibeta_inv) from their files, without importing ``scipy.linalg``,
``scipy.signal`` or ``scipy.special``.  These tests hold the premise of
that shortcut: the loaded routines give the public ones' bits, and a later
public import, or an earlier one, binds the same routines and still works.
"""

import functools
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.signal import lfilter

from transinfo import chains
from transinfo.chains import _betaincinv, _scipy_extension, _special_ufunc
from transinfo.errors import TruncationTooSmall
from transinfo.lyapunov import mminf_generator
from transinfo.transport import _sorted_union


def outcome(fn, *args):
    """("ok", results) or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:       # the comparison is the point: any error must match
        return ("raised", type(exc), str(exc))


def same(a, b) -> bool:
    if a[0] == "raised" or b[0] == "raised":
        return a == b
    return len(a[1]) == len(b[1]) and all(np.array_equal(x, y) for x, y in zip(a[1], b[1]))


@st.composite
def bands(draw):
    """A symmetric tridiagonal (diag, off): plain, stiff or near-degenerate."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = draw(st.sampled_from(["plain", "stiff", "degenerate"]))
    if shape == "plain":
        return rng.uniform(-5.0, 5.0, n), rng.uniform(-2.0, 2.0, n - 1)
    if shape == "stiff":
        return (10.0 ** rng.uniform(-8.0, 8.0, n) * rng.choice([-1.0, 1.0], n),
                10.0 ** rng.uniform(-8.0, 8.0, n - 1))
    # one value with roundoff-sized spread, coupled by tiny off-diagonals
    return (rng.uniform(-1.0, 1.0) + rng.uniform(-1e-13, 1e-13, n),
            10.0 ** rng.uniform(-300.0, -10.0, n - 1))


class TestLoadedRoutines:
    def test_same_objects_as_the_public_modules(self):
        flapack = _scipy_extension("linalg._flapack")
        assert flapack.dstebz is lapack.dstebz and flapack.dstein is lapack.dstein
        assert _scipy_extension("signal._sigtools") is sys.modules["scipy.signal._sigtools"]

    @given(bands(), st.integers(1, 3), st.booleans())
    def test_band_routines_equal_scipy_linalg_lapack(self, band, count, vectors):
        # a chain has n >= 2; at n = 1 both wrappers reject the empty off-diagonal alike
        diag, off = band
        count = min(count, diag.size)
        flapack = _scipy_extension("linalg._flapack")
        args = (diag, off, 2, 0.0, 1.0, 1, count, 0.0, "B" if vectors else "E")
        got = outcome(flapack.dstebz, *args)
        assert same(got, outcome(lapack.dstebz, *args))
        if vectors and got[0] == "ok":
            m, w, iblock, isplit, _ = got[1]
            vec_args = (diag, off, w[:m], iblock, isplit)
            assert same(outcome(flapack.dstein, *vec_args), outcome(lapack.dstein, *vec_args))

    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.integers(1, 20_000), st.integers(0, 2 ** 32 - 1))
    def test_linear_filter_equals_lfilter(self, decay, noise_sd, length, seed):
        shocks = np.random.default_rng(seed).standard_normal(length)
        got = _scipy_extension("signal._sigtools")._linear_filter(
            np.array([noise_sd]), np.array([1.0, -decay]), shocks, -1)
        assert np.array_equal(got, lfilter([noise_sd], [1.0, -decay], shocks))


def hexes(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values)]


@st.composite
def masses(draw, n):
    """A probability vector of length n: plain, rounded to a few decimals, or with zeros."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.dirichlet(np.ones(n))
    shape = draw(st.sampled_from(["plain", "rounded", "zeros"]))
    if shape == "rounded":
        w = np.round(w, draw(st.integers(1, 3))) + 1e-3
    elif shape == "zeros":
        w[rng.random(n) < 0.4] = 0.0
        w[rng.integers(n)] += 0.5
    return w / w.sum()


class TestSpecialRoutines:
    @pytest.mark.parametrize("name", ["gammaln", "gammainc", "xlogy", "log_ndtr"])
    def test_same_ufuncs_as_scipy_special(self, name):
        assert _special_ufunc(name) is getattr(scipy.special, name)

    def test_missing_routine_is_named(self, monkeypatch):
        with pytest.raises(ImportError, match="no_such_routine"):
            _special_ufunc("no_such_routine")
        with pytest.raises(ImportError, match=r"scipy\.special\._no_such_module"):
            _scipy_extension("special._no_such_module")
        monkeypatch.setattr(chains, "_scipy_extension",
                            lambda name: types.SimpleNamespace(__pyx_capi__={}))
        with pytest.raises(ImportError, match="_export_ibeta_inv_double"):
            _betaincinv.__wrapped__()      # past the cache

    @given(st.integers(1, 200_000), st.integers(1, 200_000),
           st.one_of(st.sampled_from([0.005, 0.995, 0.025, 0.975, 0.05, 0.95]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           st.integers(0, 2 ** 32 - 1))
    def test_betaincinv_equals_scipy_special(self, a, b, p, seed):
        # one drawn triple, then 200 Clopper-Pearson triples (hits, n - hits + 1)
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 200_001, 200)
        hits = rng.integers(0, n + 1)
        aa = np.concatenate([[a], np.maximum(hits, 1), hits + 1]).astype(float)
        bb = np.concatenate([[b], n - hits + 1, np.maximum(n - hits, 1)]).astype(float)
        pp = np.concatenate([[p], np.full(200, 0.005), np.full(200, 0.995)])
        ibeta_inv = _betaincinv()
        got = [ibeta_inv(x, y, q) for x, y, q in zip(aa.tolist(), bb.tolist(), pp.tolist())]
        assert hexes(got) == hexes(scipy.special.betaincinv(aa, bb, pp))
        assert float(scipy.special.betaincinv(a, b, p)).hex() == got[0].hex()

    @given(st.integers(2, 10_000), st.floats(1e-6, 1e4),
           st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2 ** 32 - 1))
    def test_gammainc_form_equals_pdtrc(self, n_max, lam, frac, seed):
        # the form mminf_generator uses; k need not be an integer for pdtrc
        rng = np.random.default_rng(seed)
        k = np.concatenate([[n_max, n_max + frac], rng.integers(2, 200, 100),
                            rng.uniform(2.0, 200.0, 100)])
        m = np.concatenate([[lam, lam], 10.0 ** rng.uniform(-3.0, 2.5, 200)])
        got = _special_ufunc("gammainc")(np.floor(k) + 1.0, m)
        assert hexes(got) == hexes(scipy.special.pdtrc(k, m))
        assert float(_special_ufunc("gammainc")(np.floor(n_max) + 1.0, lam)).hex() == \
            float(scipy.special.pdtrc(n_max, lam)).hex()

    @given(st.integers(2, 45), st.floats(0.05, 30.0))
    def test_mminf_truncation_rule_is_pdtrc(self, n_max, lam):
        try:
            mminf_generator(lam, n_max)
            raised = False
        except TruncationTooSmall:
            raised = True
        assert raised == (float(scipy.special.pdtrc(n_max, lam)) >= 1e-10)

    @given(st.integers(1, 60).flatmap(lambda n: st.tuples(masses(n), masses(n))),
           st.booleans())
    def test_sorted_union_equals_union1d(self, pair, same_measure):
        # cumulative sums of the two marginals, as _w2_quantile merges them
        nu, mu = pair
        if same_measure:
            mu = nu.copy()
        for a, b in ((np.cumsum(nu), np.cumsum(mu)), (nu, mu), (np.round(nu, 1), nu)):
            got, want = _sorted_union(a, b), np.union1d(a, b)
            assert got.dtype == want.dtype and hexes(got) == hexes(want)


# Run in a fresh interpreter with argv[1] "extension" (the package's calls
# load the extensions before scipy.linalg, scipy.signal, scipy.special and
# scipy.stats are imported, scipy.special's before any other) or "public"
# (those packages are imported first).
# Prints two hashes: of the band solve's and OU sampler's bits, then of the
# special routines' bits.
LOAD_ORDER = """
import hashlib, math, sys
import numpy as np
if sys.argv[1] == "public":
    import scipy.linalg, scipy.signal, scipy.special, scipy.stats
from transinfo import chains, mminf_generator
from transinfo.diffusion1d import ou_sigma2, ou_tail_lograte
from transinfo.simulate import EnsembleConfig, OUModel, clopper_pearson, sample_time_average
intervals = [clopper_pearson(h, n) for n, h in ((1, 0), (1, 1), (50, 7), (200_000, 1234))]
chain, mu = mminf_generator(1.0, 40)
rate = ou_tail_lograte(0.5, 10.0)
if sys.argv[1] == "extension":     # scipy.special's modules loaded into a bare process
    assert not any(name == "scipy.special" or name.startswith(("scipy.linalg", "scipy.signal",
                                                               "scipy.stats"))
                   for name in sys.modules)
rng = np.random.default_rng(5)
u = rng.uniform(-3.0, 3.0, chain.n)
w, V = chains._lowest_eigenpairs(chain, u, count=3, vectors=True)
samples = sample_time_average(EnsembleConfig(model=OUModel(), beta="stationary", t=2.0,
                                             n_paths=3, master_seed=4, sde_step=0.01), None)
if sys.argv[1] == "extension":
    assert not any(name in sys.modules for name in
                   ("scipy.linalg", "scipy.signal", "scipy.special", "scipy.stats"))
import scipy.linalg, scipy.signal, scipy.special, scipy.stats
from scipy.linalg import lapack
flapack, sigtools = (chains._scipy_extension(name)
                     for name in ("linalg._flapack", "signal._sigtools"))
assert sys.modules["scipy.linalg._flapack"] is flapack
assert sys.modules["scipy.signal._sigtools"] is sigtools
assert lapack.dstebz is flapack.dstebz and lapack.dstein is flapack.dstein
diag, off = chain.band
w_ref, V_ref = scipy.linalg.eigh_tridiagonal(diag - u, off, select="i", select_range=(0, 2))
assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)
x = rng.standard_normal(500)
assert np.array_equal(scipy.signal.lfilter([0.3], [1.0, -0.7], x),
                      sigtools._linear_filter(np.array([0.3]), np.array([1.0, -0.7]), x, -1))
assert np.allclose(scipy.linalg.solve(2.0 * np.eye(3), np.ones(3)), 0.5)
assert np.allclose(scipy.signal.lfilter([1.0, 1.0], [2.0], [1.0, 0.0, 0.0]), [0.5, 0.5, 0.0])
for name in ("_special_ufuncs", "_ufuncs_cxx"):
    assert sys.modules["scipy.special." + name] is chains._scipy_extension("special." + name)
for name in ("gammaln", "gammainc", "xlogy", "log_ndtr"):
    assert chains._special_ufunc(name) is getattr(scipy.special, name)
tail = (1.0 - 0.99) / 2.0
assert intervals[2] == (float(scipy.special.betaincinv(7, 44, tail)),
                        float(scipy.special.betaincinv(8, 43, 1.0 - tail)))
assert intervals[2][0] == float(scipy.stats.beta.ppf(tail, 7, 44))
assert rate == float(scipy.special.log_ndtr(-0.5 / math.sqrt(ou_sigma2(10.0)))) / 10.0
assert math.isclose(scipy.stats.norm.cdf(0.0), 0.5) and scipy.special.gamma(5.0) == 24.0
print(hashlib.sha256(w.tobytes() + V.tobytes() + samples.tobytes()).hexdigest())
print(hashlib.sha256(repr((intervals, rate)).encode() + mu.tobytes()).hexdigest())
"""


@functools.cache
def load_order_hashes() -> dict:
    """Each load order's two printed hashes, from one fresh interpreter per order."""
    hashes = {}
    for order in ("extension", "public"):
        res = subprocess.run([sys.executable, "-c", LOAD_ORDER, order],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        hashes[order] = res.stdout.split()
    return hashes


def test_both_load_orders_give_the_same_bits():
    bits = [hashes[0] for hashes in load_order_hashes().values()]
    assert bits[0] == bits[1] and len(bits[0]) == 64


def test_special_routines_in_both_load_orders():
    bits = [hashes[1] for hashes in load_order_hashes().values()]
    assert bits[0] == bits[1] and len(bits[0]) == 64


CONCURRENT_FIRST_LOAD = """
import sys, threading
from transinfo import chains
sys.setswitchinterval(1e-6)
values, errors = [], []

def first_call():
    try:
        values.append(chains._betaincinv()(2.0, 3.0, 0.5))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_call) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(60)
assert not any(t.is_alive() for t in threads)
assert not errors and len(values) == 8 and len(set(values)) == 1, (errors, values)
"""


def test_first_load_on_many_threads():
    # eight threads make the process's first betaincinv call at once, as the
    # experiments of `transinfo run --jobs 2` can; each must get the routine
    for _ in range(3):
        res = subprocess.run([sys.executable, "-c", CONCURRENT_FIRST_LOAD],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
