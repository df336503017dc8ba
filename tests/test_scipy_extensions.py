"""The compiled scipy routines that the package calls without their packages.

``chains._scipy_extension`` loads ``scipy.linalg._flapack`` (the band
solves' dstebz and dstein) and ``scipy.signal._sigtools`` (the OU
sampler's one-pole filter) from their files, without importing
``scipy.linalg`` or ``scipy.signal``.  These tests hold the premise of
that shortcut: the loaded routines give the public ones' bits, and a later
public import, or an earlier one, binds the same routines and still works.
"""

import subprocess
import sys

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.signal import lfilter

from transinfo.chains import _scipy_extension


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


# Run in a fresh interpreter with argv[1] "extension" (the package's calls
# load the extensions before scipy.linalg and scipy.signal are imported) or
# "public" (those packages are imported first).  Prints a hash of the bits.
LOAD_ORDER = """
import hashlib, sys
import numpy as np
if sys.argv[1] == "public":
    import scipy.linalg, scipy.signal
from transinfo import chains
from transinfo.simulate import EnsembleConfig, OUModel, sample_time_average
rng = np.random.default_rng(5)
diag, off = rng.uniform(-3.0, 3.0, 200), rng.uniform(0.1, 1.0, 199)
w, V = chains._band_eigenpairs(diag, off, 3, True)
samples = sample_time_average(EnsembleConfig(model=OUModel(), beta="stationary", t=2.0,
                                             n_paths=3, master_seed=4, sde_step=0.01), None)
if sys.argv[1] == "extension":
    assert "scipy.linalg" not in sys.modules and "scipy.signal" not in sys.modules
import scipy.linalg, scipy.signal
from scipy.linalg import lapack
flapack, sigtools = (chains._scipy_extension(name)
                     for name in ("linalg._flapack", "signal._sigtools"))
assert sys.modules["scipy.linalg._flapack"] is flapack
assert sys.modules["scipy.signal._sigtools"] is sigtools
assert lapack.dstebz is flapack.dstebz and lapack.dstein is flapack.dstein
w_ref, V_ref = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 2))
assert np.array_equal(w, w_ref) and np.array_equal(V, V_ref)
x = rng.standard_normal(500)
assert np.array_equal(scipy.signal.lfilter([0.3], [1.0, -0.7], x),
                      sigtools._linear_filter(np.array([0.3]), np.array([1.0, -0.7]), x, -1))
assert np.allclose(scipy.linalg.solve(2.0 * np.eye(3), np.ones(3)), 0.5)
assert np.allclose(scipy.signal.lfilter([1.0, 1.0], [2.0], [1.0, 0.0, 0.0]), [0.5, 0.5, 0.0])
print(hashlib.sha256(w.tobytes() + V.tobytes() + samples.tobytes()).hexdigest())
"""


def test_both_load_orders_give_the_same_bits():
    hashes = []
    for order in ("extension", "public"):
        res = subprocess.run([sys.executable, "-c", LOAD_ORDER, order],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        hashes.append(res.stdout)
    assert hashes[0] == hashes[1] and len(hashes[0]) == 65
