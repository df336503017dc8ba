"""Row forms of the sampled-density functionals against their one-row loops.

An (N, n) block must give, row by row, the bits of the 1-D call on that
row, and a block with failing rows must raise the error (type and message)
that a loop over its rows raises first.  The loops in ``conftest`` are the
oracles: ``loop_validate``, ``loop_verify_thm51``,
``loop_drift_info_bound_check``, ``loop_poincare_certificate`` and the CLI
kinds ``loop_run_ckp_scan``, ``loop_run_lyapunov`` and
``loop_run_tensorize``.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    loop_drift_info_bound_check,
    loop_poincare_certificate,
    loop_run_ckp_scan,
    loop_run_lyapunov,
    loop_run_tensorize,
    loop_validate,
    loop_verify_thm51,
    loop_write_csv,
    random_reversible_chain,
)
from transinfo import chains, cli
from transinfo.errors import ConfigParse
from transinfo.chains import (
    Density,
    _birth_death_chain,
    dirichlet_energy,
    dots,
    fisher_information,
    product_chain,
    spectral_gap,
    tv_weighted,
)
from transinfo.feynman_kac import fisher_information_raw
from transinfo.lyapunov import (
    LyapunovCertificate,
    certify_H,
    drift_info_bound_check,
    drift_ratio,
    mminf_certificate,
    verify_thm51,
)
from transinfo.trivial_metric import ckp_gap


def outcome(fn, *args):
    """("ok", value) or ("raised", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:       # the comparison is the point: any error must match
        return ("raised", type(exc), str(exc))


def assert_same_rows(block, loop):
    """The block's outcome equals the loop's: the same floats bit for bit, or the same error."""
    assert block[0] == loop[0], (block, loop)
    if block[0] == "raised":
        assert block[1:] == loop[1:]
    else:
        assert np.array_equal(np.asarray(block[1], dtype=float), np.asarray(loop[1], dtype=float))


def rowwise(fn, *args):
    """A loop calling fn(chain_or_mu, row, *rest) on each row of args[1]."""
    head, rows, *rest = args
    return np.array([fn(head, row, *rest) for row in rows])


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@st.composite
def measures(draw, n):
    """Positive probability vectors with masses from 1e-8 to 1."""
    w = 10.0 ** np.array(draw(st.lists(st.floats(-8.0, 0.0), min_size=n, max_size=n)))
    return w / w.sum()


@st.composite
def any_chain(draw):
    """Band (birth-death), product and dense reversible chains, mu down to 1e-8 on the first two."""
    kind = draw(st.sampled_from(["band", "product", "dense"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "product":
        return product_chain([random_reversible_chain(draw(st.integers(2, 3)), rng),
                              random_reversible_chain(draw(st.integers(2, 4)), rng)])
    n = draw(st.integers(2, 12))
    mu = draw(measures(n))
    if kind == "dense":
        return random_reversible_chain(n, rng, mu=mu)
    c = rng.uniform(0.2, 1.5, n - 1)
    return _birth_death_chain(c / mu[:-1], c / mu[1:], mu)


VALID_ROWS = ("dirichlet", "near-zero", "sparse", "mass-within-1e-9")
FAILING_ROWS = ("negative", "mass", "nan", "inf")


@st.composite
def density_block(draw, mu, kinds=VALID_ROWS + FAILING_ROWS):
    """Rows f = raw / mu renormalized, each of a drawn kind; failing kinds at any position."""
    n = len(mu)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        raw = rng.dirichlet(np.full(n, 0.05 if kind == "near-zero" else 1.0))
        if kind == "sparse":
            raw[rng.random(n) < 0.5] = 0.0
            raw[rng.integers(n)] = 1.0
            raw /= raw.sum()
        f = raw / mu
        f = f / float(np.dot(mu, f))
        at = draw(st.integers(0, n - 1))
        if kind == "mass-within-1e-9":
            f = f * (1.0 + draw(st.floats(-9e-10, 9e-10)))
        elif kind == "negative":
            f[at] = -draw(st.sampled_from([5e-324, 1e-300, 1e-9, 0.5]))
        elif kind == "mass":
            f = f * (1.0 + draw(st.sampled_from([-0.5, -2e-9, 2e-9, 1e-6, 1.0])))
        elif kind == "nan":
            f[at] = math.nan
        elif kind == "inf":
            f[at] = math.inf
        rows.append(f)
    return np.array(rows)


@st.composite
def chain_and_block(draw, kinds=VALID_ROWS + FAILING_ROWS):
    chain = draw(any_chain())
    return chain, draw(density_block(chain.mu, kinds))


def certified(chain, rng):
    """A certificate for U = 1 + uniform: phi just below -LU/U + b, b making it >= 0."""
    U = 1.0 + rng.uniform(0.0, 3.0, chain.n)
    ratio = drift_ratio(chain, U)
    b = max(0.0, -float(np.min(ratio)))
    cert = certify_H(chain, U, np.maximum(ratio + b - 1e-6 * (np.abs(ratio) + b), 0.0), b)
    assert cert.certified
    return U, cert


# ---------------------------------------------------------------------------
# validation and the functionals
# ---------------------------------------------------------------------------

class TestDensityRows:
    @given(chain_and_block())
    def test_block_validates_as_its_rows(self, drawn):
        chain, f = drawn
        block = outcome(lambda: Density.validate(chain.mu, f).f)
        assert_same_rows(block, outcome(loop_validate, chain.mu, f))
        if block[0] == "ok":
            assert not block[1].flags.writeable

    @given(chain_and_block(), st.sampled_from(FAILING_ROWS), st.data())
    def test_failing_row_at_every_position(self, drawn, kind, data):
        chain, f = drawn
        good = data.draw(density_block(chain.mu, VALID_ROWS))
        for at in range(len(good) + 1):
            bad = data.draw(density_block(chain.mu, (kind,)))[:1]
            block = np.concatenate([good[:at], bad, f, good[at:]])
            got = outcome(lambda: Density.validate(chain.mu, block).f)
            assert got[0] == "raised"
            assert_same_rows(got, outcome(loop_validate, chain.mu, block))

    def test_nan_mass_is_rejected(self):
        with pytest.raises(chains.ModelValidation, match="density mass nan differs"):
            Density.validate(np.array([0.5, 0.5]), np.array([1.0, math.nan]))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2), (0, 3)])
    def test_wrong_width_is_named(self, shape):
        with pytest.raises(chains.ModelValidation, match="different lengths"):
            Density.validate(np.array([0.5, 0.5]), np.ones(shape))

    def test_empty_block(self):
        assert Density.validate(np.array([0.5, 0.5]), np.empty((0, 2))).f.shape == (0, 2)


class TestFunctionalRows:
    @given(chain_and_block())
    def test_fisher_information(self, drawn):
        chain, f = drawn
        assert_same_rows(outcome(fisher_information, chain, f),
                         outcome(rowwise, fisher_information, chain, f))

    @given(chain_and_block())
    def test_fisher_information_raw(self, drawn):
        chain, f = drawn
        assert_same_rows(outcome(fisher_information_raw, chain, f),
                         outcome(rowwise, fisher_information_raw, chain, f))

    @given(chain_and_block())
    def test_dirichlet_energy_of_any_rows(self, drawn):
        chain, f = drawn
        g = f.copy()                                  # signed rows with the block's non-finites
        finite = np.isfinite(f)
        g[finite] = np.sin(3.0 * f[finite]) - f[finite]
        assert_same_rows(outcome(dirichlet_energy, chain, g),
                         outcome(rowwise, dirichlet_energy, chain, g))

    @given(chain_and_block(), st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_tv_weighted(self, drawn, seed, negative_phi):
        chain, f = drawn
        phi = np.random.default_rng(seed).uniform(0.0, 5.0, chain.n)
        if negative_phi:
            phi[seed % chain.n] = -1e-300
        assert_same_rows(outcome(tv_weighted, chain, f, phi),
                         outcome(rowwise, tv_weighted, chain, f, phi))

    @given(chain_and_block(VALID_ROWS))
    def test_ckp_gap(self, drawn):
        chain, f = drawn
        tv2, four_var = ckp_gap(chain.mu, f)
        loop = [ckp_gap(chain.mu, row) for row in f]
        assert np.array_equal(tv2, [a for a, _ in loop])
        assert np.array_equal(four_var, [b for _, b in loop])

    @given(chain_and_block(VALID_ROWS))
    def test_expectation_and_variance(self, drawn):
        chain, f = drawn
        assert np.array_equal(chain.expectation(f), [chain.expectation(row) for row in f])
        assert np.array_equal(chain.variance(f), [chain.variance(row) for row in f])

    def test_strided_blocks_reduce_as_contiguous_rows(self):
        rng = np.random.default_rng(3)
        mu = rng.dirichlet(np.ones(41))
        f = np.asfortranarray(rng.dirichlet(np.ones(41), size=500) / mu)
        assert np.array_equal(dots(mu, f), [np.dot(mu, row.copy()) for row in f])
        assert np.array_equal(dots(mu, f[:, ::-1]), [np.dot(mu, row.copy()) for row in f[:, ::-1]])

    def test_stacked_product_rounds_differently(self):
        """Why ``dots`` runs one dot per row: on 5,000 x 41 a gemv differs."""
        rng = np.random.default_rng(5)
        mu = rng.dirichlet(np.ones(41))
        f = rng.dirichlet(np.ones(41) * 0.8, size=5000) / mu
        assert np.array_equal(dots(mu, f), [np.dot(mu, row) for row in f])
        assert not np.array_equal(f @ mu, dots(mu, f))


class TestLyapunovRows:
    @given(chain_and_block(), st.integers(0, 2 ** 32 - 1))
    def test_verify_thm51(self, drawn, seed):
        chain, f = drawn
        _, cert = certified(chain, np.random.default_rng(seed))
        block, loop = outcome(verify_thm51, chain, cert, f), outcome(loop_verify_thm51, chain, cert, f)
        assert block == loop

    @given(chain_and_block(), st.integers(0, 2 ** 32 - 1))
    def test_drift_info_bound_check(self, drawn, seed):
        chain, f = drawn
        U, _ = certified(chain, np.random.default_rng(seed))
        block = outcome(drift_info_bound_check, chain, U, f)
        assert block == outcome(loop_drift_info_bound_check, chain, U, f)
        assert block == outcome(drift_info_bound_check, chain, U, list(f))

    def test_sequences_of_densities_and_empty_input(self):
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        rng = np.random.default_rng(4)
        f = rng.dirichlet(np.ones(chain.n) * 0.8, size=30) / chain.mu
        dens = [Density.validate(chain.mu, row) for row in f]
        for samples in (dens, list(f), f, []):
            assert verify_thm51(chain, cert, samples) == loop_verify_thm51(chain, cert, samples)
            assert drift_info_bound_check(chain, cert.U, samples) == \
                loop_drift_info_bound_check(chain, cert.U, samples)
        assert verify_thm51(chain, cert, [])["rows"] == []

    def test_uncertified_raises_first(self):
        chain, cert = mminf_certificate(1.0, 40, math.log(2.0))
        bad = LyapunovCertificate(U=cert.U, phi=cert.phi, b=cert.b, max_violation=1.0)
        f = -np.ones((2, chain.n))
        assert outcome(verify_thm51, chain, bad, f) == outcome(loop_verify_thm51, chain, bad, f)


class TestPoincareCertificate:
    @given(any_chain())
    def test_spectral_gap_certificate_as_the_loop(self, chain):
        gap, c_p = spectral_gap(chain)
        loop_poincare_certificate(chain, c_p)
        g = np.random.default_rng(7).standard_normal((100, chain.n))
        assert np.array_equal(chain.variance(g), [chain.variance(row) for row in g])
        assert np.array_equal(dirichlet_energy(chain, g), [dirichlet_energy(chain, row) for row in g])

    @pytest.mark.parametrize("scale", [0.5, 1.0, 1.01, 1.5, 3.0, 100.0])
    def test_a_wrong_gap_fails_as_in_the_loop(self, monkeypatch, scale):
        chain = random_reversible_chain(6, np.random.default_rng(12))
        true_gap = spectral_gap(chain)[0]
        solve = chains._lowest_eigenpairs
        monkeypatch.setattr(chains, "_lowest_eigenpairs",
                            lambda *a, **k: solve(*a, **k) * scale)
        c_p = 1.0 / (true_gap * scale)

        def loop():
            loop_poincare_certificate(chain, c_p)
            return c_p

        got = outcome(lambda: spectral_gap(chain)[1])
        assert_same_rows(got, outcome(loop))
        assert got[0] == ("ok" if scale <= 1.0 else "raised")


class TestDrawsInOneCall:
    """A block draw gives the rows of single draws and leaves the generator where they do."""

    @pytest.mark.parametrize("alpha, n, rows", [(1.0, 6, 3000), (0.8, 41, 3000), (1.0, 9, 3000),
                                                (2.0, 5, 10), (0.05, 7, 500)])
    def test_dirichlet(self, alpha, n, rows):
        block, single = np.random.default_rng(19), np.random.default_rng(19)
        a = block.dirichlet(np.full(n, alpha), size=rows)
        b = np.array([single.dirichlet(np.full(n, alpha)) for _ in range(rows)])
        assert np.array_equal(a, b)
        assert block.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("n", [2, 9, 41, 481])
    def test_standard_normal(self, n):
        block, single = np.random.default_rng(7), np.random.default_rng(7)
        a = block.standard_normal((100, n))
        b = np.array([single.standard_normal(n) for _ in range(100)])
        assert np.array_equal(a, b)
        assert block.bit_generator.state == single.bit_generator.state


class TestCliKindsAsTheirLoops:
    @pytest.mark.parametrize("kind, params, seed", [
        ("ckp-scan", {"n": 6, "count": 700}, 5),
        ("ckp-scan", {"n": 41, "count": 150}, 6),
        ("ckp-scan", {"n": 2, "count": 0}, 3),
        ("ckp-scan", {"n": 3, "count": 4}, 3),
        ("lyapunov", {"model": "mminf", "samples": 300}, 7),
        ("lyapunov", {"model": "mminf", "samples": 0}, 9),
        ("lyapunov", {"model": "mminf", "samples": 2}, 9),
        ("lyapunov", {"model": "beta-potential", "samples": 6}, 8),
        ("lyapunov", {"model": "beta-potential", "beta": 3.0, "samples": 4}, 2),
        ("tensorize", {"count": 12}, 10),
        ("tensorize", {"count": 0}, 1),
        ("tensorize", {"count": 1}, 1),
    ])
    def test_artifacts_and_details(self, tmp_path, kind, params, seed):
        loops = {"ckp-scan": loop_run_ckp_scan, "lyapunov": loop_run_lyapunov,
                 "tensorize": loop_run_tensorize}
        (tmp_path / "rows").mkdir()
        (tmp_path / "loop").mkdir()
        got = cli._KINDS[kind](params, tmp_path / "rows", seed, "x")
        want = loops[kind](params, tmp_path / "loop", seed, "x")
        assert (got.passed, got.details) == (want.passed, want.details)
        assert [p.name for p in got.artifacts] == [p.name for p in want.artifacts]
        for a, b in zip(got.artifacts, want.artifacts):
            assert a.read_bytes() == b.read_bytes()

    def test_negative_counts_fail_their_experiment_alone(self, tmp_path):
        # these used to draw nothing and pass; ckp-scan then wrote an infinite worst gap
        bad = [("ckp-scan", {"n": 3, "count": -4}, 3, "count must be zero or more, not -4"),
               ("lyapunov", {"model": "mminf", "samples": -2}, 9,
                "samples must be zero or more, not -2"),
               ("tensorize", {"count": -1}, 1, "count must be zero or more, not -1")]
        spec = [{"kind": kind, "name": f"bad{i}", "seed": seed, "params": params}
                for i, (kind, params, seed, _) in enumerate(bad)]
        spec.insert(1, {"kind": "ckp-scan", "name": "good", "params": {"n": 3, "count": 0}})
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"experiments": spec}))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_spec_file(spec_file, tmp_path / "out", None, 1) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        entries = {e["name"]: e for e in summary["experiments"]}
        assert entries["good"]["passed"]
        for i, (kind, params, seed, reason) in enumerate(bad):
            assert entries[f"bad{i}"] == {"name": f"bad{i}", "passed": False, "artifacts": [],
                                          "details": {"error": f"ConfigParse: {reason}"}}
            with pytest.raises(ConfigParse, match=reason):
                cli._KINDS[kind](params, tmp_path, seed, "x")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            ["good-scan.csv", "summary.json"]

    def test_write_csv_as_the_formatting_loop(self, tmp_path):
        rows = [(0, 0.1, np.float64(1 / 3), "a", True, np.int64(7), -0.0),
                (1, math.inf, -math.inf, math.nan, 5e-324, 1e300, np.float64(2.5))]
        cli.write_csv(tmp_path / "a.csv", ["i", "x", "y", "s", "b", "k", "z"], rows)
        loop_write_csv(tmp_path / "b.csv", ["i", "x", "y", "s", "b", "k", "z"], rows)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
