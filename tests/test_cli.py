import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from transinfo import catalog, cli, errors, transport
from transinfo.chains import max_nan, min_nan
from transinfo.cli import main, run_spec_file
from transinfo.errors import ConfigParse
from transinfo.feynman_kac import BestConstantReport
from transinfo.exprutil import compile_expression
from transinfo.transport import RateFunction

from conftest import (LEDGER_COLUMNS, best_constant_json_dict, certificate_json_dict, ledger_row,
                      tphi_dual_csv)


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "transinfo.cli", *args],
                          capture_output=True, text=True)


class TestExpressionEvaluator:
    def test_basic(self):
        fn = compile_expression("-x**3 + 2*x")
        assert fn(2.0) == pytest.approx(-4.0)

    def test_functions(self):
        fn = compile_expression("exp(-x*x/2) * cos(x) + sqrt(abs(x))")
        x = 1.3
        assert fn(x) == pytest.approx(math.exp(-x * x / 2) * math.cos(x) + math.sqrt(x))

    def test_constants(self):
        assert compile_expression("pi")(0.0) == pytest.approx(math.pi)

    def test_rejects_attribute_access(self):
        with pytest.raises(ConfigParse):
            compile_expression("().__class__")

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigParse):
            compile_expression("open(x)")

    def test_rejects_strings(self):
        with pytest.raises(ConfigParse):
            compile_expression("'abc'")


class TestCatalog:
    def test_nonempty_and_stable(self):
        first = catalog.list_examples()
        second = catalog.list_examples()
        assert first == second
        assert len(first) == 8

    @pytest.mark.parametrize("name", sorted(catalog.list_examples()))
    def test_every_entry_loads_and_validates(self, name):
        model = catalog.load_example(name, grid_nodes=64)
        assert model
        if "chain" in model:
            # building the chain already ran full validation
            assert model["chain"].n >= 2

    def test_unknown_name(self):
        with pytest.raises(ConfigParse):
            catalog.load_example("nope")

    def test_diffusion_from_json(self):
        spec = catalog.diffusion_from_json(
            {"a": "1", "b": "-x", "interval": [None, None], "c_ref": 0.0})
        assert spec.b(2.0) == -2.0
        assert spec.x0 == -math.inf


class TestCliProcess:
    def test_list_examples(self):
        res = run_cli(["list-examples"])
        assert res.returncode == 0
        assert "bernoulli" in res.stdout
        assert len(res.stdout.strip().split("\n")) == 8

    def test_run_small_spec(self, tmp_path):
        spec = {"experiments": [
            {"kind": "rho-scan", "name": "rho", "params": {"lambdas": [0.5]}},
            {"kind": "ckp-scan", "name": "ckp", "params": {"n": 4, "count": 200}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        res = run_cli(["run", str(spec_file), "--out", str(tmp_path / "out")])
        assert res.returncode == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"]
        assert (tmp_path / "out" / "rho-scan.csv").exists()

    def test_malformed_spec_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli(["run", str(bad), "--out", str(tmp_path / "out")])
        assert res.returncode == 2

    def test_malformed_model_nonzero_exit(self, tmp_path):
        spec = {"kind": "verify-tci",
                "params": {"model": {"rates": [[0, 1], [2, 0]], "mu": [0.5, 0.5]},
                           "alpha": {"kind": "quadratic", "c": 1.0}}}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        res = run_cli(["run", str(spec_file), "--out", str(tmp_path / "out")])
        assert res.returncode == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert not summary["passed"]
        assert "DetailedBalanceViolated" in json.dumps(summary)


class TestStartup:
    """Fresh interpreters, since this process has scipy loaded already."""

    SCIPY_MODULES = ("import sys\n"
                     "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")

    def python(self, code):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout

    def test_import_loads_no_scipy(self):
        out = self.python("import transinfo, transinfo.cli\n" + self.SCIPY_MODULES)
        assert out == "[]\n"

    def test_list_examples_loads_no_scipy(self):
        out = self.python("import runpy, sys\n"
                          "sys.argv = ['transinfo', 'list-examples']\n"
                          "try:\n"
                          "    runpy.run_module('transinfo.cli', run_name='__main__')\n"
                          "except SystemExit as exc:\n"
                          "    assert exc.code == 0, exc.code\n"
                          + self.SCIPY_MODULES)
        assert "bernoulli" in out
        assert out.endswith("\n[]\n")

    def test_band_solves_load_no_scipy_linalg(self, tmp_path):
        # both experiments solve on bands: the compiled LAPACK module is loaded alone
        spec = {"experiments": [
            {"kind": "lyapunov", "name": "mminf", "params": {"model": "mminf", "samples": 20}},
            {"kind": "diffusion", "name": "ou", "params": {"model": "ou", "nodes": 80}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        argv = ["transinfo", "run", str(spec_file), "--out", str(tmp_path / "out")]
        out = self.python("import runpy, sys\n"
                          f"sys.argv = {argv!r}\n"
                          "try:\n"
                          "    runpy.run_module('transinfo.cli', run_name='__main__')\n"
                          "except SystemExit as exc:\n"
                          "    assert exc.code == 0, exc.code\n"
                          "print('scipy.linalg' in sys.modules, "
                          "'scipy.linalg._flapack' in sys.modules)")
        assert out.endswith("\nFalse True\n")

    def test_ou_sampling_loads_no_scipy_signal(self):
        out = self.python("import sys\n"
                          "from transinfo.simulate import EnsembleConfig, OUModel, "
                          "sample_time_average\n"
                          "cfg = EnsembleConfig(model=OUModel(), beta='stationary', t=1.0, "
                          "n_paths=2, master_seed=0, sde_step=0.01)\n"
                          "assert sample_time_average(cfg, None).shape == (2,)\n"
                          "print('scipy.signal' in sys.modules, "
                          "'scipy.signal._sigtools' in sys.modules)")
        assert out == "False True\n"

    def test_run_loads_no_scipy_special(self, tmp_path):
        # scipy.special's package and its array-API layer, which also pulled in
        # numpy.f2py and charset_normalizer; numpy.ma came with np.union1d
        spec = {"experiments": [
            {"kind": "lyapunov", "name": "mminf", "params": {"model": "mminf", "samples": 20}},
            {"kind": "simulate", "name": "sim", "params": {"model": "bernoulli", "n_paths": 200}},
            {"kind": "diffusion", "name": "ou", "params": {"model": "ou", "nodes": 80}},
            {"kind": "best-constant", "name": "bc", "params": {"model": "jump2", "which": "w2i"}},
            {"kind": "rho-scan", "name": "rho", "params": {"lambdas": [0.5]}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        argv = ["transinfo", "run", str(spec_file), "--out", str(tmp_path / "out")]
        heavy = ("scipy.special", "scipy._lib._array_api", "numpy.f2py", "charset_normalizer",
                 "numpy.ma", "concurrent.futures")
        out = self.python("import runpy, sys\n"
                          f"sys.argv = {argv!r}\n"
                          "try:\n"
                          "    runpy.run_module('transinfo.cli', run_name='__main__')\n"
                          "except SystemExit as exc:\n"
                          "    assert exc.code == 0, exc.code\n"
                          f"print([m for m in {heavy!r} if m in sys.modules])")
        assert out.endswith("\n[]\n")

    def test_first_band_solves_under_two_jobs(self, tmp_path):
        """Two birth-death experiments reach the first band solve on two threads."""
        spec = {"experiments": [
            {"kind": "lyapunov", "name": "mminf", "params": {"model": "mminf", "samples": 20}},
            {"kind": "diffusion", "name": "ou", "params": {"model": "ou", "nodes": 80}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        trees = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            res = run_cli(["run", str(spec_file), "--out", str(out), "--jobs", jobs])
            assert res.returncode == 0, res.stderr
            trees.append({p.relative_to(out): p.read_bytes()
                          for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(trees[0]) == 4
        assert trees[0] == trees[1]


class TestRunSpecInProcess:
    def test_best_constant_includes_poincare(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"kind": "best-constant", "name": "bc",
             "params": {"model": "bernoulli", "metric": "trivial"}}))
        code = run_spec_file(spec_file, tmp_path / "out", None, 1)
        assert code == 0
        report = json.loads((tmp_path / "out" / "bc-report.json").read_text())
        assert report["c_P"] == pytest.approx(0.21, abs=1e-10)
        assert 4 * report["c_dual"] ** 2 == pytest.approx(0.21, abs=1e-4)

    def test_mminf_w1i_constants_pinned(self, tmp_path):
        # the 41-state service queue on the trivial metric, seed 13: about 1,600
        # transport solves and 81,000 pivots.  The float hex was recorded from
        # the simplex that rebuilt its whole tree on every pivot and from
        # golden searches run one candidate at a time.
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"kind": "best-constant", "name": "bc", "seed": 13,
             "params": {"model": "mminf", "which": "w1i"}}))
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 0
        (entry,) = json.loads((tmp_path / "out" / "summary.json").read_text())["experiments"]
        assert entry["passed"]
        details = entry["details"]
        assert (details["c_dual"].hex(), details["c_primal"].hex()) == \
            ("0x1.c633caefa54ebp-2", "0x1.c633caefa54c6p-2")

    def test_seed_override_changes_artifacts(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"kind": "ckp-scan", "name": "c", "params": {"n": 4, "count": 100}}))
        run_spec_file(spec_file, tmp_path / "a", 1, 1)
        run_spec_file(spec_file, tmp_path / "b", 2, 1)
        run_spec_file(spec_file, tmp_path / "c", 1, 1)
        a = (tmp_path / "a" / "c-scan.csv").read_text()
        b = (tmp_path / "b" / "c-scan.csv").read_text()
        c = (tmp_path / "c" / "c-scan.csv").read_text()
        assert a != b
        assert a == c

    def test_reruns_byte_identical(self, tmp_path):
        spec = {"experiments": [
            {"kind": "tensorize", "name": "t", "params": {"count": 5}},
            {"kind": "simulate", "name": "s",
             "params": {"model": "bernoulli", "t": 5.0, "r": [0.2], "n_paths": 500}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        run_spec_file(spec_file, tmp_path / "x", None, 1)
        run_spec_file(spec_file, tmp_path / "y", None, 2)   # jobs differ
        for name in ("t-report.csv", "s-ledger.csv", "summary.json"):
            assert (tmp_path / "x" / name).read_bytes() == \
                (tmp_path / "y" / name).read_bytes()

    def test_simulate_artifacts_pinned(self, tmp_path):
        # the per-path streams fix every sample: these bytes must not move
        # when the samplers change how they batch paths
        spec = {"experiments": [
            {"kind": "simulate", "name": "bern", "seed": 7,
             "params": {"model": "bernoulli", "t": 20.0, "r": [0.1, 0.3],
                        "n_paths": 1030, "dump_samples": True}},
            {"kind": "simulate", "name": "prod", "seed": 8,
             "params": {"model": "product-3x3", "t": 6.0, "r": [0.2], "n_paths": 1100}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 0
        out = tmp_path / "out"
        assert (out / "bern-ledger.csv").read_bytes() == (
            b"model,u,t,r,n_paths,p_hat,ci_low,ci_high,bound,verdict,seed\n"
            b"bernoulli,u,20,0.10000000000000001,1030,0.056310679611650483,"
            b"0.039412519792136565,0.077440880609830912,0.38582130682912391,consistent,7\n"
            b"bernoulli,u,20,0.29999999999999999,1030,0,0,0.0051307897448958795,"
            b"0.00018944182523289392,consistent,7\n")
        assert (out / "prod-ledger.csv").read_bytes() == (
            b"model,u,t,r,n_paths,p_hat,ci_low,ci_high,bound,verdict,seed\n"
            b"product-3x3,u,6,0.20000000000000001,1100,0.026363636363636363,"
            b"0.015536406481008118,0.041473318370024916,0.84591715733348394,consistent,8\n")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("bern-samples.csv", "summary.json")}
        assert digests == {
            "bern-samples.csv":
                "f7121e25eaed14d4e4058eedc68ae2a0e8923ac8a5f015e9742c79902e25d79e",
            "summary.json":
                "c011ea8b56ccb197b68a1b663a6e4609e119eda4828d5bb313ed9dabaf2ce91a",
        }

    def test_sampled_scan_artifacts_pinned(self, tmp_path):
        # digests recorded before the scans drew and reduced their samples as
        # row blocks: one draw per scan must keep every byte
        spec = {"experiments": [
            {"kind": "ckp-scan", "name": "ckp", "seed": 11, "params": {"n": 6, "count": 1000}},
            {"kind": "lyapunov", "name": "lya-mminf", "seed": 12,
             "params": {"model": "mminf", "samples": 100}},
            {"kind": "lyapunov", "name": "lya-beta", "seed": 13,
             "params": {"model": "beta-potential", "samples": 10}},
            {"kind": "paper-suite", "name": "suite", "seed": 3},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "out"
        assert run_spec_file(spec_file, out, None, 1) == 0
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.iterdir())}
        assert digests == {
            "ckp-scan.csv":
                "748f5e341f6e0ccfd1b4868ace8453da020198e19d8655d26d48c7bac9486aaa",
            "lya-beta-certificate.json":
                "e1e1b1327bdc045df3101db3ebd23d9c2195d6777566ca4875832069ea2426bb",
            "lya-beta-verify.csv":
                "090a860ca6a617ad3bd3e40975525ae5651250e35af5ea841925a36dc4ade337",
            "lya-mminf-certificate.json":
                "2767530e8d8675505da5f8ee0bfada002f055bb1545a0ac03b37380c7678f1bf",
            "lya-mminf-verify.csv":
                "fe8aa9805a83fc5978a5492304d0f25f7953f844512954162d40c31d93628ff8",
            "suite-bc-report.json":
                "c23c3e7f17269d21593d61037cc84bd56aeab9220e198e3fd781fc03de38ede8",
            "suite-ckp-scan.csv":
                "a6127666f5e9076956dd107df85b22427c7396de491ef6f7ada234a57bbe5a9e",
            "suite-diff-report.csv":
                "ea47b447b707a604ab56ecd757807b5dc15eda354eae16220900cdfb256dfda4",
            "suite-lya-certificate.json":
                "2767530e8d8675505da5f8ee0bfada002f055bb1545a0ac03b37380c7678f1bf",
            "suite-lya-verify.csv":
                "4a59d57ca86059c95c5cd07940a9a1a42969862be0b16e24618e57a5323cd620",
            "suite-rho-scan.csv":
                "17196e1d29dc79542ee40c7e7a7ba0d3cfe1dab42fee6b21afaec0d986512685",
            "suite-sim-ledger.csv":
                "caf0175751091f63d2394458115c2ae51b9131904ea602a3cbaabc5ac2f66503",
            "suite-tci-slack.csv":
                "c242df92d70557f388d1a12127fbc68f20d14f8a83ad91479e0fd3dddc510ccb",
            "suite-tens-report.csv":
                "70607b3118c6e00cc273605374cf5ada53372aed315bba59c5c808d1dff45b0b",
            "summary.json":
                "ed2d1a84db91e360a75af0bc17757840ca0418817902ecc872ee6eef8d24be03",
        }

    @pytest.mark.parametrize("middle", [
        {"kind": "verify-tci", "params": {"alpha": {"kind": "quadratic", "c": -1}}},
        {"kind": "diffusion",
         "params": {"model": {"a": "1", "b": "-x", "interval": [None, None]}}},
        # tables of different lengths failed in numpy's broadcasting, with a traceback
        {"kind": "verify-tci",
         "params": {"alpha": {"kind": "tabulated", "knots": [0, 1, 2], "values": [0, 1]}}},
        # counts that are not integers were truncated: 2.5 ran 2 paths and true ran 1
        {"kind": "simulate", "params": {"n_paths": 2.5}},
        {"kind": "simulate", "params": {"n_paths": True}},
        {"kind": "simulate", "params": {"n_paths": 0}},
        {"kind": "ckp-scan", "params": {"n": 4.5, "count": 50}},
        {"kind": "ckp-scan", "params": {"n": 4, "count": 2.5}},
        {"kind": "lyapunov", "params": {"model": "mminf", "samples": True}},
        {"kind": "tensorize", "params": {"count": "3"}},
        {"kind": "diffusion", "params": {"model": "ou", "nodes": 80.0}},
        {"kind": "verify-tci",
         "params": {"n_pairs": 1.5, "alpha": {"kind": "quadratic", "c": 1.0}}},
        # reals that are not numbers were taken: "t": true ran at t = 1, and
        # "lambdas": [true] wrote True into the scan's CSV
        {"kind": "simulate", "params": {"t": True, "n_paths": 50}},
        {"kind": "simulate", "params": {"t": "5", "n_paths": 50}},
        {"kind": "simulate", "params": {"r": [True], "n_paths": 50}},
        {"kind": "simulate", "params": {"r": "0.2", "n_paths": 50}},
        {"kind": "rho-scan", "params": {"lambdas": [True]}},
        {"kind": "rho-scan", "params": {"lambdas": [0.5, "0.7"]}},
        {"kind": "lyapunov", "params": {"model": "beta-potential", "beta": True, "samples": 2}},
        {"kind": "verify-tci",
         "params": {"lambda_grid": [True], "alpha": {"kind": "quadratic", "c": 1.0}}},
        {"kind": "verify-tci", "params": {"alpha": {"kind": "quadratic", "c": True}}},
        {"kind": "verify-tci", "params": {"alpha": {"kind": "power", "kappa": "1", "p": 3}}},
        {"kind": "verify-tci",
         "params": {"alpha": {"kind": "tabulated", "knots": [0, True], "values": [0, 1]}}},
        # the observable's entries were taken too: [true, "0"] ran as [1, 0]
        {"kind": "simulate", "params": {"u": [True, "0"], "n_paths": 50}},
    ])
    def test_bad_experiment_fails_alone(self, tmp_path, middle):
        spec = {"experiments": [
            {"kind": "rho-scan", "name": "first", "params": {"lambdas": [0.5]}},
            dict(middle, name="bad"),
            {"kind": "ckp-scan", "name": "last", "params": {"n": 4, "count": 50}},
        ]}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        entries = {e["name"]: e for e in summary["experiments"]}
        assert entries["first"]["passed"] and entries["last"]["passed"]
        assert entries["bad"]["passed"] is False
        assert entries["bad"]["details"]["error"].startswith("ConfigParse: ")

    def test_unexpected_exception_is_recorded(self, tmp_path, monkeypatch):
        def broken(params, out_dir, seed, name):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._KINDS, "rho-scan", broken)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"experiments": [
            {"kind": "rho-scan", "name": "r"},
            {"kind": "ckp-scan", "name": "c", "params": {"n": 4, "count": 50}},
        ]}))
        assert run_spec_file(spec_file, tmp_path / "out", None, 2) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        entries = {e["name"]: e for e in summary["experiments"]}
        assert entries["r"]["details"] == {"error": "RuntimeError: boom"}
        assert entries["c"]["passed"]

    def test_subadditivity_violation_fails_the_check(self, tmp_path, monkeypatch, capsys):
        # an inflated joint cost (the 4-state product) breaks T_{+c} <= E^nu[...];
        # the violation is recorded as a failed check, not raised
        exact = transport.ot_cost

        def inflated(cost, mu, nu, *args, **kwargs):
            value, plan = exact(cost, mu, nu, *args, **kwargs)
            return (value + 0.5 if len(mu) == 4 else value), plan

        monkeypatch.setattr(transport, "ot_cost", inflated)
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "tensorize", "name": "t",
                                         "params": {"count": 3}}))
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 2
        assert capsys.readouterr().err == ""
        (entry,) = json.loads((tmp_path / "out" / "summary.json").read_text())["experiments"]
        assert entry["passed"] is False and entry["artifacts"] == ["t-report.csv"]
        assert entry["details"]["sub_excess"] > 1e-9

    def test_17_digit_floats_in_artifacts(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"kind": "rho-scan", "name": "r", "params": {"lambdas": [0.3]}}))
        run_spec_file(spec_file, tmp_path / "out", None, 1)
        text = (tmp_path / "out" / "r-scan.csv").read_text()
        row = text.strip().split("\n")[1].split(",")
        assert float(row[2]) == float(f"{float(row[2]):.17g}")   # round-trips


class TestSpecNamesAndSeeds:
    """A name must keep its artifacts inside --out and apart from the other
    experiments'; a seed that is not an integer fails its experiment alone."""

    GOOD = {"kind": "rho-scan", "name": "rho", "params": {"lambdas": [0.5]}}

    @staticmethod
    def _spec(tmp_path, experiments):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"experiments": experiments}))
        return spec_file

    @pytest.mark.parametrize("seed", ["abc", None, 2.0, 1.5, True, [1], -1])
    def test_bad_seed_fails_alone(self, tmp_path, seed):
        spec_file = self._spec(tmp_path, [dict(self.GOOD, name="bad", seed=seed), self.GOOD])
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        entries = {e["name"]: e for e in summary["experiments"]}
        assert entries["rho"]["passed"] and entries["rho"]["artifacts"] == ["rho-scan.csv"]
        assert entries["bad"]["passed"] is False and entries["bad"]["artifacts"] == []
        assert entries["bad"]["details"]["error"].startswith("ConfigParse: seed")

    @pytest.mark.parametrize("name", ["../esc", "sub/x", "sub\\x", "..", ".", "", 7, None])
    def test_name_outside_out_rejected(self, tmp_path, name, capsys):
        spec_file = self._spec(tmp_path, [dict(self.GOOD, name=name)])
        out = tmp_path / "out"
        assert main(["run", str(spec_file), "--out", str(out)]) == 2
        assert "invalid name" in json.loads(capsys.readouterr().out)["error"]
        assert not out.exists() and not (tmp_path / "esc-scan.csv").exists()

    @pytest.mark.parametrize("experiments", [
        [GOOD, {"kind": "ckp-scan", "name": "rho", "params": {"n": 4, "count": 10}}],
        # the second experiment's default name is rho-scan-1
        [dict(GOOD, name="rho-scan-1"), {"kind": "rho-scan", "params": {"lambdas": [0.5]}}],
    ])
    def test_repeated_name_rejected(self, tmp_path, experiments, capsys):
        spec_file = self._spec(tmp_path, experiments)
        assert main(["run", str(spec_file), "--out", str(tmp_path / "out")]) == 2
        assert "used twice" in json.loads(capsys.readouterr().out)["error"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite_first", [True, False])
    def test_suite_part_name_rejected(self, tmp_path, suite_first, capsys):
        # a paper-suite named s runs its ckp-scan part as s-ckp
        experiments = [{"kind": "paper-suite", "name": "s"},
                       {"kind": "ckp-scan", "name": "s-ckp", "params": {"n": 4, "count": 7}}]
        spec_file = self._spec(tmp_path, experiments if suite_first else experiments[::-1])
        assert main(["run", str(spec_file), "--out", str(tmp_path / "out")]) == 2
        assert "'s-ckp' is used twice" in json.loads(capsys.readouterr().out)["error"]
        assert not (tmp_path / "out").exists()

    def test_default_names_are_kind_and_index(self, tmp_path):
        spec_file = self._spec(tmp_path, [{"kind": "rho-scan", "params": {"lambdas": [0.5]}},
                                          {"kind": "ckp-scan", "params": {"n": 4, "count": 10}}])
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert [e["name"] for e in summary["experiments"]] == ["rho-scan-0", "ckp-scan-1"]


class TestSpecParts:
    def test_rate_function_kinds(self):
        power = cli._rate_function({"kind": "power", "kappa": 0.5, "p": 3})
        assert power == RateFunction.power(0.5, 3.0)
        tab = cli._rate_function({"kind": "tabulated", "knots": [0, 1, 2], "values": [0, 0.5, 2]})
        assert tab.kind == "tabulated"
        assert (tab(0.5), tab(1.5), tab(2.5)) == (0.5, 2.0, math.inf)

    @pytest.mark.parametrize("obj", [
        None,
        {"kind": "cubic"},
        {"kind": "power", "kappa": -1.0, "p": 3},
        {"kind": "power", "kappa": 1.0, "p": 1.0},
        {"kind": "tabulated", "knots": [0.5, 1], "values": [0, 1]},
        {"kind": "tabulated", "knots": [0, 1, 1], "values": [0, 1, 2]},
        {"kind": "quadratic", "c": "abc"},
    ])
    def test_rate_function_errors(self, obj):
        with pytest.raises(ConfigParse):
            cli._rate_function(obj)

    def test_metric_for(self):
        ou = catalog.load_example("ou", grid_nodes=64)
        x = ou["grid"].nodes
        assert np.array_equal(cli._metric_for(ou, "line").d, np.abs(x[:, None] - x[None, :]))
        assert cli._metric_for(ou, "default") is ou["metric"]
        assert np.array_equal(cli._metric_for(ou, "trivial").d, 1.0 - np.eye(64))
        with pytest.raises(ConfigParse, match="grid-backed"):
            cli._metric_for(catalog.load_example("bernoulli"), "line")
        for model, name in ((catalog.load_example("mminf"), "default"), (ou, "euclid")):
            with pytest.raises(ConfigParse, match="unknown metric"):
                cli._metric_for(model, name)

    def test_lyapunov_beta_potential(self, tmp_path):
        outcome = cli.run_lyapunov({"model": "beta-potential", "samples": 3}, tmp_path, 5, "lya")
        assert outcome.passed
        cert = json.loads((tmp_path / "lya-certificate.json").read_text())
        assert cert["certified"] and cert["excluded"] == [0, 480]
        rows = (tmp_path / "lya-verify.csv").read_text().strip().split("\n")
        assert len(rows) == 4
        with pytest.raises(ConfigParse):
            cli.run_lyapunov({"model": "quartic"}, tmp_path, 5, "lya")


class TestChoiceParams:
    """which, rho and dump_samples take only their listed values."""

    CASES = [
        # "w1" ran the W2I search and recorded a pass
        pytest.param("best-constant", {"model": "bernoulli", "which": "w1"},
                     'which must be one of "w1i", "w2i", not \'w1\'', id="which"),
        # an unknown warp raised a bare KeyError with a traceback
        pytest.param("diffusion", {"model": "ou", "nodes": 40, "rho": "tnah"},
                     'rho must be one of "identity", "tanh", "intrinsic", not \'tnah\'',
                     id="rho"),
        # any truthy value wrote the samples file
        pytest.param("simulate", {"t": 3.0, "n_paths": 50, "dump_samples": "no"},
                     "dump_samples must be one of false, true, not 'no'", id="dump_samples-string"),
        pytest.param("simulate", {"t": 3.0, "n_paths": 50, "dump_samples": 1},
                     "dump_samples must be one of false, true, not 1", id="dump_samples-int"),
    ]

    @pytest.mark.parametrize("kind, params, message", CASES)
    def test_direct_call_raises_and_writes_nothing(self, tmp_path, kind, params, message):
        with pytest.raises(ConfigParse) as exc:
            cli._KINDS[kind](params, tmp_path, 0, "bad")
        assert str(exc.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind, params, message", CASES)
    def test_fails_alone_in_a_spec(self, tmp_path, capsys, kind, params, message):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"experiments": [
            {"kind": "rho-scan", "name": "good", "params": {"lambdas": [0.5]}},
            {"kind": kind, "name": "bad", "params": params},
        ]}))
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 2
        assert capsys.readouterr().err == ""
        good, bad = json.loads((tmp_path / "out" / "summary.json").read_text())["experiments"]
        assert good["passed"]
        assert bad == {"name": "bad", "passed": False, "artifacts": [],
                       "details": {"error": "ConfigParse: " + message}}
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "good-scan.csv", "summary.json"]


class TestSampleDump:
    def test_simulate_dumps_samples(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"kind": "simulate", "name": "s",
             "params": {"model": "bernoulli", "t": 3.0, "r": [0.2],
                        "n_paths": 50, "dump_samples": True}}))
        run_spec_file(spec_file, tmp_path / "out", None, 1)
        text = (tmp_path / "out" / "s-samples.csv").read_text()
        assert text.startswith("path,time_average")
        assert len(text.strip().split("\n")) == 51


class TestArtifactOracles:
    """Each kind's files equal, byte for byte, those the reports once wrote themselves."""

    @staticmethod
    def _calls(monkeypatch, name):
        """Wrap ``cli.<name>``; the list gets each call's (args, result)."""
        calls, inner = [], getattr(cli, name)

        def kept(*args, **kwargs):
            calls.append((args, inner(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(cli, name, kept)
        return calls

    @pytest.mark.parametrize("model, which", [("bernoulli", "w1i"), ("bernoulli", "w2i"),
                                              ("jump2", "w2i"), ("product-3x3", "w1i")])
    def test_best_constant(self, tmp_path, monkeypatch, model, which):
        calls = self._calls(monkeypatch, "best_w1i" if which == "w1i" else "best_w2i")
        out = cli.run_best_constant({"model": model, "which": which}, tmp_path, 5, "bc")
        ((_, report),) = calls
        oracle = tmp_path / "oracle.json"
        cli.write_json(oracle, {**best_constant_json_dict(report), "c_P": out.details["c_P"]})
        assert out.artifacts[0].read_bytes() == oracle.read_bytes()

    def test_best_constant_diverged(self, tmp_path, monkeypatch):
        report = BestConstantReport(c_dual=math.inf, c_primal=math.inf,
                                    witness_u=np.zeros(2), witness_density=np.ones(2),
                                    diverged=True, probe=((0.1, 2.5), (0.05, math.inf)))
        monkeypatch.setattr(cli, "best_w2i", lambda chain, metric, seed: report)
        out = cli.run_best_constant({"model": "bernoulli", "which": "w2i"}, tmp_path, 0, "bc")
        oracle = tmp_path / "oracle.json"
        cli.write_json(oracle, {**best_constant_json_dict(report), "c_P": out.details["c_P"]})
        assert out.artifacts[0].read_bytes() == oracle.read_bytes()
        assert b"Infinity" in oracle.read_bytes()

    @pytest.mark.parametrize("model", ["mminf", "beta-potential"])
    def test_lyapunov_certificate(self, tmp_path, monkeypatch, model):
        calls = self._calls(monkeypatch, "verify_thm51")
        out = cli.run_lyapunov({"model": model, "samples": 5}, tmp_path, 5, "lya")
        (((_, cert, _), _),) = calls
        assert cert.excluded == ((0, cert.U.size - 1) if model == "beta-potential" else ())
        oracle = tmp_path / "oracle.json"
        cli.write_json(oracle, certificate_json_dict(cert))
        assert out.artifacts[0].read_bytes() == oracle.read_bytes()

    @pytest.mark.parametrize("model", ["bernoulli", "product-3x3"])
    def test_verify_tci(self, tmp_path, monkeypatch, model):
        calls = self._calls(monkeypatch, "verify_tphi_dual")
        params = {"model": model, "alpha": {"kind": "quadratic", "c": 1.0}}
        out = cli.run_verify_tci(params, tmp_path, 5, "tci")
        ((_, report),) = calls
        assert out.artifacts[0].read_text() == tphi_dual_csv(report)

    def test_simulate_ledger(self, tmp_path, monkeypatch):
        calls = self._calls(monkeypatch, "tail_estimate")
        params = {"model": "bernoulli", "t": 5.0, "r": [0.1, 0.3], "n_paths": 200}
        out = cli.run_simulate(params, tmp_path, 7, "sim")
        rows = [tuple(ledger_row("bernoulli", "u", est, 5.0, r, 7).values())
                for r, (_, est) in zip([0.1, 0.3], calls)]
        oracle = tmp_path / "oracle.csv"
        cli.write_csv(oracle, list(LEDGER_COLUMNS), rows)
        assert out.artifacts[0].read_bytes() == oracle.read_bytes()


class TestInlineModels:
    def test_inline_diffusion_fails_by_name(self, tmp_path, capsys):
        # only chains come inline; a diffusion needs a catalog grid
        model = {"a": "1", "b": "-x", "interval": [None, None]}
        alpha = {"kind": "quadratic", "c": 1.0}
        kinds = ["best-constant", "simulate", "verify-tci", "diffusion"]
        spec_file = tmp_path / "spec.json"
        # only verify-tci takes an alpha: elsewhere it would fail as an unknown key
        spec_file.write_text(json.dumps({"experiments": [
            {"kind": k, "name": k,
             "params": {"model": model, **({"alpha": alpha} if k == "verify-tci" else {})}}
            for k in kinds]}))
        assert run_spec_file(spec_file, tmp_path / "out", None, 1) == 2
        assert capsys.readouterr().err == ""
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        errors = {e["name"]: e["details"]["error"] for e in summary["experiments"]}
        assert sorted(errors) == sorted(kinds)
        assert all(err.startswith("ConfigParse: ") and "model" in err
                   for err in errors.values()), errors


class TestPaperSuite:
    def test_paper_suite_exit_zero(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "paper-suite", "name": "suite"}))
        code = run_spec_file(spec_file, tmp_path / "out", None, 1)
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"]
        assert len(summary["experiments"][0]["details"]) == 8


def _spec_text(experiments) -> str:
    """The spec as JSON text, with the strings "@NaN@", "@Infinity@", "@-Infinity@"
    and "@1e999@" written as those bare literals."""
    text = json.dumps({"experiments": experiments})
    for literal in ("NaN", "Infinity", "-Infinity", "1e999"):
        text = text.replace(f'"@{literal}@"', literal)
    return text


def _run_text(tmp_path, text):
    """Run the spec ``text`` in-process: (exit status, summary entries by name, stderr)."""
    spec_file, out = tmp_path / "spec.json", tmp_path / "out"
    spec_file.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run_spec_file(spec_file, out, None, 1)
    summary = json.loads((out / "summary.json").read_text())
    return code, {e["name"]: e for e in summary["experiments"]}, err.getvalue()


class TestParameterTables:
    """Each kind parses its params against one table before anything runs: a bad
    value fails its experiment alone, by key, with nothing on stderr or on disk."""

    GOOD = {"kind": "rho-scan", "name": "good", "params": {"lambdas": [0.5]}}
    TCI = {"kind": "quadratic", "c": 1.0}

    REPRODUCERS = [
        # each of these recorded passed: true, or died with a traceback
        pytest.param({"kind": "rho-scan", "params": {"lambdas": ["@NaN@"]}}, "lambdas",
                     id="nan-lambdas"),
        pytest.param({"kind": "verify-tci", "params": {"alpha": {"kind": "quadratic",
                                                                  "c": "@NaN@"}}}, "c",
                     id="nan-c"),
        pytest.param({"kind": "verify-tci", "params": {"alpha": TCI, "lambda_grid": []}},
                     "lambda_grid", id="empty-lambda-grid"),
        pytest.param({"kind": "rho-scan", "params": {"lambdas": []}}, "lambdas",
                     id="empty-lambdas"),
        pytest.param({"kind": "simulate", "params": {"r": [], "n_paths": 50}}, "r",
                     id="empty-r"),
        pytest.param({"kind": "simulate", "params": {"r": ["@1e999@"], "n_paths": 50}}, "r",
                     id="1e999-r"),
        pytest.param({"kind": "simulate", "params": {"r": ["@Infinity@"], "n_paths": 50}}, "r",
                     id="infinity-r"),
        pytest.param({"kind": "simulate", "params": {"t": "@-Infinity@", "n_paths": 50}}, "t",
                     id="minus-infinity-t"),
        pytest.param({"kind": "lyapunov", "params": {"model": "beta-potential",
                                                     "beta": "@1e999@"}}, "beta",
                     id="1e999-beta"),
        pytest.param({"kind": "rho-scan", "params": {"lambda": [50.0]}}, "lambda",
                     id="misspelled-key"),
        pytest.param({"kind": "ckp-scan", "param": {"n": 3}}, "param", id="misspelled-params"),
        pytest.param({"kind": "ckp-scan", "params": [3, 10]}, "params", id="list-params"),
        pytest.param({"kind": "verify-tci", "params": {"alpha": [1.0]}}, "alpha", id="list-alpha"),
        pytest.param({"kind": "verify-tci", "params": {"alpha": dict(TCI, cc=2.0)}}, "cc",
                     id="unknown-alpha-key"),
        pytest.param({"kind": "simulate", "params": {"u": [0, 1, 2], "n_paths": 50}}, "u",
                     id="u-wrong-length"),
        pytest.param({"kind": "simulate", "params": {"u": [0.5, 0.5], "n_paths": 50}}, "u",
                     id="u-constant"),
        pytest.param({"kind": "simulate", "params": {"model": {"rates": [[0, 1], [2, "@NaN@"]]},
                                                     "n_paths": 50}}, "rates",
                     id="nan-inline-rate"),
        pytest.param({"kind": "simulate", "params": {"model": {"rates": [[0, 1], [2]]},
                                                     "n_paths": 50}}, "model",
                     id="ragged-inline-rates"),
        pytest.param({"kind": "simulate", "params": {"model": {"rates": [[0, 1], [2, 0]],
                                                               "states": 2}}}, "model",
                     id="inline-states-not-a-list"),
        pytest.param({"kind": "ckp-scan", "seed": "@NaN@", "params": {"n": 3}}, "seed",
                     id="nan-seed"),
    ]

    @pytest.mark.parametrize("bad, key", REPRODUCERS)
    def test_reproducer_fails_alone_by_key(self, tmp_path, bad, key):
        code, entries, err = _run_text(tmp_path, _spec_text([self.GOOD, dict(bad, name="bad")]))
        assert code == 2 and err == ""
        assert entries["good"]["passed"] and entries["good"]["artifacts"] == ["good-scan.csv"]
        assert entries["bad"]["passed"] is False and entries["bad"]["artifacts"] == []
        error = entries["bad"]["details"]["error"]
        assert error.startswith(f"ConfigParse: {key} ") or \
            error.startswith(f"ConfigParse: unknown key '{key}' "), error
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "good-scan.csv", "summary.json"]

    def test_messages_name_the_key_and_list_the_keys_taken(self, tmp_path):
        _, entries, _ = _run_text(tmp_path, _spec_text([
            {"kind": "rho-scan", "name": "a", "params": {"lambda": [50.0]}},
            {"kind": "ckp-scan", "name": "b", "param": {"n": 3}},
            {"kind": "paper-suite", "name": "c", "params": {"n": 3}},
            {"kind": "rho-scan", "name": "d", "params": {"lambdas": ["@NaN@", 0.5]}},
            {"kind": "simulate", "name": "e", "params": {"t": "@1e999@"}}]))
        assert {name: e["details"]["error"] for name, e in entries.items()} == {
            "a": "ConfigParse: unknown key 'lambda' in params, which takes lambdas",
            "b": "ConfigParse: unknown key 'param' in the experiment, which takes kind, name, "
                 "params, seed",
            "c": "ConfigParse: unknown key 'n' in params, which takes no keys",
            "d": "ConfigParse: lambdas must be a number or a list of numbers, "
                 "not [b'NaN', 0.5]",
            "e": "ConfigParse: t must be finite, not inf"}

    @pytest.mark.parametrize("kind, params, key", [
        ("rho-scan", {"lambdas": [math.nan]}, "lambdas"),
        ("verify-tci", {"alpha": {"kind": "quadratic", "c": math.nan}}, "c"),
        ("verify-tci", {"alpha": {"kind": "power", "kappa": 1.0, "p": math.inf}}, "p"),
        ("simulate", {"t": -math.inf}, "t"),
        ("simulate", {"r": [10 ** 400]}, "r"),
        ("diffusion", {"nodes": 80, "rho": "tanh", "extra": 1}, "'extra'"),
        ("verify-tci", {"n_pairs": 1.5, "alpha": TCI}, "n_pairs"),
        ("best-constant", {"metric": "euclid"}, "metric"),
    ])
    def test_direct_calls_parse_before_any_model_is_built(self, tmp_path, monkeypatch,
                                                           kind, params, key):
        def no_model(*args, **kwargs):
            raise AssertionError("a model was built")

        monkeypatch.setattr(catalog, "load_example", no_model)
        with pytest.raises(ConfigParse, match=key):
            cli._KINDS[kind](params, tmp_path, 0, "bad")
        assert list(tmp_path.iterdir()) == []

    def test_every_suite_part_goes_through_its_table(self, monkeypatch, tmp_path):
        # a key the part's table lacks fails the part by name
        parts = [(part, run, dict(params, extra=1)) for part, run, params in cli._SUITE]
        monkeypatch.setattr(cli, "_SUITE", tuple(parts))
        for part, run, params in parts:
            with pytest.raises(ConfigParse, match="unknown key 'extra' in params"):
                run(params, tmp_path, 0, part)
        assert list(tmp_path.iterdir()) == []

    def test_inline_chain_ledger_names_the_model_inline(self, tmp_path):
        code, entries, err = _run_text(tmp_path, _spec_text([
            {"kind": "simulate", "name": "sim", "params": {
                "model": {"states": [0, 1], "rates": [[0, 1], [2, 0]]}, "t": 2.0,
                "n_paths": 40}}]))
        assert code == 0 and err == ""
        with open(tmp_path / "out" / "sim-ledger.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(LEDGER_COLUMNS)
        assert [len(row) for row in rows] == [len(LEDGER_COLUMNS)] * 2
        assert rows[1][0] == "inline"

    @pytest.mark.parametrize("field", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_write_csv_refuses_a_field_that_would_shift_the_columns(self, tmp_path, field):
        with pytest.raises(ValueError, match="comma, a quote or a newline"):
            cli.write_csv(tmp_path / "x.csv", ["a", "b"], [(1, "fine"), (2, field)])
        assert not (tmp_path / "x.csv").exists()


class TestLibraryRejections:
    """A value its table takes but the library rejects fails its experiment by name,
    as a ModelValidation with the library's message, and nothing reaches stderr."""

    GOOD = TestParameterTables.GOOD
    SPEC = [
        GOOD,
        {"kind": "simulate", "name": "r", "params": {"r": [-0.2], "n_paths": 50}},
        {"kind": "simulate", "name": "r0", "params": {"r": [0], "n_paths": 50}},
        {"kind": "verify-tci", "name": "lambda_grid",
         "params": {"alpha": TestParameterTables.TCI, "lambda_grid": [-0.5, 1]}},
        *({"kind": "lyapunov", "name": f"beta-{beta}",
           "params": {"model": "beta-potential", "beta": beta, "samples": 4}}
          for beta in (3.5, 5, 50, 1e300)),
    ]

    def test_reproducer_fails_by_name_beside_the_good_one(self, tmp_path):
        code, entries, err = _run_text(tmp_path, _spec_text(self.SPEC))
        assert code == 2 and err == ""
        errors_ = {name: e["details"].get("error") for name, e in entries.items()
                   if not e["passed"]}
        assert errors_.pop("r") == errors_.pop("r0") == "ModelValidation: r must be positive"
        assert errors_.pop("lambda_grid") == \
            "ModelValidation: monotone conjugate is defined for lambda >= 0"
        for beta in (5, 50, 1e300):
            assert errors_.pop(f"beta-{beta}").startswith(
                f"ModelValidation: beta {float(beta)!r} is too large for the grid: ")
        assert errors_ == {}
        assert all(entries[name]["artifacts"] == [] for name in ("r", "r0", "lambda_grid"))
        (tmp_path / "alone").mkdir()
        _, alone, _ = _run_text(tmp_path / "alone", _spec_text([self.GOOD]))
        assert entries["good"] == alone["good"]
        assert (tmp_path / "out" / "good-scan.csv").read_bytes() == \
            (tmp_path / "alone" / "out" / "good-scan.csv").read_bytes()


class TestVerdictsCarryNaN:
    """One NaN in a running min or max fails the check: Python's min and max pass over
    a NaN that comes second.  Finite runs keep their bits (the pins above)."""

    def test_min_nan_and_max_nan(self):
        assert math.isnan(min_nan(math.inf, 1.0, math.nan, 0.5))
        assert math.isnan(max_nan(-math.inf, 2.0, math.nan))
        assert min_nan(3.0, 1.0, 2.0) == 1.0 and max_nan(3.0, 1.0, 2.0) == 3.0
        for a, b in ((0.0, -0.0), (-0.0, 0.0)):   # min's and max's own choice of zero
            assert math.copysign(1.0, min_nan(a, b)) == math.copysign(1.0, min(a, b))
            assert math.copysign(1.0, max_nan(a, b)) == math.copysign(1.0, max(a, b))

    @staticmethod
    def _one_nan(monkeypatch, name, make_nan):
        """Wrap ``cli.<name>`` so that the call ``make_nan`` picks returns NaN in place."""
        exact, calls = getattr(cli, name), []

        def wrapped(*args):
            calls.append(args)
            out = exact(*args)
            return make_nan(len(calls), args, out)

        monkeypatch.setattr(cli, name, wrapped)

    def test_ckp_scan_sampled_gap(self, tmp_path, monkeypatch):
        def nan_gap(k, args, out):
            tv2, four_var = out
            if np.ndim(four_var) == 1:
                four_var = four_var.copy()
                four_var[3] = math.nan
            return tv2, four_var

        self._one_nan(monkeypatch, "ckp_gap", nan_gap)
        out = cli.run_ckp_scan({"n": 3, "count": 10}, tmp_path, 0, "c")
        assert not out.passed and math.isnan(out.details["worst_gap"])

    def test_ckp_scan_extremal_gap(self, tmp_path, monkeypatch):
        self._one_nan(monkeypatch, "ckp_gap", lambda k, args, out: (out[0], math.nan)
                      if np.ndim(out[1]) == 0 and args[0][0] == 0.5 else out)
        out = cli.run_ckp_scan({"n": 3, "count": 10}, tmp_path, 0, "c")
        assert not out.passed and math.isnan(out.details["extremal_equality_gap"])

    def test_rho_scan(self, tmp_path, monkeypatch):
        self._one_nan(monkeypatch, "rho_sup_scan",
                      lambda k, args, out: dict(out, sup=math.nan) if k == 2 else out)
        out = cli.run_rho_scan({"lambdas": [0.3, 0.5, 0.7]}, tmp_path, 0, "r")
        assert not out.passed and math.isnan(out.details["worst_excess"])

    def test_tensorize_fisher_gap(self, tmp_path, monkeypatch):
        def nan_row(k, args, out):
            out = np.array(out, dtype=float)
            out[1] = math.nan
            return out

        self._one_nan(monkeypatch, "fisher_information", nan_row)
        out = cli.run_tensorize({"count": 3}, tmp_path, 0, "t")
        assert not out.passed and math.isnan(out.details["fisher_gap"])

    def test_tensorize_subadditivity_excess(self, tmp_path, monkeypatch):
        self._one_nan(monkeypatch, "tensor_subadditivity_check",
                      lambda k, args, out: (math.nan, out[1]) if k == 2 else out)
        out = cli.run_tensorize({"count": 3}, tmp_path, 0, "t")
        assert not out.passed and math.isnan(out.details["sub_excess"])

    def test_tensorize_infconv_gap(self, tmp_path, monkeypatch):
        self._one_nan(monkeypatch, "alpha_infconv",
                      lambda k, args, out: math.nan if k == 7 else out)
        out = cli.run_tensorize({"count": 3}, tmp_path, 0, "t")
        assert not out.passed and math.isnan(out.details["infconv_gap"])


class TestReadmeTables:
    """The README's per-kind tables are the code's tables."""

    TYPES = {"count": "integer", "_real": "finite real", "_reals": "finite reals",
             "choice": "choice", "_model": "model", "_rate_function": "rate function"}

    @classmethod
    def _row(cls, key, parse, default):
        bound = inspect.getclosurevars(parse).nonlocals
        limit = str(bound["least"]) if "least" in bound else \
            ", ".join(f"`{json.dumps(a)}`" for a in bound.get("allowed", ()))
        shown = "required" if default == {} else "from the model" if default is None \
            else f"`{json.dumps(default)}`"
        return [f"`{key}`", cls.TYPES[parse.__name__], shown, limit]

    def test_rows_equal_the_code(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        tables, kind = {}, None
        for line in readme.splitlines():
            heading = re.fullmatch(r"#### `([a-z-]+)`", line)
            if heading:
                kind = heading.group(1)
                tables[kind] = []
            elif kind and re.match(r"\| `", line):
                tables[kind].append([cell.strip() for cell in line.strip("|").split("|")])
        code = {kind: [self._row(key, *entry) for key, entry in run.table.items()]
                for kind, run in cli._KINDS.items() if run.table}
        assert tables == code
        assert sorted(code) == sorted(set(cli._KINDS) - {"paper-suite"})


# values no table takes, beside the tables' own
_BAD = st.sampled_from([True, "x", None, [], {}, [True], "@NaN@", "@Infinity@", "@-Infinity@",
                        "@1e999@", ["@NaN@"], [1.0, "@1e999@"], 2.5, -3, [[1.0]]])
_CHAIN = st.sampled_from(["bernoulli", "jump2", "product-3x3",
                          {"rates": [[0, 1.5], [0.5, 0]], "states": ["a", "b"]}])
_ALPHA = st.fixed_dictionaries({"kind": st.just("quadratic"), "c": st.floats(1.0, 10.0)})
_SMALL_REALS = st.lists(st.floats(0.05, 2.0), min_size=1, max_size=2)
_SIGNED_REALS = st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=2)
# per kind, the values each key's parser takes, at sizes that keep an example fast; the
# library rejects some of them by name (r or a lambda <= 0, a beta the grid cannot hold)
_VALID = {
    "verify-tci": {"model": _CHAIN, "alpha": _ALPHA, "lambda_grid": _SIGNED_REALS,
                   "n_pairs": st.integers(1, 2)},
    "best-constant": {"model": st.sampled_from(["bernoulli", "jump2"]),
                      "metric": st.sampled_from(["default", "trivial", "line"]),
                      "which": st.sampled_from(["w1i", "w2i"])},
    "ckp-scan": {"n": st.integers(1, 5), "count": st.integers(0, 20)},
    "rho-scan": {"lambdas": _SMALL_REALS},
    "diffusion": {"model": st.sampled_from(["ou", "quartic", "bernoulli"]),
                  "nodes": st.integers(120, 140),
                  "rho": st.sampled_from(["identity", "tanh", "intrinsic"])},
    "lyapunov": {"model": st.sampled_from(["mminf", "beta-potential"]),
                 "samples": st.integers(0, 3),
                 "beta": st.one_of(st.floats(0.5, 4.0), st.floats(4.0, 1e300))},
    "simulate": {"model": _CHAIN, "u": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
                 "t": st.floats(0.5, 2.0), "r": _SIGNED_REALS, "n_paths": st.integers(1, 30),
                 "dump_samples": st.booleans()},
    "tensorize": {"count": st.integers(0, 2)},
    "paper-suite": {},
}


@st.composite
def _experiment(draw):
    kind = draw(st.sampled_from(sorted(_VALID)))
    keys = draw(st.lists(st.sampled_from(sorted(_VALID[kind]) or ["-"]), unique=True,
                         max_size=4))
    params = {key: draw(st.one_of(_VALID[kind][key], _BAD)) for key in keys
              if key in _VALID[kind]}
    if kind == "paper-suite" or draw(st.integers(0, 9)) == 0:
        params[draw(st.sampled_from(["lambda", "param", "x"]))] = 1.0
    experiment = {"kind": kind, "params": params}
    if draw(st.integers(0, 14)) == 0:
        experiment["params"] = draw(st.sampled_from([[], "x", 3, None]))
    if kind == "verify-tci" and "alpha" not in params and draw(st.booleans()):
        params["alpha"] = {"kind": "quadratic", "c": 2.0}
    if kind == "simulate" and draw(st.booleans()):
        params["u"] = [0.0, 1.0, 0.5]    # the length of no catalog chain
    return experiment


def _finite_details(entry) -> bool:
    details = entry["details"]
    diverged = details.get("diverged") is True   # a diverged search's constants are inf
    return all(not isinstance(v, float) or math.isfinite(v)
               or (diverged and k in ("c_dual", "c_primal")) for k, v in details.items())


def _reason_is_named(entry) -> bool:
    name, _, _ = entry["details"].get("error", "").partition(":")
    error = getattr(errors, name, None)
    return isinstance(error, type) and issubclass(error, errors.TransinfoError)


class TestSpecFuzzer:
    GOOD = TestParameterTables.GOOD

    @pytest.fixture(scope="class")
    def good_bytes(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("good")
        code, entries, err = _run_text(tmp, _spec_text([self.GOOD]))
        assert code == 0 and err == ""
        return entries["good"], (tmp / "out" / "good-scan.csv").read_bytes()

    def test_tables_cover_the_fuzzed_keys(self):
        assert {kind: set(run.table) for kind, run in cli._KINDS.items()} == \
            {kind: set(keys) for kind, keys in _VALID.items()}

    @settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=st.lists(_experiment(), min_size=1, max_size=2))
    def test_each_experiment_passes_or_fails_by_a_named_reason(self, good_bytes, bad):
        good_entry, good_csv = good_bytes
        experiments = [dict(e, name=f"e{i}") for i, e in enumerate(bad)]
        experiments.insert(len(experiments) // 2, self.GOOD)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            _, entries, err = _run_text(tmp, _spec_text(experiments))
            assert err == ""
            assert entries["good"] == good_entry
            assert (tmp / "out" / "good-scan.csv").read_bytes() == good_csv
            for name, entry in entries.items():
                assert (entry["passed"] and _finite_details(entry)) or \
                    (not entry["passed"] and _reason_is_named(entry)), (name, entry, experiments)
                for artifact in entry["artifacts"]:
                    path = tmp / "out" / artifact
                    if path.suffix == ".csv":
                        with open(path, newline="") as fh:
                            rows = list(csv.reader(fh))
                        assert {len(row) for row in rows} == {len(rows[0])}, artifact
                    else:
                        json.loads(path.read_text())
