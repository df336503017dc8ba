import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from transinfo import catalog, cli
from transinfo.cli import main, run_spec_file
from transinfo.errors import ConfigParse
from transinfo.exprutil import compile_expression


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

    @pytest.mark.parametrize("middle", [
        {"kind": "verify-tci", "params": {"alpha": {"kind": "quadratic", "c": -1}}},
        {"kind": "diffusion",
         "params": {"model": {"a": "1", "b": "-x", "interval": [None, None]}}},
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

    def test_17_digit_floats_in_artifacts(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(
            {"kind": "rho-scan", "name": "r", "params": {"lambdas": [0.3]}}))
        run_spec_file(spec_file, tmp_path / "out", None, 1)
        text = (tmp_path / "out" / "r-scan.csv").read_text()
        row = text.strip().split("\n")[1].split(",")
        assert float(row[2]) == float(f"{float(row[2]):.17g}")   # round-trips


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


class TestCouplingCsv:
    def test_header_labels(self):
        from transinfo.transport import CostMatrix, ot_cost
        c = CostMatrix.validate(np.array([[0.0, 1.0], [1.0, 0.0]]))
        _, coup = ot_cost(c, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        text = coup.to_csv(row_labels=["a", "b"], col_labels=["x", "y"])
        lines = text.strip().split("\n")
        assert lines[0] == ",x,y"
        assert lines[1].startswith("a,")


class TestPaperSuite:
    def test_paper_suite_exit_zero(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"kind": "paper-suite", "name": "suite"}))
        code = run_spec_file(spec_file, tmp_path / "out", None, 1)
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"]
        assert len(summary["experiments"][0]["details"]) == 8
