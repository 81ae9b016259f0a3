import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from rhomix import cli, convdecay, gaussian, glauber


def run_cli(args, tmp_path=None):
    proc = subprocess.run(
        [sys.executable, "-m", "rhomix.cli", *args],
        capture_output=True, text=True, timeout=300,
    )
    return proc


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    joint = [
        ["0.2222222222222222", "0.05555555555555555", "0.05555555555555555"],
        ["0.05555555555555555", "0.2777777777777778", "0.0"],
        ["0.05555555555555555", "0.0", "0.2777777777777778"],
    ]
    return write_json(tmp_path, "pair.json", {"labels_x": [0, 1, 2], "labels_y": [0, 1, 2], "joint": joint})


@pytest.fixture
def product_pair_file(tmp_path):
    joint = [[0.12, 0.28], [0.18, 0.42]]
    return write_json(tmp_path, "prod.json", {"labels_x": [0, 1], "labels_y": [0, 1], "joint": joint})


class TestExitCodes:
    def test_unknown_command(self):
        proc = run_cli(["frobnicate"])
        assert proc.returncode == 64
        assert "unknown command" in proc.stderr

    def test_no_command(self):
        assert run_cli([]).returncode == 64

    def test_validation_error_is_exit_2(self, tmp_path):
        bad = write_json(tmp_path, "bad.json",
                         {"labels_x": [0, 1], "labels_y": [0, 1], "joint": [[0.9, 0.2], [0.1, 0.1]]})
        proc = run_cli(["maxcorr", "--pair", bad])
        assert proc.returncode == 2
        assert "invariant violated" in proc.stderr

    @pytest.mark.parametrize("kind", ["simple", "zz"])
    def test_nan_eps_is_exit_2(self, kind):
        proc = run_cli(["tensor-bound", kind, "--eps", "nan,0.5"])
        assert proc.returncode == 2
        assert "finite" in proc.stderr
        assert proc.stdout == ""

    def test_missing_file_is_exit_2(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        proc = run_cli(["mixing", "--pair", missing])
        assert proc.returncode == 2
        assert "invariant violated" in proc.stderr and missing in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, flag", [
        (["tensor-bound", "simple"], "--eps"),
        (["tensor-bound", "zz"], "--eps"),
        (["tensor-bound", "nm"], "--matrix"),
        (["tensor-bound", "zn"], "--kernel"),
        (["tensor-bound", "distance"], "--kernel"),
        (["tensor-bound", "sublattice"], "--kernel"),
        (["event-bound", "lambda"], "--eps"),
        (["event-bound", "extremes"], "--pair"),
        (["event-bound", "density"], "--pair"),
        (["glauber-gap", "exact"], "--system"),
        (["glauber-gap", "bounds"], "--matrix"),
        (["glauber-gap", "sublattice"], "--kernel"),
        (["clt", "--model", "quadratic"], "--gamma"),
    ])
    def test_missing_input_flag_is_exit_2(self, argv, flag, capsys):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert f"{flag} is required" in captured.err and argv[-1] in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["tensor-bound", "simple", "--eps", "nan", "--dry-run"], "finite"),
        (["tensor-bound", "simple", "--dry-run"], "--eps is required"),
        (["tensor-bound", "zz", "--eps", "0.5,abc"], "comma-separated numbers"),
        (["event-bound", "lambda", "--eps", "nan", "--dry-run"], "finite"),
        (["event-bound", "lambda", "--dry-run"], "--eps is required"),
        (["ou-chain", "--t", "nan", "--K", "4"], "t must be finite"),
        (["ou-chain", "--t", "1e-103", "--K", "4"], "noise covariance is singular"),
        (["glauber-sim", "--system", "{two_site}", "--horizon", "nan", "--dry-run"], "horizon must be finite"),
        (["glauber-sim", "--system", "{two_site}", "--horizon", "5", "--observable-site", "7"],
         "--observable-site must lie in [0, 2)"),
        (["glauber-gap", "bounds", "--matrix", "{nan_matrix}"], "eps entries must be finite"),
    ])
    def test_bad_input_is_exit_2(self, argv, message, tmp_path, capsys):
        two_site = write_json(tmp_path, "two_site.json",
                              {"variables": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
                               "joint_flat": [0.4, 0.1, 0.1, 0.4]})
        nan_matrix = write_json(tmp_path, "nan_matrix.json", {"entries": [[0, math.nan], [math.nan, 0]]})
        argv = [a.format(two_site=two_site, nan_matrix=nan_matrix) for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("t", ["1e6", "1e300"])
    def test_fully_mixed_chain_is_exit_0(self, t):
        # the flow has decayed below the smallest float: the chain has forgotten its start
        proc = run_cli(["ou-chain", "--K", "4", "--t", t])
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout, parse_constant=_reject_constant)["maxcorr"] <= 1e-12

    @pytest.mark.parametrize("params, message", [
        ({"omega": 1e200}, "Gibbs law"),  # omega^2 overflows
        ({"c": 1e300, "t": 1e150}, "Gibbs law"),
        ({"m": 1e200}, "joint precision is not finite"),
        ({"m": 1e150, "lam": 1e300}, "Lyapunov residual is not finite"),
        ({"T": 5e-324}, "Gibbs law"),  # T / (m om2) underflows to 0
    ])
    def test_extreme_chain_parameters_are_exit_2(self, params, message, tmp_path, capsys):
        path = write_json(tmp_path, "params.json", {**params, "K": 4})
        assert cli.main(["ou-chain", "--params", path]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_nan_cell_is_exit_2(self, tmp_path):
        bad = write_json(tmp_path, "nan.json",
                         {"labels_x": [0, 1], "labels_y": [0, 1], "joint": [[math.nan, 0.5], [0.25, 0.25]]})
        proc = run_cli(["maxcorr", "--pair", bad])
        assert proc.returncode == 2
        assert "finite" in proc.stderr and proc.stdout == ""

    def test_nan_lambda_eps_is_exit_2(self):
        proc = run_cli(["event-bound", "lambda", "--eps", "nan"])
        assert proc.returncode == 2
        assert "finite" in proc.stderr and proc.stdout == ""

    def test_missing_key_is_exit_2(self, tmp_path):
        bad = write_json(tmp_path, "nojoint.json", {"labels_x": [0, 1], "labels_y": [0, 1]})
        proc = run_cli(["maxcorr", "--pair", bad])
        assert proc.returncode == 2
        assert f"{bad}: input file must have key 'joint'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_variable_without_size_is_exit_2(self, tmp_path, capsys):
        bad = write_json(tmp_path, "nosize.json",
                         {"variables": [{"name": "a"}, {"name": "b", "size": 2}],
                          "joint_flat": [0.4, 0.1, 0.1, 0.4]})
        assert cli.main(["glauber-gap", "exact", "--system", bad]) == 2
        captured = capsys.readouterr()
        assert "every item of 'variables' must be an object with 'name' and 'size'" in captured.err
        assert bad in captured.err and captured.out == ""

    def test_truncated_json_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"labels_x": ["a", "b"], "labels_y": ["0", "1"], "joint": [[0.25, ')
        proc = run_cli(["maxcorr", "--pair", str(bad)])
        assert proc.returncode == 2
        assert "valid JSON" in proc.stderr and str(bad) in proc.stderr
        assert "Traceback" not in proc.stderr


class TestCompute:
    def test_maxcorr_pair(self, pair_file):
        proc = run_cli(["maxcorr", "--pair", pair_file])
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["rho"] == pytest.approx(5 / 6, abs=1e-12)

    def test_maxcorr_product_is_zero(self, product_pair_file):
        out = json.loads(run_cli(["maxcorr", "--pair", product_pair_file]).stdout)
        assert out["rho"] == pytest.approx(0.0, abs=1e-10)

    def test_simple_bound_value(self):
        out = json.loads(run_cli(["tensor-bound", "simple", "--eps", "0.5,0.5"]).stdout)
        assert out["value"] == pytest.approx(math.sqrt(7) / 4, abs=1e-15)
        assert "0.661437827766147" in run_cli(["tensor-bound", "simple", "--eps", "0.5,0.5"]).stdout

    def test_mixing(self, product_pair_file):
        out = json.loads(run_cli(["mixing", "--pair", product_pair_file]).stdout)
        assert out["alpha"] == pytest.approx(0.0, abs=1e-12)

    def test_subjective_and_system_schema(self, tmp_path):
        flat = list(np.full(8, 1 / 8))
        sys_file = write_json(
            tmp_path, "sys.json",
            {"variables": [{"name": "a", "size": 2}, {"name": "b", "size": 2},
                           {"name": "c", "size": 2}],
             "joint_flat": flat, "order": "row-major, last variable fastest"},
        )
        out = json.loads(run_cli(["subjective", "--system", sys_file, "--i", "a", "--j", "b"]).stdout)
        assert out["value"] == pytest.approx(0.0, abs=1e-10)
        gap = json.loads(run_cli(["glauber-gap", "exact", "--system", sys_file]).stdout)
        assert gap["gap"] == pytest.approx(1.0, abs=1e-9)

    def test_event_bound_lambda(self):
        out = json.loads(run_cli(["event-bound", "lambda", "--eps", "0.5"]).stdout)
        assert out["value"] == pytest.approx(0.5 * (1 + math.log(2)), abs=1e-12)

    def test_chogosov_quantile_and_cdf(self):
        out = json.loads(run_cli(["chogosov", "quantile", "--eps", "0.5", "--p", "0.5",
                                  "--omega", "0.5"]).stdout)
        assert out["value"] == pytest.approx(0.5, abs=1e-10)
        out = json.loads(run_cli(["chogosov", "cdf", "--eps", "0.5", "--p", "0.3", "--q", "0.9"]).stdout)
        assert out["zone"] == "1"

    def test_three_lines(self):
        out = json.loads(run_cli(["three-lines", "--u1", "1,0,0", "--u2", "0,1,0",
                                  "--u3", "0,0,1"]).stdout)
        assert out["order"] == "equal"

    def test_ou_chain(self):
        out = json.loads(run_cli(["ou-chain", "--t", "1.0", "--K", "4"]).stdout)
        assert 0.0 < out["maxcorr"] < 1.0

    def test_kernel_schema_and_bounds(self, tmp_path):
        kern = write_json(
            tmp_path, "kern.json",
            {"n": 1, "norm": "l1", "R": 2, "values": {"(1,)": 0.2, "(-1,)": 0.2, "(2,)": "0.05", "(-2,)": "0.05"},
             "tail": {"type": "none"}},
        )
        out = json.loads(run_cli(["tensor-bound", "zn", "--kernel", kern]).stdout)
        assert out["value"] == pytest.approx(
            math.sin(2 * math.asin(0.2) + 2 * math.asin(0.05)), abs=1e-12
        )
        out = json.loads(run_cli(["tensor-bound", "distance", "--kernel", kern, "--d", "2"]).stdout)
        assert out["value"] == pytest.approx(0.1, abs=1e-12)
        out = json.loads(run_cli(["glauber-gap", "sublattice", "--kernel", kern]).stdout)
        assert out["value"] == pytest.approx((1 - 0.5) ** 2, abs=1e-12)

    def test_conv_inverse_and_quadratic(self, tmp_path):
        toep = write_json(tmp_path, "a.json",
                          {"n": 1, "R": 1, "values": {"(1,)": 0.36787944117144233}})
        out = json.loads(run_cli(["conv-inverse", "--kernel", toep]).stdout)
        assert out["l1_norm"] == pytest.approx(math.exp(-1) / (1 - math.exp(-1)), abs=1e-10)
        gam = write_json(tmp_path, "g.json",
                         {"n": 1, "R": 1, "values": {"(1,)": 0.2, "(-1,)": 0.2}})
        out = json.loads(run_cli(["quadratic", "--gamma", gam]).stdout)
        assert out["window_sum"] == pytest.approx(1.0, abs=1e-10)
        assert out["eps_sum_offcenter"] <= 0.4 + 1e-9


class TestDeterminismAndFiles:
    def test_byte_identical_reruns(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f in (f1, f2):
            proc = run_cli(["chogosov", "sample", "--eps", "0.5", "--n", "500", "--seed", "7",
                            "--format", "csv", "--output", str(f)])
            assert proc.returncode == 0
        assert f1.read_bytes() == f2.read_bytes()
        header = f1.read_text().splitlines()
        assert header[0].startswith("#")
        assert header[1] == "p,q,branch"

    def test_dry_run_validates_without_computing(self, pair_file):
        proc = run_cli(["maxcorr", "--pair", pair_file, "--dry-run"])
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"valid": True}

    def test_glauber_sim_csv(self, tmp_path):
        sys_file = write_json(
            tmp_path, "sys.json",
            {"variables": [{"name": "a", "size": 2}, {"name": "b", "size": 2}],
             "joint_flat": [0.25, 0.25, 0.25, 0.25], "order": "row-major, last variable fastest"},
        )
        out_file = tmp_path / "traj.csv"
        proc = run_cli(["glauber-sim", "--system", sys_file, "--horizon", "50",
                        "--seed", "3", "--format", "csv", "--output", str(out_file)])
        assert proc.returncode == 0
        lines = out_file.read_text().splitlines()
        assert lines[1] == "time,site,new_state"
        assert len(lines) > 10

    def test_event_bound_extremes_and_density(self, product_pair_file):
        out = json.loads(run_cli(["event-bound", "extremes", "--pair", product_pair_file]).stdout)
        assert out["max_ratio"] == pytest.approx(0.0, abs=1e-10)
        out = json.loads(run_cli(["event-bound", "density", "--pair", product_pair_file]).stdout)
        assert out["value"] == pytest.approx(0.0, abs=1e-10)

    def test_ising_snapshot_is_pgm_text(self, tmp_path):
        snap = tmp_path / "snap.pgm"
        proc = run_cli(["ising", "--n", "2", "--L", "4", "--T", "2.0", "--method", "exact",
                        "--snapshot", str(snap)])
        assert proc.returncode == 0
        lines = snap.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "4 4"

    def test_verify_all_selection(self):
        proc = run_cli(["verify-all", "--only", "01"])
        assert proc.returncode == 0
        assert "[PASS] 01 worked example" in proc.stdout


class TestInProcessMain:
    def test_main_returns_codes(self, capsys):
        assert cli.main(["frobnicate"]) == 64
        assert cli.main(["tensor-bound", "simple", "--eps", "0.3"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["value"] == pytest.approx(0.3, abs=1e-15)

    @pytest.mark.parametrize("worst, code, verdict", [(0.0, 0, "[PASS]"), (1.0, 1, "[FAIL]")])
    def test_verify_all_writes_its_lines_to_output(self, worst, code, verdict, tmp_path, capsys, monkeypatch):
        report = gaussian.par411_report

        def shifted():  # the x1_y error of the worked example becomes `worst`
            return {**report(), "x1_y": 0.5 + worst}

        monkeypatch.setattr(gaussian, "par411_report", shifted)
        out = tmp_path / "v.txt"
        assert cli.main(["verify-all", "--only", "01", "--output", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith(f"{verdict} 01 worked example: max err ")

    @pytest.mark.parametrize("argv", [
        ["tensor-bound", "simple", "--eps", "0.5", "--output", "{dir}/x.json"],
        ["tensor-bound", "simple", "--eps", "0.5", "--output", "{dir}/x.json", "--dry-run"],
        ["verify-all", "--only", "01", "--output", "{dir}/v.txt"],
        ["ising", "--L", "4", "--T", "2", "--snapshot", "{dir}/s.pgm"],
    ])
    def test_unwritable_output_is_exit_2(self, argv, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert cli.main([a.format(dir=missing) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"invariant violated: {missing}/")
        assert ": output file must be writable (" in captured.err

    @pytest.mark.parametrize("argv", [
        ["ising", "--L", "4", "--T", "1e-3"],
        ["ising", "--L", "8", "--T", "0.01", "--method", "mcmc"],
        ["ising", "--L", "8", "--T", "1e-3", "--method", "mcmc"],
    ])
    def test_ising_takes_its_zero_temperature_limit(self, argv, capsys):
        # exp(8n/T) overflows and k0 takes its limit; the heat-bath chain sits in one ground
        # state, where every pair table has one cell, so the mcmc method refuses with exit 2
        mcmc = "mcmc" in argv
        assert cli.main(argv) == (2 if mcmc else 0)
        out, err = capsys.readouterr()
        if mcmc:
            assert out == "" and "in all 500 kept samples; it is trapped" in err
        else:
            out = json.loads(out)
            assert out["c0"] == 2.0 and out["k0"] == 1.0
            assert out["values"] == {"(-2)": 1.0, "(-1)": 1.0, "(1)": 1.0, "(2)": 1.0}


@pytest.fixture
def input_files(tmp_path):
    """Valid and malformed input files, keyed by the placeholder names used in argvs."""
    system = {"variables": [{"name": f"X{k}", "size": 2} for k in range(3)], "joint_flat": [0.125] * 8}
    files = {
        "system": system,
        "pair": {"labels_x": [0, 1], "labels_y": [0, 1], "joint": [[0.4, 0.1], [0.1, 0.4]]},
        "matrix": {"entries": [[0.0, 0.2], [0.2, 0.0]]},
        "kernel": {"n": 1, "R": 1, "values": {"(1)": 0.1, "(-1)": 0.1}},
        "size_two": {"variables": [{"name": "a", "size": "two"}], "joint_flat": [0.5, 0.5]},
        "short_flat": {"variables": [{"name": "a", "size": 3}, {"name": "b", "size": 2}],
                       "joint_flat": [0.25] * 4},
        "bad_key": {"n": 1, "R": 1, "values": {"(a)": 0.1}},
        "far_key": {"n": 1, "R": 1, "values": {"(-3)": 0.1}},
        "n_word": {"n": "one", "R": 1, "values": {"(1)": 0.1}},
        "R_half": {"n": 1, "R": 1.5, "values": {"(1)": 0.1, "(-1)": 0.1}},
        "tail_word": {"n": 1, "R": 1, "values": {"(1)": 0.1, "(-1)": 0.1}, "tail": "none"},
        "labels_int": {"labels_x": 5, "labels_y": [0, 1], "joint": [[0.5, 0.5]]},
        "big_system": {"variables": [{"name": f"X{k}", "size": 2} for k in range(13)],
                       "joint_flat": [2.0**-13] * 2**13},
        "wide_pair": {"labels_x": list(range(21)), "labels_y": [0, 1], "joint": [[1 / 42, 1 / 42]] * 21},
        "heavy_kernel": {"n": 1, "R": 1, "values": {"(1)": 0.6, "(-1)": 0.6}},
        "nan_C": {"n": 1, "R": 1, "values": {"(1)": 0.3}, "tail": {"type": "polynomial", "C": "nan", "alpha": 3}},
        "nan_psi": {"n": 1, "R": 1, "values": {"(1)": 0.3}, "tail": {"type": "exponential", "C": 0.1, "psi": "nan"}},
        "norm_list": {"n": 1, "R": 1, "values": {"(1)": 0.3}, "norm": [1]},
        "tiny_psi": {"n": 1, "R": 1, "values": {"(1)": 0.3}, "tail": {"type": "exponential", "C": 1e-300, "psi": 1e-300}},
        "inf_C": {"n": 1, "R": 1, "values": {"(1)": 0.3}, "tail": {"type": "exponential", "C": "inf", "psi": 1000}},
        "n_30": {"n": 30, "R": 1, "values": {}},
        **{f"nn2d_{name}": {"n": 2, "R": 1, "values": dict.fromkeys(("(1,0)", "(-1,0)", "(0,1)", "(0,-1)"), v)}
           for name, v in (("090", 0.225), ("095", 0.2375), ("0999", 0.24975))},
        "gamma_1000": {"n": 2, "R": 1, "values": dict.fromkeys(("(1,0)", "(-1,0)", "(0,1)", "(0,-1)"), 500)},
        # every class sum stays >= 1 up to spacing 32, whose 32^4 classes fill the cap
        "heavy_4d": {"n": 4, "R": 1, "values": {str(z).replace(" ", ""): 0.5
                                                for z in itertools.product((-1, 0, 1), repeat=4) if any(z)},
                     "tail": {"type": "mass", "total": 0.6}},
        # spacing 33 is the first with class sums < 1: 33^2 classes
        "wide_2d": {"n": 2, "R": 16, "values": {f"({a},{b})": 0.9 for a in range(-16, 17)
                                                for b in range(-16, 17) if (a, b) != (0, 0)}},
    }
    return {name: write_json(tmp_path, f"{name}.json", obj) for name, obj in files.items()}


def _main(argv, input_files, capsys):
    code = cli.main([a.format(**input_files) for a in argv])
    return code, capsys.readouterr()


class TestHandlerTable:
    @pytest.mark.parametrize("argv, message", [
        (["three-lines", "--u1", "1,0,0", "--u2", "0,1,0", "--u3", "0,2,0"], "pairwise non-collinear"),
        (["three-lines", "--u1", "1,0,0", "--u2", "0,1,0", "--u3", "x"], "comma-separated numbers"),
        (["three-lines", "--u1", "1,0", "--u2", "0,1,0", "--u3", "0,0,1"], "finite 3-vector"),
        (["chogosov", "quantile", "--eps", "0.5", "--p", "2"], "p must lie in (0, 1)"),
        (["chogosov", "cdf", "--eps", "0.5", "--p", "nan"], "p, q must lie in (0, 1)"),
        (["chogosov", "lambda-check", "--eps", "0.5", "--p", "0"], "--p must lie in (0, 1)"),
        (["chogosov", "lstar", "--eps", "0.5", "--p", "-1"], "p must be finite and > 0"),
        (["chogosov", "sample", "--eps", "0.5", "--n", "0"], "--n must be >= 1"),
        (["chogosov", "opnorm", "--eps", "0.5", "--m", "3"], "--m must be >= 256"),
        (["maxcorr", "--system", "{system}", "--x", "X0", "--y", "Q"], "unknown variable 'Q'"),
        (["maxcorr", "--system", "{system}", "--x", "X0", "--y", "X0"], "blocks overlap"),
        (["subjective", "--system", "{system}", "--i", "X0", "--j", "X0"], "i and j must differ"),
        (["subjective", "--system", "{system}", "--i", "X0", "--j", "Z"], "unknown variable 'Z'"),
        (["event-bound", "nu", "--eps", "0.9", "--x", "0.5", "--m", "64"], "factor >= 1"),
        (["event-bound", "nu"], "--eps is required"),
        (["ising", "--L", "4", "--T", "nan"], "temperature must be finite and > 0"),
        (["glauber-gap", "exact", "--system", "{size_two}"], "'size' must be an integer, got 'two'"),
        (["glauber-gap", "exact", "--system", "{short_flat}"], "'joint_flat' must list as many numbers"),
        (["tensor-bound", "zn", "--kernel", "{bad_key}"], "offset key '(a)' must be an integer"),
        (["conv-inverse", "--kernel", "{bad_key}"], "offset key '(a)' must be an integer"),
        (["conv-inverse", "--kernel", "{far_key}"], "offset key '(-3)' must have 1 coordinates within [-1, 1]"),
        (["tensor-bound", "zn", "--kernel", "{n_word}"], "'n' must be an integer, got 'one'"),
        (["quadratic", "--gamma", "{R_half}"], "'R' must be an integer, got 1.5"),
        (["tensor-bound", "zn", "--kernel", "{tail_word}"], "'tail' must hold a JSON object"),
        (["maxcorr", "--pair", "{labels_int}"], "'labels_x' must hold a JSON array"),
        (["tensor-bound", "distance", "--kernel", "{kernel}", "--d", "nan"], "d must be finite and >= 0"),
        (["clt", "--ells", "0"], "--ells must be integers >= 1"),
        (["clt", "--replicas", "0"], "--replicas must be >= 2"),
        (["clt", "--model", "ising", "--T", "nan"], "temperature must be finite and > 0"),
        (["clt", "--ells", "a"], "comma-separated integers"),
        (["quadratic", "--gamma", "{kernel}", "--beta", "nan"], "beta must be finite and > 0"),
        (["chogosov", "opnorm", "--eps", "0.5", "--m", "100000000"], "--m must be >= 256 and <= cap 4194304"),
        (["chogosov", "sample", "--eps", "0.5", "--n", "1000000000000"],
         "--n must be >= 1 and <= cap 4194304, got 1000000000000"),
        (["ising", "--n", "2", "--L", "5", "--T", "2"], "ising_exact: more than 16 sites"),
        (["glauber-gap", "exact", "--system", "{big_system}"], "exact_gap: state count above cap 4096"),
        (["event-bound", "extremes", "--pair", "{wide_pair}"], "alphabet of 21 states above cap 20"),
        (["mixing", "--pair", "{wide_pair}"], "alphabet of 21 states above cap 20"),
        (["conv-inverse", "--kernel", "{heavy_kernel}"], "||a||_1 = 1.2 must be < 1"),
        (["event-bound", "nu", "--eps", "0.5", "--m", "100000000000"], "grid resolution above cap 768"),
        (["ou-chain", "--K", "100000000000"], "K above cap 512"),
        (["clt", "--model", "independent", "--ells", "10000000000000", "--replicas", "10"],
         "10 replicas x 10000000000000 sampled sites above cap 16777216"),
        (["glauber-sim", "--system", "{system}", "--horizon", "1e15"], "expected events above cap 4194304"),
        (["glauber-sim", "--system", "{system}", "--horizon", "1e300"], "expected events above cap 4194304"),
        (["ising", "--method", "mcmc", "--n", "3", "--L", "100000", "--T", "2"], "more than 65536 sites"),
        (["clt", "--T", "1e-3", "--replicas", "100"], "needs tanh(1/T) < 1, but it rounds to 1 at T = 0.001"),
        (["tensor-bound", "zn", "--kernel", "{nan_C}"], "TailModel: C must be a nonnegative number, got nan"),
        (["tensor-bound", "zn", "--kernel", "{nan_psi}"], "TailModel: psi must be a nonnegative number, got nan"),
        (["tensor-bound", "zn", "--kernel", "{norm_list}"], "LatticeKernel: unknown norm [1]"),
        (["tensor-bound", "zn", "--kernel", "{tiny_psi}"], "exponential tail needs exp(-psi) < 1, got psi = 1e-300"),
        (["tensor-bound", "distance", "--kernel", "{tiny_psi}"], "exp(-psi) < 1, got psi = 1e-300"),
        (["tensor-bound", "zn", "--kernel", "{n_30}"], "need 'n' < 17 and a window of (2R+1)^n <= cap 65536 values"),
        (["conv-inverse", "--kernel", "{n_30}"], "need 'n' < 17 and a window of (2R+1)^n <= cap 65536 values"),
        (["conv-inverse", "--kernel", "{nn2d_090}"],
         "285 Neumann terms need a window of radius 512 (n = 2) of more than the cap 1048576 points"),
        (["conv-inverse", "--kernel", "{nn2d_095}"], "598 Neumann terms need a window of radius 1024 (n = 2)"),
        (["conv-inverse", "--kernel", "{nn2d_0999}"], "34522 Neumann terms need a window of radius 65536 (n = 2)"),
        (["quadratic", "--gamma", "{gamma_1000}"],
         "70483 Neumann terms need a window of radius 131072 (n = 2) of more than the cap 1048576 points"),
        (["clt", "--model", "quadratic", "--gamma", "{gamma_1000}"], "70483 Neumann terms"),
        (["tensor-bound", "sublattice", "--kernel", "{heavy_4d}"],
         "sublattice_k: spacing 33 has 33^4 congruence classes, above cap 1048576"),
        (["glauber-gap", "sublattice", "--kernel", "{heavy_4d}"], "spacing 33 has 33^4 congruence classes"),
        (["glauber-gap", "sublattice", "--kernel", "{wide_2d}"],
         "sublattice_gap: spacing 33 gives a block system of 1089 classes, above cap 1024"),
        (["event-bound", "nu", "--eps", "0.5", "--x", "0.65"], "x must lie in (0, eps] = (0, 0.5]"),
        (["event-bound", "nu", "--eps", "1e-308", "--x", "0.75", "--m", "16"], "x must lie in (0, eps]"),
    ])
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_bad_input_is_exit_2_with_and_without_dry_run(self, argv, message, dry_run, input_files, capsys):
        code, captured = _main(argv + ["--dry-run"] * dry_run, input_files, capsys)
        assert code == 2
        assert captured.err.startswith("invariant violated: ") and message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, want", [
        # p * q overflowed in chogosov_cdf before chogosov_zone checked the range
        (["chogosov", "cdf", "--eps", "0.5", "--p", "1e200"], 2),
        (["chogosov", "cdf", "--eps", "0.5", "--q", "-1e200"], 2),
        # the norm overflowed and the lines read as collinear; now it is the answer of 1,1,0
        (["three-lines", "--u1", "1e300,1e300,0", "--u2", "0,1,0", "--u3", "0,0,1"],
         ["three-lines", "--u1", "1,1,0", "--u2", "0,1,0", "--u3", "0,0,1"]),
    ])
    def test_extreme_flag_values_raise_no_warning(self, argv, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _exit_and_stdout(argv)
            assert got == (_exit_and_stdout(want) if isinstance(want, list) else (want, ""))

    @pytest.mark.parametrize("argv", [
        ["tensor-bound", "zn", "--kernel", "{inf_C}"],
        ["tensor-bound", "distance", "--kernel", "{inf_C}", "--d", "1"],
    ])
    def test_infinite_exponential_tail_gives_the_trivial_bound(self, argv, input_files, capsys):
        # C = inf with psi = 1000: inf * exp(-1000 d) would be nan once exp(-1000 d) underflows
        code, captured = _main(argv, input_files, capsys)
        assert code == 0 and json.loads(captured.out)["value"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["maxcorr", "--pair", "{pair}"],
        ["subjective", "--system", "{system}", "--i", "X0", "--j", "X1"],
        ["mixing", "--pair", "{pair}"],
        ["tensor-bound", "nm", "--matrix", "{matrix}"],
        ["event-bound", "extremes", "--pair", "{pair}"],
        ["chogosov", "opnorm", "--eps", "0.5", "--m", "4096"],
        ["glauber-gap", "exact", "--system", "{system}"],
        ["glauber-sim", "--system", "{system}", "--horizon", "1e6"],
        ["ising", "--L", "4", "--T", "2.0"],
        ["quadratic", "--gamma", "{kernel}"],
        ["conv-inverse", "--kernel", "{kernel}"],
        ["clt", "--ells", "8,16", "--replicas", "100000"],
        ["ou-chain", "--t", "1.0", "--K", "16"],
        ["three-lines", "--u1", "1,0,0", "--u2", "0,1,0", "--u3", "0,0,1"],
        ["verify-all"],
    ])
    def test_dry_run_prints_only_valid(self, argv, input_files, capsys):
        code, captured = _main(argv + ["--dry-run"], input_files, capsys)
        assert code == 0
        assert captured.out == '{\n  "valid": true\n}\n'
        assert captured.err == ""

    def test_unknown_command_lists_the_table_in_order(self, capsys):
        assert cli.main(["frobnicate"]) == 64
        assert ("expected one of: maxcorr, subjective, mixing, tensor-bound, event-bound, chogosov, "
                "glauber-gap, glauber-sim, ising, quadratic, conv-inverse, clt, ou-chain, three-lines, "
                "verify-all\n") in capsys.readouterr().err


# SHA-256 of the seeded output bytes, (json, csv), as written when the CSV text was built on every call
CSV_COMMANDS = {
    "glauber-sim": (["glauber-sim", "--system", "{system}", "--horizon", "5", "--seed", "3"],
                    "3e582fdc0fd78021ccb229d2820c91160339d8c72be891bd86de58f19faea04f",
                    "fccabb39d07ef1ed22ba203923306d6dceaf2bc10ca3c0030b81792d0b49d4b4"),
    "chogosov sample": (["chogosov", "sample", "--eps", "0.5", "--n", "200", "--seed", "7"],
                        "9a674e35b54c40e1f10e9a321a076b0dd5c65caa446488c177a0d1b321d287fc",
                        "2d608adf07f57686431cce78935de6db9633361a39dff211629c70838c1a3602"),
    # written again when the cf was summed over distinct values: cf_distances moved by 2e-16 relative
    "clt": (["clt", "--model", "independent", "--ells", "4,8", "--replicas", "50", "--seed", "2"],
            "e8d5ce596af3081d49e463dd52cdb2306082c507b38070cdc8de619892eed9f7",
            "d8ef219f11ec1778c385329f7684e187a0be228df8c3debd7dadb7dd4da49496"),
}


class TestCsvOnDemand:
    @pytest.mark.parametrize("command", list(CSV_COMMANDS))
    @pytest.mark.parametrize("fmt, builds", [("json", 0), ("csv", 1)])
    def test_csv_text_is_built_only_for_csv(self, command, fmt, builds, input_files, capsys, monkeypatch):
        argv, *digests = CSV_COMMANDS[command]
        csv_lines, calls = cli.rio.csv_lines, []

        def counted(*args):
            calls.append(args[0])
            return csv_lines(*args)

        monkeypatch.setattr(cli.rio, "csv_lines", counted)
        code, captured = _main(argv + ["--format", fmt], input_files, capsys)
        assert code == 0 and len(calls) == builds
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digests[builds], captured.out[:200]


# 343 classes of one window value each: every off-diagonal entry of the block system is 0.9,
# so prod_j (1 - 0.81) underflows and the triangular-inverse matrix M overflows
OVERFLOW_KERNEL = {"n": 3, "R": 3, "values": {str(z).replace(" ", ""): 0.9
                                              for z in itertools.product(range(-3, 4), repeat=3) if any(z)}}


class TestGapOverflow:
    def test_sublattice_gives_zero(self, tmp_path, capsys):
        kernel = write_json(tmp_path, "kernel.json", OVERFLOW_KERNEL)
        assert cli.main(["glauber-gap", "sublattice", "--kernel", kernel]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["value"], out["ell"], out["zeta"]) == (0.0, 7, 0.0)

    def test_bounds_give_zero(self, tmp_path, capsys):
        eps = np.full((343, 343), 0.9)  # the block system of OVERFLOW_KERNEL
        np.fill_diagonal(eps, 0.0)
        matrix = write_json(tmp_path, "matrix.json", {"entries": eps.tolist()})
        assert cli.main(["glauber-gap", "bounds", "--matrix", matrix]) == 0
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert (out["bound_M"], out["bound_simple"], out["mprime_defined"]) == (0.0, 0.0, False)
        assert captured.err == ""

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_failed_svd_is_exit_2(self, dry_run, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(glauber.np.linalg, "svd", no_convergence)
        matrix = write_json(tmp_path, "matrix.json", {"entries": [[0.0, 0.5], [0.5, 0.0]]})
        assert cli.main(["glauber-gap", "bounds", "--matrix", matrix] + ["--dry-run"] * dry_run) == 2
        captured = capsys.readouterr()
        assert captured.err == "numerical routine failed: gap_lower_bounds: SVD of M did not converge " \
                               "(SVD did not converge)\n"
        assert captured.out == ""


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh_interpreter(code: str, cwd, *argv: str) -> str:
    """stdout of ``python -c code argv...`` run in ``cwd``, with this rhomix first on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, timeout=120,
                          cwd=cwd, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


RHOMIX_MODULES = "sorted(m[len('rhomix.'):] for m in sys.modules if m.startswith('rhomix.'))"
BASE_MODULES = {"cli", "errors", "io"}  # what main needs before it dispatches
# the rhomix modules a call of each command loads besides BASE_MODULES, valid input or not
COMMAND_MODULES = {
    "maxcorr": {"discrete"},
    "subjective": {"discrete"},
    "mixing": {"discrete"},
    "tensor-bound": {"tensor_bounds"},
    "event-bound": {"discrete"},  # extremes and density; lambda loads events, nu both
    "chogosov": {"events"},
    "glauber-gap": {"discrete", "glauber"},  # exact; sublattice loads tensor_bounds as well
    "glauber-sim": {"discrete", "glauber"},
    "ising": {"discrete", "lattice", "tensor_bounds"},
    "quadratic": {"convdecay", "lattice", "tensor_bounds"},
    "conv-inverse": {"convdecay"},
    "clt": {"lattice"},  # --model ising; --model quadratic loads convdecay and tensor_bounds as well
    "ou-chain": {"gaussian"},
    "three-lines": {"gaussian"},
    "verify-all": {"acceptance", "gaussian", "tensor_bounds"},  # --only 01; each check loads its own
}


class TestImportPath:
    """Each command loads the rhomix modules it runs and no SciPy module unless it calls a
    SciPy routine; each probe is a fresh interpreter."""

    def test_import_loads_no_submodule_and_the_cli_only_what_main_needs(self, tmp_path):
        code = f"import sys; import rhomix; print({RHOMIX_MODULES}); import rhomix.cli; print({RHOMIX_MODULES})"
        package, cli_loaded = _fresh_interpreter(code, tmp_path).splitlines()
        assert package == "[]"
        assert cli_loaded == str(sorted(BASE_MODULES))

    def test_each_call_loads_the_modules_of_its_command(self, tmp_path, monkeypatch):
        # every call of the benchmark's full table, dry runs and invalid inputs included
        monkeypatch.syspath_prepend(PERFBENCH)
        import clicalls

        assert set(COMMAND_MODULES) == set(cli.HANDLERS)
        calls = clicalls.write_inputs(np.random.default_rng(1), str(tmp_path), full=True)
        probe = f"""
import contextlib, io, json, sys
from rhomix import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, {RHOMIX_MODULES}]))
"""
        assert {c.argv[0] for c in calls} == set(COMMAND_MODULES) and len(calls) == 20
        for call in calls:
            code, loaded = json.loads(_fresh_interpreter(probe, tmp_path, *call.argv))
            assert code == call.expect, call.argv
            assert set(loaded) == BASE_MODULES | COMMAND_MODULES[call.argv[0]], call.argv

    def test_package_names_resolve_in_their_modules(self):
        import importlib

        import rhomix

        assert len(rhomix.__all__) == len(set(rhomix.__all__)) == 55
        assert set(rhomix.__all__) <= set(dir(rhomix))
        for name in rhomix.__all__:
            home = importlib.import_module(f"rhomix.{rhomix._MODULE_OF[name]}")
            assert getattr(rhomix, name) is getattr(home, name), name
            assert name not in vars(rhomix), name  # resolved on each access, never stored
        with pytest.raises(AttributeError, match="no attribute 'maxcorr'"):
            rhomix.maxcorr
        assert not hasattr(rhomix, "_check_event_scan")

    def test_import_loads_no_scipy(self, tmp_path):
        out = _fresh_interpreter(f"import sys, rhomix, rhomix.cli; print({SCIPY_MODULES})", tmp_path)
        assert out == "[]\n"

    def test_calls_load_no_scipy(self, tmp_path):
        # every call of the benchmark's full table, a clt that reaches conv_inverse, and an exact
        # gap on the largest system that exact_gap solves densely
        assert glauber.DENSE_GAP_STATES == 2**7
        code = f"""
import contextlib, io, json, sys
import numpy as np
sys.path.insert(0, {PERFBENCH!r})
import clicalls
from rhomix import cli
calls = clicalls.write_inputs(np.random.default_rng(1), ".", full=True)
with open("spins7.json", "w") as fh:
    json.dump({{"variables": [{{"name": f"s{{k}}", "size": 2}} for k in range(7)],
               "joint_flat": np.random.default_rng(2).dirichlet(np.ones(2**7)).tolist()}}, fh)
cases = [(c.argv, c.expect) for c in calls]
cases += [(["clt", "--model", "quadratic", "--gamma", "gamma.json", "--ells", "4,8", "--replicas", "200"], 0)]
cases += [(["glauber-gap", "exact", "--system", "spins7.json"], 0)]
loaded = []
for argv, expect in cases:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded.append((argv, code, expect, {SCIPY_MODULES}))
print(json.dumps(loaded))
"""
        loaded = json.loads(_fresh_interpreter(code, tmp_path))
        assert len(loaded) == 22
        for argv, code, expect, scipy_modules in loaded:
            assert code == expect, argv
            assert scipy_modules == [], argv


class TestConvInverse:
    @pytest.mark.parametrize("values", [{"(1)": 0.025, "(-1)": 0.025}, {"(1)": 0.05}])
    def test_kernel_too_short_to_fit_exits_0(self, values, tmp_path):
        # the inverse falls below the rounding floor within a few shells: no decay fit, no error
        kern = write_json(tmp_path, "k.json", {"n": 1, "R": 1, "values": values})
        code, out = _exit_and_stdout(["conv-inverse", "--kernel", kern])
        assert code == 0
        result = json.loads(out, parse_constant=_reject_constant)
        assert result["R"] == 16 and "decay" not in result

    def test_nearest_neighbour_rate(self, tmp_path):
        kern = write_json(tmp_path, "k.json", {"n": 1, "R": 1, "values": {"(1)": 0.3, "(-1)": 0.3}})
        code, out = _exit_and_stdout(["conv-inverse", "--kernel", kern])
        decay = json.loads(out)["decay"]
        assert code == 0 and decay["classification"] == "exponential"
        assert decay["rate"] == pytest.approx(math.log(3.0), abs=1e-3)  # arccosh(1 / 0.6)

    def test_quadratic_computes_the_convolution_inverse_once(self, tmp_path, monkeypatch):
        calls = []
        inverse = convdecay.conv_inverse
        monkeypatch.setattr(convdecay, "conv_inverse", lambda kernel: calls.append(kernel) or inverse(kernel))
        gam = write_json(tmp_path, "g.json", {"n": 1, "R": 1, "values": {"(1)": 0.2, "(-1)": 0.2}})
        assert _exit_and_stdout(["quadratic", "--gamma", gam])[0] == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("dry_run", [False, True])
    @pytest.mark.parametrize("argv", [["conv-inverse", "--kernel"], ["quadratic", "--gamma"],
                                      ["clt", "--model", "quadratic", "--ells", "4", "--replicas", "10", "--gamma"]])
    def test_window_at_the_cap_passes_and_one_above_refuses(self, argv, dry_run, tmp_path, monkeypatch):
        # {+-1: 0.2} has 31 terms and, scaled by the quadratic model to 0.4 / 1.4, 23: radius 32 both
        kern = write_json(tmp_path, "k.json", {"n": 1, "R": 1, "values": {"(1)": 0.2, "(-1)": 0.2}})
        monkeypatch.setattr(convdecay, "CONV_WINDOW_CAP", 65)
        assert _exit_and_stdout(argv + [kern] + ["--dry-run"] * dry_run)[0] == 0
        monkeypatch.setattr(convdecay, "CONV_WINDOW_CAP", 64)
        assert _exit_and_stdout(argv + [kern] + ["--dry-run"] * dry_run) == (2, "")

    @pytest.mark.parametrize("n, values, code", [
        (2, dict.fromkeys(("(1,0)", "(-1,0)", "(0,1)", "(0,-1)"), 0.8899 / 4), 0),  # 256 terms, 513^2 points
        (2, dict.fromkeys(("(1,0)", "(-1,0)", "(0,1)", "(0,-1)"), 0.89 / 4), 2),    # 257 terms, 1025^2 points
        (16, {"(" + ",".join("0" * 16) + ")": 1e-13}, 2),  # R = 0 doubles to radius 1: 3^16 points
    ])
    def test_default_window_cap_in_a_dry_run(self, n, values, code, tmp_path):
        kern = write_json(tmp_path, "k.json", {"n": n, "R": 1 if n == 2 else 0, "values": values})
        assert _exit_and_stdout(["conv-inverse", "--kernel", kern, "--dry-run"])[0] == code


def _exit_and_stdout(argv):
    """(exit code, stdout) of one in-process call; argparse's exit on a bad flag value counts."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _reject_constant(name):
    raise ValueError(f"output holds {name}")


# what an exit-0 payload must satisfy beyond strict JSON, by (command, kind), given the parsed flags
PAYLOAD_RULES = {
    ("event-bound", "nu"): lambda r, args: (0 <= r["worst_ratio"] <= 1 and r["worst_ratio"] <= r["factor"] + 2 / args.m
                                            and abs(r["witness_correlation"]) <= 1),
    ("event-bound", "extremes"): lambda r, args: 0 <= r["max_ratio"] <= 1,
}


def _check_outcome(argv):
    code, out = _exit_and_stdout(argv)
    command = next((a for a in argv if not a.startswith("-")), None)  # as cli.main finds it
    assert code in ((0, 2) if command in cli.HANDLERS else (64,)), (argv, code)
    if code == 0:
        payload = json.loads(out, parse_constant=_reject_constant)  # strict JSON: no NaN or Infinity
        args = cli.build_parser().parse_args(argv)
        rule = PAYLOAD_RULES.get((args.command, getattr(args, "kind", None)))
        assert rule is None or rule(payload, args), (argv, payload)


# a number flag as typed: the edge values, any float, a float in [0, 1], or junk text
NUMBER = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "-1e308", "1e-308", "5e-324"]),
    st.floats().map(repr),
    st.floats(0, 1).map(repr),
    st.text(max_size=6),
)
# an integer flag: small values, values past every cap, or any number flag; valid sizes stay
# small so that a call costs milliseconds, and the caps are tested by the large values
INTEGER = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from([str(2**31), str(2**63), str(-(2**63)), str(10**400)]),
    NUMBER,
)


def _numbers(element, min_size=0, max_size=4):
    return st.lists(element, min_size=min_size, max_size=max_size).map(",".join)


# a 3-vector flag: three numbers, or a list of any length
VECTOR = _numbers(NUMBER, 3, 3) | _numbers(NUMBER)
# a valid value of each number flag, and what may replace it
NUMBER_FLAGS = {
    ("tensor-bound", "simple"): {"eps": ("0.5,0.3", _numbers(NUMBER))},
    ("event-bound", "lambda"): {"eps": ("0.5", NUMBER)},
    ("event-bound", "nu"): {"eps": ("0.5", NUMBER), "x": ("0.02", NUMBER), "m": ("16", INTEGER)},
    ("chogosov", "quantile"): {"eps": ("0.5", NUMBER), "p": ("0.3", NUMBER), "omega": ("0.6", NUMBER)},
    ("chogosov", "cdf"): {"eps": ("0.5", NUMBER), "p": ("0.3", NUMBER), "q": ("0.6", NUMBER)},
    ("three-lines",): {"u1": ("1,0,0", VECTOR), "u2": ("0,1,0", VECTOR), "u3": ("1,1,1", VECTOR)},
    ("ou-chain",): {"t": ("1.0", NUMBER), "K": ("8", INTEGER)},
    ("ising",): {"L": ("4", INTEGER), "T": ("2.0", NUMBER), "n": ("1", INTEGER)},
    ("clt",): {"T": ("3.0", NUMBER), "L": ("8", INTEGER), "ells": ("4,8", _numbers(INTEGER)),
               "replicas": ("200", INTEGER)},
}


@st.composite
def number_argv(draw):
    """A command of NUMBER_FLAGS with each flag's valid value, or, for each with even odds, a fuzzed one."""
    command = draw(st.sampled_from(sorted(NUMBER_FLAGS)))
    argv = list(command)
    for flag, (valid, fuzzed) in NUMBER_FLAGS[command].items():
        argv.append(f"--{flag}={draw(fuzzed) if draw(st.booleans()) else valid}")
    return argv


VALID_FILES = {
    "pair": {"labels_x": [0, 1], "labels_y": [0, 1, 2], "joint": [[0.2, 0.1, 0.1], [0.1, 0.3, 0.2]]},
    "system": {"variables": [{"name": f"X{k}", "size": 2} for k in range(3)],
               "joint_flat": [0.05, 0.1, 0.15, 0.2, 0.2, 0.15, 0.1, 0.05]},
    "kernel": {"n": 1, "R": 2, "values": {"(1)": 0.2, "(-1)": 0.2, "(2)": 0.05},
               "tail": {"type": "exponential", "C": 0.01, "psi": 1.0}},
}
FILE_COMMANDS = {
    "pair": [["maxcorr", "--witness", "--pair"], ["mixing", "--pair"], ["event-bound", "extremes", "--pair"],
             ["event-bound", "density", "--pair"]],
    "system": [["subjective", "--i", "X0", "--j", "X1", "--system"], ["glauber-gap", "exact", "--system"],
               ["glauber-sim", "--horizon", "20", "--system"], ["maxcorr", "--x", "X0", "--y", "X2", "--system"]],
    "kernel": [["tensor-bound", "zn", "--kernel"], ["tensor-bound", "distance", "--d", "2", "--kernel"],
               ["tensor-bound", "sublattice", "--kernel"], ["glauber-gap", "sublattice", "--kernel"],
               ["conv-inverse", "--kernel"], ["quadratic", "--gamma"]],
}
JSON_VALUE = st.one_of(
    st.sampled_from(["nan", "inf", "-1", "", "0", "(1)", "X0"]),
    st.floats(), st.integers(-10, 10**20), st.none(), st.booleans(), st.just([]), st.just({}),
)


def _paths(doc, prefix=()):
    """The key path of every value below ``doc``, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def broken_file(draw, doc):
    """The text of ``doc`` after 0-3 edits (drop, replace or wrap a value), maybe truncated."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parents:
            parent = parent[k]
        edit = draw(st.sampled_from(["drop", "replace", "wrap"]))
        if edit == "drop":
            del parent[key]
        elif edit == "replace":
            parent[key] = draw(JSON_VALUE)
        else:
            parent[key] = [parent[key]]
    text = json.dumps(doc)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@st.composite
def file_argv(draw):
    kind = draw(st.sampled_from(sorted(FILE_COMMANDS)))
    return kind, draw(st.sampled_from(FILE_COMMANDS[kind])), draw(broken_file(VALID_FILES[kind]))


class TestFuzz:
    """Any flag value or input file gives exit 0 with strict JSON, exit 2, or 64 for an unknown command."""

    @settings(max_examples=250, deadline=None)
    @given(argv=st.one_of(number_argv(), st.lists(st.text(max_size=8), max_size=3)))
    # once uncaught: eps^2 and q (1 - p) underflowing in chogosov_zone, and a horizon whose
    # noise covariance is singular or whose joint precision overflows
    @example(argv=["chogosov", "cdf", "--eps=1e-308", "--p=0.5", "--q=1e-308"])
    @example(argv=["chogosov", "cdf", "--eps=0.5", "--p=0.9999999999999999", "--q=5e-324"])
    @example(argv=["ou-chain", "--t=1e-110", "--K=8"])
    @example(argv=["ou-chain", "--t=1e-103", "--K=8"])
    # once accepted with x > eps: factor overflowed to -inf, and the payload was not strict JSON
    @example(argv=["event-bound", "nu", "--eps=1e-308", "--x=0.75", "--m=16"])
    # an exit-0 nu payload with witness correlation 0.54, for PAYLOAD_RULES
    @example(argv=["event-bound", "nu", "--eps=0.7", "--x=0.05", "--m=16"])
    def test_number_flags(self, argv):
        _check_outcome(argv)

    @settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=file_argv())
    def test_input_files(self, case, tmp_path):
        kind, argv, text = case
        path = tmp_path / f"{kind}.json"
        path.write_text(text)
        _check_outcome([*argv, str(path)])
