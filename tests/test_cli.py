"""Command-line contract: exit codes, reports, CSV output, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

import kcontact
from kcontact import cli
from kcontact import corpus


def run(argv):
    return cli.main(argv)


def test_list_and_filter(capsys):
    assert run(["list"]) == 0
    out = capsys.readouterr().out
    assert "telegrapher" in out and "membrane" in out
    assert run(["list", "--example", "hunter-saxton"]) == 0
    out = capsys.readouterr().out
    for key in ("linear", "quadratic", "logarithmic"):
        assert key in out


def test_list_unknown_example_exits_2(capsys):
    assert run(["check-hj", "--example", "does-not-exist",
                "--section", "x", "--mode", "standard"]) == 2
    err = capsys.readouterr().err
    assert "telegrapher" in err  # message names the valid keys


def test_check_hj_pass_fail_exit_codes(capsys, tmp_path):
    code = run(["check-hj", "--example", "telegrapher", "--section", "classical-zind",
                "--mode", "standard", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "hj_report.json").read_text())
    assert report["verdict"] == "PASS"
    assert report["sup_residual"] <= 1e-10
    assert report["seed"] == 0

    code = run(["check-hj", "--example", "telegrapher",
                "--section", "classical-zind-wrong-root", "--mode", "standard"])
    assert code == 1
    out = capsys.readouterr().out
    assert '"verdict": "FAIL"' in out


def test_check_hj_set_overrides(capsys):
    # override the slope to the non-root through --set: the sweep must fail
    code = run(["check-hj", "--example", "telegrapher", "--section", "classical-zind",
                "--mode", "standard", "--set", "a=0.6666666666666666"])
    assert code == 1
    # unknown parameter names are a configuration error
    code = run(["check-hj", "--example", "telegrapher", "--section", "classical-zind",
                "--mode", "standard", "--set", "zeta=1"])
    assert code == 2


@pytest.mark.parametrize("command, run_kind, known", [
    ("check-hj", ["--section", "classical-zind"], ["'C0'", "'kappa'"]),
    ("simulate", ["--section", "classical-zind"], ["'C0'", "'kappa'"]),
    ("check-hj", ["--family", "complete"], ["'epsilon'", "'kappa'", "'lambda'"]),
], ids=["check-hj", "simulate", "check-hj-family"])
def test_section_unknown_parameter_names_the_known_ones(command, run_kind, known, capsys, tmp_path):
    code = run([command, "--example", "telegrapher", *run_kind,
                "--mode", "standard", "--set", "zeta=1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "'zeta'" in err and all(name in err for name in known)
    assert not any(tmp_path.iterdir())


def test_cli_corpus_reports_match_recorded_digests(tmp_path, monkeypatch):
    """Every shipped case passes and writes the report bytes recorded for CLI seed 0."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    import workloads

    plan = workloads.cli_corpus(0, outdir=tmp_path)
    for job in plan.jobs:
        assert job.check(job.run()) is None, job.label
    assert plan.reports == json.loads((bench / "cli_digests.json").read_text())["0"]


def test_simulate_solution_unknown_parameter_exit_2(capsys, tmp_path):
    code = run(["simulate", "--example", "telegrapher", "--solution", "exponential",
                "--set", "zeta=1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    # the known names are the solution's parameters plus the example's
    assert "'zeta'" in err and "'u0'" in err and "'kappa'" in err
    assert not (tmp_path / "summary.json").exists()


def test_check_hj_contract_exit_3(capsys):
    code = run(["check-hj", "--example", "telegrapher",
                "--section", "zdep-family-broken-trace", "--mode", "evolution"])
    assert code == 3


def test_check_hj_family_table(capsys, tmp_path):
    code = run(["check-hj", "--example", "hunter-saxton", "--family", "complete",
                "--mode", "evolution", "--param-grid", "3", "--samples", "40",
                "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "hj_report.json").read_text())
    assert report["verdict"] == "PASS"
    assert len(report["per_parameter"]) == 9
    assert report["sup_roundtrip"] <= 1e-12


def test_gauge_command(capsys):
    assert run(["gauge", "--n", "1", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "analytic 6, numeric 6, PASS" in out
    assert run(["gauge", "--n", "1", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "analytic 0, numeric 0, PASS" in out
    assert run(["gauge", "--n", "3", "--k", "2"]) == 0
    assert "analytic 12, numeric 12, PASS" in capsys.readouterr().out


def test_gauge_command_fails_at_the_first_mismatch(capsys):
    counts = iter([6, 5, 6, 4])  # the analytic count for n = 1, k = 2 is 6
    with mock.patch("kcontact.geometry.kernel_deficiency", lambda chart, pt: next(counts)):
        assert run(["gauge", "--n", "1", "--k", "2", "--points", "4"]) == 1
    assert "analytic 6, numeric 5, FAIL" in capsys.readouterr().out
    assert next(counts) == 6  # no point after the first mismatch was checked


def test_simulate_solution_csv_and_determinism(tmp_path, capsys):
    args = ["simulate", "--example", "hunter-saxton", "--solution", "quadratic",
            "--mode", "evolution", "--out", str(tmp_path)]
    assert run(args) == 0
    csv1 = (tmp_path / "psi.csv").read_bytes()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    assert summary["max_r_q"] <= 1e-12
    header = csv1.split(b"\r\n")[0].decode()
    assert header == "t1,t2,q1,p1_1,p2_1,z1,z2,r_q,r_p,r_z"
    assert run(args) == 0
    assert (tmp_path / "psi.csv").read_bytes() == csv1  # byte-deterministic


def test_check_hj_report_byte_deterministic(tmp_path):
    args = ["check-hj", "--example", "hunter-saxton", "--section", "zdep-family",
            "--mode", "evolution", "--seed", "5", "--out", str(tmp_path)]
    assert run(args) == 0
    first = (tmp_path / "hj_report.json").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "hj_report.json").read_bytes() == first


def test_simulate_pipeline_with_reference(tmp_path, capsys):
    code = run(["simulate", "--example", "telegrapher", "--section", "classical-zind",
                "--mode", "standard", "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["verdict"] == "PASS"
    assert summary["compare_error"] <= 1e-8
    assert summary["max_r_q"] <= 1e-6


def test_simulate_integrability_exit_5(tmp_path, capsys):
    code = run(["simulate", "--example", "hunter-saxton", "--section", "noncommuting-zind",
                "--mode", "evolution", "--out", str(tmp_path / "out")])
    assert code == 5
    assert not (tmp_path / "out").exists()


def test_simulate_divergence_exit_4(tmp_path):
    # blow the flow up by integrating the exponential family over a huge window
    code = run(["simulate", "--example", "telegrapher", "--section", "classical-zind",
                "--mode", "standard", "--origin", "0,0", "--spacing", "9.0,9.0",
                "--counts", "40,40", "--start", "1.0", "--out", str(tmp_path)])
    assert code == 4


def test_simulate_zero_kappa_exit_3(tmp_path, capsys):
    # 1/kappa in the slope quadratic: a contract violation naming the relation, not a crash
    code = run(["simulate", "--example", "telegrapher", "--solution", "exponential",
                "--set", "kappa=0", "--out", str(tmp_path)])
    assert code == 3
    assert "kappa != 0" in capsys.readouterr().err


def test_simulate_grid_with_too_few_nodes_exit_3(tmp_path, capsys):
    code = run(["simulate", "--example", "telegrapher", "--section", "classical-zind",
                "--mode", "standard", "--counts", "2,50", "--out", str(tmp_path)])
    assert code == 3
    assert "grids need at least 3 nodes per direction" in capsys.readouterr().err


def test_config_file_plan(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[run]\n"
        "example = telegrapher\n"
        "section = classical-zind\n"
        "mode = standard\n"
        "seed = 7\n"
        "[check]\n"
        "tolerance = 1e-9\n"
        "samples = 100\n"
        "[output]\n"
        f"dir = {tmp_path}/out\n"
    )
    assert run(["check-hj", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "hj_report.json").read_text())
    assert report["seed"] == 7
    assert report["samples"] == 100
    assert report["tolerance"] == 1e-9


def test_config_missing_file_exit_2(capsys):
    assert run(["check-hj", "--config", "/nonexistent.ini"]) == 2


_TEL_FAMILY = ["check-hj", "--example", "telegrapher", "--family", "complete"]
_TEL_CHECK = ["check-hj", "--example", "telegrapher", "--section", "classical-zind"]
_TEL_SIM = ["simulate", "--example", "telegrapher", "--section", "classical-zind"]
_TEL_SOLUTION = ["simulate", "--example", "telegrapher", "--solution", "exponential"]


@pytest.mark.parametrize("argv, config, message", [
    # no work to check
    (_TEL_FAMILY + ["--param-grid", "0"], None, "--param-grid must be a finite number >= 1, got 0"),
    (_TEL_FAMILY + ["--samples", "0"], None, "samples must be a finite number >= 1, got 0"),
    (_TEL_CHECK + ["--samples", "-3"], None, "samples must be a finite number >= 1, got -3"),
    (_TEL_CHECK, "[check]\nsamples = 0\n", "samples must be a finite number >= 1, got '0'"),
    (["gauge", "--n", "1", "--k", "2", "--points", "0"], None, "--points must be a finite number >= 1"),
    # text where a number belongs
    (_TEL_SIM + ["--counts", "abc"], None, "counts expects an integer, got 'abc'"),
    (_TEL_SIM + ["--counts", "3.7,3"], None, "counts expects an integer, got '3.7'"),
    (_TEL_SIM + ["--origin", "abc"], None, "origin expects a number, got 'abc'"),
    (_TEL_SIM + ["--spacing", "0.1,x"], None, "spacing expects a number, got 'x'"),
    (_TEL_SIM + ["--start", "abc"], None, "start expects a number, got 'abc'"),
    (_TEL_SIM, "[grid]\ncounts = 9,abc\n", "counts expects an integer, got 'abc'"),
    (_TEL_CHECK, "[params]\nkappa = abc\n", "[params] kappa expects a number, got 'abc'"),
    (_TEL_CHECK + ["--set", "C1=abc"], None, "parameter 'C1' expects a number, got 'abc'"),
    (_TEL_FAMILY + ["--set", "lambda=abc"], None, "parameter 'lambda' expects a number"),
    (_TEL_SOLUTION + ["--set", "a=abc"], None, "parameter 'a' expects a number, got 'abc'"),
    (_TEL_CHECK + ["--box", "0.5"], None, "--box expects lo,hi pairs, got '0.5'"),
    (_TEL_CHECK + ["--seed", "-1"], None, "seed must be a finite number >= 0, got -1"),
    # tolerances that cannot pass or fail a check
    (_TEL_CHECK + ["--tol", "nan"], None, "tolerance must be a finite number >= 0.0, got nan"),
    (_TEL_CHECK + ["--tol", "-1"], None, "tolerance must be a finite number >= 0.0, got -1.0"),
    (_TEL_CHECK, "[check]\ntolerance = inf\n", "tolerance must be a finite number >= 0.0, got 'inf'"),
    (_TEL_FAMILY + ["--roundtrip-tol", "nan"], None, "--roundtrip-tol must be a finite number >= 0.0"),
    (_TEL_SIM + ["--tol", "nan"], None, "residual tolerance must be a finite number >= 0.0, got nan"),
    (_TEL_SIM + ["--tol", "-1"], None, "residual tolerance must be a finite number >= 0.0"),
    (_TEL_SIM, "[check]\nresidual_tolerance = -1e-6\n", "residual tolerance must be a finite number"),
    # names the registry does not hold, and plans that cannot be completed
    (_TEL_CHECK + ["--set", "kappa"], None, "--set expects name=value, got 'kappa'"),
    (["check-hj", "--example", "telegrapher", "--section", "nope"], None,
     "example telegrapher has no section 'nope'; known: ['classical-zind', "),
    (["check-hj", "--example", "telegrapher", "--family", "nope"], None,
     "example telegrapher has no family 'nope'; known: ['complete']"),
    (_TEL_SIM + ["--reference", "nope"], None,
     "unknown solution 'nope' for example telegrapher; known: ['exponential']"),
    (["simulate", "--example", "telegrapher", "--section", "zdep-family"],
     "[grid]\norigin = 0,0\nspacing = 0.1,0.1\ncounts = 5,5\n", "simulate needs a start point"),
    (["check-hj", "--section", "classical-zind"], None, "an example key is required"),
    (["simulate", "--example", "telegrapher", "--section", "zdep-family"], None, "simulate needs a grid"),
    # numbers that are not finite, for any parameter
    (_TEL_CHECK + ["--set", "kappa=nan"], None, "parameter 'kappa' must be a finite number, got nan"),
    (_TEL_CHECK, "[params]\nkappa = nan\n", "parameter 'kappa' must be a finite number, got nan"),
    (_TEL_FAMILY + ["--set", "kappa=inf"], None, "parameter 'kappa' must be a finite number, got inf"),
    (_TEL_SOLUTION + ["--set", "u0=nan"], None, "parameter 'u0' must be a finite number, got nan"),
    # a sampling box with another number of intervals than the section samples
    (_TEL_CHECK + ["--box", "0.5,1,0,1"], None, "--box expects 1 lo,hi pairs for section classical-zind, got 2"),
    (["check-hj", "--example", "telegrapher", "--section", "zdep-family", "--box", "0.5,1"], None,
     "--box expects 3 lo,hi pairs for section zdep-family, got 1"),
])
def test_bad_numbers_are_configuration_errors(argv, config, message, tmp_path, capsys):
    """Each input is refused with exit 2 and a one-line message, before any report is written."""
    if config is not None:
        (tmp_path / "run.ini").write_text(config)
        argv = argv + ["--config", str(tmp_path / "run.ini")]
    if argv[0] != "gauge":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


_HS_LOG = ["simulate", "--example", "hunter-saxton", "--section", "log-zind", "--reference",
           "logarithmic", "--set", "delta=1", "--origin", "0,-2", "--spacing", "0.02,0.02",
           "--counts", "9,9"]


@pytest.mark.parametrize("argv, message", [
    (_TEL_SIM + ["--origin", "nan,0"], "grid origin and spacing must be finite"),
    (_TEL_SIM + ["--spacing", "inf,0.02"], "grid origin and spacing must be finite"),
    # a pipeline error names its stage once
    (_HS_LOG + ["--start", "0.6"], "[stage integrate] projected field evaluated outside the section"),
    # a start point or sampling box that is not finite
    (_TEL_SIM + ["--counts", "9,9", "--start", "inf"], "[stage integrate] start point must be finite"),
    (_TEL_SIM + ["--counts", "9,9", "--start", "nan"], "[stage integrate] start point must be finite"),
    (_TEL_CHECK + ["--box", "nan,1"], "sampling box bounds must be finite"),
    # a finite start beyond the blow-up guard is refused before any field is evaluated
    (_TEL_SIM + ["--counts", "9,9", "--start", "1e300"], "[stage integrate] start point [1e+300] exceeds"),
    # a zero parameter that the Hamiltonian or the profile divides by, refused before any evaluation
    (_TEL_CHECK + ["--set", "kappa=0", "--set", "a=1"],
     "parameter 'kappa' must be nonzero: the telegrapher Hamiltonian divides by it"),
    (_TEL_FAMILY + ["--set", "kappa=0"], "parameter 'kappa' must be nonzero: the telegrapher Hamiltonian"),
    (_TEL_SOLUTION + ["--set", "kappa=0", "--set", "a=1"],
     "parameter 'kappa' must be nonzero: the exponential profile divides by it"),
    (["simulate", "--example", "telegrapher-quadratic-z", "--solution", "exponential-effective-damping",
      "--set", "kappa=0"], "parameter 'kappa' must be nonzero: the effective-damping profile divides by it"),
    (["simulate", "--example", "membrane", "--solution", "separable", "--set", "c=0"],
     "parameter 'c' must be nonzero: the membrane Hamiltonian divides by it"),
])
def test_contract_violations_exit_3_and_write_nothing(argv, message, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way
        assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert not out and err.startswith(f"contract error: {message}") and err.count("\n") == 1
    assert err.count("stage") == message.count("stage")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code, message", [
    # argparse refuses a flag value of the wrong type before any plan is read
    (_TEL_CHECK + ["--samples", "x"], 2, "kcontact check-hj: error: argument --samples: invalid int value: 'x'"),
    # a closed form overflowing inside a math helper
    (_TEL_SOLUTION + ["--origin", "0,0", "--spacing", "1,1100", "--counts", "3,3"], 3,
     "arithmetic error: math range error"),
])
def test_other_refusals_exit_with_their_code_and_message(argv, code, message, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path / "out")]) == code
    out, err = capsys.readouterr()
    assert not out and err.splitlines()[-1] == message
    assert not (tmp_path / "out").exists()


def test_console_script_entrypoint():
    # the child imports the same kcontact as this process, installed or not
    src = str(Path(kcontact.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "kcontact.cli", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "telegrapher" in proc.stdout


def test_expected_corpus_verdicts_via_cli(tmp_path):
    """Criterion-9 style sweep: every shipped expectation holds through the CLI."""
    for name in corpus.EXAMPLE_NAMES:
        ex = corpus.load(name)
        for case in ex.expected:
            argv = [case.command, "--example", name, "--mode", case.mode,
                    "--out", str(tmp_path / "case")]
            if case.solution is not None:
                argv += ["--solution", case.solution]
            else:
                argv += ["--section", case.section]
            code = run(argv)
            if case.verdict == "PASS":
                assert code == 0, (name, case)
            elif case.verdict == "FAIL":
                assert code == 1, (name, case)
            else:
                assert code == int(case.verdict.split(":")[1]), (name, case)


def test_check_hj_family_unknown_mode_from_config_exit_3(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[run]\nexample = telegrapher\nfamily = complete\nmode = bogus\n"
                   f"[output]\ndir = {tmp_path}/out\n")
    assert run(["check-hj", "--config", str(cfg)]) == 3
    assert "unknown mode 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "hj_report.json").exists()


def test_check_hj_family_failures_name_plain_parameter_tuples(tmp_path, capsys):
    code = run(["check-hj", "--example", "telegrapher", "--family", "complete",
                "--param-grid", "2", "--samples", "20", "--tol", "1e-300",
                "--out", str(tmp_path)])
    assert code == 1
    report = json.loads((tmp_path / "hj_report.json").read_text())
    keys = [key for key, _ in report["failures"]]
    assert keys and set(keys) <= {"(-1.0, -1.0)", "(1.0, -1.0)", "(-1.0, 1.0)", "(1.0, 1.0)"}
    assert report["failures"][0][1].startswith("sup residual")


def test_simulate_solution_reports_the_pde_residual(tmp_path, capsys):
    assert run(["simulate", "--example", "telegrapher", "--solution", "exponential",
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    ex = corpus.load("telegrapher")
    psi = corpus.analytic("telegrapher", "exponential")
    pde = ex.pde_residual({"u": psi.q[..., 0], "zt": psi.z[..., 0]}, psi.grid, dict(ex.defaults))
    assert summary["max_pde_residual"] == float(abs(pde).max()) <= 5e-3  # O(h^2) stencils


def test_simulate_section_against_the_logarithmic_reference(tmp_path, capsys):
    # the logarithmic solution on a window where its base map stays in the log-zind domain
    sol = corpus.load("hunter-saxton").solutions["logarithmic"]
    start = sol.build({**sol.defaults, "delta": 1.0})([0.0, -2.0])[0][0]
    errors = []
    for u0 in (start, start + 0.01):
        assert run(["simulate", "--example", "hunter-saxton", "--section", "log-zind",
                    "--reference", "logarithmic", "--set", "delta=1", "--mode", "standard",
                    "--origin", "0,-2", "--spacing", "0.02,0.02", "--counts", "9,9",
                    "--start", repr(u0), "--out", str(tmp_path)]) == 0
        errors.append(json.loads((tmp_path / "summary.json").read_text())["compare_error"])
    assert errors[0] <= 1e-8 < 1e-3 < errors[1]


def test_json_reports_write_non_finite_numbers_as_null():
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    report = {"sup_residual": float("nan"), "worst": [1.5, float("inf"), (-float("inf"), 2)],
              "nested": {"x": float("nan"), "n": 3, "s": "nan"}}
    text = cli._json_dump(report)
    assert json.loads(text, parse_constant=refuse) == {
        "sup_residual": None, "worst": [1.5, None, [None, 2]], "nested": {"x": None, "n": 3, "s": "nan"}}
    finite = {"a": 0.1, "b": [1, 2.5e-300], "c": {"d": True}}
    assert cli._json_dump(finite) == json.dumps(finite, indent=2, sort_keys=True)
