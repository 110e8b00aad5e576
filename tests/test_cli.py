import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fluidtail.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_case1(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "analyze", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--truncation", "200", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["case"]["value"] == "I"
    assert payload["alpha_star"]["value"] == pytest.approx(0.5, rel=1e-10)
    assert payload["alpha_star"]["source"] == "analytic"
    assert payload["boundary_masses"]["source"] == "analytic"
    assert payload["density_prefactor"]["value"] == pytest.approx(1.0 / 12.0, rel=1e-4)
    assert "error" in payload["transform_constant"]


def test_analyze_case3(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--c", "3", "--lambda", "20", "--mu", "30", "--r", "10",
        "--truncation", "200",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["case"]["value"] == "III"
    assert payload["alpha_star"]["value"] == pytest.approx(2.5147186257614296, rel=1e-9)
    assert payload["power"]["value"] == -1.5


def test_analyze_unstable_exits_nonzero(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--c", "1", "--lambda", "1", "--mu", "1", "--r", "1",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"]["type"] == "UnstableModelError"


def test_analyze_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--truncation", "150", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value,source,error"
    keys = {ln.split(",")[0] for ln in lines[1:]}
    assert {"case", "alpha_star", "density_prefactor"} <= keys


# schema 1's analyze payload: each key with the fields of its entry
ANALYZE_SCHEMA_1 = {
    "schema": None,
    "params": {"c", "lam", "mu", "r"},
    "case": {"value", "source"},
    "alpha_star": {"value", "source", "error"},
    "multiplicity": {"value", "source"},
    "power": {"value", "source"},
    "z_star": {"value", "source"},
    "phase_ratio": {"value", "source"},
    "transform_constant": {"value", "source", "error"},
    "density_prefactor": {"value", "source", "error"},
    "marginal_prefactor": {"value", "source", "error"},
    "boundary_residue": {"value", "source"},
    "z_tilde": {"value", "source"},
    "boundary_masses": {"value", "source", "error"},
}
REFERENCE_ARGS = {
    "I": ["--c", "1", "--lambda", "1", "--mu", "3", "--r", "1"],
    "II": ["--c", "1", "--lambda", "1", "--mu", "4", "--r", "1"],
    "III": ["--c", "3", "--lambda", "20", "--mu", "30", "--r", "10"],
}
# conftest.CASE_I_NEAR_BRANCH: a c=3 pole 1.4% below alpha1
NEAR_BRANCH_ARGS = ["--c", "3", "--lambda", "2.2381052974720026", "--mu", "1.2750269391875697",
                    "--r", "1.4705251570806857"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON (RFC 8259)")


@pytest.mark.parametrize("case", sorted(REFERENCE_ARGS))
def test_analyze_json_is_strict(capsys, case):
    # Case III has no zero: alpha* is alpha1, and its error is alpha1's rounding, not inf
    code, out, _ = run_cli(capsys, "analyze", *REFERENCE_ARGS[case])
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    alpha = payload["alpha_star"]
    assert 0.0 <= alpha["error"] < 1e-12 * alpha["value"]


# (c, lam, mu, r) at many servers and light load: the stability sum, the kernel mass
# system's rows or the folded coefficient's z^c pass the double range
@pytest.mark.parametrize("c, lam, mu, r", [
    (100, 0.01, 1.0, 1.0), (120, 0.01, 1.0, 2.0), (120, 0.1, 1.0, 0.5),
    (150, 0.01, 1.0, 1.0), (500, 0.01, 1.0, 0.5), (500, 50.0, 1.0, 0.5),
])
def test_analyze_many_servers_light_load_exits_cleanly(capsys, c, lam, mu, r):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli(capsys, "analyze", "--c", str(c), "--lambda", repr(lam),
                               "--mu", repr(mu), "--r", repr(r))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    payload = json.loads(out, parse_constant=_reject_constant)
    if code == 2:
        assert "nan" not in payload["error"]["message"].lower()
    else:
        assert code == 0 and payload["schema"] == 1


@pytest.mark.parametrize("case", sorted(REFERENCE_ARGS))
def test_analyze_json_keys_are_schema_1(capsys, case):
    code, out, _ = run_cli(capsys, "analyze", *REFERENCE_ARGS[case])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"]["value"] == case
    assert payload.keys() == ANALYZE_SCHEMA_1.keys()
    for key, fields in ANALYZE_SCHEMA_1.items():
        if fields is not None:
            assert payload[key].keys() == fields, key
    assert payload["multiplicity"]["value"] == 1


def test_validate_and_analyze_agree_on_prefactor_error(capsys):
    # both payloads give the density prefactor the transform constant's
    # relative error
    code, out, _ = run_cli(capsys, "analyze", *REFERENCE_ARGS["III"])
    assert code == 0
    analyzed = json.loads(out)
    _, out, _ = run_cli(
        capsys, "validate", *REFERENCE_ARGS["III"], "--truncation", "200",
        "--horizon", "50000", "--samples", "300000", "--seed", "1",
    )
    validated = json.loads(out)["density_prefactor"]
    assert validated == analyzed["density_prefactor"]
    transform = analyzed["transform_constant"]
    rel = transform["error"] / transform["value"]
    assert validated["error"] == pytest.approx(rel * validated["value"], rel=1e-12)


@pytest.mark.parametrize("case", ["II", "III"])
def test_validate_checks_transform_without_a_pole(capsys, case):
    # Cases II and III have no prefactor check; the transform row checks the
    # masses and the numerator against the oracle below alpha*
    _, out, err = run_cli(
        capsys, "validate", *REFERENCE_ARGS[case], "--truncation", "200",
        "--horizon", "50000", "--samples", "300000", "--seed", "1",
    )
    checks = json.loads(out)["checks"]
    assert "prefactor" not in checks
    assert checks["transform"]["pass"] and checks["transform"]["value"] < 1e-12
    assert "transform" in err


def test_solve_json_and_csv(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "solve", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--truncation", "150",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dominant_eigenvalue"][0] == pytest.approx(-0.5, abs=1e-8)

    out_csv = tmp_path / "curves.csv"
    code, _, _ = run_cli(
        capsys, "solve", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--truncation", "150", "--format", "csv", "--out", str(out_csv),
        "--grid-points", "11",
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "x,phase,Pi,pi"
    assert len(lines) == 1 + 11 * 9


def test_out_path_that_cannot_be_opened_gets_a_structured_error(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, out, _ = run_cli(capsys, "analyze", *REFERENCE_ARGS["I"], "--out", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InvalidInputError"
    assert str(path) in error["message"]


def test_out_path_is_checked_before_the_run(capsys, tmp_path, monkeypatch):
    def simulate(*args, **kwargs):
        pytest.fail("simulate ran although --out cannot be written")

    monkeypatch.setattr("fluidtail.cli.simulate", simulate)
    path = tmp_path / "missing" / "run.json"
    code, out, _ = run_cli(capsys, "simulate", *REFERENCE_ARGS["I"], "--out", str(path))
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "InvalidInputError"
    assert str(path) in error["message"]


def test_validate_refuses_a_csv_request(capsys):
    # validate writes JSON only; a CSV request stops at the parser, before any work
    with pytest.raises(SystemExit) as stop:
        main(["validate", *REFERENCE_ARGS["I"], "--format", "csv"])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_simulate_json(capsys):
    # at this budget the fitted rate's sd over seeds is about 5% of 0.5, well inside the
    # 15% bound; at a tenth of it the fit's own 95% CI is about 33% wide
    code, out, _ = run_cli(
        capsys, "simulate", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--horizon", "4000000", "--stride", "1.0", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["zero_fraction"] == pytest.approx(1.0 / 3.0, abs=0.03)
    assert payload["fitted_rate"] == pytest.approx(0.5, rel=0.15)


# sha256 of the simulate JSON stdout at fixed seeds: a change in what the simulator
# prints for a (config, seed) shows here.  A numpy release that changes the Philox
# stream, SeedSequence.spawn, or the exponential and uniform samplers changes them too,
# and so does a change to the sample grid, or to the level histogram and its time blocks
# that the window and the fit read.
SIMULATE_STDOUT_SHA256 = {
    "I": ("1a7581caf894393e54765257898c22e8d23de8857ed784b83bf35231aed27239",
          ["--horizon", "20000.0", "--stride", "0.05", "--seed", "7"]),
    # 80789 events: more than one engine sub-block
    "III": ("6660eb8dd2d09334a3df7257dadcc066ed4732b098ef3285ea60066821df2a41",
            ["--horizon", "2000.0", "--stride", "0.005", "--seed", "7"]),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_STDOUT_SHA256))
def test_simulate_stdout_is_pinned(capsys, case):
    digest, run = SIMULATE_STDOUT_SHA256[case]
    code, out, _ = run_cli(capsys, "simulate", *REFERENCE_ARGS[case], *run)
    assert code == 0
    assert json.loads(out)["fitted_rate"] is not None
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_csv(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--horizon", "5000", "--stride", "0.5", "--format", "csv",
    )
    assert code == 0
    header = out.splitlines()[0].split(",")
    assert header[:2] == ["x", "survival"]
    assert header[2] == "phase0"


def test_validate_case1(capsys):
    code, out, err = run_cli(
        capsys, "validate", "--c", "1", "--lambda", "1", "--mu", "3", "--r", "1",
        "--truncation", "300", "--horizon", "400000", "--samples", "1000000",
        "--seed", "11",
    )
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert code == 0
    assert payload["checks"]["spectral_rate"]["pass"]
    assert payload["checks"]["prefactor"]["pass"]
    assert payload["checks"]["boundary_masses"]["pass"]
    assert payload["mc_rate"]["source"] == "simulation"
    assert "ok" in err


def test_validate_prefactor_near_the_branch_point(capsys):
    # the oracle's leading-mode coefficient matches the analytic prefactor
    # even where the branch-cut modes crowd the leading one, so that the
    # density at depth still carries them; the Monte Carlo rate check may
    # fail on this tuple, so only the prefactor row is asserted
    _, out, err = run_cli(
        capsys, "validate", *NEAR_BRANCH_ARGS,
        "--horizon", "50000", "--samples", "300000", "--seed", "1",
    )
    prefactor = json.loads(out)["checks"]["prefactor"]
    assert prefactor["pass"] and prefactor["value"] < 1e-8
    assert "prefactor" in err


def test_validate_with_one_sample_exits_cleanly(capsys):
    # a survival level above 1 for the window's upper edge: its rank is clamped to the one sample
    code, out, _ = run_cli(
        capsys, "validate", *REFERENCE_ARGS["I"], "--truncation", "50", "--horizon", "200",
        "--samples", "1",
    )
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InsufficientSamplesError"


def test_analyze_loads_no_scipy(tmp_path):
    # analyze needs neither the spectral oracle nor scipy, in a fresh interpreter
    import fluidtail

    script = (
        "import json, sys\n"
        "from fluidtail import cli\n"
        f"code = cli.main(['analyze', '--c', '3', '--lambda', '20', '--mu', '30', '--r', '10',"
        f" '--out', {str(tmp_path / 'report.json')!r}])\n"
        "loaded = [m for m in sys.modules\n"
        "          if m == 'scipy' or m.startswith('scipy.') or m == 'fluidtail.spectral']\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))\n"
    )
    src = str(Path(fluidtail.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    assert result["loaded"] == []
    assert json.loads((tmp_path / "report.json").read_text())["case"]["value"] == "III"


@pytest.mark.parametrize("argv", [
    ["simulate", "--c", "0", "--lambda", "1", "--mu", "3", "--r", "1"],
    ["simulate", "--c", "1", "--lambda", "-1", "--mu", "3", "--r", "1"],
    ["simulate", *REFERENCE_ARGS["I"], "--horizon", "100", "--warmup", "100"],
    ["simulate", *REFERENCE_ARGS["I"], "--horizon", "nan"],
    ["simulate", *REFERENCE_ARGS["I"], "--horizon", "inf"],
    ["simulate", *REFERENCE_ARGS["I"], "--stride", "0"],
    ["simulate", *REFERENCE_ARGS["I"], "--horizon", "1e300"],
    ["simulate", *REFERENCE_ARGS["I"], "--stride", "1e-300"],
    ["validate", *REFERENCE_ARGS["I"], "--samples", "0"],
    ["solve", *REFERENCE_ARGS["I"], "--truncation", "0"],
    ["solve", *REFERENCE_ARGS["I"], "--format", "csv", "--grid-points", "-5"],
    ["solve", *REFERENCE_ARGS["I"], "--format", "csv", "--grid-points", "0"],
    ["solve", *REFERENCE_ARGS["I"], "--format", "csv", "--grid-max", "-3"],
    ["solve", *REFERENCE_ARGS["I"], "--format", "csv", "--grid-max", "nan"],
], ids=["c0", "negative_lambda", "horizon_at_warmup", "horizon_nan", "horizon_inf",
        "stride0", "grid_steps_horizon", "grid_steps_stride", "samples0", "truncation0",
        "grid_points_negative", "grid_points0", "grid_max_negative", "grid_max_nan"])
def test_bad_input_gets_a_structured_error(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["type"] == "InvalidInputError"


TOP_USAGE = "usage: fluidtail [-h] {analyze,solve,simulate,validate} ...\n"
ANALYZE_USAGE = "usage: fluidtail analyze [-h] --c C --lambda LAM --mu MU --r R [--out OUT]\n"


@pytest.mark.parametrize("argv, code, stream, usage, message", [
    ([], 2, "err", TOP_USAGE,
     "fluidtail: error: the following arguments are required: command\n"),
    (["-h"], 0, "out", TOP_USAGE, None),
    (["bogus"], 2, "err", TOP_USAGE,
     "fluidtail: error: argument command: invalid choice: 'bogus' "
     "(choose from 'analyze', 'solve', 'simulate', 'validate')\n"),
    (["analyze", "-h"], 0, "out", ANALYZE_USAGE, None),
    (["analyze", *REFERENCE_ARGS["I"], "--foo"], 2, "err", TOP_USAGE,
     "fluidtail: error: unrecognized arguments: --foo\n"),
    (["analyze", "--c", "1"], 2, "err", ANALYZE_USAGE,
     "fluidtail analyze: error: the following arguments are required: "
     "--lambda, --mu, --r\n"),
], ids=["no_command", "help", "unknown_command", "analyze_help", "unknown_option",
        "missing_options"])
def test_parser_usage_and_exit_codes(capsys, argv, code, stream, usage, message):
    # a known subcommand is parsed by its own parser alone; what the user sees is
    # what the top-level parser would print, with its usage for leftover arguments
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == code
    captured = capsys.readouterr()
    text = captured.out if stream == "out" else captured.err
    assert text.startswith(usage)
    if message is not None:
        assert text.endswith(message)
    assert (captured.err if stream == "out" else captured.out) == ""


def test_main_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["fluidtail", "analyze", *REFERENCE_ARGS["III"]])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["case"]["value"] == "III"


@pytest.mark.parametrize("argv, code", [
    (["analyze", *REFERENCE_ARGS["III"]], 0),
    (["validate", *REFERENCE_ARGS["III"], "--truncation", "200", "--horizon", "50000",
      "--samples", "300000", "--seed", "1"], 0),
    (["analyze", "--c", "1", "--lambda", "1", "--mu", "1", "--r", "1"], 2),
], ids=["analyze", "validate", "error"])
def test_json_is_one_line(capsys, argv, code):
    got, out, _ = run_cli(capsys, *argv)
    assert got == code
    assert out.endswith("\n") and out.count("\n") == 1
    assert json.dumps(json.loads(out)) + "\n" == out


def test_analyze_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "analyze", *REFERENCE_ARGS["III"])
    code, to_stdout, _ = run_cli(capsys, "analyze", *REFERENCE_ARGS["III"], "--out", str(path))
    assert code == 0 and to_stdout == ""
    assert path.read_text() == out
