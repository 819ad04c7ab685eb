"""Command-line interface: config parsing, artifacts, determinism, exit
codes.

All invocations go through radbif.cli.run in-process.  Two subprocess
tests check the console script: one always runs the entry point declared
in pyproject.toml against the tree under test, the other runs the
installed `radbif` script when it is on PATH.  Exit code convention:
0 success, 1 numerical failure, 2 configuration error.
"""

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import radbif
from radbif import cli, continue_branch
from radbif.cli import run

LAMBDA_MID = 0.3231227939747531
SUBCOMMANDS = ("steklov", "report", "solve", "limit", "branch",
               "multiplicity", "rescale-check", "verify")


def _out(tmp_path, name="out"):
    return str(tmp_path / name)


def _lines(path):
    return path.read_text().splitlines()


# -------------------------------------------------------------- configs


def test_config_file_with_comments(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# grid block\n"
                   "grid.M = 256\n"
                   "\n"
                   "model.name = reference  # trailing comment\n"
                   f"out.dir = {_out(tmp_path)}\n")
    assert run(["steklov", "--config", str(cfg)]) == 0
    assert "mu1=0.31303" in capsys.readouterr().out


def test_unknown_key_rejected(tmp_path, capsys):
    code = run(["steklov", "--override", "grid.X=1",
                "--override", f"out.dir={_out(tmp_path)}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown key" in err
    assert "grid.M" in err  # the valid set is listed


def test_malformed_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grid.M\n")
    assert run(["steklov", "--config", str(cfg)]) == 2
    assert "expected key = value" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert run(["steklov", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_model_selection_conflicts(tmp_path, capsys):
    out = f"out.dir={_out(tmp_path)}"
    # name and coefficients are mutually exclusive
    code = run(["report", "--override", "model.name=reference",
                "--override", "model.coeffs1=0,1", "--override", out])
    assert code == 2
    # coefficient models need every structural constant
    code = run(["report", "--override", "model.coeffs1=0,1",
                "--override", "model.coeffs2=0,1", "--override", out])
    assert code == 2
    assert "missing" in capsys.readouterr().err
    # structural constants are meaningless for builtin models
    code = run(["report", "--override", "model.name=quadratic",
                "--override", "model.K=1.0", "--override", out])
    assert code == 2
    # unknown builtin
    code = run(["report", "--override", "model.name=cubic",
                "--override", out])
    assert code == 2


def test_coefficient_model_roundtrip(tmp_path, capsys):
    # reference model spelled out as coefficients gives the same report
    args = ["report",
            "--override", "model.coeffs1=0,1,-1,1",
            "--override", "model.coeffs2=0,1,0.5",
            "--override", "model.p1=2", "--override", "model.p2=3",
            "--override", "model.b1=0.5", "--override", "model.b2=1",
            "--override", "model.nu1=2", "--override", "model.nu2=2",
            "--override", "model.K=0.75",
            "--override", f"out.dir={_out(tmp_path)}"]
    assert run(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == pytest.approx(1.0)
    assert payload["theta1"] == pytest.approx(0.8)
    # remainder limits are estimated numerically on this path
    assert payload["r0_under"] == pytest.approx(-0.125, abs=1e-3)
    assert payload["r0_over"] == pytest.approx(-0.125, abs=1e-3)
    assert payload["direction"] == "Right"


# ------------------------------------------------------------- commands


def test_steklov_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["steklov", "--override", f"out.dir={out}"]) == 0
    assert "mu1=0.31303" in capsys.readouterr().out
    lines = _lines(out / "steklov.csv")
    assert lines[0].startswith("# config=")
    assert len(lines[0]) == len("# config=") + 12  # 12-hex-digit hash
    assert lines[1] == "r,phi1"
    assert len(lines) == 2 + 513  # M+1 nodes


def test_report_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["report", "--override", "grid.M=256",
                "--override", f"out.dir={out}"]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "report.json").read_text())
    assert printed == on_disk
    assert printed["direction"] == "Right"
    assert printed["slope_predicted"] == pytest.approx(-0.0391294, abs=1e-5)
    assert printed["slope_fitted"] is None  # report alone traces no branch


def test_solve_success_and_determinism(tmp_path, capsys):
    args = ["solve", "--lambda", "0.32", "--amplitude", "1.0"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--override", f"out.dir={out_a}"]) == 0
    assert "positive=True" in capsys.readouterr().out
    assert run(args + ["--override", f"out.dir={out_b}"]) == 0
    for name in ("solution.csv", "solve.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    record = json.loads((out_a / "solve.jsonl").read_text())
    assert record["positive"] is True
    assert record["residual"] <= 1e-9
    assert record["norm_pair"] == pytest.approx(1.12575518, abs=1e-6)


def test_solve_rejects_bad_arguments(tmp_path, capsys):
    out = f"out.dir={_out(tmp_path)}"
    assert run(["solve", "--lambda", "-1.0", "--override", out]) == 2
    assert run(["solve", "--lambda", "0.3", "--amplitude", "0",
                "--override", out]) == 2
    capsys.readouterr()


def test_limit_values(tmp_path, capsys):
    # the residual bound follows the representation floor eps * 2 / h^2
    for M, max_residual in ((512, 1e-10), (2048, 1e-8)):
        out = tmp_path / f"out{M}"
        assert run(["limit", "--override", f"grid.M={M}",
                    "--override", f"out.dir={out}"]) == 0, M
        assert "sup_w1=" in capsys.readouterr().out
        payload = json.loads((out / "limit.json").read_text())
        # sup sits on the boundary; continuum traces of the pure-power system
        assert payload["sup_w1"] == pytest.approx(0.5985392467650285, abs=1e-4)
        assert payload["sup_w2"] == pytest.approx(0.5722186068362778, abs=1e-4)
        assert payload["trace_w1"] == payload["sup_w1"]
        assert payload["residual"] <= max_residual
        assert "iterations" not in payload


def test_branch_artifacts_and_determinism(tmp_path, capsys):
    args = ["branch", "--override", "grid.M=128"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--override", f"out.dir={out_a}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out
    assert run(args + ["--override", f"out.dir={out_b}"]) == 0
    assert (out_a / "branch.jsonl").read_bytes() == \
        (out_b / "branch.jsonl").read_bytes()

    records = [json.loads(line) for line in _lines(out_a / "branch.jsonl")]
    hashes = {r["config_hash"] for r in records}
    assert len(hashes) == 1
    summary = json.loads((out_a / "branch_summary.json").read_text())
    assert summary["config_hash"] in hashes
    assert summary["termination"] == "lambda_floor"
    assert summary["n_points"] == len(records)
    assert summary["fold_lambda"] == pytest.approx(0.333210, abs=5e-4)
    assert summary["n_sign_flips"] == 1
    assert summary["rejections"] >= 0 and "last_rejection" in summary
    for r in records[1:]:
        assert r["corrector_iterations"] >= 1
        assert r["polish_iterations"] >= 0
        assert r["residual"] <= 1e-10


def test_branch_default_tolerance_follows_floor(tmp_path, capsys):
    # with newton.tol unset the tolerance is max(1e-10, 2 eps 2/h^2); a
    # fixed 1e-10 lies below the floor at M = 2048 and stops the branch
    out = tmp_path / "out"
    assert run(["branch", "--override", "grid.M=2048",
                "--override", f"out.dir={out}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["termination"] == "lambda_floor"


def test_branch_truncated_run_fails_loudly(tmp_path, capsys, monkeypatch):
    def truncated(st):
        return continue_branch(st.grid, st.model,
                               dataclasses.replace(st.cont, max_points=5))

    monkeypatch.setattr(cli, "_run_branch", truncated)
    out = tmp_path / "out"
    assert run(["branch", "--override", "grid.M=128",
                "--override", f"out.dir={out}"]) == 1
    err = capsys.readouterr().err
    assert "max_points" in err
    # the artifacts of the truncated run are still written
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["termination"] == "max_points"
    assert summary["n_points"] == 5
    assert len(_lines(out / "branch.jsonl")) == 5


def test_branch_state_dumps(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["branch", "--dump-states", "100",
                "--override", "grid.M=128",
                "--override", f"out.dir={out}"]) == 0
    capsys.readouterr()
    dumps = sorted(out.glob("state_*.csv"))
    assert dumps and dumps[0].name == "state_000000.csv"
    header = _lines(dumps[0])[0]
    assert header.startswith("# config=") and "lambda=" in header


def test_multiplicity_command(tmp_path, capsys):
    # at M = 1024 the default newton.tol lies above 1e-10, and both states
    # must be verified at that tolerance, the one the branch was traced at
    for M in (512, 1024):
        out = tmp_path / f"out{M}"
        assert run(["multiplicity", "--lambda", str(LAMBDA_MID),
                    "--override", "cont.lambda_stop_low=0.25",
                    "--override", f"grid.M={M}",
                    "--override", f"out.dir={out}"]) == 0, M
        assert "gap=" in capsys.readouterr().out
        payload = json.loads((out / "multiplicity.json").read_text())
        assert payload["ordered_nodewise"] is True
        assert payload["norm_gap"] == pytest.approx(0.8156, abs=1e-2)
        assert payload["minimal"]["norm_pair"] == pytest.approx(0.2539, abs=1e-3)
        assert payload["minimal"]["residual"] <= 1e-9
        assert payload["branch_solution"]["residual"] <= 1e-9
        assert (out / "minimal.csv").exists()
        assert (out / "branch_solution.csv").exists()


def test_multiplicity_rejects_nonpositive_lambda(tmp_path, capsys):
    assert run(["multiplicity", "--lambda", "0.0",
                "--override", f"out.dir={_out(tmp_path)}"]) == 2
    capsys.readouterr()


def test_rescale_check_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["rescale-check", "--override", "grid.M=256",
                "--override", f"out.dir={out}"]) == 0
    assert "rescale-check: ok" in capsys.readouterr().out
    lines = _lines(out / "rescale.csv")
    assert lines[0].startswith("# config=")
    assert lines[1] == "lambda,ratio1,ratio2"
    assert len(lines) > 100  # the tail has many points below lam = 1e-2


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["verify", "--override", f"out.dir={out}"]) == 0
    text = capsys.readouterr().out
    assert "9/9 checks passed" in text
    payload = json.loads((out / "verify.json").read_text())
    assert len(payload["checks"]) == 9
    assert all(c["passed"] for c in payload["checks"])


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: radbif")
    for sub in SUBCOMMANDS:
        assert sub in proc.stdout
    # "branch" and "limit" also occur in other subcommands' help, so the
    # substring check alone would miss their subparsers being dropped
    choices = re.search(r"\{([^}]*)\}", proc.stdout).group(1).split(",")
    assert set(SUBCOMMANDS) <= set(choices)


def _child_env():
    """Environment in which a child interpreter imports the same radbif
    that this test imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(radbif.__file__).resolve().parents[1]),
                    env.get("PYTHONPATH")) if p)
    return env


def test_console_script_installed():
    """The declared `radbif` entry point resolves and serves --help in a
    fresh interpreter, run as pip's console-script wrapper runs it."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["radbif"]
    module, attr = entry.split(":")
    code = (f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'radbif'; sys.exit({attr}())")
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True, env=_child_env())
    _assert_help(proc)


def test_module_entry_point():
    """`python -m radbif.cli` runs the CLI instead of exiting silently."""
    proc = subprocess.run([sys.executable, "-m", "radbif.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    _assert_help(proc)


@pytest.mark.skipif(shutil.which("radbif") is None,
                    reason="radbif console script not on PATH")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("radbif"), "--help"],
                          capture_output=True, text=True)
    _assert_help(proc)
