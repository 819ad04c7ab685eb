"""Command-line interface: config parsing, artifacts, determinism, exit
codes.

All invocations go through radbif.cli.run in-process, except for the
subprocess tests.  Two of them check the console script: one always runs
the entry point declared in pyproject.toml against the tree under test,
the other runs the installed `radbif` script when it is on PATH.  Others
run `python -m radbif.cli`, check what `import radbif` loads, and run
commands in an interpreter where scipy cannot be imported.  Exit code
convention:
0 success, 1 numerical failure, 2 configuration error.
"""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import radbif
from radbif import cli, continue_branch, verify
from radbif.cli import run
from radbif.solver import ULP_SHIFTS

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
    # newton.max_iter is no key: Newton's step limit is the constant
    # solver.MAX_NEWTON_ITER
    for key in ("grid.X", "newton.max_iter"):
        code = run(["steklov", "--override", f"{key}=1",
                    "--override", f"out.dir={_out(tmp_path)}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown key" in err and repr(key) in err
        assert "grid.M" in err  # the valid set is listed


@pytest.mark.parametrize("kind", ["empty", "a-file", "below-a-file"])
def test_bad_out_dir_is_a_config_error(kind, tmp_path, capsys, monkeypatch):
    # refused with exit 2 before any computation, and nothing is created
    afile = tmp_path / "afile"
    afile.write_text("")
    out = {"empty": "", "a-file": str(afile),
           "below-a-file": str(afile / "sub")}[kind]
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "continue_branch",
                        lambda *a, **k: pytest.fail("the branch was traced"))
    for command in ("steklov", "branch"):
        assert run([command, "--override", f"out.dir={out}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "out.dir" in err
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]


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
    # coefficient models need both lists
    code = run(["report", "--override", "model.coeffs1=0,1",
                "--override", out])
    assert code == 2
    assert "missing" in capsys.readouterr().err
    # structural constants are read off the coefficients, never set
    code = run(["report", "--override", "model.name=quadratic",
                "--override", "model.K=1.0", "--override", out])
    assert code == 2
    assert "unknown key 'model.K'" in capsys.readouterr().err
    # unknown builtin
    code = run(["report", "--override", "model.name=cubic",
                "--override", out])
    assert code == 2


def test_coefficient_model_roundtrip(tmp_path, capsys):
    # the reference model spelled out as coefficients gives the builtin's
    # report and limit, field for field, under its own config hash
    coeffs = ["--override", "model.coeffs1=0,1,-1,1",
              "--override", "model.coeffs2=0,1,0.5"]
    for command, name in (("report", "report.json"), ("limit", "limit.json")):
        payloads = []
        for extra, out in ((coeffs, "coeffs"), ([], "builtin")):
            assert run([command, *extra, "--override",
                        f"out.dir={_out(tmp_path, out)}"]) == 0
            capsys.readouterr()
            payloads.append(json.loads((tmp_path / out / name).read_text()))
        coef, builtin = payloads
        assert coef.pop("config_hash") != builtin.pop("config_hash")
        assert coef == builtin


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


def test_steklov_beyond_double_range_exits_1(tmp_path, capsys):
    # at R = 800 the regular solution overflows double range: exit 1 with
    # a one-line reason naming the radius, no traceback and no artifact
    out = tmp_path / "out"
    assert run(["steklov", "--override", "grid.R=800",
                "--override", f"out.dir={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ball radius 800 is too large")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("entries, reason", [
    (["grid.R=1e-8"], "ball radius 1e-08 is too small at N = 3, M = 512: "),
    (["grid.R=1e-6", "grid.M=4096"], "ball radius 1e-06 is too small at "),
    (["grid.N=5", "grid.R=700", "grid.M=4096"],
     "ball radius 700 is too large at N = 5, M = 4096: "),
    (["grid.N=10", "grid.R=680", "grid.M=4096"], "ball radius 680 is too "),
], ids=["R1e-8", "R1e-6-M4096", "N5-R700-M4096", "N10-R680-M4096"])
def test_steklov_at_an_unrepresentable_radius_exits_1(entries, reason,
                                                      tmp_path, capsys):
    # a tiny ball, where the regular solution's rise rounds away (A looks
    # singular), and radii just below the overflow of phi itself, where
    # its reduction of order leaves double range: exit 1 with one line
    # naming the radius, no numpy warning and no artifact
    out = tmp_path / "out"
    overrides = [arg for entry in entries for arg in ("--override", entry)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["steklov", *overrides, "--override", f"out.dir={out}"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: " + reason), err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("N, R", [(146, 1.0), (148, 1.0), (148, 1e-4),
                                  (150, 1e-4)],
                         ids=["146", "148", "148-R1e-4", "150-R1e-4"])
def test_steklov_at_a_dimension_whose_scan_products_underflow_exits_1(
        N, R, tmp_path, capsys):
    # at M = 4096 the products of alpha_j in the reduction of order, which
    # do not depend on the radius, underflow from N = 146 on (odd N
    # restarts the scan halfway, so N = 147 still works): exit 1 with one
    # line naming N and M, not the radius, with no numpy warning and no
    # artifact.  At R = 1e-4, h^2 keeps the scan coefficients finite, and
    # the refinement's solves overflow instead
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["steklov", "--override", f"grid.N={N}", "--override",
                    "grid.M=4096", "--override", f"grid.R={R:g}",
                    "--override", f"out.dir={out}"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith(
        f"error: dimension N = {N} is too large at M = 4096: "), err
    assert "radius" not in err
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("radius", ["1e-200", "1e160"])
def test_steklov_at_a_spacing_outside_double_range_exits_2(radius, tmp_path,
                                                           capsys):
    # h^2 underflows or overflows: build_grid refuses the radius before the
    # default tolerance floor divides by h^2, so the one line names the
    # radius (not tol_residual), with no numpy warning, no OverflowError
    # and no artifact
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run(["steklov", "--override", f"grid.R={radius}",
                    "--override", f"out.dir={out}"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(
        f"config error: ball radius {float(radius):g} is out of range at "
        f"M = 512: h = "), err
    assert err.count("\n") == 1 and not out.exists()


def test_report_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["report", "--override", "grid.M=256",
                "--override", f"out.dir={out}"]) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "report.json").read_text())
    assert printed == on_disk
    assert printed["direction"] == "Right"
    assert printed["slope_predicted"] == pytest.approx(-0.0391294, abs=1e-5)
    assert "slope_fitted" not in printed  # report traces no branch


@pytest.mark.parametrize("name", ["reference", "quadratic", "linear"])
def test_report_works_for_every_builtin(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert run(["report", "--override", f"model.name={name}",
                "--override", f"out.dir={out}"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads((out / "report.json").read_text())
    if name == "linear":
        # p1 p2 = 1: no tail exponents; the rest of the report is defined
        assert printed["theta1"] is None and printed["theta2"] is None
        assert printed["direction"] == "Indeterminate"
        assert printed["slope_predicted"] == 0.0
        assert printed["mu0"] == pytest.approx(0.313035, abs=1e-6)
        assert printed["K_bound"] == printed["mu0"]
    else:
        assert printed["theta1"] > 0.0 and printed["theta2"] > 0.0


@pytest.mark.parametrize("command", [
    "limit", "rescale-check", "branch",
    pytest.param("multiplicity --lambda 0.32", id="multiplicity")])
def test_tail_commands_reject_the_linear_model(tmp_path, capsys, command):
    # refused before any branch is traced: exit 2 and no artifact
    out = tmp_path / "out"
    assert run(command.split() + ["--override", "model.name=linear",
                                  "--override", "grid.M=64",
                                  "--override", f"out.dir={out}"]) == 2
    assert "p1*p2 > 1" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


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


def test_solve_records_newton_history(tmp_path, capsys):
    # solve.jsonl carries the scaled trace residual per Newton iterate,
    # from the start to the state after the full step taken once it met
    # the tolerance, and the full-space residual of the written state
    out = tmp_path / "out"
    assert run(["solve", "--lambda", "0.3", "--override",
                f"out.dir={out}"]) == 0
    capsys.readouterr()
    record = json.loads((out / "solve.jsonl").read_text())
    history = record["history"]
    tol = 2.0 * sys.float_info.epsilon * 2.0 * 512 ** 2  # the M = 512 default
    assert len(history) == record["iterations"] + 1
    assert all(b < a for a, b in zip(history[:-1], history[1:-1]))
    assert history[-3] > tol >= history[-2] and history[-1] <= tol
    assert record["residual"] <= tol


@pytest.mark.parametrize("M,amp", [(512, "0.0046"), (4096, "0.01")])
def test_solve_near_the_trivial_state_is_not_positive(M, amp, tmp_path,
                                                      capsys):
    # the quadratic model has no positive state at lam = 0.32 > mu0 (its
    # branch leaves to the left); Newton from a small amplitude meets the
    # tolerance near (0, 0), where the scaled residual is absolute, and
    # the finished iterate is the trivial state: exit 1, not positive
    out = tmp_path / "out"
    assert run(["solve", "--lambda", "0.32", "--amplitude", amp,
                "--override", "model.name=quadratic",
                "--override", f"grid.M={M}",
                "--override", f"out.dir={out}"]) == 1
    captured = capsys.readouterr()
    assert "positive=False" in captured.out
    assert "not positive" in captured.err
    record = json.loads((out / "solve.jsonl").read_text())
    assert record["positive"] is False and record["norm_pair"] < 1e-8


def test_solve_non_positive_state_exits_1(tmp_path, capsys):
    # the linear model has only the trivial solution off mu0: Newton lands
    # on (0, 0) up to rounding, the artifacts are written, the exit is 1
    out = tmp_path / "out"
    assert run(["solve", "--lambda", "0.2", "--override", "model.name=linear",
                "--override", f"out.dir={out}"]) == 1
    captured = capsys.readouterr()
    assert "positive=False" in captured.out
    assert "not positive" in captured.err
    record = json.loads((out / "solve.jsonl").read_text())
    assert record["positive"] is False and record["norm_pair"] < 1e-8
    assert len(_lines(out / "solution.csv")) == 2 + 513


def test_solve_rejects_bad_arguments(tmp_path, capsys):
    out = f"out.dir={_out(tmp_path)}"
    assert run(["solve", "--lambda", "-1.0", "--override", out]) == 2
    # lam = 0 can only reach the trivial state
    assert run(["solve", "--lambda", "0", "--override", out]) == 2
    assert run(["solve", "--lambda", "0.3", "--amplitude", "0",
                "--override", out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["steklov", "--override", "grid.R=inf"],
    ["steklov", "--override", "grid.R=nan"],
    ["branch", "--override", "newton.tol=nan"],
    ["solve", "--lambda", "nan"],
    ["solve", "--lambda", "inf"],
    ["solve", "--lambda", "0.3", "--amplitude", "nan"],
    ["multiplicity", "--lambda", "nan"],
])
def test_non_finite_input_is_a_config_error(tmp_path, capsys, argv):
    """A NaN or infinite number is refused where it enters, naming the key,
    before any solve can fail on it: a config key as not a finite number,
    --lambda and --amplitude as not positive and finite."""
    assert run(argv + ["--override", f"out.dir={_out(tmp_path)}"]) == 2
    err = capsys.readouterr().err
    key = argv[2].split("=")[0] if argv[1] == "--override" else argv[-2]
    assert (f"config error: {key} must be a finite number" in err
            or f"config error: {key} must be positive and finite" in err)


@pytest.mark.parametrize("entry, kind", [("grid.R=abc", "a number"),
                                         ("grid.M=1.5", "an integer")])
def test_malformed_number_is_a_config_error(tmp_path, capsys, entry, kind):
    """A value that does not parse as its key's type exits 2, names the
    key and writes no artifact."""
    assert run(["steklov", "--override", entry,
                "--override", f"out.dir={_out(tmp_path)}"]) == 2
    key = entry.split("=")[0]
    assert f"config error: {key} must be {kind}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_coefficient_is_a_config_error():
    with pytest.raises(radbif.ConfigError, match="model.coeffs1"):
        cli._float_list("0.5, nan", "model.coeffs1")


def test_empty_coefficient_entry_is_a_config_error():
    # dropping it would move every later coefficient down one power
    for raw in ("0,1,,2", "0,1,"):
        with pytest.raises(radbif.ConfigError, match="model.coeffs1"):
            cli._float_list(raw, "model.coeffs1")


def test_config_hash_reads_the_parsed_coefficients():
    def digest(c1, c2):
        return cli.RunSettings({"model.coeffs1": c1,
                                "model.coeffs2": c2}).config_hash
    same = digest("0,1,-1,1", "0,1,0.5")
    assert digest("0, 1, -1, 1.0", "0.0,1e0,.5") == same
    assert digest("0,1,-1,1", "0,1,0.25") != same


# Hashes of the resolved settings at the time the CLI defaults moved into
# the config classes: a changed library default must fail here rather
# than silently re-hash every artifact.
@pytest.mark.parametrize("entries, digest", [
    ({}, "caad14e8ae92"),
    ({"grid.M": "4096", "newton.tol": "1e-8"}, "abc9c5495006"),
    ({"cont.ds0": "0.02", "cont.ds_max": "0.5"}, "90676c63a63e"),
])
def test_config_hash_is_pinned(entries, digest):
    assert cli.RunSettings(entries).config_hash == digest


def test_valid_keys_are_pinned():
    """The unknown-key error prints this tuple, so its order is output."""
    assert cli.VALID_KEYS == (
        "model.name", "model.coeffs1", "model.coeffs2",
        "grid.N", "grid.R", "grid.M",
        "newton.tol",
        "cont.ds0", "cont.ds_min", "cont.ds_max",
        "cont.eps_step_off", "cont.lambda_stop_low",
        "out.dir")


def test_unset_keys_take_the_config_class_defaults():
    st = cli.RunSettings({})
    assert st.cont == radbif.ContinuationConfig(
        tol_residual=st.cont.tol_residual)
    st = cli.RunSettings({"cont.ds_max": "0.5"})
    assert st.cont == radbif.ContinuationConfig(
        ds_max=0.5, tol_residual=st.cont.tol_residual)


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
    assert len(summary["fold_lambdas"]) == 1
    assert summary["fold_lambdas"] == [summary["fold_lambda"]]
    assert summary["fold_lambda"] >= summary["lambda_max"]
    assert summary["rejections"] >= 0 and "last_rejection" in summary
    for r in records[1:]:
        assert r["corrector_iterations"] >= 1
        assert r["ulp_shift"] in ULP_SHIFTS
        assert r["residual"] <= 1e-10


def test_branch_default_tolerance_follows_floor(tmp_path, capsys):
    # with newton.tol unset the tolerance is max(1e-10, 2 eps 2/h^2) at
    # N = 3; a fixed 1e-10 lies below the floor at M = 2048 and stops the
    # branch
    out = tmp_path / "out"
    assert run(["branch", "--override", "grid.M=2048",
                "--override", f"out.dir={out}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["termination"] == "lambda_floor"


def test_branch_default_tolerance_follows_the_dimension(tmp_path, capsys):
    # row 1's largest coefficient is ((N + 1)/2)/h^2, so the default floor
    # is 2 eps ((N + 1)/2)/h^2: 2.75 times the N = 3 rule at N = 10, where
    # that rule's tolerance ends the branch in corrector_failure
    st = cli.RunSettings({"grid.N": "10"})
    assert st.cont.tol_residual == (2.0 * np.finfo(float).eps * 5.5
                                    / st.grid.h ** 2)
    assert cli.RunSettings({}).cont.tol_residual == (
        2.0 * np.finfo(float).eps * 2.0 / st.grid.h ** 2)
    out = tmp_path / "out"
    assert run(["branch", "--override", "grid.N=10",
                "--override", f"out.dir={out}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["termination"] == "lambda_floor"


def test_branch_at_a_large_radius_reaches_the_floor(tmp_path, capsys):
    # at R = 40 the ray's u(0)/u(R) is about 2R e^-R = 3.4e-16, below the
    # relative positivity floor 1e-12: positivity asks every node to be
    # above 0 and each component's sup above the floor, so the step-off
    # is taken and the branch runs down to lambda_floor
    out = tmp_path / "out"
    assert run(["branch", "--override", "grid.R=40",
                "--override", f"out.dir={out}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["termination"] == "lambda_floor"
    assert len(summary["fold_lambdas"]) == 1


def test_branch_truncated_run_fails_loudly(tmp_path, capsys, monkeypatch):
    def truncated(grid, model, cfg):
        return continue_branch(grid, model,
                               dataclasses.replace(cfg, max_points=5))

    monkeypatch.setattr(cli, "continue_branch", truncated)
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
    # every fifth point is dumped, the tail included; each reloaded state,
    # on the grid rebuilt from its r column, has the scaled residual that
    # branch.jsonl records for it, bit for bit
    out = tmp_path / "out"
    assert run(["branch", "--dump-states", "5",
                "--override", "grid.M=128",
                "--override", f"out.dir={out}"]) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in _lines(out / "branch.jsonl")]
    dumps = sorted(out.glob("state_*.csv"))
    assert [p.name for p in dumps] == [
        f"state_{k:06d}.csv" for k in range(0, len(records), 5)]
    assert len(dumps) >= 3
    model = radbif.reference_model()
    for path in dumps:
        header = _lines(path)[0]
        assert header.startswith("# config=") and "lambda=" in header
        k = int(path.stem.split("_")[1])
        r, u1, u2 = radbif.load_state_csv(path)
        grid = radbif.build_grid(3, r[-1], r.size - 1)
        assert grid.r.tobytes() == r.tobytes()
        state = radbif.SystemState(u1, u2)
        res = radbif.scaled_residual_norm(
            radbif.residual(grid, model, records[k]["lambda"], state), state)
        assert res == records[k]["residual"], path.name
        assert (radbif.pair_norm(state) > 0.0) == (k > 0), path.name


def test_branch_rejects_negative_dump_interval(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["branch", "--dump-states", "-3",
                "--override", f"out.dir={out}"]) == 2
    assert "--dump-states must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


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


TWO_FOLD = ["--override", "model.coeffs1=0,1,-1.5,1",
            "--override", "model.coeffs2=0,1,1.72"]
TWO_FOLD_MAX = 0.3708241728436529  # bench/fold_oracle.py at M = 512


def test_two_fold_model_reports_its_maximum(tmp_path, capsys):
    # lam turns at a minimum (about 0.31257) before its maximum: branch
    # prints the maximum, and multiplicity takes a lam between mu0 and it
    out = tmp_path / "out"
    assert run(["branch", *TWO_FOLD, "--override", f"out.dir={out}"]) == 0
    printed = re.search(r"fold lambda=(\S+)", capsys.readouterr().out)
    fold = float(printed.group(1))
    assert abs(fold - TWO_FOLD_MAX) <= math.ulp(TWO_FOLD_MAX), fold
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["fold_lambda"] == fold >= summary["lambda_max"]
    low, high = summary["fold_lambdas"]
    assert len(summary["fold_lambdas"]) == 2
    assert low == pytest.approx(0.312568, abs=1e-6) and high == fold
    assert run(["multiplicity", "--lambda", "0.35", *TWO_FOLD,
                "--override", f"out.dir={out}"]) == 0
    payload = json.loads((out / "multiplicity.json").read_text())
    assert payload["minimal"]["norm_pair"] == pytest.approx(0.653, abs=1e-3)
    assert payload["branch_solution"]["norm_pair"] == pytest.approx(1.321,
                                                                   abs=1e-3)


def test_multiplicity_without_two_states_exits_1(tmp_path, capsys):
    # the quadratic model's branch bifurcates to the left and has no state
    # above mu0: a numerical outcome, not a configuration error, whose
    # message names the largest lam of the branch, not the zero floor
    assert run(["multiplicity", "--lambda", "0.4", "--override",
                "model.name=quadratic", "--override", "grid.M=128",
                "--override", f"out.dir={_out(tmp_path)}"]) == 1
    err = capsys.readouterr().err
    assert "no positive state at lam=0.4" in err
    assert "its largest lam is 0.313" in err and "zero floor" not in err


@pytest.mark.parametrize("command", [
    "branch", "rescale-check",
    pytest.param("multiplicity --lambda 0.32", id="multiplicity")])
def test_tail_cutoff_at_or_above_mu0_is_a_config_error(tmp_path, capsys,
                                                       command):
    # mu0 = 0.31303... on this grid: a cutoff of 0.5 leaves no branch to
    # trace, so every command that traces one exits 2 with one line naming
    # mu0 and writes no artifact
    out = tmp_path / "out"
    assert run(command.split() + ["--override", "cont.lambda_stop_low=0.5",
                                  "--override", "grid.M=64",
                                  "--override", f"out.dir={out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: lambda_stop_low = 0.5 ")
    assert "mu0 = 0.313" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", [
    pytest.param(["multiplicity", "--lambda", str(LAMBDA_MID)],
                 id="multiplicity"),
    pytest.param(["rescale-check"], id="rescale-check")])
def test_commands_refuse_a_branch_that_stopped_early(tmp_path, capsys,
                                                     monkeypatch, command):
    # a branch cut at max_points is not computed from: the stderr line of
    # radbif branch, exit 1 and no artifact
    def truncated(grid, model, cfg):
        return continue_branch(grid, model,
                               dataclasses.replace(cfg, max_points=5))

    monkeypatch.setattr(cli, "continue_branch", truncated)
    out = tmp_path / "out"
    argv = ["--override", "grid.M=128", "--override", f"out.dir={out}"]
    assert run(["branch", *argv]) == 1
    want = capsys.readouterr().err
    assert want.startswith("error: branch stopped early (max_points)")
    shutil.rmtree(out)
    assert run([*command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == want and captured.out == ""
    assert not out.exists()


def test_multiplicity_refuses_a_branch_that_failed(tmp_path, capsys):
    # at M = 1024 an explicit newton.tol=1e-10 lies below the representation
    # floor and the branch ends in corrector_failure before its fold
    out = tmp_path / "out"
    assert run(["multiplicity", "--lambda", "0.325",
                "--override", "grid.M=1024", "--override", "newton.tol=1e-10",
                "--override", f"out.dir={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: branch stopped early (corrector_failure)")
    assert "zero floor" not in err and not out.exists()


def test_branch_of_steps_that_round_to_nothing_stops_with_a_reason(
        tmp_path, capsys):
    # cont.ds = 1e-30 lies far below the ulps of the traces: every such
    # step is rejected, and the branch stops after the step-off with the
    # rejection's reason on stderr, not "last rejection: none"
    out = tmp_path / "out"
    assert run(["branch", "--override", "grid.M=128",
                *(f"--override=cont.{key}=1e-30"
                  for key in ("ds0", "ds_min", "ds_max")),
                "--override", f"out.dir={out}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: branch stopped early (corrector_failure)")
    assert "last rejection: step advanced " in err
    assert "last rejection: none" not in err
    summary = json.loads((out / "branch_summary.json").read_text())
    assert (summary["n_points"], summary["rejections"]) == (2, 1)


def test_step_off_at_the_positivity_floor_is_a_config_error(tmp_path,
                                                            capsys):
    # a step-off of pair norm at or below POSITIVITY_ZERO_FLOOR could never
    # be positive: exit 2 with one line naming the key and the floor, and
    # no artifact; just above the floor the branch reaches lambda_floor
    out = tmp_path / "out"
    for eps in ("1e-9", "1e-8"):
        assert run(["branch", "--override", "grid.M=128",
                    "--override", f"cont.eps_step_off={eps}",
                    "--override", f"out.dir={out}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: eps_step_off must lie in "
                              f"(1e-08, 0.1], got {float(eps)!r}")
        assert "POSITIVITY_ZERO_FLOOR = 1e-08" in err
        assert err.count("\n") == 1 and not out.exists()
    assert run(["branch", "--override", "grid.M=128",
                "--override", "cont.eps_step_off=2e-8",
                "--override", f"out.dir={out}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out


def test_multiplicity_rejects_nonpositive_lambda(tmp_path, capsys):
    assert run(["multiplicity", "--lambda", "0.0",
                "--override", f"out.dir={_out(tmp_path)}"]) == 2
    capsys.readouterr()


def test_rescale_check_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["rescale-check", "--override", "grid.M=256",
                "--override", f"out.dir={out}"]) == 0
    printed = capsys.readouterr().out
    assert "rescale-check: ok" in printed
    lines = _lines(out / "rescale.csv")
    assert lines[0].startswith("# config=")
    assert lines[1] == "lambda,ratio1,ratio2"
    # one row per tail point, lam falling from at most 1e-2 past the floor
    # 1e-3, the last ratios within 2 % of 1
    assert f"rows={len(lines) - 2})" in printed
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    lams = [r[0] for r in rows]
    assert len(rows) >= 3 and lams == sorted(lams, reverse=True)
    assert lams[0] <= 1e-2 and lams[-1] <= 1e-3
    assert max(abs(rows[-1][1] - 1.0), abs(rows[-1][2] - 1.0)) <= 0.02


def test_table_artifacts_are_the_library_values_as_17_digit_text(tmp_path,
                                                                 capsys):
    # steklov.csv, branch.dat, rescale.csv and the state dumps are their
    # header, then the library's own values, each as f"{x:.17g}", joined
    # by the file's separator: the exact bytes
    out = tmp_path / "out"
    for argv in (["steklov"], ["branch", "--dump-states", "10"],
                 ["rescale-check"]):
        assert run([*argv, "--override", "grid.M=128",
                    "--override", f"out.dir={out}"]) == 0
    capsys.readouterr()
    st = cli.RunSettings({"grid.M": "128"})
    branch = continue_branch(st.grid, st.model, st.cont)
    r = st.grid.r.tolist()

    def rows(*columns, sep=","):
        return "".join(sep.join(f"{x:.17g}" for x in row) + "\n"
                       for row in zip(*columns))

    config = f"# config={st.config_hash}"
    expected = {
        "steklov.csv": f"{config}\nr,phi1\n" + rows(
            r, radbif.steklov_eigenpair(st.grid).phi1.tolist()),
        "branch.dat": f"# lambda norm_pair (config={st.config_hash})\n"
                      + rows([p.lam for p in branch.points],
                             [p.norm for p in branch.points], sep=" "),
        "rescale.csv": f"{config}\nlambda,ratio1,ratio2\n"
                       + rows(*zip(*radbif.rescale_check(branch).rows)),
    }
    for k in range(0, len(branch.points), 10):
        p = branch.points[k]
        expected[f"state_{k:06d}.csv"] = (
            f"{config} lambda={p.lam:.17g}\nr,u1,u2\n"
            + rows(r, p.state.u1.tolist(), p.state.u2.tolist()))
    assert len(expected) >= 6
    assert set(expected) <= {path.name for path in out.iterdir()}
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode(), name


def test_branch_with_a_long_tail_reaches_the_floor(tmp_path, capsys):
    # a monotone model whose tail took more than max_points = 2000 fixed
    # steps: steps that grow with the pair norm reach lambda_floor
    out = tmp_path / "out"
    assert run(["branch", "--override", "model.coeffs1=0,0.345,0.552",
                "--override", "model.coeffs2=0,0.665,0.291",
                "--override", f"out.dir={out}"]) == 0
    assert "termination=lambda_floor" in capsys.readouterr().out
    summary = json.loads((out / "branch_summary.json").read_text())
    assert summary["termination"] == "lambda_floor"
    assert summary["n_points"] < 100


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["verify", "--override", f"out.dir={out}"]) == 0
    text = capsys.readouterr().out
    assert "9/9 checks passed" in text
    payload = json.loads((out / "verify.json").read_text())
    assert len(payload["checks"]) == 9
    assert all(c["passed"] for c in payload["checks"])


def test_verify_json_does_not_depend_on_the_clock(tmp_path, monkeypatch,
                                                  capsys):
    # two runs whose clocks advance by different steps, each within every
    # check's budget: the table shows the seconds, verify.json does not
    files = []
    for n, step in enumerate((1e-6, 0.3)):
        ticks = iter(range(10**6))
        monkeypatch.setattr(verify, "time", SimpleNamespace(
            perf_counter=lambda: step * next(ticks)))
        monkeypatch.setattr(verify, "_CACHE", None)
        out = tmp_path / f"out{n}"
        assert run(["verify", "--override", f"out.dir={out}"]) == 0
        files.append((out / "verify.json").read_bytes())
        assert all(o.seconds > step / 2 for o in verify._CACHE)
    capsys.readouterr()
    assert files[0] == files[1]


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_each_subcommand_lists_exactly_its_own_options(command, capsys):
    own = {"solve": {"--lambda", "--amplitude"},
           "branch": {"--dump-states"},
           "multiplicity": {"--lambda"}}.get(command, set())
    with pytest.raises(SystemExit) as info:
        run([command, "--help"])
    assert info.value.code == 0
    options = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert options == {"--help", "--config", "--override"} | own


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


def test_numpy_is_the_only_runtime_dependency():
    """pyproject.toml declares numpy alone; scipy (the bench's fold oracle
    and the ive cross-check) and mpmath (the Bessel-ratio reference) sit in
    the test extra, and no module of the package imports scipy."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    name = re.compile(r"[A-Za-z0-9_.-]+")
    assert [name.match(d)[0] for d in project["dependencies"]] == ["numpy"]
    test_extra = {name.match(d)[0]
                  for d in project["optional-dependencies"]["test"]}
    assert {"scipy", "mpmath"} <= test_extra
    for path in sorted((root / "src" / "radbif").glob("*.py")):
        assert not re.search(r"^\s*(import|from)\s+scipy\b",
                             path.read_text(), re.M), path


def test_import_loads_no_slow_scipy_subpackages():
    """`import radbif` stays cheap: no scipy module is loaded at all."""
    code = ("import sys, radbif, radbif.cli; print(sorted(m for m in "
            "sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_run_without_scipy(tmp_path):
    """verify and a small branch run in an interpreter where any scipy
    import fails."""
    code = ("import sys; sys.modules['scipy'] = None; "
            "from radbif.cli import run; sys.exit(run(sys.argv[1:]))")
    for args in (["verify"], ["branch", "--override", "grid.M=128"]):
        out = tmp_path / args[0]
        proc = subprocess.run([sys.executable, "-c", code, *args,
                               "--override", f"out.dir={out}"],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        assert any(out.iterdir())


@pytest.mark.skipif(shutil.which("radbif") is None,
                    reason="radbif console script not on PATH")
def test_console_script_on_path():
    proc = subprocess.run([shutil.which("radbif"), "--help"],
                          capture_output=True, text=True)
    _assert_help(proc)
