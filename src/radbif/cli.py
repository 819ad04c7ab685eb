"""Command-line front end: config ingestion, run orchestration, artifacts.

Configs are flat key=value text ('#' starts a comment); unknown keys are
errors listing the valid set, so typos never silently change a run.  Every
emitted record carries a 12-hex-digit hash of the effective resolved
settings; identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .analysis import (build_report, nonexistence_bound, rescale_check,
                       theta_exponents)
from .continuation import ContinuationConfig, continue_branch
from .errors import ConfigError, ToolkitError
from .grid import SystemState, build_grid, pair_norm, save_state_csv
from .model import (NonlinearityModel, linear_model, polynomial_model,
                    quadratic_model, reference_model)
from .monotone import second_solution
from .solver import (NewtonConfig, newton_solve, residual,
                     scaled_residual_norm, solve_limit_problem)
from .steklov import steklov_eigenpair
from . import verify as verify_mod

__all__ = ["run", "main", "VALID_KEYS"]

VALID_KEYS = (
    "model.name", "model.coeffs1", "model.coeffs2",
    "model.p1", "model.p2", "model.b1", "model.b2",
    "model.nu1", "model.nu2", "model.K",
    "grid.N", "grid.R", "grid.M",
    "newton.tol", "newton.max_iter",
    "cont.ds0", "cont.ds_min", "cont.ds_max",
    "cont.eps_step_off", "cont.lambda_stop_low",
    "out.dir",
)

_MODEL_PARAM_KEYS = ("model.p1", "model.p2", "model.b1", "model.b2",
                     "model.nu1", "model.nu2", "model.K")


def _parse_config_text(text: str, source: str) -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in VALID_KEYS:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys: "
                + ", ".join(VALID_KEYS))
        entries[key] = value
    return entries


def _load_entries(config_path: str | None, overrides: list[str]) -> dict:
    entries = {}
    if config_path is not None:
        if not os.path.isfile(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        with open(config_path, encoding="utf-8") as fh:
            entries = _parse_config_text(fh.read(), config_path)
    for item in overrides:
        entries.update(_parse_config_text(item, "--override"))
    return entries


def _float(entries, key, default):
    raw = entries.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}")


def _int(entries, key, default):
    raw = entries.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _float_list(raw: str, key: str) -> list[float]:
    try:
        return [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated numbers, got {raw!r}")


class RunSettings:
    """Effective, fully resolved settings for one invocation."""

    def __init__(self, entries: dict):
        self.grid = build_grid(_int(entries, "grid.N", 3),
                               _float(entries, "grid.R", 1.0),
                               _int(entries, "grid.M", 512))
        # default residual tolerance: twice the representation floor
        # eps * 2/h^2 of the 1/h^2 operator rows, and never below 1e-10
        floor = 2.0 * np.finfo(float).eps * 2.0 / self.grid.h ** 2
        self.newton = NewtonConfig(
            tol_residual=_float(entries, "newton.tol", max(1e-10, floor)),
            max_iter=_int(entries, "newton.max_iter", 50))
        self.cont = ContinuationConfig(
            ds0=_float(entries, "cont.ds0", 0.01),
            ds_min=_float(entries, "cont.ds_min", 1e-8),
            ds_max=_float(entries, "cont.ds_max", 0.25),
            eps_step_off=_float(entries, "cont.eps_step_off", 1e-4),
            lambda_stop_low=_float(entries, "cont.lambda_stop_low", 1e-3),
            newton=self.newton)
        self.out_dir = entries.get("out.dir", "out")
        self.model = self._resolve_model(entries)
        self.config_hash = self._hash(entries)

    @staticmethod
    def _resolve_model(entries: dict) -> NonlinearityModel:
        has_coeffs = "model.coeffs1" in entries or "model.coeffs2" in entries
        if has_coeffs:
            if "model.name" in entries:
                raise ConfigError(
                    "give either model.name or model.coeffs1/coeffs2, not both")
            missing = [k for k in ("model.coeffs1", "model.coeffs2",
                                   *_MODEL_PARAM_KEYS) if k not in entries]
            if missing:
                raise ConfigError(
                    "coefficient models need all structural constants; "
                    "missing: " + ", ".join(missing))
            return polynomial_model(
                _float_list(entries["model.coeffs1"], "model.coeffs1"),
                _float_list(entries["model.coeffs2"], "model.coeffs2"),
                p1=_float(entries, "model.p1", None),
                p2=_float(entries, "model.p2", None),
                b1=_float(entries, "model.b1", None),
                b2=_float(entries, "model.b2", None),
                nu1=_float(entries, "model.nu1", None),
                nu2=_float(entries, "model.nu2", None),
                K=_float(entries, "model.K", None))
        name = entries.get("model.name", "reference")
        builtins = {"reference": reference_model, "quadratic": quadratic_model,
                    "linear": linear_model}
        if name not in builtins:
            raise ConfigError(f"unknown model.name {name!r}; builtins: "
                              + ", ".join(sorted(builtins)))
        for key in _MODEL_PARAM_KEYS:
            if key in entries:
                raise ConfigError(
                    f"{key} only applies to coefficient models, not model.name={name}")
        return builtins[name]()

    def _hash(self, entries: dict) -> str:
        resolved = {
            "model": entries.get("model.name", "reference")
            if "model.coeffs1" not in entries else
            "|".join(f"{k}={entries[k]}" for k in sorted(entries)
                     if k.startswith("model.")),
            "grid.N": self.grid.N_dim, "grid.R": repr(self.grid.R_ball),
            "grid.M": self.grid.M,
            "newton.tol": repr(self.newton.tol_residual),
            "newton.max_iter": self.newton.max_iter,
            "cont.ds0": repr(self.cont.ds0),
            "cont.ds_min": repr(self.cont.ds_min),
            "cont.ds_max": repr(self.cont.ds_max),
            "cont.eps_step_off": repr(self.cont.eps_step_off),
            "cont.lambda_stop_low": repr(self.cont.lambda_stop_low),
        }
        blob = "\n".join(f"{k}={v}" for k, v in sorted(resolved.items()))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _g(x: float) -> str:
    return f"{x:.17g}"


def _cmd_steklov(st: RunSettings, args) -> int:
    eig = steklov_eigenpair(st.grid)
    print(f"mu1={eig.mu1:.7f}")
    with open(st.path("steklov.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# config={st.config_hash}\n")
        fh.write("r,phi1\n")
        for r, v in zip(st.grid.r, eig.phi1):
            fh.write(f"{_g(r)},{_g(v)}\n")
    return 0


def _report_payload(st: RunSettings, report) -> dict:
    slope = report.slope_predicted
    return {
        "config_hash": st.config_hash,
        "mu1": report.mu1, "sigma": report.sigma, "zeta": report.zeta,
        "mu0": report.mu0, "theta1": report.theta1, "theta2": report.theta2,
        "K_bound": report.K_bound, "direction": report.direction.value,
        "slope_predicted": list(slope) if isinstance(slope, tuple) else slope,
        "slope_fitted": report.slope_fitted,
        "r0_under": report.r0_under, "r0_over": report.r0_over,
    }


def _cmd_report(st: RunSettings, args) -> int:
    report = build_report(st.grid, st.model)
    payload = _report_payload(st, report)
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    _write_json(st.path("report.json"), payload)
    return 0


def _cmd_solve(st: RunSettings, args) -> int:
    if args.lam < 0:
        raise ConfigError(f"lambda must be nonnegative, got {args.lam}")
    if args.amplitude <= 0:
        raise ConfigError(f"amplitude must be positive, got {args.amplitude}")
    eig = steklov_eigenpair(st.grid)
    init = SystemState(args.amplitude * eig.phi1, args.amplitude * eig.phi1)
    result = newton_solve(st.grid, st.model, args.lam, init, st.newton)
    save_state_csv(st.path("solution.csv"), st.grid, result.state,
                   comment=f"config={st.config_hash} lambda={_g(args.lam)}")
    record = {
        "config_hash": st.config_hash, "lambda": args.lam,
        "norm_u1": float(np.abs(result.state.u1).max()),
        "norm_u2": float(np.abs(result.state.u2).max()),
        "norm_pair": pair_norm(result.state),
        "iterations": result.iterations,
        "residual": result.residual_norm, "positive": result.positive,
    }
    with open(st.path("solve.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"lambda={_g(args.lam)} norm_pair={_g(record['norm_pair'])} "
          f"positive={result.positive}")
    return 0


def _cmd_limit(st: RunSettings, args) -> int:
    w, res = solve_limit_problem(st.grid, st.model)
    save_state_csv(st.path("limit.csv"), st.grid, w,
                   comment=f"config={st.config_hash} pure-power limit")
    payload = {
        "config_hash": st.config_hash,
        "sup_w1": float(np.abs(w.u1).max()),
        "sup_w2": float(np.abs(w.u2).max()),
        "trace_w1": float(w.u1[-1]), "trace_w2": float(w.u2[-1]),
        "norm_pair": pair_norm(w), "residual": res,
    }
    _write_json(st.path("limit.json"), payload)
    print(f"sup_w1={_g(payload['sup_w1'])} sup_w2={_g(payload['sup_w2'])}")
    return 0


def _run_branch(st: RunSettings):
    return continue_branch(st.grid, st.model, st.cont)


def _cmd_branch(st: RunSettings, args) -> int:
    branch = _run_branch(st)
    with open(st.path("branch.jsonl"), "w", encoding="utf-8") as fh:
        for p in branch.points:
            record = {
                "lambda": p.lam,
                "norm_u1": float(np.abs(p.state.u1).max()),
                "norm_u2": float(np.abs(p.state.u2).max()),
                "norm_pair": p.norm, "ds": p.ds,
                "tangent_sign": p.tangent_lambda_sign,
                "corrector_iterations": p.corrector_iterations,
                "polish_iterations": p.polish_iterations,
                "residual": p.residual,
                "config_hash": st.config_hash,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(st.path("branch.dat"), "w", encoding="utf-8") as fh:
        fh.write(f"# lambda norm_pair (config={st.config_hash})\n")
        for p in branch.points:
            fh.write(f"{_g(p.lam)} {_g(p.norm)}\n")
    summary = {
        "config_hash": st.config_hash,
        "n_points": len(branch.points),
        "termination": branch.termination,
        "fold_lambda": branch.fold.lam_bar if branch.fold else None,
        "fold_index": branch.fold.index if branch.fold else None,
        "n_sign_flips": len(branch.fold_indices),
        "lambda_max": float(branch.lambdas().max()),
        "norm_max": float(branch.norms().max()),
        "rejections": branch.rejections,
        "last_rejection": branch.last_rejection,
    }
    _write_json(st.path("branch_summary.json"), summary)
    if args.dump_states > 0:
        for k in range(0, len(branch.points), args.dump_states):
            p = branch.points[k]
            save_state_csv(st.path(f"state_{k:06d}.csv"), st.grid, p.state,
                           comment=f"config={st.config_hash} lambda={_g(p.lam)}")
    fold_text = (f"fold lambda={_g(branch.fold.lam_bar)}" if branch.fold
                 else "no fold")
    print(f"points={len(branch.points)} termination={branch.termination} "
          + fold_text)
    if branch.termination != "lambda_floor":
        print(f"error: branch stopped early ({branch.termination}) at "
              f"lambda={_g(branch.points[-1].lam)} after {len(branch.points)} "
              f"points; last rejection: {branch.last_rejection or 'none'}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_multiplicity(st: RunSettings, args) -> int:
    if args.lam <= 0:
        raise ConfigError(f"lambda must be positive, got {args.lam}")
    branch = _run_branch(st)
    minimal, upper = second_solution(st.grid, st.model, args.lam, branch)
    save_state_csv(st.path("minimal.csv"), st.grid, minimal,
                   comment=f"config={st.config_hash} minimal lambda={_g(args.lam)}")
    save_state_csv(st.path("branch_solution.csv"), st.grid, upper,
                   comment=f"config={st.config_hash} branch lambda={_g(args.lam)}")
    res_min = scaled_residual_norm(
        residual(st.grid, st.model, args.lam, minimal), minimal)
    res_up = scaled_residual_norm(
        residual(st.grid, st.model, args.lam, upper), upper)
    ordered = bool((minimal.u1 <= upper.u1 + 1e-8).all()
                   and (minimal.u2 <= upper.u2 + 1e-8).all())
    payload = {
        "config_hash": st.config_hash, "lambda": args.lam,
        "minimal": {"norm_pair": pair_norm(minimal), "residual": res_min},
        "branch_solution": {"norm_pair": pair_norm(upper), "residual": res_up},
        "norm_gap": abs(pair_norm(upper) - pair_norm(minimal)),
        "ordered_nodewise": ordered,
    }
    _write_json(st.path("multiplicity.json"), payload)
    print(f"lambda={_g(args.lam)} minimal={_g(pair_norm(minimal))} "
          f"branch={_g(pair_norm(upper))} gap={_g(payload['norm_gap'])}")
    return 0


def _cmd_rescale_check(st: RunSettings, args) -> int:
    branch = _run_branch(st)
    limit, _ = solve_limit_problem(st.grid, st.model)
    table = rescale_check(branch, theta_exponents(st.model), limit)
    with open(st.path("rescale.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"# config={st.config_hash}\n")
        fh.write("lambda,ratio1,ratio2\n")
        for lam, r1, r2 in table.rows:
            fh.write(f"{_g(lam)},{_g(r1)},{_g(r2)}\n")
    verdict = "ok" if table.ok else "FAILED"
    print(f"rescale-check: {verdict} (final_dev={table.final_dev:.4g}, "
          f"monotone={table.monotone}, rows={len(table.rows)})")
    return 0 if table.ok else 1


def _cmd_verify(st: RunSettings, args) -> int:
    outcomes = verify_mod.run_acceptance()
    print(verify_mod.format_table(outcomes))
    payload = [{"name": o.name, "passed": o.passed, "detail": o.detail}
               for o in outcomes]
    _write_json(st.path("verify.json"),
                {"config_hash": st.config_hash, "checks": payload})
    return 0 if all(o.passed for o in outcomes) else 1


_COMMANDS = {
    "steklov": _cmd_steklov,
    "report": _cmd_report,
    "solve": _cmd_solve,
    "limit": _cmd_limit,
    "branch": _cmd_branch,
    "multiplicity": _cmd_multiplicity,
    "rescale-check": _cmd_rescale_check,
    "verify": _cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key=value settings file")
    common.add_argument("--override", metavar="KEY=VALUE", action="append",
                        default=[], help="set one key (repeatable)")
    parser = argparse.ArgumentParser(
        prog="radbif",
        description="Bifurcation toolkit for radially symmetric coupled "
                    "boundary-flux systems on balls")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("steklov", parents=[common],
                   help="first eigenpair of the boundary eigenvalue problem")
    sub.add_parser("report", parents=[common],
                   help="scalar bifurcation report as JSON")
    p_solve = sub.add_parser("solve", parents=[common],
                             help="fixed-parameter Newton solve")
    p_solve.add_argument("--lambda", dest="lam", type=float, required=True)
    p_solve.add_argument("--amplitude", type=float, default=1.0,
                         help="initial amplitude along the eigenfunction pair")
    sub.add_parser("limit", parents=[common],
                   help="nontrivial solution of the pure-power limit problem")
    p_branch = sub.add_parser("branch", parents=[common],
                              help="trace the positive branch")
    p_branch.add_argument("--dump-states", type=int, default=0, metavar="K",
                          help="write full state CSV every K-th point")
    p_mult = sub.add_parser("multiplicity", parents=[common],
                            help="two distinct solutions at one parameter")
    p_mult.add_argument("--lambda", dest="lam", type=float, required=True)
    sub.add_parser("rescale-check", parents=[common],
                   help="score the branch tail against the limit problem")
    sub.add_parser("verify", parents=[common],
                   help="run the acceptance suite and print a table")
    return parser


def run(argv) -> int:
    """Parse argv, execute one subcommand, map failures to exit codes:
    0 success, 1 numerical failure, 2 configuration error."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = RunSettings(_load_entries(args.config, args.override))
        return _COMMANDS[args.command](settings, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
