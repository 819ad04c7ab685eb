"""Command-line front end: config ingestion, run orchestration, artifacts.

Configs are flat key=value text ('#' starts a comment); unknown keys are
errors listing the valid set, so typos never silently change a run.  Every
emitted record carries a 12-hex-digit hash of the effective resolved
settings; identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

import numpy as np

from .analysis import build_report, rescale_check
from .continuation import ContinuationConfig, continue_branch
from .errors import (ConfigError, ContinuationError, ToolkitError,
                     require_positive)
from .grid import (SystemState, _write_table, build_grid, pair_norm,
                   save_state_csv)
from .model import (NonlinearityModel, linear_model, polynomial_model,
                    quadratic_model, reference_model)
from .monotone import second_solution
from .solver import (TOL_RESIDUAL, newton_solve, residual,
                     scaled_residual_norm, solve_limit_problem)
from .steklov import steklov_eigenpair
from . import verify as verify_mod

__all__ = ["run", "main", "VALID_KEYS"]

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


def _number(raw: str | float, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return value


def _integer(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}")


def _float_list(raw: str, key: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",")]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated numbers, got {raw!r}")
    return [_number(x, key) for x in values]


def _text(raw: str, key: str) -> str:
    return raw


# Every key, in the order the unknown-key error lists them, and the parser
# of its value, parser(raw, key).  A "cont.<field>" key sets that
# ContinuationConfig field; newton.tol sets the one residual tolerance, of
# newton_solve and of continuation.
_KEYS = {
    "model.name": _text,
    "model.coeffs1": _float_list, "model.coeffs2": _float_list,
    "grid.N": _integer, "grid.R": _number, "grid.M": _integer,
    "newton.tol": _number,
    "cont.ds0": _number, "cont.ds_min": _number, "cont.ds_max": _number,
    "cont.eps_step_off": _number, "cont.lambda_stop_low": _number,
    "out.dir": _text,
}
VALID_KEYS = tuple(_KEYS)


def _out_dir(path: str) -> str:
    """path, unless it is empty or it, or the nearest of its ancestors
    that exists, is not a directory: then ConfigError, before any run
    and with nothing created."""
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not path or not os.path.isdir(existing or "."):
        raise ConfigError(f"out.dir must name a directory, got {path!r}")
    return path


class RunSettings:
    """Effective, fully resolved settings for one invocation.

    Every key is read once, by value(key, default): its entry parsed by its
    _KEYS parser, or else default, and the result is its resolved value.
    The config hash is taken over the resolved values, with out.dir left
    out and the model keys standing as one "model" entry."""

    def __init__(self, entries: dict):
        resolved = {}

        def value(key, default=None):
            raw = entries.get(key)
            resolved[key] = default if raw is None else _KEYS[key](raw, key)
            return resolved[key]

        self.grid = build_grid(value("grid.N", 3), value("grid.R", 1.0),
                               value("grid.M", 512))
        # default tolerance: twice the representation floor eps c/h^2 of
        # the operator rows, c = (N + 1)/2 the largest coefficient of row 1
        # times h^2 (2 at N = 3), never below TOL_RESIDUAL
        floor = (2.0 * np.finfo(float).eps * ((self.grid.N_dim + 1) / 2)
                 / self.grid.h ** 2)
        tol = value("newton.tol", max(TOL_RESIDUAL, floor))
        # a cont.<field> key left unset resolves to the class default of
        # <field> and is not passed at all
        cont = {key: value(key, getattr(ContinuationConfig, key[5:]))
                for key in _KEYS if key.startswith("cont.")}
        self.cont = ContinuationConfig(tol_residual=tol, **{
            key[5:]: v for key, v in cont.items() if key in entries})
        self.out_dir = _out_dir(value("out.dir", "out"))
        self.model, model_key = self._resolve_model(value, entries)
        lines = [f"{k}={v!r}" for k, v in resolved.items()
                 if not k.startswith(("model.", "out."))]
        blob = "\n".join(sorted(lines + [f"model={model_key}"]))
        self.config_hash = hashlib.sha256(blob.encode()).hexdigest()[:12]

    @staticmethod
    def _resolve_model(value, entries: dict) -> tuple[NonlinearityModel, str]:
        """The model and the text that stands for it in the config hash: a
        builtin's name, or a coefficient model's parsed coefficients."""
        keys = ("model.coeffs1", "model.coeffs2")
        if any(key in entries for key in keys):
            if "model.name" in entries:
                raise ConfigError(
                    "give either model.name or model.coeffs1/coeffs2, not both")
            missing = [key for key in keys if key not in entries]
            if missing:
                raise ConfigError("coefficient models need both coefficient "
                                  "lists; missing: " + ", ".join(missing))
            c1, c2 = (value(key) for key in keys)
            return (polynomial_model(c1, c2),
                    f"model.coeffs1={c1!r}|model.coeffs2={c2!r}")
        name = value("model.name", "reference")
        builtins = {"reference": reference_model, "quadratic": quadratic_model,
                    "linear": linear_model}
        if name not in builtins:
            raise ConfigError(f"unknown model.name {name!r}; builtins: "
                              + ", ".join(sorted(builtins)))
        return builtins[name](), name

    def path(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(self.out_dir, name)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _g(x: float) -> str:
    return f"{x:.17g}"


def _require_lambda_floor(branch) -> None:
    """ContinuationError (exit 1) unless the branch ran down to
    cont.lambda_stop_low: a branch that stopped early is not one to
    compute from."""
    if branch.termination != "lambda_floor":
        raise ContinuationError(
            f"branch stopped early ({branch.termination}) at "
            f"lambda={_g(branch.points[-1].lam)} after {len(branch.points)} "
            f"points; last rejection: {branch.last_rejection or 'none'}",
            last_point=branch.points[-1])


def _cmd_steklov(st: RunSettings, args) -> int:
    eig = steklov_eigenpair(st.grid)
    print(f"mu1={eig.mu1:.7f}")
    _write_table(st.path("steklov.csv"),
                 f"# config={st.config_hash}\nr,phi1\n", (st.grid.r, eig.phi1))
    return 0


def _cmd_report(st: RunSettings, args) -> int:
    report = build_report(st.grid, st.model)
    payload = {**dataclasses.asdict(report),
               "direction": report.direction.value,
               "config_hash": st.config_hash}
    text = json.dumps(payload, sort_keys=True, indent=2)
    print(text)
    _write_json(st.path("report.json"), payload)
    return 0


def _cmd_solve(st: RunSettings, args) -> int:
    require_positive(args.lam, "--lambda")
    require_positive(args.amplitude, "--amplitude")
    eig = steklov_eigenpair(st.grid)
    init = SystemState(args.amplitude * eig.phi1, args.amplitude * eig.phi1)
    result = newton_solve(st.grid, st.model, args.lam, init,
                          st.cont.tol_residual)
    save_state_csv(st.path("solution.csv"), st.grid, result.state,
                   comment=f"config={st.config_hash} lambda={_g(args.lam)}")
    record = {
        "config_hash": st.config_hash, "lambda": args.lam,
        "norm_u1": float(np.abs(result.state.u1).max()),
        "norm_u2": float(np.abs(result.state.u2).max()),
        "norm_pair": pair_norm(result.state),
        "iterations": result.iterations,
        "residual": result.residual_norm, "positive": result.positive,
        "history": result.history,
    }
    with open(st.path("solve.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"lambda={_g(args.lam)} norm_pair={_g(record['norm_pair'])} "
          f"positive={result.positive}")
    if not result.positive:
        print(f"error: Newton converged to a state that is not positive: "
              f"norm_pair={_g(record['norm_pair'])}, min u1="
              f"{_g(float(result.state.u1.min()))}, min u2="
              f"{_g(float(result.state.u2.min()))}", file=sys.stderr)
        return 1
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


def _cmd_branch(st: RunSettings, args) -> int:
    if args.dump_states < 0:
        raise ConfigError(
            f"--dump-states must be nonnegative, got {args.dump_states}")
    branch = continue_branch(st.grid, st.model, st.cont)
    with open(st.path("branch.jsonl"), "w", encoding="utf-8") as fh:
        for p in branch.points:
            record = {
                "lambda": p.lam,
                "norm_u1": p.t1, "norm_u2": p.t2,
                "norm_pair": p.norm, "ds": p.ds,
                "tangent_sign": p.tangent_lambda_sign,
                "corrector_iterations": p.corrector_iterations,
                "ulp_shift": p.ulp_shift,
                "residual": p.residual,
                "config_hash": st.config_hash,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    _write_table(st.path("branch.dat"),
                 f"# lambda norm_pair (config={st.config_hash})\n",
                 (branch.lambdas(), branch.norms()), sep=" ")
    summary = {
        "config_hash": st.config_hash,
        "n_points": len(branch.points),
        "termination": branch.termination,
        "fold_lambda": branch.fold.lam_bar if branch.fold else None,
        "fold_index": branch.fold.index if branch.fold else None,
        "fold_lambdas": [f.lam_bar for f in branch.folds],
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
    _require_lambda_floor(branch)
    return 0


def _cmd_multiplicity(st: RunSettings, args) -> int:
    require_positive(args.lam, "--lambda")
    branch = continue_branch(st.grid, st.model, st.cont)
    _require_lambda_floor(branch)
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
    branch = continue_branch(st.grid, st.model, st.cont)
    _require_lambda_floor(branch)
    table = rescale_check(branch)
    _write_table(st.path("rescale.csv"),
                 f"# config={st.config_hash}\nlambda,ratio1,ratio2\n",
                 tuple(zip(*table.rows)))
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


_LAMBDA = ("--lambda", {"dest": "lam", "type": float, "required": True})

# Each subcommand: its function, its help text and the arguments it takes
# beyond --config and --override, as (flag, add_argument keywords).
_COMMANDS = {
    "steklov": (_cmd_steklov,
                "first eigenpair of the boundary eigenvalue problem", ()),
    "report": (_cmd_report, "scalar bifurcation report as JSON", ()),
    "solve": (_cmd_solve, "fixed-parameter Newton solve", (
        _LAMBDA,
        ("--amplitude", {"type": float, "default": 1.0, "help":
                         "initial amplitude along the eigenfunction pair"}))),
    "limit": (_cmd_limit,
              "nontrivial solution of the pure-power limit problem", ()),
    "branch": (_cmd_branch, "trace the positive branch", (
        ("--dump-states", {"type": int, "default": 0, "metavar": "K", "help":
                           "write full state CSV every K-th point"}),)),
    "multiplicity": (_cmd_multiplicity,
                     "two distinct solutions at one parameter", (_LAMBDA,)),
    "rescale-check": (_cmd_rescale_check,
                      "score the branch tail against the limit problem", ()),
    "verify": (_cmd_verify, "run the acceptance suite and print a table", ()),
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
    for name, (_, text, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, parents=[common], help=text)
        for flag, options in arguments:
            command.add_argument(flag, **options)
    return parser


def run(argv) -> int:
    """Parse argv, execute one subcommand, map failures to exit codes:
    0 success, 1 numerical failure, 2 configuration error."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        settings = RunSettings(_load_entries(args.config, args.override))
        return _COMMANDS[args.command][0](settings, args)
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
