"""radbif benchmark: end-to-end and per-layer figures for three workloads.

Run from the repository root:

    python3 bench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0

Each run is one process and a closed loop: the next operation starts when
the previous one returns.  A run does a fixed number of sweeps, chosen from
--seconds and the workload's typical sweep time (SWEEP_S, measured on a
shared 2-core host), so that it lasts about --seconds there.  The work
done, and with it the failure count, depends only on the seed and
--seconds, never on the clock.  Workloads, and why each is here:

acceptance
    run_acceptance(force=True), the nine checks behind `radbif verify`.
    Corrector waste dominates (several Jacobians per accepted branch point),
    and the residual is called many times on short vectors, so overhead per
    call shows here.
branch-M4096
    `radbif branch --dump-states 50` in process, with grid.M=4096 and
    newton.tol=1e-8 (the documented floor eps*2/h^2 for M >= 1024).
    Per-node kernels (banded LU, extended-precision matvec) dominate, the
    corrector wastes little, and the CLI writes its artifacts.
multiplicity-sweep
    second_solution at lam values spread over the open window (mu0, fold)
    of the M=512 reference branch, which set-up traces.  The monotone
    iteration does the work; continuation does none during operations.
    Each sweep takes K evenly spaced lam values with one seeded offset, in
    seeded order.  Near mu0 and near the fold the iteration fails (step cap
    or order violation); those failures are counted, not avoided.

The seed moves only the lam values of multiplicity-sweep; the other two
workloads have fixed inputs.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1, the per-layer metrics.  The two end-to-end
timings, wall_norm_s (per operation) and setup_s, are medians of wall
times normalized to a reference host speed: each sweep and each set-up is
bracketed by runs of a fixed calibration computation (calibrate.py),
because this kind of shared host changes speed by up to 1.8x for tens of
seconds at a time.  Raw wall times go to the output file.  A traced run
executes every operation twice, untraced and traced in alternating order,
so trace_overhead_s compares the same inputs; per-layer figures are means
per traced operation.  Both kinds of run also write a JSON file under
bench/.out/ with the run environment, sample counts and every raw figure.
The exit code is 1 when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / ".out"
SETUP_REPEATS = 3

# The settings of the shared branch in radbif.verify (reference model, M=512).
ACCEPTANCE_BRANCH = dict(ds0=0.01, ds_min=1e-8, ds_max=0.25, eps_step_off=1e-4,
                         lambda_stop_low=9e-4, max_points=4000)

# A reported fold within this distance of the oracle reads as this distance:
# the oracle's own lam is good to about 1e-14, and the floor keeps an exact
# fold from reading 0, which no bound relative to the parent could handle.
FOLD_ERR_FLOOR = 1e-12

CHECK_NAMES = ("steklov-oracle", "bifurcation-point", "direction-slope",
               "theta-exponents", "rescale-tail", "nonexistence", "multiplicity",
               "jacobian-fd", "jordan-identity")


def import_program():
    src = ROOT / "src"
    if not (src / "radbif" / "__init__.py").is_file():
        sys.exit(f"bench: no radbif sources under {src}")
    sys.path.insert(0, str(src))
    import radbif
    import radbif.cli  # noqa: F401  (not imported by the package itself)
    if Path(radbif.__file__).resolve().parent != (src / "radbif").resolve():
        sys.exit(f"bench: radbif was imported from {radbif.__file__}, not {src}")
    return radbif


def import_seconds() -> float:
    """Wall time of `import radbif` in a fresh interpreter.  No timeout:
    with one, subprocess polls the child in steps of up to 50 ms."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import radbif"], cwd=ROOT, env=env,
                   check=True)
    return perf_counter() - t0


def scaled_residual(rb, grid, model, lam, state) -> float:
    """max|F| / max(1, sup|u1|, sup|u2|), the convention the README states."""
    res = rb.residual(grid, model, lam, state)
    scale = max(1.0, float(abs(state.u1).max()), float(abs(state.u2).max()))
    return float(abs(res).max()) / scale


def fold_error(reported, exact) -> float:
    return max(abs(reported - exact), FOLD_ERR_FLOOR)


@contextlib.contextmanager
def capture_returns(module, attr):
    """Collect the return values of module.attr while active."""
    original = getattr(module, attr, None)
    results = []
    if original is None:
        yield results
        return

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        results.append(out)
        return out

    setattr(module, attr, wrapper)
    try:
        yield results
    finally:
        setattr(module, attr, original)


class Workload:
    """One operation per sweep with no input, on the reference model
    (N=3, R=1) at grid size M, with the exact fold from the oracle.

    setup() is the program's set-up, timed; prepare() runs untimed before
    each operation; check() returns (operation failed, correctness
    problems) for one result."""

    M = 512
    SWEEP_S = 3.1  # typical seconds per sweep, with its calibration

    def __init__(self, rb):
        from fold_oracle import exact_fold
        self.rb = rb
        self.grid = rb.build_grid(3, 1.0, self.M)
        self.model = rb.reference_model()
        self.fold = exact_fold(self.grid, self.model)
        self.fold_err = None

    def setup(self):
        pass

    def sweep(self, rng):
        return [None]

    def prepare(self, inp):
        pass

    def check_seconds(self, result):
        return {}


class Acceptance(Workload):
    """run_acceptance(force=True); the suite is memoized without force."""

    def run(self, inp):
        with capture_returns(self.rb.verify, "continue_branch") as branches:
            outcomes = self.rb.verify.run_acceptance(force=True)
        return outcomes, branches

    def check(self, inp, result):
        outcomes, branches = result
        wrong = [f"check {o.name} failed: {o.detail}" for o in outcomes if not o.passed]
        if len(outcomes) < len(CHECK_NAMES):
            wrong.append(f"only {len(outcomes)} checks ran")
        # The suite's shared branch is its longest continue_branch result.
        shared = max(branches, key=lambda b: len(b.points), default=None)
        if shared is None:  # continue_branch is no longer called by name
            shared = self.rb.continue_branch(
                self.grid, self.model, self.rb.ContinuationConfig(**ACCEPTANCE_BRANCH))
        if shared.fold is None:
            wrong.append("shared branch has no fold")
        else:
            self.fold_err = fold_error(shared.fold.lam_bar, self.fold)
        return bool(wrong), wrong

    def check_seconds(self, result):
        return {o.name: o.seconds for o in result[0]}


class BranchM4096(Workload):
    """In-process `radbif branch` at M=4096 with its artifacts checked."""

    M = 4096
    SWEEP_S = 3.4
    TOL = 1e-8
    HASHED = ("branch.jsonl", "branch_summary.json", "state_*.csv")

    def __init__(self, rb):
        super().__init__(rb)
        self.out_dir = OUT / "branch-M4096"
        self.argv = ["branch", "--dump-states", "50",
                     "--override", f"grid.M={self.M}",
                     "--override", f"newton.tol={self.TOL:g}",
                     "--override", f"out.dir={self.out_dir}"]
        self.first_hashes = None

    def prepare(self, inp):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, inp):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.rb.cli.run(list(self.argv))
        return code, buf.getvalue()

    def _hashes(self):
        files = []
        for pattern in self.HASHED:
            files.extend(sorted(self.out_dir.glob(pattern)))
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}

    def check(self, inp, result):
        code, text = result
        if code != 0:
            return True, [f"exit code {code}: {text.strip()[-300:]}"]
        wrong = []
        summary = json.loads((self.out_dir / "branch_summary.json").read_text())
        if summary["termination"] != "lambda_floor":
            wrong.append(f"termination {summary['termination']}")
        if summary["lambda_max"] > self.fold:
            wrong.append(f"branch max lambda {summary['lambda_max']!r} exceeds the "
                         f"exact fold {self.fold!r}")
        if summary["fold_lambda"] is None:
            wrong.append("no fold reported")
        else:
            self.fold_err = fold_error(summary["fold_lambda"], self.fold)
        records = [json.loads(line) for line in
                   (self.out_dir / "branch.jsonl").read_text().splitlines()]
        states = sorted(self.out_dir.glob("state_*.csv"))
        if not states:
            wrong.append("no state dumps")
        for path in states:
            k = int(path.stem.split("_")[1])
            lam = records[k]["lambda"]
            _, u1, u2 = self.rb.load_state_csv(path)
            res = scaled_residual(self.rb, self.grid, self.model, lam,
                                  self.rb.SystemState(u1, u2))
            if not res <= self.TOL:
                wrong.append(f"{path.name}: residual {res:.3e} > {self.TOL:g}")
        hashes = self._hashes()
        if self.first_hashes is None:
            self.first_hashes = hashes
        elif hashes != self.first_hashes:
            wrong.append("artifacts differ from the first run's bytes")
        return bool(wrong), wrong


class MultiplicitySweep(Workload):
    """second_solution across (mu0, exact fold) on one traced branch."""

    K = 8  # lam values per sweep
    SWEEP_S = 4.1
    GOLDEN = 0.6180339887498949

    def __init__(self, rb):
        super().__init__(rb)
        self.branch = None
        self.mu0 = None
        self.offset = None

    def setup(self):
        rb = self.rb
        eig = rb.steklov_eigenpair(self.grid)
        self.mu0 = rb.bifurcation_point(self.model, eig.mu1)
        self.branch = rb.continue_branch(self.grid, self.model,
                                         rb.ContinuationConfig(**ACCEPTANCE_BRANCH))
        if self.branch.fold is not None:
            self.fold_err = fold_error(self.branch.fold.lam_bar, self.fold)

    def sweep(self, rng):
        """K evenly spaced lam values.  The first offset comes from the seed
        and later ones step by the golden ratio, so the sweeps of one run
        cover the window evenly."""
        import numpy as np
        if self.offset is None:
            self.offset = rng.random()
        else:
            self.offset = (self.offset + self.GOLDEN) % 1.0
        u = self.offset if self.offset > 0.0 else 0.5  # keep lam off mu0
        lams = self.mu0 + (np.arange(self.K) + u) / self.K * (self.fold - self.mu0)
        return [float(lam) for lam in rng.permutation(lams)]

    def run(self, lam):
        try:
            return self.rb.second_solution(self.grid, self.model, lam, self.branch)
        except self.rb.ToolkitError as exc:
            return exc

    def check(self, lam, result):
        if self.branch.fold is None:
            return isinstance(result, Exception), ["reference branch has no fold"]
        if isinstance(result, Exception):
            return True, []
        minimal, upper = result
        wrong = []
        slack = 1e-12 * max(1.0, self.rb.pair_norm(upper))
        if (minimal.u1 > upper.u1 + slack).any() or (minimal.u2 > upper.u2 + slack).any():
            wrong.append(f"lam={lam!r}: minimal solution not below the branch solution")
        for label, state in (("minimal", minimal), ("branch", upper)):
            res = scaled_residual(self.rb, self.grid, self.model, lam, state)
            if not res <= 1e-10:
                wrong.append(f"lam={lam!r}: {label} residual {res:.3e} > 1e-10")
        return False, wrong


WORKLOADS = {"acceptance": Acceptance, "branch-M4096": BranchM4096,
             "multiplicity-sweep": MultiplicitySweep}


def git_sha():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    threads = {var: os.environ.get(var, "unset") for var in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": threads, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def execute(workload, inp, tracer=None):
    """(seconds, result) of one operation, traced when a tracer is given."""
    workload.prepare(inp)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = perf_counter()
        result = workload.run(inp)
        dt = perf_counter() - t0
    return dt, result


def layer_metrics(tracer, n_ops, check_seconds, overhead) -> dict:
    from layers import LAYERS
    stats, nested = tracer.stats, tracer.nested
    out = {}
    for name, _, _ in LAYERS:
        s = stats[name]
        out.update({f"{name}.calls": s.calls, f"{name}.s": s.seconds,
                    f"{name}.self_s": s.self_seconds, f"{name}.failures": s.failures})
    out["grid.banded_matvec_extended.bytes"] = \
        stats["grid.banded_matvec_extended"].counters["bytes"]
    out["solver.newton_solve.iterations"] = stats["solver.newton_solve"].counters["iterations"]
    branch = stats["continuation.continue_branch"]
    points = branch.counters["points"]
    jac_in_branch = nested[("solver.jacobian", "continuation.continue_branch")][0]
    out["continuation.points"] = points
    out["continuation.steps_below_ds_max"] = branch.counters["steps_below_ds_max"]
    out["monotone.iterations"] = nested[("solver.linear_bvp_solve",
                                         "monotone.monotone_iterate")][0]
    out["monotone.failures"] = stats["monotone.monotone_iterate"].failures
    out["cli.io_s"] = (stats["cli.run"].seconds
                       - nested[("continuation.continue_branch", "cli.run")][1])
    for name in CHECK_NAMES:
        out[f"verify.{name}.s"] = check_seconds.get(name, 0.0)
    per_op = {k: v / n_ops for k, v in out.items()}
    per_op["continuation.jacobians_per_point"] = jac_in_branch / points if points else 0.0
    per_op["trace_overhead_s"] = overhead
    return per_op


def report(spec, values) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rb = import_program()
    import numpy as np
    from calibrate import REF_S, calibrate
    from layers import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload](rb)

    # Every timed stretch is bracketed by calibrations and normalized by
    # their mean (see calibrate.py); cal is the latest one.
    cal = calibrate()
    cals = [cal]

    def normalized(seconds):
        nonlocal cal
        before, cal = cal, calibrate()
        cals.append(cal)
        return [s * REF_S / ((before + cal) / 2) for s in seconds]

    setups, norm_setups = [], []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = perf_counter()
        workload.setup()
        setups.append(t_import + perf_counter() - t0)
        norm_setups.extend(normalized(setups[-1:]))

    rng = np.random.default_rng(args.seed)
    tracer = Tracer() if args.trace else None
    times, norm_times, traced_times, wrong, failures = [], [], [], [], {}
    check_seconds = {}
    attempted = failed = 0
    # A traced run executes every operation twice, so it does half the sweeps.
    n_sweeps = max(1, round(args.seconds / (workload.SWEEP_S * (1 + args.trace))))
    for _ in range(n_sweeps):
        first = len(times)
        for inp in workload.sweep(rng):
            modes = [None]
            if tracer is not None:
                modes = [None, tracer] if len(times) % 2 == 0 else [tracer, None]
            for mode in modes:
                dt, result = execute(workload, inp, mode)
                (traced_times if mode is not None else times).append(dt)
                op_failed, problems = workload.check(inp, result)
                attempted += 1
                failed += op_failed
                wrong.extend(problems)
                if isinstance(result, Exception):
                    reason = type(result).__name__
                    failures[reason] = failures.get(reason, 0) + 1
                if tracer is not None and mode is None:
                    for name, sec in workload.check_seconds(result).items():
                        check_seconds[name] = check_seconds.get(name, 0.0) + sec
        norm_times.extend(normalized(times[first:]))

    samples = {"ops": len(times), "traced_ops": len(traced_times),
               "setup": len(setups)}
    record = {"env": env, "samples": samples, "failures_by_type": failures,
              "fail_frac": failed / attempted, "wrong": wrong[:50],
              "op_seconds": times, "setup_seconds": setups,
              "norm_op_seconds": norm_times, "norm_setup_seconds": norm_setups,
              "calibration_seconds": cals,
              "raw_median": {"op_s": statistics.median(times),
                             "setup_s": statistics.median(setups)}}
    if tracer is None:
        values = {
            "wall_norm_s": statistics.median(norm_times),
            "setup_s": statistics.median(norm_setups),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "fold_abs_err": workload.fold_err if workload.fold_err is not None
            else float("nan"),
        }
        metrics = report(spec["end_to_end"], values)
        out_name = f"{args.workload}-seed{args.seed}-e2e.json"
    else:
        overhead = statistics.median(traced_times) - statistics.median(times)
        values = layer_metrics(tracer, len(traced_times), check_seconds, overhead)
        metrics = report(spec["per_layer"], values)
        stats = tracer.stats
        branch_name = "continuation.continue_branch"
        branch_s = stats[branch_name].seconds
        record.update({
            "traced_op_seconds": traced_times, "absent_layers": tracer.absent,
            "layers": tracer.summary(),
            "premise": {
                "lu_plus_matvec_share_of_continue_branch":
                    (tracer.nested[("solver.BandedMatrix.solve", branch_name)][1]
                     + tracer.nested[("grid.banded_matvec_extended", branch_name)][1])
                    / branch_s if branch_s else None,
                "monotone_share_of_op":
                    stats["monotone.monotone_iterate"].seconds / sum(traced_times),
            }})
        out_name = f"{args.workload}-seed{args.seed}-layers.json"
    record["metrics"] = metrics
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / out_name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    correct = not wrong
    for problem in wrong[:20]:
        print(f"WRONG {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} ops={samples['ops']} "
          f"traced_ops={samples['traced_ops']} setups={samples['setup']} "
          f"fail_frac={failed / attempted:.4f} failures={failures} "
          f"raw_median_op_s={record['raw_median']['op_s']:.4f} "
          f"raw_median_setup_s={record['raw_median']['setup_s']:.4f} -> {OUT / out_name}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
