"""Per-layer spans recorded from outside the program.

A layer is one public function or method of a radbif module.  While a
Tracer is active, every binding of that object in the loaded radbif
modules (the defining module, each module that imported the name, and the
package namespace) is replaced by one timing wrapper; the originals are put
back on exit.  Nothing under src/ is edited.  A layer that no longer exists
is listed in Tracer.absent instead of raising, so the benchmark keeps
running when a refactor removes it.

Per call the wrapper records the duration and the part of it covered by
nested traced calls, so self time is duration minus child time.  A few
layers also feed counters from their arguments or results (HOOKS), and a
few (inner, outer) pairs are counted only while outer is open (NESTED).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# (layer name, defining module, attribute path within it)
LAYERS = (
    ("grid.banded_matvec_extended", "radbif.grid", "banded_matvec_extended"),
    ("grid.solve_flux_bvp", "radbif.grid", "solve_flux_bvp"),
    ("grid.save_state_csv", "radbif.grid", "save_state_csv"),
    ("steklov.steklov_eigenpair", "radbif.steklov", "steklov_eigenpair"),
    ("solver.residual", "radbif.solver", "residual"),
    ("solver.jacobian", "radbif.solver", "jacobian"),
    ("solver.BandedMatrix.solve", "radbif.solver", "BandedMatrix.solve"),
    ("solver.newton_solve", "radbif.solver", "newton_solve"),
    ("solver.linear_bvp_solve", "radbif.solver", "linear_bvp_solve"),
    ("continuation.continue_branch", "radbif.continuation", "continue_branch"),
    ("continuation.step_off", "radbif.continuation", "step_off"),
    ("continuation.detect_fold", "radbif.continuation", "detect_fold"),
    ("continuation.solutions_at", "radbif.continuation", "solutions_at"),
    ("monotone.monotone_iterate", "radbif.monotone", "monotone_iterate"),
    ("cli.run", "radbif.cli", "run"),
)

NESTED = (
    ("solver.jacobian", "continuation.continue_branch"),
    ("solver.BandedMatrix.solve", "continuation.continue_branch"),
    ("grid.banded_matvec_extended", "continuation.continue_branch"),
    ("solver.linear_bvp_solve", "monotone.monotone_iterate"),
    ("continuation.continue_branch", "cli.run"),
)
_OUTERS = {inner: tuple(o for i, o in NESTED if i == inner) for inner, _ in NESTED}
_LONGDOUBLE_BYTES = np.dtype(np.longdouble).itemsize


@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    failures: int = 0
    counters: dict = field(default_factory=lambda: defaultdict(float))


def _matvec_bytes(stats, args, kwargs, result):
    """Bytes moved by banded_matvec_extended, computed from array sizes
    (caches ignored): read the double bands and vector, write their
    extended copies and the zeroed output, then per diagonal read two
    extended operands and read and write the output."""
    if len(args) < 3:
        return
    ab, x = args[0], args[2]
    n = x.size
    stats.counters["bytes"] += (ab.nbytes + x.nbytes + _LONGDOUBLE_BYTES
                                * (ab.size + 2 * n + 4 * ab.shape[0] * n))


def _branch_counts(stats, args, kwargs, result):
    points = getattr(result, "points", None)
    if points is None:
        return
    stats.counters["points"] += len(points)
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    if cfg is None:
        from radbif import ContinuationConfig
        cfg = ContinuationConfig()
    ds_max = getattr(cfg, "ds_max", None)
    if ds_max is not None:
        # points[0] is the trivial anchor and points[1] the step-off point
        stats.counters["steps_below_ds_max"] += sum(
            1 for p in points[2:] if getattr(p, "ds", ds_max) < ds_max)


def _newton_iterations(stats, args, kwargs, result):
    stats.counters["iterations"] += getattr(result, "iterations", 0)


HOOKS = {
    "grid.banded_matvec_extended": _matvec_bytes,
    "continuation.continue_branch": _branch_counts,
    "solver.newton_solve": _newton_iterations,
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, object) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    if not callable(obj):
        return None
    return owner, attr, obj


class Tracer:
    """Context manager that wraps every layer in LAYERS while active."""

    def __init__(self):
        self.stats = defaultdict(LayerStats)
        self.nested = defaultdict(lambda: [0, 0.0])  # (inner, outer) -> [calls, s]
        self.absent = []
        self._stack = []  # child seconds of each open span
        self._open = defaultdict(int)
        self._saved = []

    def __enter__(self):
        # Resolve every layer before wrapping any, so that each module that
        # imports a layer name is loaded when the bindings are scanned.
        found = {name: _resolve(module_name, path)
                 for name, module_name, path in LAYERS}
        self.absent = [name for name, hit in found.items() if hit is None]
        for name, hit in found.items():
            if hit is None:
                continue
            owner, attr, original = hit
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "radbif" and not mod_name.startswith("radbif."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _call(self, name, fn, args, kwargs):
        stats = self.stats[name]
        frame = [0.0]
        self._stack.append(frame)
        self._open[name] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            stats.failures += 1
            raise
        finally:
            dur = perf_counter() - start
            self._stack.pop()
            self._open[name] -= 1
            stats.calls += 1
            stats.seconds += dur
            stats.self_seconds += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur
            for outer in _OUTERS.get(name, ()):
                if self._open[outer] > 0:
                    entry = self.nested[(name, outer)]
                    entry[0] += 1
                    entry[1] += dur
        hook = HOOKS.get(name)
        if hook is not None:
            hook(stats, args, kwargs, result)
        return result

    def summary(self) -> dict:
        """Every layer's totals, for the layer output file."""
        return {name: {"calls": s.calls, "s": s.seconds, "self_s": s.self_seconds,
                       "failures": s.failures, **dict(s.counters)}
                for name, s in sorted(self.stats.items())}
