"""The command line's byte-identity manifest: its commands, one command
run in process, and, run as a script, a rewrite of tests/golden.json.

Each case runs through radbif.cli.run with its artifacts in a directory
of its own.  Its record holds the argv, the exit code and the sha256 of
stdout, of stderr and of each artifact file.  verify's stdout carries each
check's measured seconds, so its digest is left out (null); verify.json
is kept.

    PYTHONPATH=src python3 tests/golden.py    # rewrite tests/golden.json

A change that moves a bit rewrites the manifest and names each moved
file.  The bits rest on the x87 80-bit longdouble of the grid's set-up,
so the manifest holds where np.finfo(np.longdouble).nmant == 63.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

MANIFEST = pathlib.Path(__file__).with_name("golden.json")

_TWO_FOLD = ["--override", "model.coeffs1=0,1,-1.5,1",
             "--override", "model.coeffs2=0,1,1.72"]
_QUADRATIC = ["--override", "model.name=quadratic"]

# (name, argv without out.dir): the README's command block, then the
# grids, models and parameters that the CI steps run
CASES = (
    ("steklov", ["steklov"]),
    ("report", ["report"]),
    ("solve", ["solve", "--lambda", "0.32"]),
    ("limit", ["limit"]),
    ("branch", ["branch", "--dump-states", "5"]),
    ("multiplicity", ["multiplicity", "--lambda", "0.3231"]),
    ("rescale-check", ["rescale-check", "--override", "grid.M=256"]),
    ("verify", ["verify"]),
    ("branch-M4096", ["branch", "--override", "grid.M=4096",
                      "--override", "newton.tol=1e-8", "--dump-states", "1"]),
    ("branch-N10", ["branch", "--override", "grid.N=10"]),
    ("branch-R40", ["branch", "--override", "grid.R=40"]),
    ("two-fold-branch", ["branch", *_TWO_FOLD]),
    ("two-fold-multiplicity", ["multiplicity", "--lambda", "0.35",
                               *_TWO_FOLD]),
    ("quadratic-report", ["report", *_QUADRATIC]),
    ("quadratic-branch", ["branch", *_QUADRATIC]),
    ("quadratic-solve-near-trivial", ["solve", "--lambda", "0.32",
                                      "--amplitude", "0.0046", *_QUADRATIC]),
    ("multiplicity-M8192", ["multiplicity", "--lambda", "0.325",
                            "--override", "grid.M=8192"]),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(name: str, argv: list, out: pathlib.Path) -> dict:
    """Run one case with its artifacts under out and return its record."""
    from radbif.cli import run

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([*argv, "--override", f"out.dir={out}"])
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"name": name, "argv": argv, "exit": code,
            "stdout": (None if argv[0] == "verify"
                       else _sha(stdout.getvalue().encode())),
            "stderr": _sha(stderr.getvalue().encode()),
            "files": {p.name: _sha(p.read_bytes()) for p in files}}


def differences(want: dict, got: dict) -> list:
    """What differs between two records of one case: 'argv', 'exit',
    'stdout', 'stderr' and the name of each artifact that differs, is
    missing or is new."""
    moved = [key for key in ("argv", "exit", "stdout", "stderr")
             if want[key] != got[key]]
    names = sorted(set(want["files"]) | set(got["files"]))
    return moved + [n for n in names
                    if want["files"].get(n) != got["files"].get(n)]


def records(root: pathlib.Path) -> list:
    return [record(name, argv, root / name) for name, argv in CASES]


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        fresh = records(pathlib.Path(root))
    MANIFEST.write_text(json.dumps(fresh, indent=1) + "\n")
    print(f"wrote {len(fresh)} cases, "
          f"{sum(len(r['files']) for r in fresh)} artifacts to {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
