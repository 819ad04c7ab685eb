"""Numerical bifurcation toolkit for coupled elliptic systems with
nonlinear boundary fluxes, specialized to radially symmetric solutions on
balls.

The package computes the first boundary (Steklov) eigenpair, locates the
bifurcation point of the positive branch, traces the branch through its
fold by pseudo-arclength continuation, verifies the rescaled tail against
the pure-power limiting problem, and produces second solutions as roots of
the scalar trace equation above a subsolution.

Each module's __all__ is its public list; the package re-exports exactly
those names.
"""

from . import (analysis, continuation, errors, grid, model, monotone, solver,
               steklov, verify)
from .analysis import *
from .continuation import *
from .errors import *
from .grid import *
from .model import *
from .monotone import *
from .solver import *
from .steklov import *
from .verify import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for mod in (model, grid, steklov, solver, continuation, monotone,
                     analysis, verify, errors) for name in mod.__all__]
