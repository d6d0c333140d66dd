"""Affine-normal descent: curvature-corrected descent directions built from
the Hessian block structure in a gradient-aligned frame, with exact, Armijo,
and strong Wolfe line searches, a slice-centroid geometric estimator, and
gradient-descent / Newton baselines on a small problem catalog.

Everything beyond the names in __all__ is imported from its submodule.
"""
from .direction import descent_direction
from .line_search import ArmijoSearch, ExactSearch, StrongWolfeSearch
from .objective import Objective, make_objective, verify_derivatives
from .optimizer import StoppingSpec, yand_run
from .problems import Problem, catalog

__version__ = "0.1.0"

__all__ = [
    "ArmijoSearch", "ExactSearch", "StrongWolfeSearch", "StoppingSpec",
    "Objective", "Problem", "make_objective", "verify_derivatives",
    "catalog", "descent_direction", "yand_run",
]
