"""The exception vocabulary: an AffineDescentError is a numerical outcome at
a point, and anything the caller got wrong is a ValueError that names the
bad input."""
import inspect

import numpy as np
import pytest
from helpers import NUMERICAL_OUTCOMES, quadratic

from affinedescent import errors
from affinedescent.errors import AffineDescentError
from affinedescent.invariance import compose_scaled
from affinedescent.numerics import (build_gradient_frame, classify_symmetric,
                                    solve_spd)
from affinedescent.problems import Problem, catalog


def test_errors_defines_the_base_and_the_numerical_outcomes():
    defined = {obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__}
    assert defined == {AffineDescentError, *NUMERICAL_OUTCOMES}
    for cls in NUMERICAL_OUTCOMES:
        assert cls.__bases__ == (AffineDescentError,)


def one_dimensional_problem():
    return Problem(name="line", objective=quadratic([[2.0]]),
                   x0=np.array([1.0]), x_star=None, f_star=None, notes="")


# Each call passes a wrong argument, with what its message must name.
BAD_INPUT = {
    "unknown problem": (lambda: catalog("nope"),
                        "unknown problem 'nope'; known: quad_well, "),
    "reflecting B": (
        lambda: compose_scaled(catalog("strongly_convex_base"),
                               np.diag([1.0, -1.0])),
        r"det\(B\) = -1 must be positive: B must be invertible and "
        "orientation-preserving"),
    "solve without factor": (
        lambda: solve_spd(classify_symmetric(-np.eye(2)), np.ones(2)),
        "solve_spd needs a positive definite matrix, got "
        "tag=OtherIndefinite"),
    "1-D problem": (one_dimensional_problem,
                    "line: dimension 1 < 2 has no tangent space"),
    "1-D frame": (lambda: build_gradient_frame([1.0]),
                  "frame construction needs dimension >= 2, got 1"),
    "non-finite gradient": (lambda: build_gradient_frame([np.nan, 1.0]),
                            "gradient has non-finite entries"),
    "infinite gradient": (lambda: build_gradient_frame([1.0, -np.inf, 0.0]),
                          "gradient has non-finite entries"),
    "overflowing gradient norm": (
        lambda: build_gradient_frame([1.7976931348623157e308] * 2),
        "gradient has non-finite entries or norm"),
    "B overflowing x0": (
        lambda: compose_scaled(catalog("strongly_convex_base"),
                               np.diag([6e-309, 1.0])),
        "B must have a finite inverse that maps x0 and x_star to finite "
        "points"),
}


@pytest.mark.parametrize("call, message", BAD_INPUT.values(),
                         ids=BAD_INPUT.keys())
def test_bad_input_is_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert not isinstance(exc.value, AffineDescentError)
