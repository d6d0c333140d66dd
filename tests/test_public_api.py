import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import affinedescent
from affinedescent import (cli, direction, invariance, line_search, numerics,
                           objective, optimizer, problems, slice_centroid)

# The names README and the benchmark import from the package top level;
# everything else is imported from its submodule.
PUBLIC = ["ArmijoSearch", "ExactSearch", "StrongWolfeSearch", "StoppingSpec",
          "Objective", "Problem", "make_objective", "verify_derivatives",
          "catalog", "descent_direction", "yand_run"]


def test_all_is_the_documented_list():
    assert sorted(affinedescent.__all__) == sorted(PUBLIC)
    assert len(set(affinedescent.__all__)) == len(affinedescent.__all__)


def test_every_exported_name_resolves():
    for name in affinedescent.__all__:
        assert getattr(affinedescent, name) is not None



# The step and stop specs, which validate their fields, and Objective and
# Problem, which callers replace, stay frozen dataclasses; per-call results
# are NamedTuples, which are cheaper to define at import.
DATACLASSES = {
    "objective.Objective", "problems.Problem",
    "line_search.ExactSearch", "line_search.ArmijoSearch",
    "line_search.StrongWolfeSearch", "line_search.FixedStep",
    "optimizer.StoppingSpec",
}
RECORD_FIELDS = {
    "numerics.Frame": ("basis", "grad_norm"),
    "numerics.SymmetricClass": ("tag", "eigs", "matrix", "scale", "factor"),
    "direction.BlockHessian": ("frame", "B", "c", "d_nn"),
    "direction.DirectionResult": ("d", "case", "tau", "point_class",
                                  "step_scale"),
    "line_search.LineSearchResult": ("alpha", "f_new", "evals", "status"),
    "objective.DerivativeReport": ("grad_err", "hess_err", "third_err"),
    "optimizer.IterateRecord": ("k", "x", "f", "grad_norm", "alpha", "case",
                                "T"),
    "optimizer.RateTable": ("linear_ratios", "quad_ratios"),
    "optimizer.RunReport": ("records", "status"),
    "slice_centroid.SliceRegion": ("intervals", "total_length",
                                   "centroid_param", "centroid", "frame"),
    "invariance.InvarianceReport": ("scaled", "base",
                                    "per_iterate_deviation"),
    "problems.AffineScalingSpec": ("B", "base"),
}


def short_name(cls) -> str:
    return f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}"


def package_classes():
    """Every class defined in an affinedescent module, by short_name."""
    return {short_name(value): value
            for mod in (cli, direction, invariance, line_search, numerics,
                        objective, optimizer, problems, slice_centroid)
            for value in vars(mod).values()
            if isinstance(value, type) and value.__module__ == mod.__name__}


def test_exactly_the_kept_records_are_dataclasses():
    classes = package_classes()
    assert {name for name, cls in classes.items()
            if dataclasses.is_dataclass(cls)} == DATACLASSES


def test_replace_works_on_objective_and_problem():
    p = problems.catalog("quad_51")
    obj = dataclasses.replace(p.objective, dim=p.objective.dim)
    assert obj == p.objective
    moved = dataclasses.replace(p, objective=obj, x0=2.0 * p.x0)
    assert moved.objective is obj and np.array_equal(moved.x0, 2.0 * p.x0)


def test_per_call_records_keep_their_fields_in_order():
    classes = package_classes()
    for name, expected in RECORD_FIELDS.items():
        assert classes[name]._fields == expected, name


def test_per_call_records_are_immutable():
    p = problems.catalog("rosenbrock")
    obj = p.objective
    report = optimizer.yand_run(p, line_search.ExactSearch())
    _, spec = problems.make_affine_scaled(10.0)
    records = [
        numerics.build_gradient_frame(np.array([1.0, 2.0])),
        numerics.classify_symmetric(np.eye(2)),
        direction.block_decompose(obj, p.x0),
        direction.descent_direction(obj, p.x0),
        line_search.exact_search(lambda a: (a - 1.0) ** 2, 10.0),
        objective.verify_derivatives(obj, [p.x0]),
        report.records[0],
        report,
        optimizer.empirical_rates(report, x_star=p.x_star),
        slice_centroid.slice_region_2d(obj, p.x0, -1e-3),
        invariance.run_invariance(spec.base, spec.B, line_search.ExactSearch()),
        spec,
    ]
    assert sorted(short_name(type(r)) for r in records) == sorted(RECORD_FIELDS)
    for record in records:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1.0


def test_import_leaves_numpy_typing_out():
    code = ("import sys, numpy, affinedescent.cli; "
            "sys.exit('numpy.typing' in sys.modules)")
    src = Path(affinedescent.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


# Each entry point that takes a point of an objective, called with the
# point x; the others it needs are of the right length.
ENTRY_POINTS = {
    "block_decompose": direction.block_decompose,
    "affine_normal_direction": direction.affine_normal_direction,
    "descent_direction": direction.descent_direction,
    "newton_direction": direction.newton_direction,
    "slice_region_2d": lambda obj, x: slice_centroid.slice_region_2d(
        obj, x, -1e-3),
    "slice_centroid_direction": slice_centroid.slice_centroid_direction,
    "fd_gradient": objective.fd_gradient,
    "fd_hessian": objective.fd_hessian,
    "verify_derivatives": lambda obj, x: objective.verify_derivatives(
        obj, [x]),
    "Problem_x0": lambda obj, x: problems.Problem(
        "p", obj, x, None, None, ""),
    "Problem_x_star": lambda obj, x: problems.Problem(
        "p", obj, np.array([-1.2, 1.0]), x, 0.0, ""),
    "empirical_rates": lambda obj, x: optimizer.empirical_rates(
        optimizer.yand_run(problems.Problem(
            "p", obj, np.array([-1.2, 1.0]), None, None, ""),
            line_search.ExactSearch(), optimizer.StoppingSpec(max_iter=1)),
        x_star=x),
    "direction_covariance_angle": lambda obj, x:
        invariance.direction_covariance_angle(problems.Problem(
            "p", obj, np.array([-1.2, 1.0]), None, None, ""), np.eye(2), x),
}


@pytest.mark.parametrize("x", [[-1.2], [-1.2, 1.0, 5.0]],
                         ids=["short", "long"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_reject_a_point_of_the_wrong_length(entry, x):
    obj = problems.catalog("rosenbrock").objective
    with pytest.raises(ValueError,
                       match=f"^expected a vector of length 2, got {len(x)}$"):
        ENTRY_POINTS[entry](obj, x)
