"""Triangle refinement by largest-angle bisection.

Splitting a triangle along the bisector of its largest angle, repeatedly,
keeps the smallest angle bounded below by min(gamma, alpha/2), drives the
mesh (longest surviving side) to zero geometrically, and, except for the
right isosceles start, produces an unbounded number of similarity classes.
This package tracks the angles exactly through every split, measures all of
those quantities, re-checks the bounds they rest on over random sweeps, and
renders the subdivisions.  Longest-edge and shortest-altitude splitting are
included as reference procedures.
"""

from .exact import (
    AngleForm,
    BaseAngles,
    carrier_angle_forms,
    evaluate_angle_form,
    first_major_angle_collision,
    jacobsthal,
)
from .engine import (
    GenerationStats,
    RefinementResult,
    RefinementRun,
    RunMode,
    refine,
    track_carrier,
)
from .geometry import (
    DegenerateTriangleError,
    Point2,
    ProcedureKind,
    TriangleNode,
    bisect,
    longest_side_vertex,
    triangle_from_angles,
    triangle_from_sides,
)
from .svg import render_svg
from .verifier import (
    CheckReport,
    random_valid_base,
    replay_margin,
    run_suite,
)

__all__ = [
    "AngleForm",
    "BaseAngles",
    "CheckReport",
    "DegenerateTriangleError",
    "GenerationStats",
    "Point2",
    "ProcedureKind",
    "RefinementResult",
    "RefinementRun",
    "RunMode",
    "TriangleNode",
    "bisect",
    "carrier_angle_forms",
    "evaluate_angle_form",
    "first_major_angle_collision",
    "jacobsthal",
    "longest_side_vertex",
    "random_valid_base",
    "refine",
    "render_svg",
    "replay_margin",
    "run_suite",
    "track_carrier",
    "triangle_from_angles",
    "triangle_from_sides",
]

__version__ = "0.1.0"
