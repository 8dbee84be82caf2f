"""Numeric triangle geometry and the three bisection procedures.

Coordinates are IEEE-754 doubles.  A triangle node carries geometry only:
its vertices and its lineage, the left/right bit string of its path from
the root (its generation is the string's length).  Exact angles ride
beside the nodes in the walk that has them (``engine``).

Three splitting procedures are provided:

* ``largest-angle``    -- split along the internal bisector of the largest
  angle.
* ``longest-edge``     -- split along the median to the longest side.
* ``shortest-altitude``-- split along the altitude to the longest side.
"""

from __future__ import annotations

import math
import numbers
import sys
from enum import Enum
from typing import NamedTuple, Sequence

from .exact import BaseAngles

# A triangle is rejected when its area drops below this fraction of the
# squared longest side; scale-invariant so deep generations are judged the
# same way as the root.
DEGENERACY_REL_AREA = 1e-12


class ProcedureKind(Enum):
    """The splitting rule applied at every node of the refinement tree."""

    LARGEST_ANGLE = "largest-angle"
    LONGEST_EDGE = "longest-edge"
    SHORTEST_ALTITUDE = "shortest-altitude"


class DegenerateTriangleError(ValueError):
    """Raised when vertices are (numerically) collinear."""


class Point2(NamedTuple):
    x: float
    y: float


class TriangleNode:
    """One triangle of the refinement tree: its vertices and ``lineage``,
    the left(0)/right(1) choices from the root, one per ``generation``.

    The constructor is the one public, validating way to make a node, for
    roots and user-built triangles: it rejects, with ``ValueError``, a
    lineage that is not a string of ``0`` and ``1`` characters, a coordinate
    that is not a real number (or is a ``bool``) or is not finite, and
    (numerically) collinear vertices.  The collinearity test compares twice
    the area with ``2 * DEGENERACY_REL_AREA`` times the longest squared
    side, squares written ``x * x`` (correctly rounded, unlike ``x ** 2``,
    which goes through libm ``pow``).  It keeps the sides it measures from
    the test's difference vectors in ``_sides``, which ``sides()`` returns
    and the engine and ``bisect`` read directly.  ``bisect`` makes children
    without it, by the same checks and expressions once per split (finite
    coordinates for the new vertex only), so every node carries its sides
    from the moment it is made.  Longest-edge children from ``bisect`` also
    carry ``_split_angles``, what ``angles_deg()`` returns for them: a
    hand-off to the engine, which moves the angles onto its stack and
    deletes the slot.  It is unset on every other node, a retained one
    included.
    """

    __slots__ = ("vertices", "lineage", "_sides", "_split_angles")

    def __init__(self, vertices: tuple[Point2, Point2, Point2], *,
                 lineage: str = "") -> None:
        if not isinstance(lineage, str) or lineage.strip("01"):
            raise ValueError(
                f"lineage must be a string of 0s and 1s, got {lineage!r}")
        (ax, ay), (bx, by), (cx, cy) = vertices
        for x in (ax, ay, bx, by, cx, cy):
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"triangle coordinates must be real numbers, got {x!r}")
            if not math.isfinite(x):
                raise ValueError("triangle vertices must have finite coordinates")
        abx, aby = bx - ax, by - ay
        acx, acy = cx - ax, cy - ay
        bcx, bcy = cx - bx, cy - by
        area2 = abs(abx * acy - aby * acx)
        longest_sq = max(bcx * bcx + bcy * bcy, acx * acx + acy * acy,
                         abx * abx + aby * aby)
        if area2 <= 2.0 * DEGENERACY_REL_AREA * longest_sq:
            raise DegenerateTriangleError(
                f"collinear vertices (lineage {lineage!r}): {vertices}")
        self.vertices = vertices
        self.lineage = lineage
        # hypot ignores the sign of an exactly negated difference.
        self._sides = (math.hypot(bcx, bcy), math.hypot(acx, acy),
                       math.hypot(abx, aby))

    @property
    def generation(self) -> int:
        """The number of splits from the root: the lineage's length."""
        return len(self.lineage)

    def sides(self) -> tuple[float, float, float]:
        """Side lengths indexed by the opposite vertex."""
        return self._sides

    def angles_deg(self) -> tuple[float, float, float]:
        """Numeric angle at each vertex, in degrees, computed on each call."""
        (ax, ay), (bx, by), (cx, cy) = self.vertices
        abx, aby = bx - ax, by - ay
        acx, acy = cx - ax, cy - ay
        bcx, bcy = cx - bx, cy - by
        # |cross| is twice the area, identical at every corner.
        cross = abs(abx * acy - aby * acx)
        degrees = math.degrees
        atan2 = math.atan2
        return (
            degrees(atan2(cross, abx * acx + aby * acy)),
            degrees(atan2(cross, -(bcx * abx + bcy * aby))),
            degrees(atan2(cross, acx * bcx + acy * bcy)),
        )

    def area(self) -> float:
        (ax, ay), (bx, by), (cx, cy) = self.vertices
        return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2.0

    def __repr__(self) -> str:
        return (f"TriangleNode(gen={self.generation}, lineage={self.lineage!r}, "
                f"vertices={self.vertices})")


# ``bisect`` makes children without ``__init__``: it has already run the
# constructor's checks on them and measured their sides.  It builds the
# foot without ``Point2.__new__`` (same type, same values), and compares
# ``kind`` with these module constants rather than looking the members up
# on the enum at every split.
_new_node = object.__new__
_new_point = tuple.__new__
_LARGEST_ANGLE = ProcedureKind.LARGEST_ANGLE
_LONGEST_EDGE = ProcedureKind.LONGEST_EDGE
_SHORTEST_ALTITUDE = ProcedureKind.SHORTEST_ALTITUDE


def longest_side_vertex(t: TriangleNode) -> int:
    """Index of the vertex opposite the longest side, which carries the
    largest angle.

    Exact ties go to the smaller index.  This is the one numeric split rule:
    ``bisect`` and the engine split every procedure by it, unless a walk
    that carries exact angles passes its own index.
    """
    s0, s1, s2 = t.sides()
    if s0 >= s1:
        return 0 if s0 >= s2 else 2
    return 1 if s1 >= s2 else 2


def bisect(t: TriangleNode, kind: ProcedureKind,
           split_index: int | None = None) -> tuple[TriangleNode, TriangleNode]:
    """Split a triangle into its two children under the given procedure.

    Every procedure splits at the vertex opposite the longest side, the
    largest angle; only the feet on that side differ.  Children keep the
    parent's vertex at the split corner first, so the left child is
    (corner, B, foot) and the right child is (corner, foot, C) where B, C
    follow the corner in the parent's cyclic vertex order.
    The lineage gains a 0 (left) or 1 (right) bit, and with it the
    generation goes up by one.

    The children are built in one pass over the split's five edges: AB and
    AC from the parent, AF, BF and FC through the foot F.  Each edge's
    difference vector is formed once, and both children are checked once,
    with the same expressions as ``TriangleNode.__init__``: F's coordinates
    must be finite (A, B and C are the parent's, checked when it was made),
    then the relative-area degeneracy test runs in the child's own vertex
    order, squares written ``x * x``.  The children arrive with
    their sides measured as the constructor measures them: |AB| and |AC|
    are the parent's, the other three come from the edge vectors here.

    Longest-edge children also get their angles in degrees, as
    ``_split_angles``: ``angles_deg()``'s expressions on the edge vectors
    and cross products formed here, so bit for bit what ``angles_deg()``
    returns.  The engine reads the slot once and deletes it.

    ``split_index`` (0, 1 or 2) lets a caller that has already located the
    split vertex skip the search, which is ``longest_side_vertex(t)``: a
    walk that carries exact angles passes the vertex of the first largest
    one for the largest-angle procedure.
    """
    s = t._sides
    ia = longest_side_vertex(t) if split_index is None else split_index
    # A is the split corner, B and C follow it cyclically; b = |AC| and
    # c = |AB| are the sides opposite B and C.
    if ia == 0:
        A, B, C = t.vertices
        _, b, c = s
    elif ia == 1:
        C, A, B = t.vertices
        c, _, b = s
    elif ia == 2:
        B, C, A = t.vertices
        b, c, _ = s
    else:
        raise ValueError(f"split_index must be 0, 1 or 2, got {ia!r}")
    ax, ay = A
    bx, by = B
    cx, cy = C
    if kind is _LARGEST_ANGLE:
        w = b + c
        fx = (b * bx + c * cx) / w
        fy = (b * by + c * cy) / w
    elif kind is _LONGEST_EDGE:
        fx = (bx + cx) / 2.0
        fy = (by + cy) / 2.0
    elif kind is _SHORTEST_ALTITUDE:
        ex, ey = cx - bx, cy - by
        tau = ((ax - bx) * ex + (ay - by) * ey) / (ex * ex + ey * ey)
        fx = bx + tau * ex
        fy = by + tau * ey
    else:
        raise ValueError(f"unknown procedure {kind!r}")
    if not (math.isfinite(fx) and math.isfinite(fy)):
        raise ValueError("triangle vertices must have finite coordinates")
    # The five edges.  Negating a difference is exact and squares and
    # hypot ignore the sign, so A - F is served by F - A, and so on.
    abx, aby = bx - ax, by - ay
    acx, acy = cx - ax, cy - ay
    afx, afy = fx - ax, fy - ay
    bfx, bfy = fx - bx, fy - by
    fcx, fcy = cx - fx, cy - fy
    af_sq = afx * afx + afy * afy
    # The longest squared side of the left child (A, B, F) and of the right
    # child (A, F, C), each by the compare chain of ``max(...)`` over the
    # same arguments in the same order.
    left_sq = bfx * bfx + bfy * bfy
    if af_sq > left_sq:
        left_sq = af_sq
    sq = abx * abx + aby * aby
    if sq > left_sq:
        left_sq = sq
    right_sq = fcx * fcx + fcy * fcy
    sq = acx * acx + acy * acy
    if sq > right_sq:
        right_sq = sq
    if af_sq > right_sq:
        right_sq = af_sq
    # Twice each child's area, as TriangleNode.__init__ and angles_deg()
    # form it in the child's own vertex order; left checked first.
    left_cross = abs(abx * afy - aby * afx)
    right_cross = abs(afx * acy - afy * acx)
    if (left_cross <= 2.0 * DEGENERACY_REL_AREA * left_sq
            or right_cross <= 2.0 * DEGENERACY_REL_AREA * right_sq):
        raise DegenerateTriangleError(
            f"{kind.value} bisection produced a degenerate child at depth "
            f"{len(t.lineage) + 1} (parent lineage {t.lineage!r})")
    af = math.hypot(afx, afy)
    foot = _new_point(Point2, (fx, fy))
    lineage = t.lineage
    left = _new_node(TriangleNode)
    left.vertices = (A, B, foot)
    left.lineage = lineage + "0"
    left._sides = (math.hypot(bfx, bfy), af, c)
    right = _new_node(TriangleNode)
    right.vertices = (A, foot, C)
    right.lineage = lineage + "1"
    right._sides = (math.hypot(fcx, fcy), b, af)
    if kind is _LONGEST_EDGE:
        # angles_deg() of (A, B, F) and of (A, F, C): its edge vectors are
        # AB, AF, BF on the left and AF, AC, FC on the right.
        degrees = math.degrees
        atan2 = math.atan2
        left._split_angles = (
            degrees(atan2(left_cross, abx * afx + aby * afy)),
            degrees(atan2(left_cross, -(bfx * abx + bfy * aby))),
            degrees(atan2(left_cross, afx * bfx + afy * bfy)),
        )
        right._split_angles = (
            degrees(atan2(right_cross, afx * acx + afy * acy)),
            degrees(atan2(right_cross, -(fcx * afx + fcy * afy))),
            degrees(atan2(right_cross, acx * fcx + acy * fcy)),
        )
    return left, right


def positive_float(x, message: str) -> float:
    """``x`` as a float; ``ValueError(message)`` unless ``x`` is a real
    number, not a ``bool``, whose float is positive and finite."""
    if isinstance(x, numbers.Real) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:  # an int or Fraction beyond the float range
            value = math.inf
        if 0 < value < math.inf:
            return value
    raise ValueError(message)


def check_scale(scale: float) -> float:
    """``scale`` as a float; ``ValueError`` unless it is a positive finite
    real number: the rule for a run's scale and for a root's longest side."""
    return positive_float(scale, "scale must be a positive finite number")


def _check_root_scale(longest: float) -> float:
    """Reject a root whose longest side fails ``check_scale``, or is so long
    that squared lengths overflow, or so short that they underflow.

    Every coordinate and side length in the tree is at most the root's
    longest side, so the overflow check at the root covers every product
    that ``TriangleNode`` and ``bisect`` form at any depth.  Without the
    underflow check a tiny root would be reported as collinear.  Returns
    ``longest`` as the float ``check_scale`` accepts.
    """
    longest = check_scale(longest)
    if not math.isfinite(2.0 * longest * longest):
        raise DegenerateTriangleError(
            f"longest side {longest!r} is too large: squared lengths overflow")
    if longest * longest < sys.float_info.min:
        raise DegenerateTriangleError(
            f"longest side {longest!r} is too small: squared lengths underflow")
    return longest


def triangle_from_angles(base: BaseAngles, scale: float = 1.0) -> TriangleNode:
    """Root triangle with the given exact angles, as ``triangle_from_angles_deg``
    builds it.  The angles go in as ``Fraction``s, which pass its checks
    exactly and become floats only inside the trigonometry."""
    return triangle_from_angles_deg(*base.as_tuple(), scale=scale)


def triangle_from_angles_deg(a1: float, a2: float, a3: float,
                             scale: float = 1.0) -> TriangleNode:
    """Root triangle from angles in degrees (any order); they must be
    real numbers, not ``bool``s, positive and sum to 180 within 1e-9
    (float rounding), or ``ValueError``.

    Built by the law of sines with the longest side normalized to ``scale``
    (the generation-0 mesh) on the x-axis from the origin.  Vertex order is
    (largest, middle, smallest angle), so the apex carries the largest
    angle and sits above the base.
    """
    for a in (a1, a2, a3):
        if isinstance(a, bool) or not isinstance(a, numbers.Real):
            raise ValueError(f"angles must be real numbers, got {a!r}")
    big, mid, small = sorted((a1, a2, a3), reverse=True)
    if small <= 0:
        raise ValueError("angles must be positive")
    if not abs(a1 + a2 + a3 - 180.0) <= 1e-9:
        raise ValueError(f"angles must sum to 180 degrees, got {(a1, a2, a3)}")
    scale = _check_root_scale(scale)
    al, be, ga = math.radians(big), math.radians(mid), math.radians(small)
    c_len = scale * math.sin(ga) / math.sin(al)  # side opposite gamma, |AB|
    apex = Point2(c_len * math.cos(be), c_len * math.sin(be))
    return TriangleNode((apex, Point2(0.0, 0.0), Point2(scale, 0.0)))


def triangle_sides(sides: Sequence[float]) -> tuple[float, float, float]:
    """Three side lengths as floats, sorted longest first; ``ValueError``
    unless they are real numbers whose floats are positive and finite, and
    satisfy the strict triangle inequality."""
    values = tuple(positive_float(s, "sides must be positive finite numbers")
                   for s in sides)
    a, b, c = sorted(values, reverse=True)
    if b + c <= a:
        raise ValueError(f"sides {values} do not form a triangle")
    return a, b, c


def triangle_from_sides(s1: float, s2: float, s3: float) -> TriangleNode:
    """Numeric-only root triangle from side lengths, longest side on the x-axis."""
    a, b, c = triangle_sides((s1, s2, s3))
    _check_root_scale(a)
    x = (a * a + c * c - b * b) / (2.0 * a)
    y_sq = c * c - x * x
    if y_sq <= 0:
        raise DegenerateTriangleError(
            f"sides ({s1}, {s2}, {s3}) are numerically collinear")
    apex = Point2(x, math.sqrt(y_sq))
    return TriangleNode((apex, Point2(0.0, 0.0), Point2(a, 0.0)))

