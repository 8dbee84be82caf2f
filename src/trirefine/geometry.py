"""Numeric triangle geometry and the three bisection procedures.

Coordinates are IEEE-754 doubles; exactness lives in the angle layer
(``trirefine.exact``).  A triangle node carries its vertices, optionally a
symbolic form plus an exact value for the angle at each vertex, and its
position in the bisection tree (generation index and a left/right lineage
bit string).

Three splitting procedures are provided:

* ``largest-angle``    -- split along the internal bisector of the largest
  angle.  Symbolic angle forms survive: the split angle is halved exactly
  and the foot angle is an exact sum.
* ``longest-edge``     -- split along the median to the longest side.
* ``shortest-altitude``-- split along the altitude to the longest side.

The latter two produce angles outside the dyadic span of the starting
angles, so they run numeric-only.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .exact import AngleForm, BaseAngles, FORM_ALPHA, FORM_BETA, FORM_GAMMA

# A triangle is rejected when its area drops below this fraction of the
# squared longest side; scale-invariant so deep generations are judged the
# same way as the root.
DEGENERACY_REL_AREA = 1e-12

# Tie tolerance, in degrees, when picking the largest angle from numeric data.
ANGLE_TIE_TOL_DEG = 1e-12


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
    """One triangle of the refinement tree.

    ``angle_forms`` and ``angles_exact`` are parallel to ``vertices`` and are
    both present in exact-base mode (largest-angle procedure started from
    rational angles) or both ``None`` in numeric mode.  ``lineage`` is the
    bit string of left(0)/right(1) choices from the root.
    """

    __slots__ = ("vertices", "angle_forms", "angles_exact", "generation",
                 "lineage", "_sides", "_angles_deg")

    def __init__(self, vertices: tuple[Point2, Point2, Point2],
                 angle_forms: tuple[AngleForm, AngleForm, AngleForm] | None = None,
                 angles_exact: tuple[Fraction, Fraction, Fraction] | None = None,
                 generation: int = 0, lineage: str = "") -> None:
        (ax, ay), (bx, by), (cx, cy) = vertices
        if not (math.isfinite(ax) and math.isfinite(ay) and math.isfinite(bx)
                and math.isfinite(by) and math.isfinite(cx) and math.isfinite(cy)):
            raise ValueError("triangle vertices must have finite coordinates")
        area2 = abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        longest_sq = max(
            (cx - bx) ** 2 + (cy - by) ** 2,
            (ax - cx) ** 2 + (ay - cy) ** 2,
            (bx - ax) ** 2 + (by - ay) ** 2,
        )
        if area2 <= 2.0 * DEGENERACY_REL_AREA * longest_sq:
            raise DegenerateTriangleError(
                f"collinear vertices (lineage {lineage!r}): {vertices}")
        if (angle_forms is None) != (angles_exact is None):
            raise ValueError("angle_forms and angles_exact must be given together")
        self.vertices = vertices
        self.angle_forms = angle_forms
        self.angles_exact = angles_exact
        self.generation = generation
        self.lineage = lineage
        self._sides = None
        self._angles_deg = None

    def sides(self) -> tuple[float, float, float]:
        """Side lengths indexed by the opposite vertex."""
        s = self._sides
        if s is None:
            (ax, ay), (bx, by), (cx, cy) = self.vertices
            s = (
                math.hypot(cx - bx, cy - by),
                math.hypot(ax - cx, ay - cy),
                math.hypot(bx - ax, by - ay),
            )
            self._sides = s
        return s

    def angles_deg(self) -> tuple[float, float, float]:
        """Numeric angle at each vertex, in degrees."""
        a = self._angles_deg
        if a is None:
            (ax, ay), (bx, by), (cx, cy) = self.vertices
            abx, aby = bx - ax, by - ay
            acx, acy = cx - ax, cy - ay
            bcx, bcy = cx - bx, cy - by
            # |cross| is twice the area, identical at every corner.
            cross = abs(abx * acy - aby * acx)
            degrees = math.degrees
            atan2 = math.atan2
            a = (
                degrees(atan2(cross, abx * acx + aby * acy)),
                degrees(atan2(cross, -(bcx * abx + bcy * aby))),
                degrees(atan2(cross, acx * bcx + acy * bcy)),
            )
            self._angles_deg = a
        return a

    def area(self) -> float:
        (ax, ay), (bx, by), (cx, cy) = self.vertices
        return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2.0

    def __repr__(self) -> str:
        return (f"TriangleNode(gen={self.generation}, lineage={self.lineage!r}, "
                f"vertices={self.vertices})")


def side_lengths(t: TriangleNode) -> list[tuple[float, int]]:
    """(length, opposite vertex index) pairs sorted by length descending.

    Exact ties are broken by the smaller vertex index so the ordering is
    reproducible.
    """
    s = t.sides()
    return sorted(((s[i], i) for i in range(3)), key=lambda p: (-p[0], p[1]))


def largest_angle_vertex(t: TriangleNode) -> int:
    """Index of the vertex with the maximal angle.

    Exact comparison when symbolic values are present; otherwise numeric
    with a tie window of ``ANGLE_TIE_TOL_DEG``.  Ties go to the smallest
    vertex index in the node's own vertex order.
    """
    vals = t.angles_exact
    if vals is not None:
        best = 0
        if vals[1] > vals[best]:
            best = 1
        if vals[2] > vals[best]:
            best = 2
        return best
    angs = t.angles_deg()
    top = max(angs)
    for i in range(3):
        if top - angs[i] <= ANGLE_TIE_TOL_DEG:
            return i
    return 0  # unreachable


def aspect_ratio(t: TriangleNode, check: bool = False) -> float:
    """Longest side over the sum of the other two; in [0.5, 1).

    With ``check=True`` the trigonometric form sin(largest/2)/cos((mid-small)/2)
    is evaluated as well and a disagreement beyond 1e-12 relative raises.
    """
    s = t.sides()
    a = max(s)
    r = a / (s[0] + s[1] + s[2] - a)
    if check:
        rt = aspect_ratio_trig(t)
        if abs(r - rt) > 1e-12 * r:
            raise ValueError(
                f"aspect ratio mismatch: sides give {r!r}, angles give {rt!r}")
    return r


def aspect_ratio_from_angles_deg(a1: float, a2: float, a3: float) -> float:
    """Aspect ratio from the three angles alone: sin(big/2) / cos((mid-small)/2)."""
    big, mid, small = sorted((a1, a2, a3), reverse=True)
    return math.sin(math.radians(big) / 2.0) / math.cos(math.radians(mid - small) / 2.0)


def aspect_ratio_trig(t: TriangleNode) -> float:
    return aspect_ratio_from_angles_deg(*t.angles_deg())


def bisector_to_longest_side_ratio(t: TriangleNode) -> float:
    """Length of the largest-angle bisector divided by the longest side.

    Closed form: with sides a >= b >= c the ratio squared is
    b*c/(b+c)**2 * ((b+c)**2 - a**2)/a**2;  at most sqrt(3)/2, with equality
    only for the equilateral triangle.
    """
    (a, _), (b, _), (c, _) = side_lengths(t)
    w = b + c
    ratio_sq = (b * c / (w * w)) * ((w * w - a * a) / (a * a))
    return math.sqrt(ratio_sq)


def bisect(t: TriangleNode, kind: ProcedureKind,
           split_index: int | None = None) -> tuple[TriangleNode, TriangleNode]:
    """Split a triangle into its two children under the given procedure.

    Children keep the parent's vertex at the split corner first, so the
    left child is (corner, B, foot) and the right child is (corner, foot, C)
    where B, C follow the corner in the parent's cyclic vertex order.
    Generation increases by one and the lineage gains a 0 (left) or 1
    (right) bit.

    ``split_index`` lets a caller that has already located the largest
    angle (the refinement engine keeps exact angle values in a cheaper
    representation) skip the comparison; it must equal
    ``largest_angle_vertex(t)`` and only applies to the largest-angle
    procedure.
    """
    v = t.vertices
    if kind is ProcedureKind.LARGEST_ANGLE:
        ia = largest_angle_vertex(t) if split_index is None else split_index
        ib = (ia + 1) % 3
        ic = (ia + 2) % 3
        A, B, C = v[ia], v[ib], v[ic]
        s = t.sides()
        b = s[ib]  # |AC|
        c = s[ic]  # |AB|
        w = b + c
        foot = Point2((b * B.x + c * C.x) / w, (b * B.y + c * C.y) / w)
        if t.angle_forms is not None:
            fA, fB, fC = t.angle_forms[ia], t.angle_forms[ib], t.angle_forms[ic]
            half_form = fA.halve()
            left_forms = (half_form, fB, half_form + fC)
            right_forms = (half_form, half_form + fB, fC)
            aA, aB, aC = t.angles_exact[ia], t.angles_exact[ib], t.angles_exact[ic]
            half_val = aA / 2
            left_exact = (half_val, aB, half_val + aC)
            right_exact = (half_val, half_val + aB, aC)
        else:
            left_forms = right_forms = left_exact = right_exact = None
    else:
        # Both remaining procedures split the longest side; only the foot
        # differs.  The apex (vertex opposite the longest side) is kept.
        (_, ia) = side_lengths(t)[0]
        ib = (ia + 1) % 3
        ic = (ia + 2) % 3
        A, B, C = v[ia], v[ib], v[ic]
        if kind is ProcedureKind.LONGEST_EDGE:
            foot = Point2((B.x + C.x) / 2.0, (B.y + C.y) / 2.0)
        else:
            ex, ey = C.x - B.x, C.y - B.y
            tau = ((A.x - B.x) * ex + (A.y - B.y) * ey) / (ex * ex + ey * ey)
            foot = Point2(B.x + tau * ex, B.y + tau * ey)
        left_forms = right_forms = left_exact = right_exact = None
    gen = t.generation + 1
    try:
        left = TriangleNode((A, B, foot), left_forms, left_exact,
                            gen, t.lineage + "0")
        right = TriangleNode((A, foot, C), right_forms, right_exact,
                             gen, t.lineage + "1")
    except DegenerateTriangleError as exc:
        raise DegenerateTriangleError(
            f"{kind.value} bisection produced a degenerate child at depth "
            f"{gen} (parent lineage {t.lineage!r})") from exc
    return left, right


def _check_root_scale(longest: float) -> None:
    """Reject a root whose longest side is not a positive finite number, or
    so long that squared lengths overflow.

    Every coordinate and side length in the tree is at most the root's
    longest side, so this one check at the root covers every product that
    ``TriangleNode`` and ``bisect`` form at any depth.
    """
    if not (longest > 0 and math.isfinite(longest)):
        raise ValueError("scale must be a positive finite number")
    if not math.isfinite(2.0 * longest * longest):
        raise DegenerateTriangleError(
            f"longest side {longest!r} is too large: squared lengths overflow")


def triangle_from_angles(base: BaseAngles, scale: float = 1.0,
                         exact: bool = True) -> TriangleNode:
    """Root triangle with the given angles, longest side on the x-axis.

    Built by the law of sines with the longest side normalized to ``scale``
    (the generation-0 mesh).  Vertex order is (alpha vertex, beta vertex,
    gamma vertex), so the apex carries the largest angle and sits above
    the base.
    """
    _check_root_scale(scale)
    al = math.radians(float(base.alpha))
    be = math.radians(float(base.beta))
    ga = math.radians(float(base.gamma))
    c_len = scale * math.sin(ga) / math.sin(al)  # side opposite gamma, |AB|
    apex = Point2(c_len * math.cos(be), c_len * math.sin(be))
    vertices = (apex, Point2(0.0, 0.0), Point2(scale, 0.0))
    if exact:
        return TriangleNode(vertices, (FORM_ALPHA, FORM_BETA, FORM_GAMMA),
                            (base.alpha, base.beta, base.gamma))
    return TriangleNode(vertices)


def triangle_from_angles_deg(a1: float, a2: float, a3: float,
                             scale: float = 1.0) -> TriangleNode:
    """Numeric-only root triangle from angles in degrees (any order)."""
    big, mid, small = sorted((a1, a2, a3), reverse=True)
    if small <= 0:
        raise ValueError("angles must be positive")
    _check_root_scale(scale)
    al, be, ga = math.radians(big), math.radians(mid), math.radians(small)
    c_len = scale * math.sin(ga) / math.sin(al)
    apex = Point2(c_len * math.cos(be), c_len * math.sin(be))
    return TriangleNode((apex, Point2(0.0, 0.0), Point2(scale, 0.0)))


def triangle_from_sides(s1: float, s2: float, s3: float) -> TriangleNode:
    """Numeric-only root triangle from side lengths, longest side on the x-axis."""
    a, b, c = sorted((float(s1), float(s2), float(s3)), reverse=True)
    if not all(x > 0 and math.isfinite(x) for x in (a, b, c)):
        raise ValueError("sides must be positive finite numbers")
    if b + c <= a:
        raise ValueError(f"sides ({s1}, {s2}, {s3}) do not form a triangle")
    _check_root_scale(a)
    x = (a * a + c * c - b * b) / (2.0 * a)
    y_sq = c * c - x * x
    if y_sq <= 0:
        raise DegenerateTriangleError(
            f"sides ({s1}, {s2}, {s3}) are numerically collinear")
    apex = Point2(x, math.sqrt(y_sq))
    return TriangleNode((apex, Point2(0.0, 0.0), Point2(a, 0.0)))


def smallest_angle_vertex(t: TriangleNode) -> int:
    """Index of the vertex with the minimal angle (smallest index on ties)."""
    vals: Sequence = t.angles_exact if t.angles_exact is not None else t.angles_deg()
    best = 0
    if vals[1] < vals[best]:
        best = 1
    if vals[2] < vals[best]:
        best = 2
    return best
