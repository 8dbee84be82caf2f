"""Numeric triangle geometry and the three bisection procedures.

Coordinates are IEEE-754 doubles.  A triangle node carries geometry only:
its six vertex coordinates, its side lengths and its lineage, the
left/right bits of its path from the root, held as an int (its generation
is the number of bits), each in a slot of one object.  Exact angles ride
beside the nodes in the walk that has them (``engine``).

Three splitting procedures are provided:

* ``largest-angle``    -- split along the internal bisector of the largest
  angle.
* ``longest-edge``     -- split along the median to the longest side.
* ``shortest-altitude``-- split along the altitude to the longest side.

Two number rules.  ``is_real`` decides what counts as a number for every
coordinate, numeric angle, side and scale: a real number that is not a
``bool``, so ``triangle_from_angles_deg("60", 60, 60)`` is refused.  Exact
angles are read by ``exact._fraction``: anything ``Fraction`` reads as a
finite rational, a string included, and not a ``bool``, so
``BaseAngles("60", "60", "60")`` is accepted.
"""

from __future__ import annotations

import math
import numbers
import sys
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

from .exact import BaseAngles

# The one degeneracy rule: a node is rejected, as collinear, when twice its
# area, ``abs(cross)``, is at most ``2 * DEGENERACY_REL_AREA * L * L``, where
# ``L`` is the longest of the three sides it stores (``hypot``s of its edge
# vectors).  It is scale-invariant, so deep generations are judged the same
# way as the root; ``TriangleNode()`` and ``bisect`` read it at call time.
# Which outputs it can change: the exit 3 of thin input deep enough under
# shortest-altitude (``degenerate child at depth ...``), and the exit 3 of
# an exact base whose float root is collinear (``collinear vertices``).
DEGENERACY_REL_AREA = 1e-12

# The largest side whose square underflows: ``x * x < sys.float_info.min``
# iff ``x <= _UNDERFLOW_SIDE`` (for x >= 0, as squaring is monotone), the
# one underflow rule, one compare, for roots and ``bisect``'s children.
_UNDERFLOW_SIDE = math.sqrt(sys.float_info.min)
while _UNDERFLOW_SIDE * _UNDERFLOW_SIDE >= sys.float_info.min:
    _UNDERFLOW_SIDE = math.nextafter(_UNDERFLOW_SIDE, 0.0)
# math.degrees(x) is x * (180 / pi) in CPython, bit for bit.
_RAD_TO_DEG = 180.0 / math.pi
# The number types the program itself passes, which ``is_real`` accepts by
# their exact type before the slower ``numbers.Real`` check.
_REAL_TYPES = frozenset((float, int, Fraction))


def is_real(x) -> bool:
    """True iff ``x`` is a real number and not a ``bool``: the one number
    rule, the same verdict as ``isinstance(x, numbers.Real) and not
    isinstance(x, bool)``."""
    return type(x) in _REAL_TYPES or (
        isinstance(x, numbers.Real) and not isinstance(x, bool))


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


# A node's corners, one slot per coordinate; ``node_coordinates(node)`` is
# (ax, ay, bx, by, cx, cy), for readers that need no ``Point2``s.
_CORNER_SLOTS = ("_ax", "_ay", "_bx", "_by", "_cx", "_cy")
node_coordinates = attrgetter(*_CORNER_SLOTS)


class TriangleNode:
    """One triangle of the refinement tree: its vertices and ``lineage``,
    the left(0)/right(1) choices from the root, one per ``generation``.

    The constructor is the one public, validating way to make a node, for
    roots and user-built triangles: it rejects, with ``ValueError``, a
    lineage that is not a string of ``0`` and ``1`` characters, a coordinate
    that is not a real number (or is a ``bool``) or is not finite, and
    (numerically) collinear vertices.  It reads the vertices once, so any
    iterable of three ``(x, y)`` pairs will do, and stores the six
    coordinates as given (an ``int`` stays an ``int``, ``-0.0`` keeps its
    sign) in the slots ``_ax``, ``_ay``, ``_bx``, ``_by``, ``_cx`` and
    ``_cy``: a node shares no object with its caller but the numbers.
    ``vertices`` is a read-only view that builds the ``Point2`` triple on
    each read; ``node_coordinates`` reads the six slots in one call.  It
    measures the sides with ``hypot`` into the slots ``_s0``, ``_s1`` and
    ``_s2``, which ``sides()`` returns and the engine and ``bisect`` read
    directly, and judges the node by them: a longest side whose squares
    overflow or underflow is refused as the root builders refuse it (unless
    all three vertices coincide), then the ``DEGENERACY_REL_AREA`` rule.

    A node holds its lineage as the int ``_path``, the bits after a leading
    1 (``int("1" + lineage, 2)``); ``lineage`` and ``generation`` are
    read-only views of it.  ``bisect`` makes children without the
    constructor, by the same checks and expressions once per split (finite
    coordinates for the new vertex only, and no overflow check, which the
    root's covers), so every node carries its sides from the moment it is
    made, and a child's path is its parent's shifted left by one, plus 1
    on the right.  Longest-edge children from ``bisect`` also carry
    ``_split_angles``, what ``angles_deg()`` returns for them: a hand-off
    to the engine, which reads the angles and deletes the slot from the
    children that become retained leaves.  It is unset on every node
    ``refine`` returns, and on every node the constructor makes.
    """

    __slots__ = _CORNER_SLOTS + ("_s0", "_s1", "_s2", "_path",
                                 "_split_angles")

    def __init__(self, vertices: Iterable[tuple[float, float]], *,
                 lineage: str = "") -> None:
        if not isinstance(lineage, str) or lineage.strip("01"):
            raise ValueError(
                f"lineage must be a string of 0s and 1s, got {lineage!r}")
        (ax, ay), (bx, by), (cx, cy) = vertices
        for x in (ax, ay, bx, by, cx, cy):
            if not is_real(x):
                raise ValueError(f"triangle coordinates must be real numbers, got {x!r}")
            try:
                finite = math.isfinite(x)
            except OverflowError:  # an int or Fraction beyond the float range
                finite = False
            if not finite:
                raise ValueError("triangle vertices must have finite coordinates")
        abx, aby = bx - ax, by - ay
        acx, acy = cx - ax, cy - ay
        bcx, bcy = cx - bx, cy - by
        # hypot ignores the sign of an exactly negated difference.
        s0 = math.hypot(bcx, bcy)
        s1 = math.hypot(acx, acy)
        s2 = math.hypot(abx, aby)
        longest = max(s0, s1, s2)
        if longest:  # three coincident vertices are collinear, below
            _check_squares(longest)
        if abs(abx * acy - aby * acx) <= (2.0 * DEGENERACY_REL_AREA
                                          * longest * longest):
            raise DegenerateTriangleError(
                f"collinear vertices (lineage {lineage!r}): "
                f"{(Point2(ax, ay), Point2(bx, by), Point2(cx, cy))}")
        self._ax, self._ay = ax, ay
        self._bx, self._by = bx, by
        self._cx, self._cy = cx, cy
        self._path = int("1" + lineage, 2)
        self._s0, self._s1, self._s2 = s0, s1, s2

    @property
    def vertices(self) -> tuple[Point2, Point2, Point2]:
        """The three corners as ``Point2``s, built on each read."""
        return (Point2(self._ax, self._ay), Point2(self._bx, self._by),
                Point2(self._cx, self._cy))

    @property
    def lineage(self) -> str:
        """The left(0)/right(1) choices from the root, as a string."""
        return bin(self._path)[3:]

    @property
    def generation(self) -> int:
        """The number of splits from the root: the lineage's length."""
        return self._path.bit_length() - 1

    def sides(self) -> tuple[float, float, float]:
        """Side lengths indexed by the opposite vertex."""
        return (self._s0, self._s1, self._s2)

    def angles_deg(self) -> tuple[float, float, float]:
        """Numeric angle at each vertex, in degrees, computed on each call."""
        ax, ay, bx, by, cx, cy = node_coordinates(self)
        abx, aby = bx - ax, by - ay
        acx, acy = cx - ax, cy - ay
        bcx, bcy = cx - bx, cy - by
        # |cross| is twice the area, identical at every corner.
        cross = abs(abx * acy - aby * acx)
        atan2 = math.atan2
        return (
            atan2(cross, abx * acx + aby * acy) * _RAD_TO_DEG,
            atan2(cross, -(bcx * abx + bcy * aby)) * _RAD_TO_DEG,
            atan2(cross, acx * bcx + acy * bcy) * _RAD_TO_DEG,
        )

    def area(self) -> float:
        ax, ay, bx, by, cx, cy = node_coordinates(self)
        return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / 2.0

    def __repr__(self) -> str:
        return (f"TriangleNode(gen={self.generation}, lineage={self.lineage!r}, "
                f"vertices={self.vertices})")


# ``bisect`` makes children without ``__init__``: it has already run the
# constructor's checks on them and measured their sides.  It compares
# ``kind`` with these module constants rather than looking the members up
# on the enum at every split.
_new_node = object.__new__
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
    generation goes up by one: a child's ``_path`` is the parent's shifted
    left by one, plus 1 on the right.

    The children are built in one pass over the split's five edges: AB and
    AC from the parent, AF, BF and FC through the foot F.  The parent's
    coordinate slots are read in the rotation that puts A first and copied,
    with F's, into the children's, building no point or vertex tuple.
    Each edge's difference vector is formed once, and both children are
    checked once, with the outcome of ``TriangleNode.__init__``: F's
    coordinates must be finite (A, B and C are the parent's, checked when
    it was made), tested as ``fx - fx == 0.0``, which is ``+0.0`` for every
    finite ``fx`` and NaN for an infinity or NaN.  Far from the origin the
    largest-angle foot's weighted form ``(b * B + c * C) / (b + c)`` can
    overflow; then, and only then, F is ``B + (C - B) * (c / (b + c))``,
    and its finite test is repeated.  Then each child's longest side must
    pass the constructor's underflow rule, as one compare with
    ``_UNDERFLOW_SIDE``, and each child the ``DEGENERACY_REL_AREA`` rule
    on its sides.  The children arrive with their sides measured as the
    constructor measures them: |AB| and |AC| are the parent's, the other
    three the ``hypot``s of the edge vectors here, whose products the
    root's overflow check bounds (see ``_check_squares``).

    Longest-edge children also get their angles in degrees, as
    ``_split_angles``: ``angles_deg()``'s expressions on the edge vectors
    and cross products formed here, so bit for bit what ``angles_deg()``
    returns, with ``math.degrees`` spelled as ``* _RAD_TO_DEG``.  The
    engine reads the slot once.

    ``split_index`` (the int 0, 1 or 2; a ``bool`` or a float is refused
    with ``ValueError``) lets a caller that has already located the split
    vertex skip the search, which is ``longest_side_vertex(t)``: a walk
    that carries exact angles passes the vertex of the first largest one
    for the largest-angle procedure.
    """
    ia = longest_side_vertex(t) if split_index is None else split_index
    # A is the split corner, B and C follow it cyclically; b = |AC| and
    # c = |AB| are the sides opposite B and C.  As True and 1.0 equal 1,
    # the type is tested first.
    if type(ia) is not int:
        raise ValueError(f"split_index must be 0, 1 or 2, got {ia!r}")
    if ia == 0:
        ax, ay = t._ax, t._ay
        bx, by = t._bx, t._by
        cx, cy = t._cx, t._cy
        b, c = t._s1, t._s2
    elif ia == 1:
        ax, ay = t._bx, t._by
        bx, by = t._cx, t._cy
        cx, cy = t._ax, t._ay
        b, c = t._s2, t._s0
    elif ia == 2:
        ax, ay = t._cx, t._cy
        bx, by = t._ax, t._ay
        cx, cy = t._bx, t._by
        b, c = t._s0, t._s1
    else:
        raise ValueError(f"split_index must be 0, 1 or 2, got {ia!r}")
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
    # x - x is +0.0 for every finite x, and NaN for an infinity or NaN.
    if not (fx - fx == 0.0 and fy - fy == 0.0):
        if kind is _LARGEST_ANGLE:
            # Far from the origin b * bx can overflow although the foot,
            # which divides BC as c : b, is finite.
            r = c / (b + c)
            fx = bx + (cx - bx) * r
            fy = by + (cy - by) * r
        if not (fx - fx == 0.0 and fy - fy == 0.0):
            raise ValueError("triangle vertices must have finite coordinates")
    # The five edges.  Negating a difference is exact and hypot ignores
    # the sign, so A - F is served by F - A, and so on.
    abx, aby = bx - ax, by - ay
    acx, acy = cx - ax, cy - ay
    afx, afy = fx - ax, fy - ay
    bfx, bfy = fx - bx, fy - by
    fcx, fcy = cx - fx, cy - fy
    hypot = math.hypot
    af = hypot(afx, afy)
    bf = hypot(bfx, bfy)
    fc = hypot(fcx, fcy)
    # Twice each child's area, as TriangleNode.__init__ and angles_deg()
    # form it in the child's own vertex order.
    left_cross = abx * afy - aby * afx
    if left_cross < 0.0:
        left_cross = -left_cross
    right_cross = afx * acy - afy * acx
    if right_cross < 0.0:
        right_cross = -right_cross
    # The longest stored side of the left child (A, B, F) and of the
    # right child (A, F, C).
    left_long = bf
    if af > left_long:
        left_long = af
    if c > left_long:
        left_long = c
    right_long = fc
    if b > right_long:
        right_long = b
    if af > right_long:
        right_long = af
    if left_long <= _UNDERFLOW_SIDE or right_long <= _UNDERFLOW_SIDE:
        raise DegenerateTriangleError(
            f"{kind.value} bisection produced a child at depth "
            f"{t.generation + 1} (parent lineage {t.lineage!r}) whose longest "
            f"side {min(left_long, right_long)!r} is too small: squared "
            "lengths underflow")
    limit = 2.0 * DEGENERACY_REL_AREA
    if (left_cross <= limit * left_long * left_long
            or right_cross <= limit * right_long * right_long):
        raise DegenerateTriangleError(
            f"{kind.value} bisection produced a degenerate child at depth "
            f"{t.generation + 1} (parent lineage {t.lineage!r})")
    path = t._path << 1
    left = _new_node(TriangleNode)
    left._ax, left._ay = ax, ay
    left._bx, left._by = bx, by
    left._cx, left._cy = fx, fy
    left._path = path
    left._s0, left._s1, left._s2 = bf, af, c
    right = _new_node(TriangleNode)
    right._ax, right._ay = ax, ay
    right._bx, right._by = fx, fy
    right._cx, right._cy = cx, cy
    right._path = path | 1
    right._s0, right._s1, right._s2 = fc, b, af
    if kind is _LONGEST_EDGE:
        # angles_deg() of (A, B, F) and of (A, F, C): its edge vectors are
        # AB, AF, BF on the left and AF, AC, FC on the right.
        atan2 = math.atan2
        left._split_angles = (
            atan2(left_cross, abx * afx + aby * afy) * _RAD_TO_DEG,
            atan2(left_cross, -(bfx * abx + bfy * aby)) * _RAD_TO_DEG,
            atan2(left_cross, afx * bfx + afy * bfy) * _RAD_TO_DEG,
        )
        right._split_angles = (
            atan2(right_cross, afx * acx + afy * acy) * _RAD_TO_DEG,
            atan2(right_cross, -(fcx * afx + fcy * afy)) * _RAD_TO_DEG,
            atan2(right_cross, acx * fcx + acy * fcy) * _RAD_TO_DEG,
        )
    return left, right


def positive_float(x, message: str) -> float:
    """``x`` as a float; ``ValueError(message)`` unless ``x`` is a real
    number, not a ``bool``, whose float is positive and finite."""
    if is_real(x):
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


def _check_squares(longest: float) -> None:
    """Reject a positive longest side so long (or infinite) that squared
    lengths overflow, or so short that they underflow.

    Every edge vector and side length in the tree is at most the root's
    longest side, so the overflow check at the root covers every product
    that ``TriangleNode`` and ``bisect`` form at any depth.  Without it a
    product could read ``inf - inf``, and a collinear triangle pass; without
    the underflow check a tiny triangle would be reported as collinear.
    """
    if not math.isfinite(2.0 * longest * longest):
        raise DegenerateTriangleError(
            f"longest side {longest!r} is too large: squared lengths overflow")
    if longest <= _UNDERFLOW_SIDE:
        raise DegenerateTriangleError(
            f"longest side {longest!r} is too small: squared lengths underflow")


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
        if not is_real(a):
            raise ValueError(f"angles must be real numbers, got {a!r}")
    big, mid, small = sorted((a1, a2, a3), reverse=True)
    if small <= 0:
        raise ValueError("angles must be positive")
    try:
        excess = a1 + a2 + a3 - 180.0
    except OverflowError:  # an int or Fraction sum beyond the float range
        excess = math.inf
    if not abs(excess) <= 1e-9:
        raise ValueError(f"angles must sum to 180 degrees, got {(a1, a2, a3)}")
    scale = check_scale(scale)
    _check_squares(scale)
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
    _check_squares(a)
    x = (a * a + c * c - b * b) / (2.0 * a)
    y_sq = c * c - x * x
    if y_sq <= 0:
        raise DegenerateTriangleError(
            f"sides ({s1}, {s2}, {s3}) are numerically collinear")
    apex = Point2(x, math.sqrt(y_sq))
    return TriangleNode((apex, Point2(0.0, 0.0), Point2(a, 0.0)))

