"""Tests for the numeric geometry layer and the three splitting procedures."""

import math
import numbers
import random
import sys
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from exact_reference import reference_walk
from trirefine import geometry
from trirefine.engine import RefinementRun, RunMode, split_units
from trirefine.exact import BaseAngles, evaluate_angle_form
from trirefine.geometry import (
    DegenerateTriangleError,
    Point2,
    ProcedureKind,
    TriangleNode,
    bisect,
    check_scale,
    is_real,
    longest_side_vertex,
    positive_float,
    triangle_from_angles,
    triangle_from_angles_deg,
    triangle_from_sides,
    triangle_sides,
)
from trirefine.verifier import (
    aspect_ratio,
    aspect_ratio_trig,
    bisector_to_longest_side_ratio,
    random_triangle_angles,
    smallest_angle_vertex,
)


class _FloatSubclass(float):
    """A real number whose exact type is not one ``is_real`` lists."""


class _IntSubclass(int):
    """An integer whose exact type is not one ``is_real`` lists."""


EQUILATERAL = BaseAngles(60, 60, 60)
RIGHT_ISOSCELES = BaseAngles(90, 45, 45)

SQRT3_2 = math.sqrt(3.0) / 2.0


@st.composite
def angle_triples(draw):
    """Three angles (degrees) of a valid triangle, each at least 0.5 degrees."""
    a = draw(st.floats(min_value=0.5, max_value=179.0))
    b = draw(st.floats(min_value=0.5, max_value=179.0))
    c = 180.0 - a - b
    assume(c >= 0.5)
    return (a, b, c)


@st.composite
def exact_bases(draw):
    """Rational base angles with a common denominator up to 360, each at
    least one unit."""
    den = draw(st.integers(min_value=1, max_value=360))
    total = 180 * den
    a = draw(st.integers(min_value=1, max_value=total - 2))
    b = draw(st.integers(min_value=1, max_value=total - a - 1))
    return BaseAngles.from_unordered(Fraction(a, den), Fraction(b, den),
                                     Fraction(total - a - b, den))


def sorted_sides(t: TriangleNode) -> tuple[float, float, float]:
    return tuple(sorted(t.sides(), reverse=True))


def vertex_sides(t: TriangleNode) -> tuple[float, float, float]:
    """Side lengths measured from the vertices, each opposite its vertex:
    hypot of C - B, A - C and B - A."""
    (ax, ay), (bx, by), (cx, cy) = t.vertices
    return (math.hypot(cx - bx, cy - by), math.hypot(ax - cx, ay - cy),
            math.hypot(bx - ax, by - ay))


def side_order(t) -> list[int]:
    """Oracle: opposite-vertex indices by side length descending, exact ties
    to the smaller index, by sorting on (-length, index)."""
    s = t.sides()
    return sorted(range(3), key=lambda i: (-s[i], i))


def unit_angles(units, scale):
    """Angles in units of 1/scale degrees as ``Fraction`` degrees."""
    return tuple(Fraction(u, scale) for u in units)


# ---------------------------------------------------------------------------
# sides / longest_side_vertex
# ---------------------------------------------------------------------------

class TestSideLengths:
    def test_right_isosceles_legs_one(self):
        t = TriangleNode((Point2(0, 0), Point2(1, 0), Point2(0, 1)))
        assert t.sides() == (pytest.approx(math.sqrt(2)), 1.0, 1.0)
        assert side_order(t) == [0, 1, 2]
        assert longest_side_vertex(t) == 0

    def test_equilateral(self):
        t = triangle_from_angles(EQUILATERAL)
        assert sorted_sides(t) == pytest.approx((1.0, 1.0, 1.0))

    def test_pythagorean_triple(self):
        t = TriangleNode((Point2(0, 0), Point2(4, 0), Point2(4, 3)))
        assert [round(l, 12) for l in t.sides()] == [3.0, 5.0, 4.0]
        assert side_order(t) == [1, 2, 0]
        assert longest_side_vertex(t) == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            TriangleNode((Point2(0, 0), Point2(1, 0), Point2(2, 0)))


class TestLongestSideVertex:
    """The vertex opposite the longest side carries the largest angle."""

    def test_right_isosceles_apex(self):
        assert longest_side_vertex(triangle_from_angles(RIGHT_ISOSCELES)) == 0

    def test_equilateral_tie_breaks_to_first(self):
        assert longest_side_vertex(triangle_from_angles(EQUILATERAL)) == 0
        numeric = TriangleNode(
            (Point2(0.5, SQRT3_2), Point2(0, 0), Point2(1, 0)))
        assert longest_side_vertex(numeric) == 0

    def test_right_angle_at_middle_vertex(self):
        # Angles (60, 90, 30) at vertex indices (0, 1, 2).
        t = TriangleNode((Point2(1, 0), Point2(0, 0), Point2(0, math.sqrt(3))))
        assert longest_side_vertex(t) == 1


# ---------------------------------------------------------------------------
# bisect: largest-angle
# ---------------------------------------------------------------------------

class TestLargestAngleBisection:
    def test_equilateral_children(self):
        # The bisector of an equilateral corner is also an altitude, so the
        # children are 30-60-90 with sides (1, sqrt(3)/2, 1/2).
        root = triangle_from_angles(EQUILATERAL)
        left, right = bisect(root, ProcedureKind.LARGEST_ANGLE)
        units, scale = EQUILATERAL.units(1)
        ia, *children_units = split_units(units)
        assert ia == 0
        for child, child_units in zip((left, right), children_units):
            assert sorted(unit_angles(child_units, scale)) == [30, 60, 90]
            assert sorted(child.angles_deg()) == pytest.approx(
                [30.0, 60.0, 90.0], abs=1e-12)
            assert sorted_sides(child) == pytest.approx(
                (1.0, SQRT3_2, 0.5), abs=1e-12)
        assert left.generation == 1 and left.lineage == "0"
        assert right.lineage == "1"

    def test_right_isosceles_self_similar(self):
        root = triangle_from_angles(RIGHT_ISOSCELES)
        left, right = bisect(root, ProcedureKind.LARGEST_ANGLE)
        parent_sides = sorted_sides(root)
        units, scale = RIGHT_ISOSCELES.units(1)
        ia, *children_units = split_units(units)
        assert ia == 0
        for child, child_units in zip((left, right), children_units):
            assert sorted(unit_angles(child_units, scale)) == [45, 45, 90]
            got = sorted_sides(child)
            for g, p in zip(got, parent_sides):
                assert g == pytest.approx(p / math.sqrt(2), rel=1e-12)

    def test_exact_values_match_forms(self):
        base = BaseAngles(100, 50, 30)
        _, scale = base.units(7)
        for _, forms, _, units in reference_walk(base, [0] * 6):
            for form, value in zip(forms, unit_angles(units, scale)):
                assert evaluate_angle_form(form, base) == value

    def test_forms_sum_to_unity(self):
        base = BaseAngles(Fraction(355, 4), Fraction(199, 4), Fraction(166, 4))
        for _, f, _, _ in reference_walk(base, [0] * 8):
            total = f[0] + f[1] + f[2]
            assert all(c == 1 for c in total.coefficients())

    @given(exact_bases(), st.lists(st.integers(min_value=0, max_value=1),
                                   min_size=10, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_exact_angles_match_reference_walk(self, base, lineage):
        # split_units against the Fraction algebra: the walk's units are at
        # one scale and keep a factor 2 for every split still to come.
        shift = len(lineage) + 1
        _, scale = base.units(shift)
        for node, forms, values, units in reference_walk(base, lineage):
            exact = unit_angles(units, scale)
            assert exact == values
            assert [a.as_integer_ratio() for a in exact] == [
                v.as_integer_ratio() for v in values]
            assert tuple(evaluate_angle_form(f, base) for f in forms) == exact
            total = forms[0] + forms[1] + forms[2]
            assert all(c == 1 for c in total.coefficients())
            assert sum(units) == 180 * scale
            assert all(u % (1 << (shift - node.generation)) == 0
                       for u in units)

    @given(angle_triples())
    @settings(max_examples=300)
    def test_areas_sum_and_foot_on_segment(self, angles):
        t = triangle_from_angles_deg(*angles)
        left, right = bisect(t, ProcedureKind.LARGEST_ANGLE)
        assert left.area() + right.area() == pytest.approx(t.area(), rel=1e-9)
        # The foot is the shared vertex: left = (A, B, D), right = (A, D, C).
        foot = left.vertices[2]
        ia = longest_side_vertex(t)
        B = t.vertices[(ia + 1) % 3]
        C = t.vertices[(ia + 2) % 3]
        ex, ey = C.x - B.x, C.y - B.y
        s = ((foot.x - B.x) * ex + (foot.y - B.y) * ey) / (ex * ex + ey * ey)
        assert -1e-12 <= s <= 1 + 1e-12

    @given(angle_triples())
    @settings(max_examples=300)
    def test_child_with_smallest_angle_has_larger_aspect(self, angles):
        t = triangle_from_angles_deg(*angles)
        ia = longest_side_vertex(t)
        ismall = smallest_angle_vertex(t)
        if ismall == ia:
            ib, ic = (ia + 1) % 3, (ia + 2) % 3
            angs = t.angles_deg()
            ismall = ib if angs[ib] <= angs[ic] else ic
        left, right = bisect(t, ProcedureKind.LARGEST_ANGLE)
        keeper = left if ismall == (ia + 1) % 3 else right
        other = right if keeper is left else left
        assert aspect_ratio(keeper) >= aspect_ratio(other) - 1e-12

    def test_split_vertex_carries_largest_angle(self):
        # Split opposite the longest side, a seeded random triangle's
        # corner A (first in each child) has its largest numeric angle, in
        # any vertex order.
        rng = random.Random(0)
        for _ in range(1000):
            vertices = list(
                triangle_from_angles_deg(*random_triangle_angles(rng)).vertices)
            rng.shuffle(vertices)
            t = TriangleNode(tuple(vertices))
            left, right = bisect(t, ProcedureKind.LARGEST_ANGLE)
            assert repr(left.vertices[0]) == repr(right.vertices[0])
            angles = t.angles_deg()
            ia = t.vertices.index(left.vertices[0])
            assert max(angles) - angles[ia] <= 1e-12

    def test_symbolic_matches_numeric_along_deep_lineage(self):
        base = BaseAngles(Fraction(131, 2), Fraction(119, 2), 55)
        lineage = [0 if k % 3 else 1 for k in range(20)]
        _, scale = base.units(len(lineage) + 1)
        for node, _, _, units in reference_walk(base, lineage):
            for value, numeric in zip(unit_angles(units, scale),
                                      node.angles_deg()):
                assert abs(float(value) - numeric) < 1e-7


# ---------------------------------------------------------------------------
# bisect: longest-edge and shortest-altitude
# ---------------------------------------------------------------------------

class TestOtherProcedures:
    def test_longest_edge_equilateral_midpoint(self):
        root = triangle_from_angles(EQUILATERAL)
        left, right = bisect(root, ProcedureKind.LONGEST_EDGE)
        # Its feet leave the dyadic span of the base angles: a run of it
        # from base angles is numeric.
        run = RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=1,
                            base=EQUILATERAL)
        assert run.mode == RunMode.NUMERIC
        # Midpoint split of an equilateral gives 30-60-90 children.
        for child in (left, right):
            assert sorted(child.angles_deg()) == pytest.approx(
                [30.0, 60.0, 90.0], abs=1e-9)

    def test_shortest_altitude_pythagorean(self):
        root = triangle_from_sides(3, 4, 5)
        left, right = bisect(root, ProcedureKind.SHORTEST_ALTITUDE)
        parent = sorted_sides(root)
        ratios = sorted(
            (sorted_sides(child)[0] / parent[0] for child in (left, right)))
        assert ratios == pytest.approx([3 / 5, 4 / 5], rel=1e-12)
        for child in (left, right):
            for g, p in zip(sorted(child.angles_deg()), sorted(root.angles_deg())):
                assert g == pytest.approx(p, abs=1e-9)

    @given(angle_triples())
    @settings(max_examples=200)
    def test_altitude_children_are_right_triangles(self, angles):
        t = triangle_from_angles_deg(*angles)
        left, right = bisect(t, ProcedureKind.SHORTEST_ALTITUDE)
        for child in (left, right):
            assert max(child.angles_deg()) == pytest.approx(90.0, abs=1e-7)


# ---------------------------------------------------------------------------
# bisect against the public constructor
# ---------------------------------------------------------------------------

@st.composite
def numeric_roots(draw):
    """A root from ``triangle_from_angles_deg`` or, through its law-of-sines
    sides, from ``triangle_from_sides``."""
    angles = draw(angle_triples())
    scale = draw(st.floats(min_value=1e-3, max_value=1e3))
    if draw(st.booleans()):
        return triangle_from_angles_deg(*angles, scale=scale)
    return triangle_from_sides(
        *(scale * math.sin(math.radians(a)) for a in angles))


class TestBisectOracle:
    """``bisect`` builds children without ``TriangleNode.__init__`` and seeds
    their sides; the public constructor is the oracle for both."""

    @given(numeric_roots(), st.sampled_from(list(ProcedureKind)))
    @settings(max_examples=200, deadline=None)
    def test_children_match_public_constructor(self, root, kind):
        level = [root]
        for _ in range(4):
            children = []
            for node in level:
                ia = longest_side_vertex(node)
                assert ia == side_order(node)[0]
                pair = bisect(node, kind)
                if kind is not ProcedureKind.LARGEST_ANGLE:
                    # The side-based procedures split at the vertex
                    # opposite the longest side, given or searched.
                    given_index = bisect(node, kind, ia)
                    assert ([c.vertices for c in given_index]
                            == [c.vertices for c in pair])
                for child in pair:
                    rebuilt = TriangleNode(child.vertices,
                                           lineage=child.lineage)
                    assert child.sides() == rebuilt.sides()
                    # Bit for bit: the engine's longest-edge branch reads
                    # these angles from bisect-built children.
                    assert child.angles_deg() == rebuilt.angles_deg()
                    if kind is ProcedureKind.LONGEST_EDGE:
                        assert child._split_angles == rebuilt.angles_deg()
                    children.append(child)
            level = children

    @pytest.mark.parametrize("seeded", [True, False],
                             ids=["seeded", "constructor-built"])
    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("ia", [0, 1, 2])
    def test_split_index_rotation(self, ia, kind, seeded):
        # A scalene root split at each vertex: the children are the corner,
        # then the two vertices after it cyclically with the foot between,
        # and their seeded sides and angles are the constructor's, bit for
        # bit.  The constructor measures the root's sides; reading them
        # through sides() before the split or after it gives the same.
        root = TriangleNode((Point2(0.3, 2.9), Point2(-0.1, 0.2),
                             Point2(3.7, 0.4)), lineage="01")
        if seeded:
            assert repr(root.sides()) == repr(vertex_sides(root))
        v = root.vertices
        A, B, C = v[ia], v[(ia + 1) % 3], v[(ia + 2) % 3]
        # The foot as each procedure defines it, with |AC| and |AB| taken
        # from the constructor's sides by index.
        s = TriangleNode(v).sides()
        b, c = s[(ia + 1) % 3], s[(ia + 2) % 3]
        if kind is ProcedureKind.LARGEST_ANGLE:
            foot = ((b * B.x + c * C.x) / (b + c), (b * B.y + c * C.y) / (b + c))
        elif kind is ProcedureKind.LONGEST_EDGE:
            foot = ((B.x + C.x) / 2.0, (B.y + C.y) / 2.0)
        else:
            ex, ey = C.x - B.x, C.y - B.y
            tau = ((A.x - B.x) * ex + (A.y - B.y) * ey) / (ex * ex + ey * ey)
            foot = (B.x + tau * ex, B.y + tau * ey)
        left, right = bisect(root, kind, ia)
        if not seeded:
            assert repr(root.sides()) == repr(vertex_sides(root))
        assert repr(left.vertices) == repr((A, B, Point2(*foot)))
        assert repr(right.vertices) == repr((A, Point2(*foot), C))
        for child, lineage in ((left, "010"), (right, "011")):
            assert (child.generation, child.lineage) == (3, lineage)
            rebuilt = TriangleNode(child.vertices)
            assert repr(child.sides()) == repr(rebuilt.sides())
            if kind is ProcedureKind.LONGEST_EDGE:
                assert repr(child._split_angles) == repr(rebuilt.angles_deg())

    @pytest.mark.parametrize("ia", [-1, 3, True, False, 1.0])
    def test_split_index_out_of_range(self, ia):
        root = triangle_from_sides(3, 4, 5)
        with pytest.raises(ValueError, match="split_index"):
            bisect(root, ProcedureKind.LONGEST_EDGE, ia)

    def test_unknown_procedure(self):
        # A procedure name is not a procedure: no split falls back to one.
        root = triangle_from_sides(3, 4, 5)
        for ia in (None, 0):
            with pytest.raises(ValueError,
                               match="^unknown procedure 'largest-angle'$"):
                bisect(root, "largest-angle", ia)

    @given(exact_bases(),st.lists(st.integers(min_value=0, max_value=1),
                                   min_size=10, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_exact_children_match_public_constructor(self, base, lineage):
        # Children of splits chosen by exact angles: their sides and angles
        # are the constructor's, bit for bit, and the engine's units pick
        # the largest and smallest vertex the reference values pick.
        for child, _, values, units in reference_walk(base, lineage):
            rebuilt = TriangleNode(child.vertices, lineage=child.lineage)
            assert child.sides() == rebuilt.sides()
            assert child.angles_deg() == rebuilt.angles_deg()
            assert units.index(max(units)) == values.index(max(values))
            assert units.index(min(units)) == values.index(min(values))

    def test_seeded_longest_edge_angles(self):
        # Longest-edge children carry the angles the engine reads, measured
        # from the split's own vectors; on a seeded sweep of roots, thin
        # ones included, they are angles_deg() of the child, bit for bit.
        # Each root, and its shape rebuilt by every root constructor at
        # scales 1, 1e-150 and 1e150, has the sides its vertices give.
        scales = (1.0, 1e-150, 1e150)
        rng = random.Random(0)
        checked = 0
        for _ in range(150):
            if rng.random() < 0.5:
                a, b = rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0)
                c = rng.uniform(abs(a - b) + 1e-3, a + b - 1e-3)
                root = triangle_from_sides(a, b, c)
                rebuilt = [triangle_from_sides(a * k, b * k, c * k)
                           for k in scales]
            else:
                small = rng.uniform(0.5, 60.0)
                mid = rng.uniform(small, (180.0 - small) / 2.0)
                root = triangle_from_angles_deg(180.0 - small - mid, mid,
                                                small, rng.uniform(0.1, 10.0))
                q_small = Fraction(small).limit_denominator(10**6)
                q_mid = Fraction(mid).limit_denominator(10**6)
                base = BaseAngles.from_unordered(180 - q_small - q_mid,
                                                 q_mid, q_small)
                rebuilt = [triangle_from_angles(base, scale=k) for k in scales]
                rebuilt += [triangle_from_angles_deg(180.0 - small - mid, mid,
                                                     small, scale=k)
                            for k in scales]
            for t in [root] + rebuilt:
                assert repr(t.sides()) == repr(vertex_sides(t))
            level = [root]
            for _ in range(6):
                level = [child for node in level
                         for child in bisect(node, ProcedureKind.LONGEST_EDGE)]
                for child in level:
                    assert child._split_angles == child.angles_deg()
                checked += len(level)
        assert checked == 150 * (2 ** 7 - 2)

    @given(st.floats(allow_nan=False, allow_infinity=False)
           | st.floats(-math.pi, math.pi))
    @example(math.pi)
    @example(-math.pi)
    @example(-0.0)
    def test_degrees_is_one_product(self, x):
        # bisect and angles_deg() multiply by _RAD_TO_DEG in place of
        # math.degrees: the same double, bit for bit.
        assert math.degrees(x).hex() == (x * geometry._RAD_TO_DEG).hex()

    @pytest.mark.parametrize("kind", list(ProcedureKind))
    def test_degeneracy_threshold_matches_public_constructor(self, kind):
        # With the threshold set to the smallest value at which the
        # constructor rejects one of the children, bisect must reject, and
        # one ulp below it must accept: its test is the constructor's, bit
        # for bit.  The roots are picked so that some child has an edge
        # (x, y) whose hypot h squares to other than x * x + y * y, where a
        # rule on squared norms and one on the stored sides can disagree.
        def rejects(vertices, rel):
            geometry.DEGENERACY_REL_AREA = rel
            try:
                TriangleNode(vertices)
            except DegenerateTriangleError:
                return True
            return False

        def threshold(child):
            # The smallest rel the constructor rejects at, searched by ulp
            # steps from an estimate within a few ulps of it.
            rel = child.area() / max(child.sides()) ** 2
            while rejects(child.vertices, rel):
                rel = math.nextafter(rel, 0.0)
            while not rejects(child.vertices, rel):
                rel = math.nextafter(rel, math.inf)
            return rel

        def hypot_differs(child):
            p, q, r = child.vertices
            for u, v in ((p, q), (q, r), (r, p)):
                x, y = u.x - v.x, u.y - v.y
                h = math.hypot(x, y)
                if h * h != x * x + y * y:
                    return True
            return False

        rng = random.Random(0)
        saved = geometry.DEGENERACY_REL_AREA
        checked = sharp = 0
        try:
            for _ in range(20000):
                a, b = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
                c = rng.uniform(abs(a - b) + 0.01, a + b - 0.01)
                geometry.DEGENERACY_REL_AREA = 0.0
                root = triangle_from_sides(a, b, c)
                children = bisect(root, kind)
                if any(map(hypot_differs, children)):
                    sharp += 1
                elif checked >= 20:
                    continue
                rel = min(threshold(child) for child in children)
                geometry.DEGENERACY_REL_AREA = rel
                with pytest.raises(DegenerateTriangleError):
                    bisect(root, kind)
                geometry.DEGENERACY_REL_AREA = math.nextafter(rel, 0.0)
                bisect(root, kind)
                checked += 1
                if sharp >= 40:
                    break
        finally:
            geometry.DEGENERACY_REL_AREA = saved
        assert checked >= 20

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    def test_degeneracy_at_threshold_edge(self, kind):
        # Thresholds within 1e-8 of the thinner child's relative area, most
        # within 1e-9 of it: bisect accepts exactly when the constructor
        # accepts both children, on both sides of the threshold.
        def relative_area(child):
            # The rule's terms: twice the area over twice the longest
            # stored side squared.
            (ax, ay), (bx, by), (cx, cy) = child.vertices
            longest = max(child.sides())
            return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / (
                2 * longest * longest)

        def constructor_accepts(vertices):
            try:
                TriangleNode(vertices)
            except DegenerateTriangleError:
                return False
            return True

        rng = random.Random(1)
        saved = geometry.DEGENERACY_REL_AREA
        # Accepted and rejected splits whose threshold is at most 5e-10
        # (relative) below the thinner child's relative area.
        decided = {True: 0, False: 0}
        try:
            for _ in range(600):
                a, b = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
                c = rng.uniform(abs(a - b) + 0.01, a + b - 0.01)
                geometry.DEGENERACY_REL_AREA = 0.0
                root = triangle_from_sides(a, b, c)
                children = bisect(root, kind)
                rel = min(map(relative_area, children))
                width = 1e-8 if rng.random() < 0.2 else 1e-9
                u = rng.uniform(-width, width)
                geometry.DEGENERACY_REL_AREA = rel * (1 + u)
                expected = all(constructor_accepts(child.vertices)
                               for child in children)
                try:
                    bisect(root, kind)
                    accepted = True
                except DegenerateTriangleError:
                    accepted = False
                assert accepted == expected, (a, b, c, u)
                if -5e-10 < u:
                    decided[accepted] += 1
        finally:
            geometry.DEGENERACY_REL_AREA = saved
        assert min(decided.values()) >= 50, decided

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    def test_degeneracy_rule_reads_stored_sides(self, kind):
        # The one rule: a node is rejected iff
        # abs(cross) <= 2 * DEGENERACY_REL_AREA * L * L, L its longest
        # stored side.  At the threshold where the rule flips for a root or
        # a child, and one ulp below it, the constructor and bisect follow
        # it exactly.
        def cross(node):
            (ax, ay), (bx, by), (cx, cy) = node.vertices
            return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))

        def rule_rejects(node, rel):
            longest = max(node.sides())
            return cross(node) <= 2.0 * rel * longest * longest

        def boundary(node):
            # The smallest threshold the rule rejects the node at.
            longest = max(node.sides())
            rel = cross(node) / (2.0 * longest * longest)
            while rule_rejects(node, rel):
                rel = math.nextafter(rel, 0.0)
            while not rule_rejects(node, rel):
                rel = math.nextafter(rel, math.inf)
            return rel

        def constructor_rejects(node):
            try:
                TriangleNode(node.vertices)
            except DegenerateTriangleError:
                return True
            return False

        rng = random.Random(2)
        saved = geometry.DEGENERACY_REL_AREA
        flips = 0
        try:
            for _ in range(300):
                a, b = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
                c = rng.uniform(abs(a - b) + 0.01, a + b - 0.01)
                geometry.DEGENERACY_REL_AREA = 0.0
                root = triangle_from_sides(a, b, c)
                children = bisect(root, kind)
                for node in (root,) + children:
                    edge = boundary(node)
                    for rel in (edge, math.nextafter(edge, 0.0)):
                        geometry.DEGENERACY_REL_AREA = rel
                        expected = rule_rejects(node, rel)
                        assert constructor_rejects(node) == expected, (
                            a, b, c, node.lineage, rel)
                        if node is root:
                            continue
                        expected = any(rule_rejects(child, rel)
                                       for child in children)
                        try:
                            bisect(root, kind)
                            rejected = False
                        except DegenerateTriangleError:
                            rejected = True
                        assert rejected == expected, (a, b, c, rel)
                        flips += expected
        finally:
            geometry.DEGENERACY_REL_AREA = saved
        assert flips >= 300

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=-11.7, max_value=-11.0),
           st.sampled_from(list(ProcedureKind)))
    @settings(max_examples=300, deadline=None)
    def test_degeneracy_matches_public_constructor(self, x, exponent, kind):
        # Thin roots whose children straddle the relative-area threshold:
        # bisect must reject exactly when the constructor would reject a
        # child.  With the threshold at zero, bisect yields the children
        # whatever their area.
        try:
            root = TriangleNode((Point2(x, 10.0 ** exponent), Point2(0.0, 0.0),
                                 Point2(1.0, 0.0)))
        except DegenerateTriangleError:
            assume(False)
        with mock.patch.object(geometry, "DEGENERACY_REL_AREA", 0.0):
            children = bisect(root, kind)
        constructor_accepts = True
        for child in children:
            try:
                TriangleNode(child.vertices)
            except DegenerateTriangleError:
                constructor_accepts = False
        try:
            bisect(root, kind)
            bisect_accepts = True
        except DegenerateTriangleError:
            bisect_accepts = False
        assert bisect_accepts == constructor_accepts

    @pytest.mark.parametrize("sides", [(1.0, 1.0, 1.0), (2.0, 2.0, 1.0),
                                       (2.0, 1.0, 2.0), (1.0, 2.0, 2.0)])
    def test_longest_side_vertex_exact_ties(self, sides):
        t = SimpleNamespace(sides=lambda: sides)
        assert longest_side_vertex(t) == side_order(t)[0]

    def test_longest_side_vertex_isosceles_node(self):
        # hypot ignores signs, so the two legs tie exactly in every rotation.
        a, b, c = Point2(0.5, 1.9), Point2(0.0, 0.0), Point2(1.0, 0.0)
        for vertices in ((a, b, c), (b, c, a), (c, a, b)):
            t = TriangleNode(vertices)
            assert longest_side_vertex(t) == side_order(t)[0]


# ---------------------------------------------------------------------------
# aspect ratio
# ---------------------------------------------------------------------------

class TestAspectRatio:
    def test_equilateral_is_half(self):
        assert aspect_ratio(triangle_from_angles(EQUILATERAL)) == pytest.approx(
            0.5, abs=1e-12)

    def test_thirty_sixty_ninety(self):
        t = triangle_from_angles_deg(30, 60, 90)
        assert aspect_ratio(t) == pytest.approx(math.sqrt(3) - 1, abs=1e-12)

    def test_thirty_fortyfive_hundredfive(self):
        expected = math.sin(math.radians(52.5)) / math.cos(math.radians(7.5))
        t = triangle_from_angles_deg(30, 45, 105)
        assert aspect_ratio(t) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.800199, abs=5e-7)

    @given(angle_triples())
    @settings(max_examples=500)
    def test_trig_form_matches_side_form(self, angles):
        t = triangle_from_angles_deg(*angles)
        r = aspect_ratio(t)
        assert abs(r - aspect_ratio_trig(t)) <= 1e-12 * r

    @given(angle_triples())
    @settings(max_examples=500)
    def test_range(self, angles):
        r = aspect_ratio(triangle_from_angles_deg(*angles))
        assert 0.5 - 1e-12 <= r < 1.0


# ---------------------------------------------------------------------------
# bisector length bound
# ---------------------------------------------------------------------------

class TestBisectorBound:
    def test_equilateral_attains_bound(self):
        ratio = bisector_to_longest_side_ratio(triangle_from_angles(EQUILATERAL))
        assert ratio == pytest.approx(SQRT3_2, abs=1e-12)

    def test_right_isosceles(self):
        # a = sqrt(2), b = c = 1: ratio = sqrt(1/4 * (4-2)/2) = 1/2.
        ratio = bisector_to_longest_side_ratio(
            triangle_from_angles(RIGHT_ISOSCELES))
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_matches_direct_construction(self):
        t = triangle_from_angles_deg(97, 51, 32)
        left, _ = bisect(t, ProcedureKind.LARGEST_ANGLE)
        A, foot = left.vertices[0], left.vertices[2]
        direct = math.hypot(foot.x - A.x, foot.y - A.y) / sorted_sides(t)[0]
        assert bisector_to_longest_side_ratio(t) == pytest.approx(
            direct, rel=1e-12)

    @given(angle_triples())
    @settings(max_examples=500)
    def test_bound_holds(self, angles):
        t = triangle_from_angles_deg(*angles)
        assert bisector_to_longest_side_ratio(t) <= SQRT3_2 + 1e-12


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------

class TestConstructors:
    def test_from_sides_rejects_non_triangle(self):
        with pytest.raises(ValueError):
            triangle_from_sides(1, 2, 3)
        with pytest.raises(ValueError):
            triangle_from_sides(1, 1, 0)

    def test_sides_sorted_longest_first(self):
        assert triangle_sides((3, 5, 4)) == (5.0, 4.0, 3.0)
        with pytest.raises(ValueError, match=r"sides \(1.0, 1.0, 5.0\) do not"):
            triangle_sides((1, 1, 5))
        with pytest.raises(ValueError, match="positive finite"):
            triangle_sides((1, math.nan, 1))
        # Items that are not real numbers, bools, or ints whose floats
        # overflow are refused by the same rule, not converted.
        for bad in (("3", "4", "5"), (True, True, True),
                    (10 ** 400, 10 ** 400, 10 ** 400)):
            with pytest.raises(ValueError, match="^sides must be positive "
                               "finite numbers$"):
                triangle_from_sides(*bad)

    @pytest.mark.parametrize("build", [
        lambda: triangle_from_angles(EQUILATERAL, scale=1e-160),
        lambda: triangle_from_sides(1e-200, 1e-200, 1e-200),
    ])
    def test_tiny_root_underflows(self, build):
        # Squared lengths below the smallest normal double would make such
        # a root look collinear.
        with pytest.raises(DegenerateTriangleError, match="too small"):
            build()

    @pytest.mark.parametrize("vertices, message", [
        (((0.0, 0.0), (1e200, 1e200), (2e200, 2e200)),
         "longest side 2.82842712474619e+200 is too large: squared lengths "
         "overflow"),
        (((0, 0), (1e200, 0), (0, 1e200)),
         "longest side 1.414213562373095e+200 is too large: squared lengths "
         "overflow"),
        (((0, 0), (1e-200, 0), (0, 1e-200)),
         "longest side 1.414213562373095e-200 is too small: squared lengths "
         "underflow"),
        (((1.0, 2.0), (1.0, 2.0), (1.0, 2.0)),
         "collinear vertices (lineage ''): (Point2(x=1.0, y=2.0), "
         "Point2(x=1.0, y=2.0), Point2(x=1.0, y=2.0))"),
    ], ids=["collinear-overflow", "right-overflow", "right-underflow",
            "coincident"])
    def test_constructor_names_the_fault(self, vertices, message):
        # The root builders' rule holds for the constructor too: collinear
        # vertices whose products overflow are not accepted with a NaN
        # area, and valid triangles whose squares overflow or underflow are
        # not reported as collinear.  Three coincident vertices, whose
        # longest side is 0, are collinear.
        with pytest.raises(DegenerateTriangleError) as info:
            TriangleNode(vertices)
        assert str(info.value) == message

    def test_underflow_side_threshold(self):
        # bisect's one compare per child is the constructor's underflow
        # rule: x * x < min iff x <= _UNDERFLOW_SIDE, at the threshold and
        # on both sides of it.
        tiny = sys.float_info.min
        side = geometry._UNDERFLOW_SIDE
        for x in (math.nextafter(side, 0.0), side,
                  math.nextafter(side, math.inf)):
            assert (x * x < tiny) is (x <= side)

    def test_underflowing_child_refused(self):
        # Children shrink below the root's floor: the always-left
        # longest-edge walk from a 1e-153 root reaches, at depth 6, a
        # right child whose vertices TriangleNode() refuses, and bisect
        # refuses that split too.
        t = triangle_from_angles_deg(60, 60, 60, scale=1e-153)
        for _ in range(5):
            t = bisect(t, ProcedureKind.LONGEST_EDGE)[0]
        ia = longest_side_vertex(t)
        a, b, c = (t.vertices[(ia + k) % 3] for k in range(3))
        foot = ((b.x + c.x) / 2.0, (b.y + c.y) / 2.0)
        TriangleNode((a, b, foot))
        with pytest.raises(DegenerateTriangleError,
                           match="too small: squared lengths underflow"):
            TriangleNode((a, foot, c))
        with pytest.raises(DegenerateTriangleError) as info:
            bisect(t, ProcedureKind.LONGEST_EDGE)
        assert str(info.value).startswith(
            "longest-edge bisection produced a child at depth 6 (parent "
            "lineage '00000') whose longest side ")
        assert str(info.value).endswith(
            " is too small: squared lengths underflow")

    @pytest.mark.parametrize("kind", list(ProcedureKind))
    def test_far_from_origin_splits(self, kind):
        # A valid triangle far from the origin: b * bx overflows in the
        # weighted largest-angle foot, which falls back to B + (C - B) * c/w.
        t = TriangleNode(((1e160, 1e160), (1e160 + 3e150, 1e160),
                          (1e160, 1e160 + 4e150)))
        left, right = bisect(t, kind)
        for child in (left, right):
            assert child.sides() == TriangleNode(child.vertices).sides()
        if kind is ProcedureKind.LARGEST_ANGLE:
            # The right angle is at A; the foot divides BC as c : b = 3 : 4,
            # to the resolution of coordinates near 1e160 (an ulp is 2e144,
            # about 1e-6 of a side).
            b, foot, c = left.vertices[1], left.vertices[2], right.vertices[2]
            assert (math.dist(b, foot) / math.dist(foot, c)
                    == pytest.approx(3 / 4, rel=1e-5))

    def test_smallest_supported_scale(self):
        t = triangle_from_angles(EQUILATERAL, scale=1e-153)
        assert sorted_sides(t)[0] == pytest.approx(1e-153, rel=1e-12)

    @pytest.mark.parametrize("scale", [
        0.0, -1.0, math.nan, math.inf, "1", None, True,
        pytest.param(10 ** 400, id="int-beyond-float")])
    def test_one_scale_rule(self, scale):
        # A run's scale and a root's longest side obey one rule, with one
        # message; it is a plain ValueError (exit 2), not a geometry error,
        # and a scale that is not a real number is refused by it too, not
        # by a TypeError from the comparison, nor an int too large for a
        # float by an OverflowError.  A bool is refused, not run as 1.0.
        for reject in (
                lambda: check_scale(scale),
                lambda: triangle_from_angles(EQUILATERAL, scale=scale),
                lambda: triangle_from_angles_deg(60, 60, 60, scale=scale),
                lambda: RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                      depth=1, base=EQUILATERAL, scale=scale)):
            with pytest.raises(ValueError) as info:
                reject()
            assert type(info.value) is ValueError
            assert str(info.value) == "scale must be a positive finite number"

    def test_angle_below_float_range_is_geometry_error(self):
        # Exact angles reach the law of sines as Fractions, so a valid base
        # whose smallest angle rounds to 0.0 as a float passes the angle
        # checks and ends with a collinear root (exit 3), not as an invalid
        # angle that no input rule explains.
        tiny = Fraction(1, 10 ** 400)
        base = BaseAngles(180 - 2 * tiny, tiny, tiny)
        with pytest.raises(DegenerateTriangleError, match="collinear vertices"):
            triangle_from_angles(base)

    @pytest.mark.parametrize("angles", [(True, 90, 89), ("60", 60, 60),
                                        (None, 90, 90)],
                             ids=["bool", "text", "none"])
    def test_non_real_angle_rejected(self, angles):
        # A bool would build a (90, 89, 1) triangle, and text or None
        # would reach sorted() as a TypeError.
        with pytest.raises(ValueError, match="^angles must be real numbers, "
                           "got "):
            triangle_from_angles_deg(*angles)

    def test_from_angles_scale(self):
        t = triangle_from_angles(EQUILATERAL, scale=2.5)
        assert sorted_sides(t)[0] == pytest.approx(2.5, rel=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TriangleNode((Point2(0, 0), Point2(1, 0), Point2(0, math.inf)))
        # An int or Fraction beyond the float range is not finite either,
        # refused with the same message, not an OverflowError from
        # math.isfinite.
        for x in (10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)):
            with pytest.raises(ValueError) as info:
                TriangleNode(((0, 0), (1, 0), (x, 1)))
            assert type(info.value) is ValueError
            assert str(info.value) == ("triangle vertices must have finite "
                                       "coordinates")

    @pytest.mark.parametrize("x", ["0", None, 1j, True, Decimal("0")],
                             ids=["text", "none", "complex", "bool", "decimal"])
    def test_non_real_coordinate_rejected(self, x):
        # math.isfinite raises TypeError for "0", and would pass a bool as
        # 0 or 1.
        with pytest.raises(ValueError, match="^triangle coordinates must be "
                                             "real numbers, got "):
            TriangleNode(((x, 0), (1, 0), (0, 1)))
        with pytest.raises(ValueError, match="real numbers"):
            TriangleNode(((0, 0), (1, 0), (0, x)))

    def test_real_coordinates_accepted(self):
        t = TriangleNode(((0, 0), (Fraction(1), 0), (0, 1.0)))
        assert t.sides() == (math.sqrt(2), 1.0, 1.0)

    @given(st.one_of(
        st.integers(), st.floats(), st.fractions(), st.booleans(),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
        st.floats().map(_FloatSubclass), st.integers().map(_IntSubclass),
        st.decimals(allow_nan=False), st.complex_numbers(), st.text(),
        st.none()))
    @example(True)
    @example(_FloatSubclass(1.5))
    @example(_IntSubclass(2))
    def test_one_number_rule(self, x):
        # is_real tests the exact types first, with the verdict of the ABC
        # rule, and each caller refuses what it refuses with its own message.
        real = isinstance(x, numbers.Real) and not isinstance(x, bool)
        assert is_real(x) is real
        messages = (
            (lambda: TriangleNode(((x, 0), (1, 0), (0, 1))),
             f"triangle coordinates must be real numbers, got {x!r}"),
            (lambda: positive_float(x, "not a positive number"),
             "not a positive number"),
            (lambda: triangle_from_angles_deg(x, 90, 90),
             f"angles must be real numbers, got {x!r}"),
        )
        for call, message in messages:
            try:
                call()
                got = None
            except ValueError as error:
                got = str(error)
            if not real:
                assert got == message
            elif got == message:
                # Only positive_float refuses real numbers with its message.
                assert not 0 < float(x) < math.inf

    @pytest.mark.parametrize("lineage", [5, None, b"01", "ab", "012", " 0"])
    def test_bad_lineage_rejected(self, lineage):
        # Without the check, lineage=5 would be built and then fail on
        # .generation, and "ab" would be generation 2.
        with pytest.raises(ValueError, match="^lineage must be a string of "
                                             "0s and 1s, got "):
            TriangleNode(((0, 0), (1, 0), (0, 1)), lineage=lineage)

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    def test_generation_is_lineage_length(self, kind):
        # One source: a user-built node at lineage "01" is in generation 2,
        # and its children in generation 3, whatever the procedure.
        t = TriangleNode((Point2(0.3, 2.9), Point2(-0.1, 0.2),
                          Point2(3.7, 0.4)), lineage="01")
        assert t.generation == 2
        left, right = bisect(t, kind)
        assert (left.generation, left.lineage) == (3, "010")
        assert (right.generation, right.lineage) == (3, "011")
        assert "generation" not in TriangleNode.__slots__
        with pytest.raises(AttributeError):
            t.generation = 5
        # The lineage is a read-only view of the node's int path too.
        with pytest.raises(AttributeError):
            t.lineage = "0"
        assert (t.lineage, t.generation) == ("01", 2)

    @given(st.text(alphabet="01", max_size=64))
    @example("")
    @example("0" * 31)
    @example("0" * 61 + "1")
    @example("0" * 64)
    @example("1" * 64)
    def test_lineage_round_trips_through_path(self, lineage):
        # The int path keeps leading zeros and any length, 30 and 60 bits
        # included.
        t = TriangleNode(((0, 0), (1, 0), (0, 1)), lineage=lineage)
        assert t.lineage == lineage
        assert t.generation == len(lineage)

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    def test_lineage_of_a_deep_walk(self, kind):
        # 40 splits down a seeded path from an equilateral root: each child
        # extends its parent's lineage by its bit, one generation down.
        rng = random.Random(0)
        node = triangle_from_angles(EQUILATERAL)
        for n in range(1, 41):
            left, right = bisect(node, kind)
            assert (left.lineage, right.lineage) == (node.lineage + "0",
                                                     node.lineage + "1")
            assert left.generation == right.generation == n
            node = (left, right)[rng.getrandbits(1)]
        assert len(set(node.lineage)) == 2

    def test_generator_vertices_stored(self):
        # A generator is read once: the node keeps its coordinates, not the
        # used-up generator, so it can be split.
        t = TriangleNode(p for p in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        assert t.vertices == (Point2(0.0, 0.0), Point2(1.0, 0.0),
                              Point2(0.0, 1.0))
        left, right = bisect(t, ProcedureKind.LONGEST_EDGE)
        foot = Point2(0.5, 0.5)
        assert left.vertices == (Point2(0.0, 0.0), Point2(1.0, 0.0), foot)
        assert right.vertices == (Point2(0.0, 0.0), foot, Point2(0.0, 1.0))

    def test_vertex_list_not_shared(self):
        # Mutating the caller's list leaves the node and its sides as built.
        vertices = [Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0)]
        t = TriangleNode(vertices)
        vertices[2] = Point2(0.0, 100.0)
        assert t.vertices == (Point2(0.0, 0.0), Point2(1.0, 0.0),
                              Point2(0.0, 1.0))
        assert repr(t.sides()) == repr(vertex_sides(t))

    def test_vertices_are_a_read_only_view(self):
        # The six coordinates are kept as given, an int as an int and -0.0
        # with its sign, and ``vertices`` reads them back as Point2s; it
        # cannot be assigned.
        t = TriangleNode(((0, -0.0), (3, 0), (0.5, 4)))
        given = "(Point2(x=0, y=-0.0), Point2(x=3, y=0), Point2(x=0.5, y=4))"
        assert repr(t.vertices) == given
        assert all(type(p) is Point2 for p in t.vertices)
        with pytest.raises(AttributeError):
            t.vertices = (Point2(0.0, 0.0), Point2(1.0, 0.0), Point2(0.0, 1.0))
        assert repr(t.vertices) == given

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("ia", [0, 1, 2])
    def test_child_corners_are_parent_coordinates_and_foot(self, ia, kind):
        # Each child's corners are the parent's coordinates, as given, and
        # the one new foot F: left (A, B, F), right (A, F, C).
        t = TriangleNode(((0, -0.0), (3, 0), (0.5, 4)))
        v = t.vertices
        A, B, C = v[ia], v[(ia + 1) % 3], v[(ia + 2) % 3]
        left, right = bisect(t, kind, ia)
        foot = left.vertices[2]
        assert repr(left.vertices) == repr((A, B, foot))
        assert repr(right.vertices) == repr((A, foot, C))

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    def test_plain_pairs_become_points(self, kind):
        # Plain (x, y) pairs are read back as Point2, as are the children's
        # corners, the feet included.
        t = TriangleNode(((0.3, 2.9), (-0.1, 0.2), (3.7, 0.4)))
        assert all(type(p) is Point2 for p in t.vertices)
        assert t.vertices == ((0.3, 2.9), (-0.1, 0.2), (3.7, 0.4))
        for child in bisect(t, kind):
            assert all(type(p) is Point2 for p in child.vertices)
            assert child.vertices[0].x == t.vertices[longest_side_vertex(t)].x

    def test_generation_is_not_an_argument(self):
        # The lineage is keyword-only: an old positional generation fails
        # instead of becoming a lineage.
        vertices = (Point2(0, 0), Point2(1, 0), Point2(0, 1))
        with pytest.raises(TypeError):
            TriangleNode(vertices, 2)
        with pytest.raises(TypeError):
            TriangleNode(vertices, generation=2)

    def test_aspect_from_angles_helper(self):
        assert aspect_ratio_trig(
            triangle_from_angles_deg(60, 60, 60)) == pytest.approx(0.5)

    @pytest.mark.parametrize("angles", [
        (10, 10, 10),
        (90, 60, 20),
        (90, 60, 30 + 1e-6),
        (179, 1, 1),
        (200, 30, 30),
        (10 ** 400, 1, 1),
        (1, Fraction(10 ** 400, 3), 1),
    ])
    def test_from_angles_deg_rejects_wrong_sum(self, angles):
        # The law of sines would build a triangle with other angles, e.g.
        # (85, 10, 85) from (10, 10, 10).  A sum beyond the float range is
        # a wrong sum too, not an OverflowError.
        with pytest.raises(ValueError, match="^angles must sum to 180 "
                                             "degrees, got "):
            triangle_from_angles_deg(*angles)

    @pytest.mark.parametrize("angles", [
        (60, 60, 60),
        (90, 60, 30 + 5e-10),
        (0.1 + 0.2, 90, 180 - 90 - (0.1 + 0.2)),
    ])
    def test_from_angles_deg_accepts_sum_within_tolerance(self, angles):
        t = triangle_from_angles_deg(*angles)
        assert sorted(t.angles_deg()) == pytest.approx(sorted(angles),
                                                       abs=1e-9)
