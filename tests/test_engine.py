"""Tests for the refinement engine."""

import gc
import json
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exact_reference import ROOT_FORMS, exact_walk, reference_children
from trirefine import engine, verifier
from trirefine.exact import BaseAngles, carrier_angle_forms, evaluate_angle_form
from trirefine.engine import (
    MAX_RENDER_GENERATION,
    ProcedureKind,
    RefinementRun,
    RunMode,
    SQRT3_2,
    carrier_units,
    refine,
    split_units,
    track_carrier,
)
from trirefine.geometry import (
    bisect,
    longest_side_vertex,
    triangle_from_angles,
    triangle_from_sides,
)
from trirefine.verifier import aspect_ratio

EQUILATERAL = BaseAngles(60, 60, 60)
RIGHT_ISOSCELES = BaseAngles(90, 45, 45)
THIN = BaseAngles(178, 1, 1)

R1_EQUILATERAL = math.sqrt(3) - 1
R2_EQUILATERAL = math.sin(math.radians(52.5)) / math.cos(math.radians(7.5))


def run_largest(base, depth, **kw):
    return refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                depth=depth, base=base, **kw))


def packed_keys(base, depth, levels):
    """Each level's angle triples (degrees) packed as a depth-``depth`` run
    of ``base`` packs its keys: at scale ``base.units(depth + 1)[1]``, the
    sorted units lo <= mid <= hi give lo * 180 * scale + mid.  Every angle
    must be a whole number of units."""
    _, scale = base.units(depth + 1)
    total = 180 * scale
    packed = []
    for level in levels:
        keys = set()
        for angles in level:
            units = [Fraction(angle) * scale for angle in angles]
            assert all(u.denominator == 1 for u in units)
            lo, mid, hi = sorted(u.numerator for u in units)
            assert lo + mid + hi == total
            keys.add(lo * total + mid)
        packed.append(keys)
    return packed


def walk_angles(walk):
    """The reference angles of each generation of an ``exact_walk``."""
    return [[values for _, values in level] for level in walk]


# ---------------------------------------------------------------------------
# RefinementRun validation
# ---------------------------------------------------------------------------

class TestRunValidation:
    def test_exactly_one_input(self):
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2)
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                          base=EQUILATERAL, sides=(3, 4, 5))

    @pytest.mark.parametrize("sides, message", [
        ((1, 1, 5), r"sides \(1.0, 1.0, 5.0\) do not form a triangle"),
        ((1, 2, 3), "do not form a triangle"),
        ((math.nan, 1, 1), "sides must be positive finite numbers"),
        ((0, 1, 1), "sides must be positive finite numbers"),
        ((math.inf, 1, 1), "sides must be positive finite numbers"),
        ((True, True, True), "sides must be positive finite numbers"),
    ])
    def test_sides_must_form_a_triangle(self, sides, message):
        # Rejected before the run starts, by the rule triangle_from_sides
        # applies.
        with pytest.raises(ValueError, match=message):
            RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=2,
                          sides=sides)

    def test_mode_is_derived(self):
        r = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                          base=EQUILATERAL)
        assert r.mode == RunMode.EXACT_BASE
        r = RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=2,
                          base=EQUILATERAL)
        assert r.mode == RunMode.NUMERIC
        r = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                          sides=(3, 4, 5))
        assert r.mode == RunMode.NUMERIC

    def test_root(self):
        # Base angles at the run's scale, for every procedure; sides as given.
        for kind in ProcedureKind:
            r = RefinementRun(kind=kind, depth=2, base=BaseAngles(80, 60, 40),
                              scale=2.5)
            assert r.root().vertices == triangle_from_angles(
                BaseAngles(80, 60, 40), scale=2.5).vertices
            r = RefinementRun(kind=kind, depth=2, sides=(3, 5, 4))
            assert r.root().vertices == triangle_from_sides(3, 5, 4).vertices

    def test_exact_mode_needs_largest_angle(self):
        # The mode is derived, never given, so exact mode cannot be asked
        # of another procedure or of side input.
        with pytest.raises(TypeError):
            RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=2,
                          base=EQUILATERAL, mode=RunMode.EXACT_BASE)
        with pytest.raises(TypeError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                          sides=(3, 4, 5), mode=RunMode.EXACT_BASE)

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "largest-angle", "unknown procedure 'largest-angle'"),
        ("depth", 2.5, "depth must be an int, got 2.5"),
        ("retain", "final-generation",
         "retain must be a bool, got 'final-generation'"),
        ("retain", 1, "retain must be a bool, got 1"),
        ("base", (60, 60, 60), "base must be a BaseAngles, got (60, 60, 60)"),
        ("scale", "2", "scale must be a positive finite number"),
        ("depth", True, "depth must be an int, got True"),
        ("sides", "345", "sides must be positive finite numbers"),
    ], ids=["kind", "depth", "retain", "int-retain", "base", "scale",
            "bool-depth", "sides"])
    def test_rejects_unknown_values(self, field, value, message):
        # Refused when the run is made, not in the middle of refine.
        config = dict(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                      base=None if field == "sides" else EQUILATERAL)
        config[field] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RefinementRun(**config)

    def test_sides_kept_as_tuple_in_given_order(self):
        # A run is a verifier memo key, so it must hash whatever sequence
        # its sides came in.
        run = RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=2,
                            sides=[5, 3, 4])
        same = RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=2,
                             sides=(5, 3, 4))
        assert run.sides == (5, 3, 4)
        assert all(type(side) is float for side in run.sides)
        assert run == same and hash(run) == hash(same)
        assert {run: 1}[same] == 1

    def test_scale_kept_as_float(self):
        # ``--json`` writes the run's scale, so it is kept as the float the
        # scale rule accepts, whatever real number it was given as.
        for scale in (Fraction(5, 2), 2.5, 2):
            run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=1,
                                base=EQUILATERAL, scale=scale)
            assert type(run.scale) is float and run.scale == scale
            assert json.loads(json.dumps(run.scale)) == scale

    def test_depth_limits(self):
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=41,
                          base=EQUILATERAL)
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=-1,
                          base=EQUILATERAL)

    def test_retaining_run_limited_to_render_generation(self):
        # A retaining run keeps 2**depth nodes, at most what an SVG draws;
        # a deeper one is refused before it starts.
        assert MAX_RENDER_GENERATION == 14
        for kind in ProcedureKind:
            RefinementRun(kind=kind, depth=14, sides=(3, 4, 5),
                          retain=True)
            with pytest.raises(ValueError, match="^depth 15 exceeds the "
                               "final-generation limit of 14$"):
                RefinementRun(kind=kind, depth=15, sides=(3, 4, 5),
                              retain=True)
        # A streaming run keeps no nodes and is not held to it.
        RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=15,
                      sides=(3, 4, 5))


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

class TestRefine:
    def test_depth_zero_initial_stats_only(self):
        result = run_largest(EQUILATERAL, 0)
        assert len(result.stats) == 1
        s = result.stats[0]
        assert s.triangle_count == 1
        assert s.mesh == pytest.approx(1.0)
        assert s.min_angle_deg == 60
        assert s.rho is None
        assert s.cumulative_similarity_classes == 1

    def test_equilateral_depth_two(self):
        result = run_largest(EQUILATERAL, 2)
        s = result.stats
        assert [row.triangle_count for row in s] == [1, 2, 4]
        # Generation 2 holds exactly the classes (30,45,105) and (45,60,75).
        assert [result.key_sets[2]] == packed_keys(
            EQUILATERAL, 2, [[(30, 45, 105), (45, 60, 75)]])
        assert s[0].max_aspect_ratio == pytest.approx(0.5, abs=1e-12)
        assert s[1].max_aspect_ratio == pytest.approx(R1_EQUILATERAL, abs=1e-12)
        assert s[2].max_aspect_ratio == pytest.approx(R2_EQUILATERAL, abs=1e-9)
        assert s[1].min_angle_deg == 30 and s[2].min_angle_deg == 30

    def test_right_isosceles_self_similar_decay(self):
        result = run_largest(RIGHT_ISOSCELES, 10)
        for n, row in enumerate(result.stats):
            assert row.cumulative_similarity_classes == 1
            assert row.mesh == pytest.approx(2.0 ** (-n / 2), rel=1e-9)
            if n >= 1:
                assert row.min_angle_deg == 45

    def test_min_angle_identity_samples(self):
        for base in (EQUILATERAL, THIN, BaseAngles(100, 50, 30),
                     BaseAngles(Fraction(355, 4), Fraction(199, 4),
                                Fraction(166, 4))):
            result = run_largest(base, 6)
            expected = min(base.gamma, base.alpha / 2)
            for row in result.stats[1:]:
                assert row.min_angle_deg == expected

    def test_triangle_counts_are_powers_of_two(self):
        result = run_largest(THIN, 5)
        assert [r.triangle_count for r in result.stats] == [2**n for n in range(6)]

    def test_mesh_nonincreasing(self):
        for base in (EQUILATERAL, THIN):
            rows = run_largest(base, 8).stats
            for a, b in zip(rows, rows[1:]):
                assert b.mesh <= a.mesh * (1 + 1e-12)

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("source", [
        {"base": EQUILATERAL},
        # The base's triangle in numeric mode, from its sides, on ties:
        # every split choice is a tie, which refine breaks as in exact
        # mode, at the first largest angle (the first longest side).
        {"sides": (1, 1, 1)},
        {"sides": (3, 4, 5)},
    ], ids=["base", "base-numeric", "sides"])
    def test_streaming_equals_full_tree(self, kind, source):
        a = refine(RefinementRun(kind=kind, depth=6,
                                 retain=False, **source))
        b = refine(RefinementRun(kind=kind, depth=6,
                                 retain=True, **source))
        assert a.nodes is None
        assert len(b.nodes) == 2 ** 6
        assert a.stats == b.stats  # bitwise: identical computations in both modes
        assert a.key_sets == b.key_sets

    def test_full_tree_lineage_order(self):
        result = run_largest(EQUILATERAL, 3, retain=True)
        lineages = [node.lineage for node in result.nodes]
        assert lineages == sorted(lineages)
        assert len(lineages) == 8

    def test_numeric_mode_matches_exact_stats(self):
        # The equilateral from angles runs exact, from sides numeric; the
        # two roots differ only in rounding.
        exact = run_largest(EQUILATERAL, 6)
        numeric = refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                       depth=6, sides=(1, 1, 1)))
        assert numeric.run.mode == RunMode.NUMERIC
        for re_, rn in zip(exact.stats, numeric.stats):
            assert rn.mesh == pytest.approx(re_.mesh, rel=1e-12)
            assert float(re_.min_angle_deg) == pytest.approx(
                rn.min_angle_deg, abs=1e-9)
            assert rn.cumulative_similarity_classes == \
                re_.cumulative_similarity_classes


# ---------------------------------------------------------------------------
# refine against a walk by public bisect
# ---------------------------------------------------------------------------

def bisect_walk(root, kind, depth):
    """Every generation of the tree, split by the public ``bisect`` alone."""
    generations = [[root]]
    for _ in range(depth):
        generations.append([child for node in generations[-1]
                            for child in bisect(node, kind)])
    return generations


def oracle_walk(result):
    """The walk a run is checked against: the exact one, with each node's
    reference angles, for an exact-base run (``None`` angles otherwise)."""
    run = result.run
    if run.mode == RunMode.EXACT_BASE:
        return exact_walk(run.base, run.depth)
    root = (triangle_from_angles(run.base) if run.base is not None
            else triangle_from_sides(*run.sides))
    return [[(node, None) for node in level]
            for level in bisect_walk(root, run.kind, run.depth)]


class TestRefineOracle:
    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("source", [
        {"base": EQUILATERAL},
        {"base": THIN},
        {"base": BaseAngles(80, 60, 40)},
        {"base": BaseAngles(Fraction(355, 4), Fraction(199, 4),
                            Fraction(166, 4))},
        {"sides": (3, 4, 5)},
        {"sides": (2, 3, 4)},
        # The two longest sides tie exactly: the side-based procedures
        # split at the first of them, as ``longest_side_vertex`` does.
        {"sides": (2.0, 2.0, 1.0)},
    ], ids=["60-60-60", "178-1-1", "80-60-40", "dyadic", "sides-3-4-5",
            "sides-2-3-4", "sides-2-2-1"])
    def test_matches_bisect_walk(self, kind, source):
        depth = 7
        result = refine(RefinementRun(kind=kind, depth=depth, **source))
        # An exact-base run splits by exact angles: the oracle walk carries
        # the reference algebra's and splits where it says.
        walk = oracle_walk(result)
        assert len(result.stats) == len(walk)
        for stats, level in zip(result.stats, walk):
            nodes = [node for node, _ in level]
            assert stats.triangle_count == len(nodes)
            assert stats.mesh == max(max(node.sides()) for node in nodes)
            assert stats.max_aspect_ratio == max(map(aspect_ratio, nodes))
        if result.run.mode != RunMode.EXACT_BASE:
            return
        levels = walk_angles(walk)
        for stats, angles in zip(result.stats, levels):
            assert stats.min_angle_deg == min(min(a) for a in angles)
            assert stats.min_largest_angle_deg == min(max(a) for a in angles)
        assert result.key_sets == packed_keys(result.run.base, depth, levels)

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("source", [
        {"base": BaseAngles(80, 60, 40)},
        # Bases in numeric mode: the same triangles from their sides.
        {"sides": tuple(math.sin(math.radians(a)) for a in (80, 60, 40))},
        {"sides": (1, 1, 1)},
        {"sides": (2, 3, 4)},
        {"sides": (2.0, 2.0, 1.0)},
    ], ids=["base", "base-numeric", "60-60-60-numeric", "sides",
            "sides-2-2-1"])
    def test_nodes_are_last_walk_generation(self, kind, source):
        depth = 7
        result = refine(RefinementRun(kind=kind, depth=depth,
                                      retain=True,
                                      **source))
        last = [node for node, _ in oracle_walk(result)[-1]]
        assert len(result.nodes) == len(last) == 2 ** depth
        for node, oracle in zip(result.nodes, last):
            # repr tells -0.0 from 0.0: bit for bit.
            assert repr(node.vertices) == repr(oracle.vertices)
            assert node.lineage == oracle.lineage
            assert repr(node.sides()) == repr(oracle.sides())
            assert node.generation == len(node.lineage) == depth
            # A drawn node keeps its geometry only: the engine has moved a
            # longest-edge split's angles onto its stack.
            assert not hasattr(node, "_split_angles")

    def test_retained_longest_edge_costs_its_geometry(self):
        # Every retained node holds the same slots whatever split made it,
        # so a longest-edge run holds what a shortest-altitude run does
        # (both from sides, both with a few classes).  Relative, so it
        # holds on any Python; with each leaf's 3-angle tuple it was 1.3x.
        def held(kind):
            gc.collect()
            tracemalloc.start()
            try:
                result = refine(RefinementRun(kind=kind, depth=10,
                                              sides=(1.3, 1.7, 1.5),
                                              retain=True))
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result.nodes) == 2 ** 10
            return size

        assert (held(ProcedureKind.LONGEST_EDGE)
                <= 1.1 * held(ProcedureKind.SHORTEST_ALTITUDE))

    def test_retained_node_bytes(self):
        # A retained node is one slotted object (plus the new foot's two
        # floats): its six coordinates, its sides and its int lineage path
        # are slots.  Bytes held after a retaining depth-12 run, per drawn
        # node: about 266 (Python 3.11); about 353 while each node also
        # held a vertex tuple and a Point2 foot, and about 430 while it
        # held a lineage string and a side tuple too.  The run's 13 keys
        # and 13 rows are a few kB in all.
        depth = 12
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = refine(RefinementRun(
                kind=ProcedureKind.SHORTEST_ALTITUDE, depth=depth,
                sides=(3, 4, 5), retain=True))
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.nodes) == 2 ** depth
        assert sum(map(len, result.key_sets)) == depth + 1
        assert (size - before) / 2 ** depth < 300

    def test_tied_root_ties_exactly(self):
        # The "sides-2-2-1" cases above pin the tie rule only if the root's
        # two longest sides are equal floats.
        root = triangle_from_sides(2.0, 2.0, 1.0)
        assert root.sides() == (2.0, 2.0, 1.0)
        assert longest_side_vertex(root) == 0

    def test_float_isosceles_splits_opposite_longest_side(self):
        # Two equal sides given, whose lengths measured from the root's
        # float vertices differ by one ulp: the two largest float angles
        # are within 1e-12 degrees of each other, and a largest-angle split
        # follows the longer measured side.
        sides = (1.6054286287083184, 1.410158464850827, 1.6054286287083184)
        result = refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                      depth=1, sides=sides, retain=True))
        root = result.run.root()
        angles = sorted(root.angles_deg())
        assert angles[2] - angles[1] <= 1e-12
        # The float sides are distinct, so the longest one decides.
        assert len(set(root.sides())) == 3
        ia = longest_side_vertex(root)
        assert root.vertices.index(result.nodes[0].vertices[0]) == ia

        def classes(order):
            run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=10,
                                sides=order)
            return [s.cumulative_similarity_classes for s in refine(run).stats]

        assert classes(sides) == classes(sides[::-1]) == classes(
            (sides[1], sides[0], sides[2]))


# ---------------------------------------------------------------------------
# rho sequence
# ---------------------------------------------------------------------------

class TestRho:
    def test_equilateral_rho0(self):
        # max(r0, r1, sqrt(3)/2) with r0 = 1/2 and r1 = sqrt(3)-1.
        stats = run_largest(EQUILATERAL, 2).stats
        assert stats[0].rho == pytest.approx(SQRT3_2, abs=1e-12)
        assert stats[0].rho == max(stats[0].max_aspect_ratio,
                                   stats[1].max_aspect_ratio, SQRT3_2)

    def test_right_isosceles_rho0(self):
        stats = run_largest(RIGHT_ISOSCELES, 2).stats
        assert stats[0].max_aspect_ratio == pytest.approx(1 / math.sqrt(2))
        assert stats[0].rho == pytest.approx(SQRT3_2, abs=1e-12)

    def test_monotone(self):
        for base in (EQUILATERAL, THIN, BaseAngles(100, 50, 30)):
            rho = [s.rho for s in run_largest(base, 10).stats[:-1]]
            for a, b in zip(rho, rho[1:]):
                assert b <= a + 1e-12


# ---------------------------------------------------------------------------
# similarity classes
# ---------------------------------------------------------------------------

class TestSimilarityClasses:
    def test_right_isosceles_single_class(self):
        result = run_largest(RIGHT_ISOSCELES, 12)
        assert [s.cumulative_similarity_classes
                for s in result.stats] == [1] * 13

    def test_equilateral_growth(self):
        counts = [s.cumulative_similarity_classes
                  for s in run_largest(EQUILATERAL, 10).stats]
        for n, c in enumerate(counts):
            assert c >= n
        assert counts[1] == 2

    def test_exact_key_form(self):
        # Mixed denominators make the run's scale differ from every angle's
        # denominator, so a key built at any other scale, or from angles in
        # any other order, shows.
        base = BaseAngles(Fraction(594323, 5564), Fraction(260939, 5564),
                          Fraction(73129, 2782))
        result = run_largest(base, 7)
        walk = exact_walk(base, 7)
        assert len(walk) == len(result.key_sets) == 8
        assert result.key_sets == packed_keys(base, 7, walk_angles(walk))
        retained = run_largest(base, 7, retain=True)
        assert retained.key_sets == result.key_sets

    def test_node_units_are_engine_keys(self):
        # The engine keys the last generation at the run's scale
        # q * 2**(depth+1): each node's reference angles are whole units of
        # it, and a key packs the two smaller as lo * 180 * scale + mid.
        base = BaseAngles(Fraction(355, 4), Fraction(199, 4), Fraction(166, 4))
        for g in range(9):
            result = run_largest(base, g, retain=True)
            assert len(result.nodes) == 2 ** g
            assert base.units(g + 1)[1] == 4 << (g + 1)
            assert result.key_sets == packed_keys(
                base, g, walk_angles(exact_walk(base, g)))

    def test_packed_keys_match_node_angles(self):
        # q = 9999 from mixed denominators (9999, 3333, 9999): at depth 10
        # a packed key is over 60 bits wide.
        base = BaseAngles(Fraction(887543, 9999), Fraction(176543, 3333),
                          Fraction(382648, 9999))
        result = run_largest(base, 10)
        assert base.units(11)[1] == 9999 << 11
        walk = exact_walk(base, 10)
        assert len(walk) == len(result.key_sets) == 11
        assert result.key_sets == packed_keys(base, 10, walk_angles(walk))
        assert max(map(max, result.key_sets)).bit_length() > 60

    @staticmethod
    def assert_cumulative_is_union(result):
        for n, s in enumerate(result.stats):
            assert s.cumulative_similarity_classes == len(
                set().union(*result.key_sets[:n + 1]))

    @staticmethod
    def disjoint_generations(result):
        """Which generations share no key with any earlier one."""
        return [all(keys.isdisjoint(earlier) for earlier in result.key_sets[:n])
                for n, keys in enumerate(result.key_sets)]

    def test_cumulative_counts_disjoint_generations(self):
        # A generic exact base makes every generation new: the counts come
        # from the branch that copies no set.
        rng = random.Random(23)
        for _ in range(6):
            result = run_largest(verifier.random_valid_base(rng), 9)
            assert all(self.disjoint_generations(result))
            self.assert_cumulative_is_union(result)

    @pytest.mark.parametrize("run", [
        RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=12,
                      base=BaseAngles(80, 60, 40)),
        RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=12,
                      base=BaseAngles(72, 72, 36)),
        RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=12,
                      base=RIGHT_ISOSCELES),
        RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=12,
                      sides=(1.3, 1.7, 1.5)),
        RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE, depth=12,
                      sides=(3.0, 4.0, 5.0)),
    ], ids=["80-60-40", "72-72-36", "90-45-45", "longest-edge", "altitude"])
    def test_cumulative_counts_repeating_generations(self, run):
        # These runs repeat earlier keys, so most generations take the
        # branch that counts the set difference.
        result = refine(run)
        assert not all(self.disjoint_generations(result))
        self.assert_cumulative_is_union(result)

    def test_generic_base_every_node_its_own_class(self):
        # The paper's unbounded-classes claim at its strongest: no two
        # nodes of the first 17 generations are similar.
        base = BaseAngles(Fraction(71867, 962), Fraction(31350, 481),
                          Fraction(38593, 962))
        result = run_largest(base, 16)
        assert [s.cumulative_similarity_classes for s in result.stats] == [
            2 ** (n + 1) - 1 for n in range(17)]

    def test_altitude_pythagorean_at_most_two(self):
        result = refine(RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                                      depth=5, sides=(3.0, 4.0, 5.0)))
        union = set()
        for keys in result.key_sets[1:]:
            union |= keys
            assert len(union) <= 2


# ---------------------------------------------------------------------------
# numeric keys: float rounding against round()
# ---------------------------------------------------------------------------

# refine rounds y = angle * _KEY_SCALE to a whole number as y + rint - rint.
KEY_RINT = 1.5 * 2.0 ** 52
KEY_Y_MAX = 180 * engine._KEY_SCALE


def key_products():
    """Values of angle * _KEY_SCALE for numeric angles in [0, 180]: exact
    half-integer ties, their neighbours one ulp away, any float in range
    and the products themselves."""
    ties = st.integers(0, int(KEY_Y_MAX) - 1).map(lambda k: k + 0.5)
    return st.one_of(
        ties,
        st.tuples(ties, st.sampled_from([-math.inf, math.inf])).map(
            lambda tie_to: math.nextafter(*tie_to)),
        st.floats(0.0, KEY_Y_MAX),
        st.floats(0.0, 180.0).map(lambda angle: angle * engine._KEY_SCALE),
    )


def rounded_key_walk(run):
    """Each generation's numeric keys built with three ``round()`` calls,
    from a breadth-first walk by public ``bisect`` that carries the angles
    the engine carries: the largest-angle and altitude algebra, or the
    longest-edge split's measured ``_split_angles``."""
    kind = run.kind
    root = run.root()
    level = [(root, root.angles_deg())]
    key_sets = []
    for g in range(run.depth + 1):
        key_sets.append({tuple(round(a * 1e9) for a in sorted(angles))
                         for _, angles in level})
        if g == run.depth:
            break
        children = []
        for node, angles in level:
            ia = longest_side_vertex(node)
            va, vb, vc = (angles[ia], angles[(ia + 1) % 3],
                          angles[(ia + 2) % 3])
            left, right = bisect(node, kind, ia)
            if kind is ProcedureKind.LARGEST_ANGLE:
                half = va / 2.0
                pair = (half, vb, half + vc), (half, half + vb, vc)
            elif kind is ProcedureKind.SHORTEST_ALTITUDE:
                pair = (90.0 - vb, vb, 90.0), (90.0 - vc, 90.0, vc)
            else:
                pair = left._split_angles, right._split_angles
            children += zip((left, right), pair)
        level = children
    return key_sets


class TestNumericKeys:
    @given(key_products())
    @example(0.0)
    @example(0.5)
    @example(1.5)
    @example(2.5)
    @example(KEY_Y_MAX - 0.5)
    @example(KEY_Y_MAX)
    @settings(max_examples=500)
    def test_float_rounding_is_round(self, y):
        key = y + KEY_RINT - KEY_RINT
        assert key == round(y)
        assert key.is_integer()
        assert hash(key) == hash(round(y))

    @pytest.mark.parametrize("kind", list(ProcedureKind),
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("sides", [
        (1.3, 1.7, 1.5), (3.0, 4.0, 5.0), (2.0, 3.0, 4.0), (2.0, 2.0, 1.0),
    ], ids=["1.3-1.7-1.5", "3-4-5", "2-3-4", "2-2-1"])
    def test_key_sets_match_rounded_walk(self, kind, sides):
        run = RefinementRun(kind=kind, depth=10, sides=sides)
        result = refine(run)
        expected = rounded_key_walk(run)
        assert len(result.key_sets) == len(expected) == 11
        union = set()
        for stats, keys, oracle in zip(result.stats, result.key_sets,
                                       expected):
            assert keys == oracle
            assert all(type(x) is float and x.is_integer()
                       for key in keys for x in key)
            union |= oracle
            assert stats.cumulative_similarity_classes == len(union)


# ---------------------------------------------------------------------------
# split_units: the exact split algebra on integers
# ---------------------------------------------------------------------------

class TestSplitUnits:
    def test_refine_inlines_split_units(self):
        # refine writes the algebra inline: its keys and minima are those
        # of a walk by split_units at the run's scale.
        depth = 8
        for base in (EQUILATERAL, THIN, BaseAngles(100, 50, 30),
                     BaseAngles(Fraction(594323, 5564), Fraction(260939, 5564),
                                Fraction(73129, 2782))):
            result = run_largest(base, depth)
            units, scale = base.units(depth + 1)
            total = 180 * scale
            level = [units]
            for g in range(depth + 1):
                assert result.key_sets[g] == {
                    lo * total + mid for lo, mid, _ in map(sorted, level)}
                assert result.stats[g].min_angle_deg == Fraction(
                    min(map(min, level)), scale)
                assert result.stats[g].min_largest_angle_deg == Fraction(
                    min(map(max, level)), scale)
                level = [child for u in level for child in split_units(u)[1:]]

    @pytest.mark.parametrize("base, max_tied", [
        (EQUILATERAL, True),
        (RIGHT_ISOSCELES, False),
        (BaseAngles(72, 72, 36), True),
    ], ids=["60-60-60", "90-45-45", "72-72-36"])
    def test_tie_vertex_is_refines(self, base, max_tied):
        # On a tied largest angle split_units picks the first vertex, as
        # refine's first-largest-exact-angle rule does: a walk that
        # bisects where split_units says draws refine's last generation
        # vertex for vertex, and its keys are refine's.
        depth = 6
        run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=depth,
                            base=base, retain=True)
        result = refine(run)
        units, scale = base.units(depth + 1)
        total = 180 * scale
        level = [(run.root(), units)]
        ties = 0
        for g in range(depth + 1):
            assert result.key_sets[g] == {
                lo * total + mid for lo, mid, _ in (sorted(u) for _, u in level)}
            if g == depth:
                break
            children = []
            for node, u in level:
                ties += u.count(max(u)) > 1
                ia, *children_units = split_units(u)
                children += zip(bisect(node, ProcedureKind.LARGEST_ANGLE, ia),
                                children_units)
            level = children
        assert (ties > 0) == max_tied
        assert len(result.nodes) == len(level) == 2 ** depth
        assert [n.vertices for n in result.nodes] == [
            n.vertices for n, _ in level]

    @pytest.mark.parametrize("units", [(61, 60, 59), (60, 61, 59),
                                       (59, 60, 61)])
    def test_odd_largest_angle_refused(self, units):
        # Halving an odd angle would floor it, and the children's angles
        # would no longer sum to 180 degrees at the units' scale.
        with pytest.raises(ValueError, match="^largest angle 61 is odd"):
            split_units(units)


# ---------------------------------------------------------------------------
# carrier tracking
# ---------------------------------------------------------------------------

class TestCarrierTrack:
    def test_equilateral_first_two_generations(self):
        track = track_carrier(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                            depth=2, base=EQUILATERAL))
        assert track[0] == (90, 30, 60)
        assert track[1] == (75, 45, 60)

    def test_matches_closed_form(self):
        for base in (EQUILATERAL, THIN, BaseAngles(100, 50, 30),
                     BaseAngles(Fraction(355, 4), Fraction(199, 4),
                                Fraction(166, 4))):
            track = track_carrier(RefinementRun(
                kind=ProcedureKind.LARGEST_ANGLE, depth=20, base=base))
            for n, (major, minor, kept) in enumerate(track, start=1):
                form_major, form_minor = carrier_angle_forms(n)
                assert major == evaluate_angle_form(form_major, base)
                assert minor == evaluate_angle_form(form_minor, base)
                assert kept == base.gamma

    def test_matches_reference_walk(self):
        # The carrier followed by the reference algebra: split the first
        # largest value, keep the child holding gamma (left gets the
        # corner after the split vertex, right the one after that).
        for base in (EQUILATERAL, THIN, BaseAngles(80, 60, 40),
                     BaseAngles(Fraction(594323, 5564), Fraction(260939, 5564),
                                Fraction(73129, 2782))):
            forms, values, i_gamma = ROOT_FORMS, base.as_tuple(), 2
            expected = []
            for _ in range(20):
                ia = values.index(max(values))
                left, right = reference_children(forms, values, ia)
                if i_gamma == (ia + 1) % 3:
                    (forms, values), i_gamma = left, 1
                else:
                    assert i_gamma == (ia + 2) % 3
                    (forms, values), i_gamma = right, 2
                assert values[i_gamma] == base.gamma
                major, minor = sorted((values[0], values[3 - i_gamma]),
                                      reverse=True)
                expected.append((major, minor, base.gamma))
            assert track_carrier(RefinementRun(
                kind=ProcedureKind.LARGEST_ANGLE, depth=20,
                base=base)) == expected

    def test_builds_no_triangles(self, monkeypatch):
        run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=20,
                            base=BaseAngles(80, 60, 40))
        expected = track_carrier(run)

        def refuse(*args, **kwargs):
            raise AssertionError("track_carrier built a triangle")

        monkeypatch.setattr(engine, "bisect", refuse)
        monkeypatch.setattr(engine, "triangle_from_angles", refuse)
        assert track_carrier(run) == expected
        assert len(expected) == 20

    @pytest.mark.parametrize("depth, message", [
        (-1, "depth must be >= 0"),
        (True, "depth must be an int, got True"),
        (2.0, "depth must be an int, got 2.0"),
        ("3", "depth must be an int, got '3'"),
    ])
    def test_carrier_units_rejects_bad_depth(self, depth, message):
        # Without the check, -1 would return ([], 1) and True one row.
        with pytest.raises(ValueError) as info:
            carrier_units(BaseAngles(80, 60, 40), depth)
        assert str(info.value) == message

    def test_requires_exact_mode(self):
        with pytest.raises(ValueError):
            track_carrier(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                        depth=2, sides=(3, 4, 5)))

    def test_kept_is_the_walked_angle(self, monkeypatch):
        # A split that adds one unit to each child's kept corner (the one
        # it shares with its parent) leaves major and minor alone; only
        # the walked kept angle shows it, in the track and in the check.
        base = BaseAngles(80, 60, 40)
        run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=20,
                            base=base)
        exact_track = track_carrier(run)
        split = engine.split_units

        def leaky_split(units):
            ia, (l0, l1, l2), (r0, r1, r2) = split(units)
            return ia, (l0, l1 + 1, l2), (r0, r1, r2 + 1)

        monkeypatch.setattr(engine, "split_units", leaky_split)
        track = track_carrier(run)
        assert [row[:2] for row in track] == [row[:2] for row in exact_track]
        _, scale = base.units(run.depth + 1)
        assert [kept for _, _, kept in track] == [
            base.gamma + Fraction(n, scale) for n in range(1, 21)]
        check = verifier._CHECKS["carrier-track-matches-closed-form"]
        assert check.margin({"base": base}, {}) == (-1.0, {"base": base,
                                                           "n": 1})
        assert verifier.replay_margin("carrier-track-matches-closed-form",
                                      {"base": ["80", "60", "40"]}) == -1.0


# ---------------------------------------------------------------------------
# Generation statistics rows
# ---------------------------------------------------------------------------

class TestGenerationStats:
    def test_equilateral_first_generation(self):
        result = run_largest(EQUILATERAL, 1)
        stats = result.stats[1]
        assert stats.n == 1
        assert stats.triangle_count == 2
        assert stats.mesh == pytest.approx(1.0, rel=1e-12)
        assert stats.min_angle_deg == 30
        assert stats.max_aspect_ratio == pytest.approx(R1_EQUILATERAL, abs=1e-12)
        # Classes within generation 1 alone; the cumulative count also
        # includes the root.
        assert len(result.key_sets[1]) == 1

    def test_root_generation(self):
        stats = run_largest(THIN, 0, scale=2.0).stats[0]
        assert stats.mesh == pytest.approx(2.0)
        assert stats.min_angle_deg == 1
