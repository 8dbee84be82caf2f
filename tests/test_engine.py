"""Tests for the refinement engine."""

import math
from fractions import Fraction

import pytest

from trirefine.exact import BaseAngles, carrier_angle_forms, evaluate_angle_form
from trirefine.engine import (
    ProcedureKind,
    RefinementRun,
    RetainPolicy,
    RunMode,
    SQRT3_2,
    refine,
    track_carrier,
)
from trirefine.geometry import (
    aspect_ratio,
    bisect,
    triangle_from_angles,
    triangle_from_sides,
)

EQUILATERAL = BaseAngles(60, 60, 60)
RIGHT_ISOSCELES = BaseAngles(90, 45, 45)
THIN = BaseAngles(178, 1, 1)

R1_EQUILATERAL = math.sqrt(3) - 1
R2_EQUILATERAL = math.sin(math.radians(52.5)) / math.cos(math.radians(7.5))


def run_largest(base, depth, **kw):
    return refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                depth=depth, base=base, **kw))


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

    def test_exact_mode_needs_largest_angle(self):
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=2,
                          base=EQUILATERAL, mode=RunMode.EXACT_BASE)
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                          sides=(3, 4, 5), mode=RunMode.EXACT_BASE)

    def test_depth_limits(self):
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=41,
                          base=EQUILATERAL)
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=25,
                          base=EQUILATERAL, retain=RetainPolicy.FULL_TREE)
        with pytest.raises(ValueError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=-1,
                          base=EQUILATERAL)


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
        triples = {
            tuple(sorted(Fraction(n, d) for n, d in key))
            for key in result.class_keys[2]
        }
        assert triples == {(30, 45, 105), (45, 60, 75)}
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
        # Numeric mode on ties: every angle choice goes through the tie
        # window.
        {"base": EQUILATERAL, "mode": RunMode.NUMERIC},
        {"sides": (3, 4, 5)},
    ], ids=["base", "base-numeric", "sides"])
    def test_streaming_equals_full_tree(self, kind, source):
        a = refine(RefinementRun(kind=kind, depth=6,
                                 retain=RetainPolicy.STREAMING, **source))
        b = refine(RefinementRun(kind=kind, depth=6,
                                 retain=RetainPolicy.FULL_TREE, **source))
        assert a.generations is None
        assert b.generations is not None
        assert a.stats == b.stats  # bitwise: identical computations in both modes
        assert a.class_keys == b.class_keys

    def test_full_tree_lineage_order(self):
        result = run_largest(EQUILATERAL, 3, retain=RetainPolicy.FULL_TREE)
        lineages = [node.lineage for node in result.generations[3]]
        assert lineages == sorted(lineages)
        assert len(lineages) == 8

    def test_numeric_mode_matches_exact_stats(self):
        exact = run_largest(EQUILATERAL, 6)
        numeric = run_largest(EQUILATERAL, 6, mode=RunMode.NUMERIC)
        for re_, rn in zip(exact.stats, numeric.stats):
            assert rn.mesh == re_.mesh  # same float geometry either way
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
    ], ids=["60-60-60", "178-1-1", "80-60-40", "dyadic", "sides-3-4-5",
            "sides-2-3-4"])
    def test_matches_bisect_walk(self, kind, source):
        depth = 7
        result = refine(RefinementRun(kind=kind, depth=depth, **source))
        # The angle root carries exact angles, so its largest-angle splits
        # are chosen exactly, as in the engine's exact mode.
        root = (triangle_from_angles(source["base"]) if "base" in source
                else triangle_from_sides(*source["sides"]))
        walk = bisect_walk(root, kind, depth)
        assert len(result.stats) == len(walk)
        for stats, nodes in zip(result.stats, walk):
            assert stats.triangle_count == len(nodes)
            assert stats.mesh == max(max(node.sides()) for node in nodes)
            assert stats.max_aspect_ratio == max(map(aspect_ratio, nodes))
        if result.run.mode != RunMode.EXACT_BASE:
            return
        for stats, keys, nodes in zip(result.stats, result.class_keys, walk):
            angles = [node.angles_exact for node in nodes]
            assert stats.min_angle_deg == min(min(a) for a in angles)
            assert stats.min_largest_angle_deg == min(max(a) for a in angles)
            assert keys == {tuple(sorted(x.as_integer_ratio() for x in a))
                            for a in angles}


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
        # denominator, and many keys sort differently as (numerator,
        # denominator) pairs than by value, so a wrong scale conversion or
        # pair order both show.
        base = BaseAngles(Fraction(594323, 5564), Fraction(260939, 5564),
                          Fraction(73129, 2782))
        full = run_largest(base, 7, retain=RetainPolicy.FULL_TREE)
        for g, nodes in enumerate(full.generations):
            assert full.class_keys[g] == {
                tuple(sorted(a.as_integer_ratio() for a in node.angles_exact))
                for node in nodes
            }
        assert full.class_keys == run_largest(base, 7).class_keys

    def test_node_units_are_engine_keys(self):
        # Retained nodes carry their angles at the run's scale
        # q * 2**(depth+1), the scale the engine keys them at.
        base = BaseAngles(Fraction(355, 4), Fraction(199, 4), Fraction(166, 4))
        full = run_largest(base, 8, retain=RetainPolicy.FULL_TREE)
        for g, nodes in enumerate(full.generations):
            keys = full.key_sets[g]
            for node in nodes:
                assert node.angle_scale == full.key_scale
                assert tuple(sorted(node.angle_units)) in keys

    def test_altitude_pythagorean_at_most_two(self):
        result = refine(RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                                      depth=5, sides=(3.0, 4.0, 5.0)))
        union = set()
        for keys in result.class_keys[1:]:
            union |= keys
            assert len(union) <= 2


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

    def test_requires_exact_mode(self):
        with pytest.raises(ValueError):
            track_carrier(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                        depth=2, sides=(3, 4, 5)))


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
        assert len(result.class_keys[1]) == 1

    def test_root_generation(self):
        stats = run_largest(THIN, 0, scale=2.0).stats[0]
        assert stats.mesh == pytest.approx(2.0)
        assert stats.min_angle_deg == 1
