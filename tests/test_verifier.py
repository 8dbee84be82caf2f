"""Tests for the verification suite itself."""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from exact_reference import (
    ROOT_FORMS,
    reference_children,
    reference_major_collision,
    reference_value,
)
from trirefine import verifier
from trirefine.engine import ProcedureKind, RefinementRun, refine
from trirefine.exact import BaseAngles, carrier_angle_forms
from trirefine.geometry import (
    TriangleNode,
    triangle_from_angles_deg,
    triangle_from_sides,
)
from trirefine.verifier import (
    check_names,
    random_valid_base,
    replay_margin,
    report_as_dict,
    run_suite,
)

EXPECTED_CHECKS = [
    "altitude-children-similar-to-right-parent",
    "altitude-class-count-bound",
    "altitude-mesh-geometric-bound",
    "aspect-ratio-in-range",
    "aspect-trig-matches-side-form",
    "aspect-two-step-bound",
    "bisector-foot-inside-segment",
    "bisector-length-bound",
    "carrier-form-coefficient-sum",
    "carrier-major-dominates",
    "carrier-track-matches-closed-form",
    "child-areas-sum-to-parent",
    "class-count-grows-with-depth",
    "dyadic-halve-add-roundtrip",
    "jacobsthal-closed-form",
    "jacobsthal-sum-identity",
    "longest-edge-equilateral-mesh-equality",
    "longest-edge-equilateral-min-angle",
    "longest-edge-mesh-parity-bound",
    "longest-edge-mesh-sqrt3-half-bound",
    "longest-edge-min-angle-bound",
    "major-angle-collision-when-alpha-twice-beta",
    "major-angles-distinct",
    "max-aspect-sequence-observed",
    "mesh-geometric-decay",
    "mesh-nonincreasing",
    "mesh-two-step-contraction",
    "min-angle-child-has-larger-aspect",
    "min-angle-equals-min-gamma-half-alpha",
    "next-largest-angle-inequality",
    "rho-nonincreasing",
    "right-isosceles-single-class",
    "second-generation-aspect-special-bound",
    "streaming-matches-full-tree",
    "symbolic-numeric-angle-agreement",
]


class TestRandomValidBase:
    def test_construction_invariants(self):
        rng = random.Random(7)
        for _ in range(200):
            base = random_valid_base(rng)
            assert base.alpha + base.beta + base.gamma == 180
            assert base.alpha >= base.beta >= base.gamma >= Fraction(1, 2)
            for angle in base.as_tuple():
                assert angle.denominator <= 10_000

    def test_deterministic_given_seed(self):
        rng1, rng2 = random.Random(11), random.Random(11)
        assert [random_valid_base(rng1) for _ in range(10)] == \
            [random_valid_base(rng2) for _ in range(10)]


@pytest.fixture(scope="module")
def reports():
    return run_suite(depth=5, sweep_size=40, seed=1)


class TestWorstMargin:
    """The one first-minimum scan behind every report and every
    per-generation margin."""

    def test_first_smallest_margin_wins(self):
        report = verifier._finish("probe", 0.0, [(2.0, {"i": 0}),
                                                 (0.5, {"i": 1}),
                                                 (0.5, {"i": 2})])
        assert (report.population, report.worst_margin, report.witness,
                report.passed) == (3, 0.5, {"i": 1}, True)

    def test_empty_population_passes(self):
        report = verifier._finish("probe", 0.0, [])
        assert (report.population, report.worst_margin, report.witness,
                report.passed) == (0, 0.0, {}, True)

    def test_nan_margin_fails_with_first_nan_witness(self):
        report = verifier._finish("probe", 1e-9, [(1.0, {"i": 0}),
                                                  (math.nan, {"i": 1}),
                                                  (-5.0, {"i": 2}),
                                                  (math.nan, {"i": 3})])
        assert report.population == 4
        assert math.isnan(report.worst_margin)
        assert report.witness == {"i": 1}
        assert not report.passed

    def test_all_nan_margins_fail(self):
        report = verifier._finish("probe", 1e-9, [(math.nan, {"i": 0}),
                                                  (math.nan, {"i": 1})])
        assert math.isnan(report.worst_margin)
        assert report.witness == {"i": 0}
        assert not report.passed

    def test_per_generation_nan_is_worst(self):
        worst, n, count = verifier._first_min(
            [(0.25, 0), (math.nan, 1), (-1.0, 2), (math.nan, 3)], 0)
        assert math.isnan(worst) and (n, count) == (1, 4)
        assert verifier._first_min([], 0) == (math.inf, 0, 0)


class TestRunSuite:

    def test_all_pass(self, reports):
        failures = [r.name for r in reports if not r.passed]
        assert failures == []

    def test_every_check_present_exactly_once(self, reports):
        assert [r.name for r in reports] == EXPECTED_CHECKS
        assert check_names() == EXPECTED_CHECKS

    def test_reports_sorted_by_name(self, reports):
        names = [r.name for r in reports]
        assert names == sorted(names)

    def test_populations_recorded(self, reports):
        by_name = {r.name: r for r in reports}
        assert by_name["jacobsthal-sum-identity"].population == 65
        # 40 sweep bases plus 4 angle fixtures.
        assert by_name["min-angle-equals-min-gamma-half-alpha"].population == 44
        # 10x sweep triangles plus 4 fixture triples.
        assert by_name["bisector-length-bound"].population == 404

    def test_pass_iff_margin_above_tolerance(self, reports):
        for r in reports:
            assert r.passed == (r.worst_margin >= -r.tolerance)

    def test_report_json_roundtrip(self, reports):
        blob = json.dumps(report_as_dict(reports, 5, 40, 1))
        parsed = json.loads(blob)
        assert parsed["all_pass"] is True
        assert parsed["depth"] == 5 and parsed["sweep_size"] == 40
        assert len(parsed["checks"]) == len(EXPECTED_CHECKS)
        for entry in parsed["checks"]:
            assert set(entry) == {"name", "population", "worst_margin",
                                  "tolerance", "witness", "pass"}

    def test_deterministic_given_seed(self):
        a = run_suite(depth=4, sweep_size=10, seed=2)
        b = run_suite(depth=4, sweep_size=10, seed=2)
        for ra, rb in zip(a, b):
            assert ra == rb

    def test_replay_reproduces_worst_margin(self, reports):
        for r in reports:
            replayed = replay_margin(r.name, json.loads(json.dumps(r.witness)))
            assert replayed == r.worst_margin, r.name
        # Every witness of every population, not only the worst, replays to
        # its own margin through the check table.
        ctx = verifier._Context(depth=4, sweep_size=3, seed=1)
        replayed_checks = 0
        for name, check in verifier._CHECKS.items():
            specs = check.population(ctx)
            assert specs, name
            for spec in specs:
                margin, case = check.margin(spec, ctx.runs)
                witness = verifier._witness(case)
                replayed = replay_margin(name, json.loads(json.dumps(witness)))
                assert replayed == margin, (name, witness)
            replayed_checks += 1
        assert replayed_checks == len(EXPECTED_CHECKS)

    def test_witness_form_round_trips(self):
        # A spec holds its base as BaseAngles; its witness, the JSON form,
        # holds three strings and keeps every other value and the key
        # order; _spec gives the spec back.
        ctx = verifier._Context(depth=4, sweep_size=3, seed=1)
        based = 0
        for name, check in verifier._CHECKS.items():
            for spec in check.population(ctx):
                witness = verifier._witness(spec)
                assert json.loads(json.dumps(witness)) == witness, name
                assert list(witness) == list(spec), name
                assert verifier._spec(witness) == spec, name
                base = spec.get("base")
                if isinstance(base, BaseAngles):
                    assert witness["base"] == [str(x) for x in base.as_tuple()]
                    based += 1
                else:
                    assert witness == spec, name
        assert based > 0

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            run_suite(depth=3, sweep_size=10, seed=0)
        with pytest.raises(ValueError):
            run_suite(depth=6, sweep_size=0, seed=0)
        with pytest.raises(KeyError):
            replay_margin("no-such-check", {})

    @pytest.mark.parametrize("depth, sweep_size, message, seed", [
        (3, 10, "depth must be at least 4", 0),
        (41, 1, "depth 41 exceeds the streaming limit of 40", 0),
        (8, 0, "sweep_size must be at least 1", 0),
        (2.5, 10, "depth must be an int, got 2.5", 0),
        ("8", 1, "depth must be an int, got '8'", 0),
        (True, 10, "depth must be an int, got True", 0),
        (8, 2.5, "sweep_size must be an int, got 2.5", 0),
        (8, True, "sweep_size must be an int, got True", 0),
        (4, 2, "seed must be an int, got '0'", "0"),
        (4, 2, "seed must be an int, got 1.5", 1.5),
        (4, 2, "seed must be an int, got True", True),
    ])
    def test_bad_arguments_refused_before_any_check(
            self, monkeypatch, depth, sweep_size, message, seed):
        # The arguments are refused before any check is evaluated, even a
        # depth that only the first refine of a check would refuse.
        called = []

        def record(spec, runs):
            called.append(spec)
            return 0.0, spec
        for name, check in list(verifier._CHECKS.items()):
            monkeypatch.setitem(verifier._CHECKS, name,
                                check._replace(margin=record))
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_suite(depth=depth, sweep_size=sweep_size, seed=seed)
        assert called == []

    def test_equilateral_attains_bisector_bound(self, reports):
        by_name = {r.name: r for r in reports}
        worst = by_name["bisector-length-bound"]
        # The equality case: the extremal sample is the equilateral fixture
        # (or a random sample extremely close to it).
        assert worst.worst_margin <= 1e-9
        a, b, c = worst.witness["angles_deg"]
        assert max(abs(a - 60), abs(b - 60), abs(c - 60)) < 15.0


def test_each_run_refined_at_most_once(monkeypatch):
    """The suite's memo hands every check that names a run the statistics
    of one ``refine``: no ``RefinementRun`` is refined twice in a suite."""
    refined = []
    real_refine = verifier.refine

    def counting_refine(run):
        refined.append(run)
        return real_refine(run)

    monkeypatch.setattr(verifier, "refine", counting_refine)
    run_suite(depth=4, sweep_size=3, seed=0)
    assert refined
    assert len(set(refined)) == len(refined)


def test_memoized_roots_are_shared_and_unchanged():
    """Every check runs on one context through its memo, as in
    ``run_suite``.  Each memoized root then equals a fresh build, so no
    check wrote to a root it shares, and the per-triangle and
    altitude-similarity checks share one root per triangle: the fixture
    triangles both populations name are stored once."""
    ctx = verifier._Context(depth=8, sweep_size=20, seed=0)
    for check in verifier._CHECKS.values():
        for spec in check.population(ctx):
            check.margin(spec, ctx.runs)
    roots = {key: root for key, root in ctx.runs.items()
             if isinstance(root, TriangleNode)}
    # The memo holds nothing else but run statistics, keyed by the run.
    assert all(isinstance(key, verifier.RefinementRun)
               for key in ctx.runs.keys() - roots.keys())
    for key, root in roots.items():
        name, *values = key
        build = (triangle_from_sides if name == "sides"
                 else triangle_from_angles_deg)
        fresh = build(*values)
        assert repr(root.vertices) == repr(fresh.vertices), key
        assert repr(root.sides()) == repr(fresh.sides()), key
        assert not hasattr(root, "_split_angles"), key
    fixtures = [tuple(float(x) for x in base.as_tuple())
                for base in verifier.ANGLE_FIXTURES]
    for angles in fixtures:
        assert [key for key in roots if tuple(key[1:]) == angles] == [
            ("angles_deg", *angles)]
    # One root per distinct float triangle, plus the altitude check's 3-4-5.
    assert set(roots) == ({("angles_deg", *angles) for angles in ctx.triangles}
                          | {("sides", *verifier.PYTHAGOREAN_SIDES)})
    assert len(roots) == 10 * 20 + len(fixtures) + 1


def reference_dominance(base):
    """(margin, n) of carrier-major-dominates by Fraction arithmetic: the
    first smallest min(major - minor, major - gamma) over n = 1..20."""
    margins = []
    for n in range(1, verifier.CARRIER_N_MAX + 1):
        major, minor = (reference_value(f, *base.as_tuple())
                        for f in carrier_angle_forms(n))
        margins.append((float(min(major - minor, major - base.gamma)), n))
    return min(margins, key=lambda pair: pair[0])


def reference_track_mismatch(base):
    """The first generation whose carrier, walked by the Fraction algebra
    of ``reference_children``, differs from the closed form, else 0."""
    forms, values, i_gamma = ROOT_FORMS, base.as_tuple(), 2
    for n in range(1, verifier.CARRIER_N_MAX + 1):
        ia = values.index(max(values))
        left, right = reference_children(forms, values, ia)
        if i_gamma == (ia + 1) % 3:
            (forms, values), i_gamma = left, 1
        else:
            (forms, values), i_gamma = right, 2
        walked = sorted((values[0], values[3 - i_gamma]), reverse=True)
        closed = [reference_value(f, *base.as_tuple())
                  for f in carrier_angle_forms(n)]
        if walked != closed or values[i_gamma] != base.gamma:
            return n
    return 0


def test_carrier_checks_match_fraction_reference():
    """The three carrier checks, evaluated in integers, give the margins
    and witnesses a Fraction evaluation gives, bit for bit, and replay."""
    ctx = verifier._Context(depth=5, sweep_size=30, seed=3)
    checks = {name: verifier._CHECKS[name] for name in (
        "carrier-major-dominates", "carrier-track-matches-closed-form",
        "major-angles-distinct")}
    seen = {name: 0 for name in checks}
    for name, check in checks.items():
        for spec in check.population(ctx):
            base = spec["base"]
            if name == "carrier-major-dominates":
                margin, n = reference_dominance(base)
                expected = (margin, dict(spec, n=n))
            elif name == "carrier-track-matches-closed-form":
                n = reference_track_mismatch(base)
                expected = (-1.0 if n else 0.0, dict(spec, n=n))
            else:
                collision = reference_major_collision(
                    base.alpha, base.beta, verifier.CARRIER_N_MAX)
                expected = (0.0 if collision is None else -1.0, spec)
            got = check.margin(spec, ctx.runs)
            assert got == expected, (name, spec)
            assert math.copysign(1.0, got[0]) == math.copysign(1.0, expected[0])
            witness = json.loads(json.dumps(verifier._witness(got[1])))
            assert replay_margin(name, witness) == got[0]
            seen[name] += 1
    # 30 sweep bases plus 4 fixtures; every carrier walk; no base of the
    # sweep has alpha == 2*beta, but the right isosceles fixture does.
    assert seen == {"carrier-major-dominates": 34,
                    "carrier-track-matches-closed-form": 34,
                    "major-angles-distinct": 33}


def fraction_min_angle_pairs(stats, base):
    """min-angle-equals-min-gamma-half-alpha's (margin, n) pairs, computed
    in ``Fraction`` degrees: the oracle of the integer kernel."""
    expected = min(base.gamma, base.alpha / 2)
    yield 0.0, 0
    for row in stats[1:]:
        diff = row.min_angle_deg - expected
        if diff != 0:
            yield -abs(float(diff)), row.n


def fraction_step_pairs(stats, base):
    """next-largest-angle-inequality's (margin, n) pairs, computed in
    ``Fraction`` degrees: the oracle of the integer kernel."""
    for n in range(len(stats) - 1):
        diff = (stats[n + 1].min_largest_angle_deg / 2
                - min(stats[n].min_angle_deg,
                      stats[n].min_largest_angle_deg / 2))
        yield float(diff), n


def assert_statistics_kernels_match(stats, base):
    """Both statistics kernels yield their oracle's pairs, margins compared
    by ``float.hex`` (so a sign of zero counts); returns the margins."""
    margins = []
    for kernel, oracle in (
            (verifier._m_min_angle_identity, fraction_min_angle_pairs),
            (verifier._m_step_inequality, fraction_step_pairs)):
        got = [(margin.hex(), n) for margin, n in kernel(stats, base)]
        assert got == [(margin.hex(), n) for margin, n in oracle(stats, base)]
        margins += [float.fromhex(margin) for margin, _ in got]
    return margins


def largest_angle_stats(base, depth):
    return refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                depth=depth, base=base)).stats


def with_minima_offsets(stats, base, offsets):
    """``stats`` with each generation's two minima moved by a pair of
    ``offsets``, in units of the run's scale, where ``refine`` puts them."""
    scale = base.units(len(stats))[1]
    return [replace(row,
                    min_angle_deg=row.min_angle_deg + Fraction(da, scale),
                    min_largest_angle_deg=(row.min_largest_angle_deg
                                           + Fraction(dl, scale)))
            for row, (da, dl) in zip(stats, offsets)]


class TestStatisticsKernelsMatchFractions:
    """The two statistics checks work in integers at the run's scale; their
    (margin, n) pairs equal those of the ``Fraction`` expressions."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 12))
    def test_random_bases(self, seed, depth):
        base = random_valid_base(random.Random(seed))
        margins = assert_statistics_kernels_match(
            largest_angle_stats(base, depth), base)
        assert min(margins) == 0.0

    @pytest.mark.parametrize("base", verifier.ANGLE_FIXTURES)
    def test_fixtures(self, base):
        for depth in (1, 2, 5, 12):
            assert_statistics_kernels_match(largest_angle_stats(base, depth),
                                            base)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.data())
    def test_minima_that_break_the_identities(self, seed, depth, data):
        # No real run reaches the branch of a broken identity; minima
        # moved by up to a degree either way do.
        base = random_valid_base(random.Random(seed))
        stats = largest_angle_stats(base, depth)
        scale = base.units(len(stats))[1]
        offset = st.integers(-scale, scale)
        offsets = data.draw(st.lists(st.tuples(offset, offset),
                                     min_size=len(stats),
                                     max_size=len(stats)))
        assert_statistics_kernels_match(
            with_minima_offsets(stats, base, offsets), base)

    @pytest.mark.parametrize("base", verifier.ANGLE_FIXTURES)
    def test_fixture_minima_that_break_the_identities(self, base):
        stats = largest_angle_stats(base, 6)
        offsets = [(0, 0), (-1, 0), (0, -3), (5, 0), (0, 0), (0, 0), (0, 7)]
        margins = assert_statistics_kernels_match(
            with_minima_offsets(stats, base, offsets), base)
        assert min(margins) < 0


@pytest.mark.slow
def test_default_parameters_suite_passes(verify_report):
    """The headline configuration: depth 8, sweep 1000, seed 0, run once
    per session through ``verify`` (the golden report hash reads it too)."""
    code, report = verify_report("8", "1000", "0")
    failures = [c["name"] for c in json.loads(report)["checks"]
                if not c["pass"]]
    assert failures == [] and code == 0
