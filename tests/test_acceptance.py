"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or
``-rA``; the ``-v`` test names carry the same information).  The random
sweep is seeded, so every run checks the identical population.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from trirefine.exact import (
    BaseAngles,
    carrier_angle_forms,
    evaluate_angle_form,
    first_major_angle_collision,
)
from trirefine.engine import (
    ProcedureKind,
    RefinementRun,
    SQRT3_2,
    refine,
    track_carrier,
)
from trirefine.geometry import (
    bisect,
    triangle_from_angles,
    triangle_from_angles_deg,
    triangle_from_sides,
)
from trirefine.verifier import (
    bisector_to_longest_side_ratio,
    check_major_angles_distinct,
    random_triangle_angles,
    random_valid_base,
)

SEED = 0
SWEEP_SIZE = 1000

EQUILATERAL = BaseAngles(60, 60, 60)
RIGHT_ISOSCELES = BaseAngles(90, 45, 45)
DOUBLE_PAIR = BaseAngles(80, 60, 40)
THIN = BaseAngles(178, 1, 1)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def sweep_bases():
    rng = random.Random(SEED)
    return [random_valid_base(rng) for _ in range(SWEEP_SIZE)]


@pytest.fixture(scope="module")
def depth12_stats(sweep_bases):
    """Depth-12 statistics for the sweep, from the runs' default (exact)
    mode."""
    return [
        refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=12,
                             base=base)).stats
        for base in sweep_bases
    ]


def test_criterion_1_equilateral_aspect_sequence():
    t0 = time.perf_counter()
    stats = refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=2,
                                 base=EQUILATERAL)).stats
    elapsed = time.perf_counter() - t0
    expected = (0.5, math.sqrt(3) - 1,
                math.sin(math.radians(52.5)) / math.cos(math.radians(7.5)))
    errors = [abs(stats[n].max_aspect_ratio - expected[n]) for n in range(3)]
    ok = max(errors) <= 1e-9 and elapsed < 1.0
    report("criterion 1", ok,
           f"equilateral r0,r1,r2 errors {[f'{e:.2e}' for e in errors]}, "
           f"runtime {elapsed:.3f}s (< 1 s)")


def test_criterion_2_min_angle_identity_exact(sweep_bases):
    t0 = time.perf_counter()
    failures = 0
    for base in sweep_bases:
        expected = min(base.gamma, base.alpha / 2)
        stats = refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                     depth=10, base=base)).stats
        if any(row.min_angle_deg != expected for row in stats[1:]):
            failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    report("criterion 2", ok,
           f"min angle == min(gamma, alpha/2) exactly for "
           f"{len(sweep_bases)} bases x depth 10, {failures} failures, "
           f"runtime {elapsed:.1f}s (< 60 s)")


def test_criterion_3_mesh_bounds(depth12_stats):
    worst_decay = math.inf
    worst_two_step = math.inf
    for stats in depth12_stats:
        m0 = stats[0].mesh
        rho0 = stats[0].rho
        for row in stats:
            bound = m0 * rho0 ** (row.n // 2)
            worst_decay = min(worst_decay, (bound - row.mesh) / bound)
        for n in range(len(stats) - 2):
            bound = stats[n].rho * stats[n].mesh
            worst_two_step = min(worst_two_step,
                                 (bound - stats[n + 2].mesh) / bound)
    ok = worst_decay >= -1e-9 and worst_two_step >= -1e-12
    report("criterion 3", ok,
           f"mesh <= m0*rho0^(n//2) margin {worst_decay:+.2e} (tol 1e-9), "
           f"two-step margin {worst_two_step:+.2e} (tol 1e-12), depth 12")


def test_criterion_4_rho_nonincreasing(depth12_stats):
    worst = math.inf
    for stats in depth12_stats:
        for n in range(len(stats) - 2):
            worst = min(worst, stats[n].rho - stats[n + 1].rho)
    ok = worst >= -1e-12
    report("criterion 4", ok,
           f"rho(n+1) <= rho(n) margin {worst:+.2e} (tol 1e-12) over the sweep")


def test_criterion_5_bisector_bound():
    rng = random.Random(SEED)
    worst = math.inf
    for _ in range(100_000):
        t = triangle_from_angles_deg(*random_triangle_angles(rng))
        worst = min(worst, SQRT3_2 - bisector_to_longest_side_ratio(t))
    equilateral_gap = abs(
        bisector_to_longest_side_ratio(triangle_from_angles(EQUILATERAL))
        - SQRT3_2)
    ok = worst >= -1e-12 and equilateral_gap <= 1e-12
    report("criterion 5", ok,
           f"bisector/longest-side <= sqrt(3)/2 margin {worst:+.2e} over 1e5 "
           f"triangles; equilateral attains it within {equilateral_gap:.2e}")


def test_criterion_6_carrier_closed_form_and_distinctness():
    rng = random.Random(SEED)
    bases = [random_valid_base(rng) for _ in range(100)]
    mismatches = 0
    for base in bases:
        track = track_carrier(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                            depth=20, base=base))
        for n, (major, minor, kept) in enumerate(track, start=1):
            form_major, form_minor = carrier_angle_forms(n)
            if (major != evaluate_angle_form(form_major, base)
                    or minor != evaluate_angle_form(form_minor, base)
                    or kept != base.gamma):
                mismatches += 1
                break
    distinct_ok = all(
        check_major_angles_distinct(base, 20)[0]
        for base in bases if base.alpha != 2 * base.beta)
    collision_found = (
        not check_major_angles_distinct(RIGHT_ISOSCELES, 20)[0]
        and first_major_angle_collision(Fraction(80), Fraction(40), 20)
        is not None)
    ok = mismatches == 0 and distinct_ok and collision_found
    report("criterion 6", ok,
           f"carrier angles match the closed form with zero tolerance for "
           f"n <= 20 on {len(bases)} bases ({mismatches} mismatches); "
           f"distinct when alpha != 2*beta: {distinct_ok}; collision when "
           f"alpha == 2*beta: {collision_found}")


def test_criterion_7_similarity_classes():
    single = refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=16,
                                  base=RIGHT_ISOSCELES)).stats
    single_ok = all(row.cumulative_similarity_classes == 1 for row in single)
    growth_ok = True
    detail = []
    fixtures: list[tuple[str, RefinementRun]] = [
        ("equilateral", RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                      depth=16, base=EQUILATERAL)),
        ("80-60-40", RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                   depth=16, base=DOUBLE_PAIR)),
        ("thin", RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                               depth=16, base=THIN)),
        ("3-4-5", RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                depth=16, sides=(3.0, 4.0, 5.0))),
    ]
    for name, run in fixtures:
        stats = refine(run).stats
        shortfall = min(row.cumulative_similarity_classes - row.n
                        for row in stats)
        detail.append(f"{name} margin {shortfall}")
        growth_ok = growth_ok and shortfall >= 0
    ok = single_ok and growth_ok
    report("criterion 7", ok,
           f"right isosceles stays a single class through depth 16: "
           f"{single_ok}; class count >= n: {', '.join(detail)}")


def test_criterion_8_longest_edge_references(sweep_bases):
    stats = refine(RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=12,
                                 base=EQUILATERAL)).stats
    m0 = stats[0].mesh
    worst_eq = 0.0
    for row in stats[1:]:
        factor = math.sqrt(3.0) if row.n % 2 == 0 else math.sqrt(2.0)
        bound = m0 * factor * 2.0 ** (-row.n / 2.0)
        worst_eq = max(worst_eq, abs(row.mesh - bound) / bound)
    angle_gap = max(abs(row.min_angle_deg - 30.0) for row in stats[1:])

    worst_sweep = math.inf
    for base in sweep_bases:
        g0 = math.radians(float(base.gamma))
        bound = math.degrees(math.atan(math.sin(g0) / (2.0 - math.cos(g0))))
        le = refine(RefinementRun(kind=ProcedureKind.LONGEST_EDGE, depth=8,
                                  base=base)).stats
        worst_sweep = min(worst_sweep,
                          min(row.min_angle_deg for row in le) - bound)
    ok = worst_eq <= 1e-9 and angle_gap <= 1e-9 and worst_sweep >= -1e-9
    report("criterion 8", ok,
           f"equilateral longest-edge mesh equals the parity bound within "
           f"{worst_eq:.2e} (tol 1e-9); min angle within {angle_gap:.2e} of "
           f"30 deg; arctan lower bound margin {worst_sweep:+.2e} over the "
           f"sweep")


def test_criterion_9_shortest_altitude():
    fixtures: list[tuple[str, RefinementRun]] = [
        ("equilateral", RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                                      depth=8, base=EQUILATERAL)),
        ("right-isosceles", RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                                          depth=8, base=RIGHT_ISOSCELES)),
        ("80-60-40", RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                                   depth=8, base=DOUBLE_PAIR)),
        ("thin", RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                               depth=8, base=THIN)),
        ("3-4-5", RefinementRun(kind=ProcedureKind.SHORTEST_ALTITUDE,
                                depth=8, sides=(3.0, 4.0, 5.0))),
    ]
    classes_ok = True
    worst_mesh = math.inf
    for name, run in fixtures:
        result = refine(run)
        union: set = set()
        for keys in result.key_sets[1:]:
            union |= keys
            if len(union) > 2:
                classes_ok = False
        root = (triangle_from_angles(run.base)
                if run.base is not None else triangle_from_sides(*run.sides))
        subtrees = []
        for child in bisect(root, ProcedureKind.SHORTEST_ALTITUDE):
            sides = sorted(child.sides(), reverse=True)
            subtrees.append((sides[0], sides[1] / sides[0]))
        for row in result.stats[1:]:
            bound = max(z * q ** (row.n - 1) for z, q in subtrees)
            worst_mesh = min(worst_mesh, (bound - row.mesh) / bound)
    ok = classes_ok and worst_mesh >= -1e-9
    report("criterion 9", ok,
           f"at most 2 classes in generations >= 1 on all fixtures: "
           f"{classes_ok}; per-subtree geometric mesh bound margin "
           f"{worst_mesh:+.2e} (tol 1e-9)")
