"""Executable re-check of every quantitative guarantee the library relies on.

``run_suite`` evaluates each named check over deterministic fixtures plus a
seeded random sweep and reports, per check, the population size, the worst
signed margin to the bound (negative means violated), and a replayable
witness for the extremal case.  A check passes when its worst margin stays
above minus its tolerance.

Each check is declared once, as one ``@_check`` table entry with four parts:
its name, its tolerance, a population (suite context -> input specs) and a
margin function ((spec, runs) -> (margin, spec of the case)), where ``runs``
memoizes the statistics of streaming runs on (kind, base or sides, depth)
and root triangles on their sides or angles.  A spec holds its base as
``BaseAngles``; a witness is a spec's JSON form, its base as three strings,
which only ``_witness`` writes and only ``_spec`` reads.  ``replay_margin``
applies the margin function to ``_spec(witness)`` with an empty memo, so it
reproduces the margin bit for bit with no second copy of the check.

The single-split quantities (aspect ratios, the bisector ratio) and the
major-angle distinctness test are defined here, beside their only checks.

Tolerances: exact-arithmetic checks use zero tolerance; single-step float
identities use 1e-12; multi-generation float aggregates use 1e-9.  Failures
are reported, never repaired: a violated bound would show up as a negative
margin with the witness that produced it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Iterable, Iterator, NamedTuple

from .exact import (
    AngleForm,
    BaseAngles,
    FORM_GAMMA,
    carrier_angle_forms,
    check_int,
    # Unused here; bound so the benchmark tracer can wrap it by attribute.
    evaluate_angle_form,
    first_major_angle_collision,
    form_units,
    jacobsthal,
)
from .engine import (
    GenerationStats,
    ProcedureKind,
    RefinementResult,
    RefinementRun,
    SQRT3_2,
    carrier_units,
    refine,
    split_units,
)
from .geometry import (
    TriangleNode,
    bisect,
    longest_side_vertex,
    triangle_from_angles,
    triangle_from_angles_deg,
    triangle_from_sides,
)

TOL_EXACT = 0.0
TOL_SINGLE_STEP = 1e-12
TOL_MULTI_STEP = 1e-9
TOL_MODE_IDENTITY = 1e-15
TOL_SYMBOLIC_NUMERIC = 1e-7

# Bound on second-generation aspect ratios when the largest starting angle
# is at most twice the smallest: sin(54 deg) / cos(7.5 deg) = 0.8159...
FLAT_START_ASPECT_BOUND = math.sin(math.radians(54.0)) / math.cos(math.radians(7.5))

CARRIER_N_MAX = 20
# The carrier checks evaluate forms at ``base.units(CARRIER_SHIFT)``, the
# scale of ``carrier_units`` at depth CARRIER_N_MAX.
CARRIER_SHIFT = CARRIER_N_MAX + 1

EQUILATERAL = BaseAngles(60, 60, 60)
RIGHT_ISOSCELES = BaseAngles(90, 45, 45)
DOUBLE_PAIR = BaseAngles(80, 60, 40)
THIN = BaseAngles(178, 1, 1)
PYTHAGOREAN_SIDES = (3.0, 4.0, 5.0)

ANGLE_FIXTURES = (EQUILATERAL, RIGHT_ISOSCELES, DOUBLE_PAIR, THIN)

# Raw label pairs whose major-angle sequence must collapse: alpha == 2*beta.
# (80, 40) is the (80, 40, 60) labeling, which is not sorted and therefore
# enters through the pair-level helper rather than BaseAngles.
COLLISION_PAIRS = ((Fraction(90), Fraction(45)), (Fraction(80), Fraction(40)))

@dataclass
class CheckReport:
    """Outcome of one named check; ``passed`` iff worst_margin >= -tolerance."""

    name: str
    population: int
    worst_margin: float
    tolerance: float
    witness: dict
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "population": self.population,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "witness": self.witness,
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# Random populations
# ---------------------------------------------------------------------------

def random_valid_base(rng: random.Random) -> BaseAngles:
    """Random exact base angles: denominator <= 10**4, each angle >= 1/2 degree,
    summing to 180 exactly, labels sorted descending."""
    q = rng.randint(1, 10_000)
    lo = (q + 1) // 2  # ceil(q / 2), i.e. at least half a degree
    total = 180 * q
    n1 = rng.randint(lo, total - 2 * lo)
    n2 = rng.randint(lo, total - n1 - lo)
    parts = sorted((n1, n2, total - n1 - n2), reverse=True)
    return BaseAngles(Fraction(parts[0], q), Fraction(parts[1], q),
                      Fraction(parts[2], q))


def random_triangle_angles(rng: random.Random) -> tuple[float, float, float]:
    """Random float triangle angles, each >= 1/2 degree, sorted descending."""
    while True:
        a = rng.uniform(0.5, 179.0)
        b = rng.uniform(0.5, 179.5 - a)
        c = 180.0 - a - b
        if c >= 0.5:
            vals = sorted((a, b, c), reverse=True)
            return (vals[0], vals[1], vals[2])


# ---------------------------------------------------------------------------
# Witness (de)serialization and run loading
# ---------------------------------------------------------------------------

def _witness(spec: dict) -> dict:
    """A spec's JSON form: its base as three strings, the rest as it is."""
    base = spec.get("base")
    return spec if base is None else dict(
        spec, base=[str(x) for x in base.as_tuple()])


def _spec(witness: dict) -> dict:
    """The spec a witness names: its base parsed back into ``BaseAngles``."""
    base = witness.get("base")
    return witness if base is None else dict(
        witness, base=BaseAngles(*map(Fraction, base)))


def _root(spec: dict, runs: dict) -> TriangleNode:
    """The root a spec names by its ``sides``, or else its ``angles_deg``,
    built once per ``runs`` memo and shared by the checks that read it."""
    name = "angles_deg" if spec.get("sides") is None else "sides"
    key = (name, *spec[name])
    root = runs.get(key)
    if root is None:
        root = runs[key] = (triangle_from_sides if name == "sides"
                            else triangle_from_angles_deg)(*spec[name])
    return root


def _refine(runs: dict, run: RefinementRun) -> RefinementResult:
    """``refine(run)``, its statistics memoized in ``runs`` on the run, that
    is on (kind, base or sides, depth).  Only statistics are kept: an exact
    run's class keys would outweigh them tenfold."""
    result = refine(run)
    runs[run] = result.stats
    return result


def _run(spec: dict, kind: ProcedureKind | None = None,
         depth: int | None = None) -> RefinementRun:
    """The streaming run a spec names by its base or sides, with the
    spec's kind and depth unless ``kind`` or ``depth`` is given."""
    return RefinementRun(
        kind=kind or ProcedureKind(spec["kind"]),
        depth=spec["depth"] if depth is None else depth,
        base=spec.get("base"), sides=spec.get("sides"))


def _stats(spec: dict, runs: dict, kind: ProcedureKind | None = None,
           depth: int | None = None) -> list[GenerationStats]:
    """Statistics of ``_run(spec, kind, depth)``: memoized, else
    ``_refine``d."""
    run = _run(spec, kind, depth)
    stats = runs.get(run)
    return _refine(runs, run).stats if stats is None else stats


# ---------------------------------------------------------------------------
# Suite context: fixtures, sweeps, shared runs
# ---------------------------------------------------------------------------

class _Context:
    def __init__(self, depth: int, sweep_size: int, seed: int) -> None:
        self.depth = depth
        rng = random.Random(seed)
        self.bases: list[BaseAngles] = list(ANGLE_FIXTURES)
        self.bases += [random_valid_base(rng) for _ in range(sweep_size)]
        fixture_triangles = [tuple(float(x) for x in b.as_tuple())
                             for b in ANGLE_FIXTURES]
        self.triangles: list[tuple[float, float, float]] = fixture_triangles
        self.triangles += [random_triangle_angles(rng)
                           for _ in range(10 * sweep_size)]
        self.dyadics = [(rng.randint(-10**9, 10**9), rng.randint(0, 60))
                        for _ in range(sweep_size)]
        walk_count = min(100, sweep_size) + len(ANGLE_FIXTURES)
        self.walks = [
            (base, "".join(rng.choice("01") for _ in range(CARRIER_N_MAX)))
            for base in self.bases[:walk_count]
        ]
        # The suite's memo: ``_refine``'s statistics on a run, ``_root``'s
        # triangle on its sides or angles.
        self.runs: dict = {}


def _first_min(items: Iterable[tuple[float, Any]],
               default: Any) -> tuple[float, Any, int]:
    """The first smallest margin with the item beside it, and the number of
    items; (inf, default, 0) when there are none.  A NaN margin counts as
    smaller than any number, so the first NaN is the worst."""
    worst, worst_item, count = math.inf, default, 0
    for margin, item in items:
        count += 1
        if worst == worst and not margin >= worst:
            worst, worst_item = margin, item
    return worst, worst_item, count


def _finish(name: str, tolerance: float,
            items: Iterable[tuple[float, dict]]) -> CheckReport:
    worst, spec, population = _first_min(items, {})
    if population == 0:
        worst = 0.0
    return CheckReport(name, population, worst, tolerance, _witness(spec),
                       worst >= -tolerance)


class _Check(NamedTuple):
    tolerance: float
    population: Callable[[_Context], list[dict]]
    margin: Callable[[dict, dict], tuple[float, dict]]


_CHECKS: dict[str, _Check] = {}


def _check(name: str, tolerance: float,
           population: Callable[[_Context], list[dict]]):
    """Declare a check: the decorated margin function maps (spec, runs) to
    (margin, spec of the case), and must accept the specs it returns."""
    def wrap(margin):
        if name in _CHECKS:
            raise ValueError(f"check {name!r} declared twice")
        _CHECKS[name] = _Check(tolerance, population, margin)
        return margin
    return wrap


def _at_generation(spec: dict, n: int) -> dict:
    """A per-generation case: the spec with ``n`` recorded before its
    depth, or last when it has none."""
    case = {}
    for key, value in spec.items():
        if key == "depth":
            case["n"] = n
        case[key] = value
    case.setdefault("n", n)
    return case


def _bases(ctx: _Context) -> list[dict]:
    return [{"base": base, "depth": ctx.depth} for base in ctx.bases]


def _triangles(ctx: _Context) -> list[dict]:
    return [{"angles_deg": list(angles)} for angles in ctx.triangles]


def _per_generation(name: str, tolerance: float,
                    population: Callable[[_Context], list[dict]]):
    """Declare a check whose decorated generator maps (spec, runs) to one
    (margin, n) pair per generation: the margin is the worst pair's, and the
    witness records its ``n``."""
    def wrap(pairs: Callable[[dict, dict], Iterator[tuple[float, int]]]):
        def margin(spec: dict, runs: dict) -> tuple[float, dict]:
            worst, n, _ = _first_min(pairs(spec, runs), 0)
            return worst, _at_generation(spec, n)
        _check(name, tolerance, population)(margin)
        return pairs
    return wrap


def _per_stats(name: str, tolerance: float, kind: ProcedureKind | None,
               population: Callable[[_Context], list[dict]] = _bases):
    """``_per_generation`` over the statistics of a streaming run from each
    spec's base; the decorated kernel maps (stats, base) to the pairs.
    ``kind`` ``None`` reads the procedure from the spec."""
    def wrap(kernel: Callable[..., Iterator[tuple[float, int]]]):
        def pairs(spec: dict, runs: dict) -> Iterator[tuple[float, int]]:
            return kernel(_stats(spec, runs, kind), spec["base"])
        _per_generation(name, tolerance, population)(pairs)
        return kernel
    return wrap


def _per_triangle(name: str, tolerance: float):
    """Declare a check over the random float triangles: the decorated kernel
    maps the root triangle of a spec to its margin."""
    def wrap(kernel: Callable[[TriangleNode], float]):
        def margin(spec: dict, runs: dict) -> tuple[float, dict]:
            return kernel(_root(spec, runs)), spec
        _check(name, tolerance, _triangles)(margin)
        return kernel
    return wrap


# ---------------------------------------------------------------------------
# Exact sequence and form checks
# ---------------------------------------------------------------------------

@_check("jacobsthal-sum-identity", TOL_EXACT,
        lambda ctx: [{"n": n} for n in range(65)])
def _m_jacobsthal_sum(spec, runs):
    n = spec["n"]
    return (0.0 if jacobsthal(n) + jacobsthal(n + 1) == 2**n else -1.0), spec


@_check("jacobsthal-closed-form", TOL_EXACT,
        lambda ctx: [{"n": n} for n in range(65)])
def _m_jacobsthal_closed(spec, runs):
    a, b = 0, 1
    for _ in range(spec["n"]):
        a, b = b, b + 2 * a
    return (0.0 if jacobsthal(spec["n"]) == a else -1.0), spec


@_check("carrier-form-coefficient-sum", TOL_EXACT,
        lambda ctx: [{"n": n} for n in range(1, 41)])
def _m_carrier_sum(spec, runs):
    major, minor = carrier_angle_forms(spec["n"])
    total = major + minor + FORM_GAMMA
    ok = all(c == 1 for c in total.coefficients())
    return (0.0 if ok else -1.0), spec


@_per_generation("carrier-major-dominates", TOL_EXACT,
                 lambda ctx: [{"base": base} for base in ctx.bases])
def _m_carrier_dominates(spec, runs):
    units, scale = spec["base"].units(CARRIER_SHIFT)
    gamma = units[2]
    for n in range(1, CARRIER_N_MAX + 1):
        major, minor = carrier_angle_forms(n)
        big = form_units(major, units, CARRIER_SHIFT)
        small = form_units(minor, units, CARRIER_SHIFT)
        # Integer true division rounds correctly, as float(Fraction) does.
        yield min(big - small, big - gamma) / scale, n


@_check("dyadic-halve-add-roundtrip", TOL_EXACT,
        lambda ctx: [{"numerator": num, "log2_denominator": k}
                     for num, k in ctx.dyadics])
def _m_dyadic_roundtrip(spec, runs):
    c = Fraction(abs(spec["numerator"]), 1 << spec["log2_denominator"])
    x = AngleForm(c, c, c)
    return (0.0 if (x + x).halve() == x else -1.0), spec


# ---------------------------------------------------------------------------
# Single-split geometry checks over random triangles
# ---------------------------------------------------------------------------

def aspect_ratio(t: TriangleNode) -> float:
    """Longest side over the sum of the other two; in [0.5, 1)."""
    s = t.sides()
    a = max(s)
    return a / (s[0] + s[1] + s[2] - a)


def aspect_ratio_trig(t: TriangleNode) -> float:
    """``aspect_ratio`` by the law of sines: sin(big/2) / cos((mid-small)/2)."""
    big, mid, small = sorted(t.angles_deg(), reverse=True)
    return math.sin(math.radians(big) / 2.0) / math.cos(math.radians(mid - small) / 2.0)


def bisector_to_longest_side_ratio(t: TriangleNode) -> float:
    """Length of the largest-angle bisector divided by the longest side.

    Closed form: with sides a >= b >= c the ratio squared is
    b*c/(b+c)**2 * ((b+c)**2 - a**2)/a**2;  at most sqrt(3)/2, with equality
    only for the equilateral triangle.
    """
    a, b, c = sorted(t.sides(), reverse=True)
    w = b + c
    ratio_sq = (b * c / (w * w)) * ((w * w - a * a) / (a * a))
    return math.sqrt(ratio_sq)


def smallest_angle_vertex(t: TriangleNode) -> int:
    """Vertex index of the smallest numeric angle; ties go to the first."""
    angs = t.angles_deg()
    return angs.index(min(angs))


@_per_triangle("child-areas-sum-to-parent", TOL_MULTI_STEP)
def _m_child_areas(t: TriangleNode) -> float:
    left, right = bisect(t, ProcedureKind.LARGEST_ANGLE)
    return -abs(left.area() + right.area() - t.area()) / t.area()


@_per_triangle("bisector-foot-inside-segment", TOL_SINGLE_STEP)
def _m_foot_inside(t: TriangleNode) -> float:
    # Children keep the split corner A first: (A, B, foot) and (A, foot, C).
    left, right = bisect(t, ProcedureKind.LARGEST_ANGLE)
    _, B, foot = left.vertices
    C = right.vertices[2]
    ex, ey = C.x - B.x, C.y - B.y
    s = ((foot.x - B.x) * ex + (foot.y - B.y) * ey) / (ex * ex + ey * ey)
    return min(s, 1.0 - s)


@_per_triangle("min-angle-child-has-larger-aspect", TOL_SINGLE_STEP)
def _m_keeper_aspect(t: TriangleNode) -> float:
    """Margin of: the child keeping the smallest-angle vertex has the larger
    aspect ratio."""
    ia = longest_side_vertex(t)
    ismall = smallest_angle_vertex(t)
    if ismall == ia:  # all angles equal: either base vertex qualifies
        angs = t.angles_deg()
        ib, ic = (ia + 1) % 3, (ia + 2) % 3
        ismall = ib if angs[ib] <= angs[ic] else ic
    left, right = bisect(t, ProcedureKind.LARGEST_ANGLE, ia)
    keeper = left if ismall == (ia + 1) % 3 else right
    other = right if keeper is left else left
    return aspect_ratio(keeper) - aspect_ratio(other)


@_per_triangle("aspect-trig-matches-side-form", TOL_SINGLE_STEP)
def _m_aspect_trig(t: TriangleNode) -> float:
    r = aspect_ratio(t)
    return -abs(r - aspect_ratio_trig(t)) / r


@_per_triangle("aspect-ratio-in-range", TOL_SINGLE_STEP)
def _m_aspect_range(t: TriangleNode) -> float:
    r = aspect_ratio(t)
    return min(r - 0.5, 1.0 - r)


@_per_triangle("bisector-length-bound", TOL_SINGLE_STEP)
def _m_bisector_bound(t: TriangleNode) -> float:
    return SQRT3_2 - bisector_to_longest_side_ratio(t)


def _altitude_similarity_specs(ctx: _Context) -> list[dict]:
    population: list[dict] = [
        {"sides": list(PYTHAGOREAN_SIDES), "path": []},
        {"angles_deg": [90.0, 45.0, 45.0], "path": []},
    ]
    for base in ANGLE_FIXTURES:
        angles = [float(x) for x in base.as_tuple()]
        population.append({"angles_deg": angles, "path": [0]})
        population.append({"angles_deg": angles, "path": [1]})
    return population


@_check("altitude-children-similar-to-right-parent", TOL_MULTI_STEP,
        _altitude_similarity_specs)
def _m_altitude_similarity(spec, runs):
    node = _root(spec, runs)
    for index in spec.get("path", ()):
        node = bisect(node, ProcedureKind.SHORTEST_ALTITUDE)[index]
    parent_angles = sorted(node.angles_deg())
    worst = 0.0
    for child in bisect(node, ProcedureKind.SHORTEST_ALTITUDE):
        for got, want in zip(sorted(child.angles_deg()), parent_angles):
            worst = max(worst, abs(got - want))
    return -worst, spec


@_check("symbolic-numeric-angle-agreement", TOL_SYMBOLIC_NUMERIC,
        lambda ctx: [{"base": base, "lineage": lineage}
                     for base, lineage in ctx.walks])
def _m_symbolic_numeric(spec, runs):
    # Exact angles ride the lineage as in refine: integers at one scale.
    base = spec["base"]
    node = triangle_from_angles(base)
    units, scale = base.units(len(spec["lineage"]) + 1)
    worst = 0.0
    for bit in map(int, spec["lineage"]):
        ia, *children = split_units(units)
        node = bisect(node, ProcedureKind.LARGEST_ANGLE, ia)[bit]
        units = children[bit]
        for u, numeric in zip(units, node.angles_deg()):
            worst = max(worst, abs(u / scale - numeric))
    return -worst, spec


# ---------------------------------------------------------------------------
# Largest-angle run aggregates (exact mode)
# ---------------------------------------------------------------------------

@_per_stats("min-angle-equals-min-gamma-half-alpha", TOL_EXACT,
            ProcedureKind.LARGEST_ANGLE)
def _m_min_angle_identity(stats, base):
    expected = min(base.gamma, base.alpha / 2)
    yield 0.0, 0  # the margin and witness when every generation is exact
    for row in stats[1:]:
        diff = row.min_angle_deg - expected
        if diff != 0:
            yield -abs(float(diff)), row.n


@_per_stats("next-largest-angle-inequality", TOL_EXACT,
            ProcedureKind.LARGEST_ANGLE)
def _m_step_inequality(stats, base):
    # For consecutive generations: half the next smallest-largest angle is
    # at least min(current smallest angle, half the current smallest-largest).
    for n in range(len(stats) - 1):
        diff = (stats[n + 1].min_largest_angle_deg / 2
                - min(stats[n].min_angle_deg, stats[n].min_largest_angle_deg / 2))
        yield float(diff), n


@_per_stats("mesh-two-step-contraction", TOL_SINGLE_STEP,
            ProcedureKind.LARGEST_ANGLE)
def _m_mesh_two_step(stats, base):
    for n in range(len(stats) - 2):
        bound = stats[n].rho * stats[n].mesh
        yield (bound - stats[n + 2].mesh) / bound, n


@_per_stats("mesh-geometric-decay", TOL_MULTI_STEP,
            ProcedureKind.LARGEST_ANGLE)
def _m_mesh_decay(stats, base):
    rho0 = stats[0].rho
    m0 = stats[0].mesh
    for row in stats:
        bound = m0 * rho0 ** (row.n // 2)
        yield (bound - row.mesh) / bound, row.n


@_per_stats("aspect-two-step-bound", TOL_SINGLE_STEP,
            ProcedureKind.LARGEST_ANGLE)
def _m_aspect_two_step(stats, base):
    for n in range(len(stats) - 2):
        yield stats[n].rho - stats[n + 2].max_aspect_ratio, n


@_per_stats("rho-nonincreasing", TOL_SINGLE_STEP, ProcedureKind.LARGEST_ANGLE)
def _m_rho_monotone(stats, base):
    for n in range(len(stats) - 2):
        yield stats[n].rho - stats[n + 1].rho, n


@_check("second-generation-aspect-special-bound", TOL_SINGLE_STEP,
        lambda ctx: [{"base": base} for base in ctx.bases
                     if base.alpha <= 2 * base.gamma])
def _m_flat_start_bound(spec, runs):
    stats = _stats(spec, runs, ProcedureKind.LARGEST_ANGLE, 2)
    return FLAT_START_ASPECT_BOUND - stats[2].max_aspect_ratio, spec


def _mesh_nonincreasing_specs(ctx: _Context) -> list[dict]:
    largest_angle = ProcedureKind.LARGEST_ANGLE.value
    longest_edge = ProcedureKind.LONGEST_EDGE.value
    return ([dict(spec, kind=largest_angle) for spec in _bases(ctx)]
            + [{"base": base, "depth": ctx.depth, "kind": longest_edge}
               for base in ANGLE_FIXTURES])


@_per_stats("mesh-nonincreasing", TOL_SINGLE_STEP, None,
            _mesh_nonincreasing_specs)
def _m_mesh_nonincreasing(stats, base):
    for n in range(len(stats) - 1):
        yield (stats[n].mesh - stats[n + 1].mesh) / stats[n].mesh, n


def _aspect_rises(ctx: _Context) -> list[dict]:
    population = []
    for spec in _bases(ctx):
        stats = _stats(spec, ctx.runs, ProcedureKind.LARGEST_ANGLE)
        rise = 0.0
        rise_n = 0
        for n in range(len(stats) - 1):
            d = stats[n + 1].max_aspect_ratio - stats[n].max_aspect_ratio
            if d > rise:
                rise, rise_n = d, n
        population.append({"base": spec["base"], "largest_rise": rise,
                           "after_generation": rise_n})
    return population


@_check("max-aspect-sequence-observed", TOL_EXACT, _aspect_rises)
def _m_max_aspect_observed(spec, runs):
    # Informational only: the two-step bound is asserted elsewhere; whether
    # the max-aspect sequence is eventually monotone is measured, not
    # asserted, so each spec is the observed largest one-step increase and
    # its margin is always 0.
    return 0.0, spec


# ---------------------------------------------------------------------------
# Similarity classes and carrier lineage
# ---------------------------------------------------------------------------

@_check("carrier-track-matches-closed-form", TOL_EXACT,
        lambda ctx: [{"base": base} for base, _ in ctx.walks])
def _m_carrier_closed_form(spec, runs):
    base = spec["base"]
    track, _ = carrier_units(base, CARRIER_N_MAX)
    units, _ = base.units(CARRIER_SHIFT)
    for n, (major, minor, kept) in enumerate(track, start=1):
        form_major, form_minor = carrier_angle_forms(n)
        if (major != form_units(form_major, units, CARRIER_SHIFT)
                or minor != form_units(form_minor, units, CARRIER_SHIFT)
                or kept != units[2]):
            return -1.0, dict(spec, n=n)
    return 0.0, dict(spec, n=0)


def check_major_angles_distinct(base: BaseAngles,
                                n_max: int) -> tuple[bool, tuple[int, int] | None]:
    """Whether major(1..n_max) evaluated at base are pairwise distinct.

    Returns (True, None) when all values differ, else (False, (p, q)) with
    the first colliding pair.  A collision occurs exactly when the base has
    alpha == 2*beta (e.g. the right isosceles triangle).
    """
    check_int(n_max, "n_max", 2)
    collision = first_major_angle_collision(base.alpha, base.beta, n_max)
    return (collision is None, collision)


@_check("major-angles-distinct", TOL_EXACT,
        lambda ctx: [{"base": base} for base in ctx.bases
                     if base.alpha != 2 * base.beta])
def _m_majors_distinct(spec, runs):
    ok, _ = check_major_angles_distinct(spec["base"], CARRIER_N_MAX)
    return (0.0 if ok else -1.0), spec


@_check("major-angle-collision-when-alpha-twice-beta", TOL_EXACT,
        lambda ctx: [{"pair": [str(alpha), str(beta)]}
                     for alpha, beta in COLLISION_PAIRS])
def _m_major_collision(spec, runs):
    alpha, beta = (Fraction(x) for x in spec["pair"])
    collision = first_major_angle_collision(alpha, beta, CARRIER_N_MAX)
    return (0.0 if collision is not None else -1.0), spec


@_check("right-isosceles-single-class", TOL_EXACT,
        lambda ctx: [{"base": RIGHT_ISOSCELES, "depth": ctx.depth}])
def _m_single_class(spec, runs):
    stats = _stats(spec, runs, ProcedureKind.LARGEST_ANGLE)
    extra = max(row.cumulative_similarity_classes for row in stats) - 1
    return -float(extra), spec


@_per_stats("class-count-grows-with-depth", TOL_EXACT,
            ProcedureKind.LARGEST_ANGLE,
            lambda ctx: [spec for spec in _bases(ctx)
                         if spec["base"] != RIGHT_ISOSCELES])
def _m_class_growth(stats, base):
    for row in stats:
        yield float(row.cumulative_similarity_classes - row.n), row.n


def _altitude_specs(ctx: _Context) -> list[dict]:
    depth = min(ctx.depth, 8)
    specs = [{"kind": ProcedureKind.SHORTEST_ALTITUDE.value,
              "base": base} for base in ANGLE_FIXTURES]
    specs.append({"kind": ProcedureKind.SHORTEST_ALTITUDE.value,
                  "base": None, "sides": list(PYTHAGOREAN_SIDES)})
    return [dict(spec, depth=depth) for spec in specs]


@_per_generation("altitude-class-count-bound", TOL_EXACT, _altitude_specs)
def _m_altitude_classes(spec, runs):
    key_sets = _refine(runs, _run(spec)).key_sets
    union: set = set()
    for n, keys in enumerate(key_sets[1:], start=1):
        union |= keys
        yield float(2 - len(union)), n


@_per_generation("altitude-mesh-geometric-bound", TOL_MULTI_STEP, _altitude_specs)
def _m_altitude_mesh(spec, runs):
    run = _run(spec)
    stats = _stats(spec, runs)
    subtrees = []
    for child in bisect(run.root(), ProcedureKind.SHORTEST_ALTITUDE):
        sides = sorted(child.sides(), reverse=True)
        z = sides[0]
        subtrees.append((z, sides[1] / z))
    for row in stats[1:]:
        bound = max(z * q ** (row.n - 1) for z, q in subtrees)
        yield (bound - row.mesh) / bound, row.n


# ---------------------------------------------------------------------------
# Longest-edge reference bounds
# ---------------------------------------------------------------------------

@_per_stats("longest-edge-min-angle-bound", TOL_MULTI_STEP,
            ProcedureKind.LONGEST_EDGE)
def _m_le_min_angle(stats, base):
    g0 = math.radians(float(base.gamma))
    bound = math.degrees(math.atan(math.sin(g0) / (2.0 - math.cos(g0))))
    for row in stats:
        yield row.min_angle_deg - bound, row.n


@_per_stats("longest-edge-mesh-sqrt3-half-bound", TOL_MULTI_STEP,
                 ProcedureKind.LONGEST_EDGE)
def _m_le_halfstep(stats, base):
    m0 = stats[0].mesh
    for row in stats:
        bound = m0 * SQRT3_2 ** (row.n // 2)
        yield (bound - row.mesh) / bound, row.n


def _le_parity_bound(m0: float, n: int) -> float:
    factor = math.sqrt(3.0) if n % 2 == 0 else math.sqrt(2.0)
    return m0 * factor * 2.0 ** (-n / 2.0)


@_per_stats("longest-edge-mesh-parity-bound", TOL_MULTI_STEP,
            ProcedureKind.LONGEST_EDGE)
def _m_le_parity(stats, base):
    m0 = stats[0].mesh
    for row in stats:
        bound = _le_parity_bound(m0, row.n)
        yield (bound - row.mesh) / bound, row.n


def _equilateral(ctx: _Context) -> list[dict]:
    return [{"base": EQUILATERAL, "depth": ctx.depth}]


@_per_stats("longest-edge-equilateral-mesh-equality", TOL_MULTI_STEP,
                 ProcedureKind.LONGEST_EDGE, _equilateral)
def _m_le_equilateral_mesh(stats, base):
    m0 = stats[0].mesh
    for row in stats[1:]:
        bound = _le_parity_bound(m0, row.n)
        yield -abs(row.mesh - bound) / bound, row.n


@_per_stats("longest-edge-equilateral-min-angle", TOL_MULTI_STEP,
                 ProcedureKind.LONGEST_EDGE, _equilateral)
def _m_le_equilateral_angle(stats, base):
    for row in stats[1:]:
        yield -abs(row.min_angle_deg - 30.0), row.n


# ---------------------------------------------------------------------------
# Streaming / final-generation agreement
# ---------------------------------------------------------------------------

def _mode_identity_specs(ctx: _Context) -> list[dict]:
    depth = min(ctx.depth, 10)
    specs = [
        {"kind": ProcedureKind.LARGEST_ANGLE.value, "base": EQUILATERAL},
        {"kind": ProcedureKind.LARGEST_ANGLE.value, "base": THIN},
        {"kind": ProcedureKind.LONGEST_EDGE.value, "base": EQUILATERAL},
        {"kind": ProcedureKind.SHORTEST_ALTITUDE.value, "base": None,
         "sides": list(PYTHAGOREAN_SIDES)},
    ]
    return [dict(spec, depth=depth) for spec in specs]


@_check("streaming-matches-full-tree", TOL_MODE_IDENTITY, _mode_identity_specs)
def _m_mode_identity(spec, runs):
    run = _run(spec)
    streamed = _stats(spec, runs)
    retained = refine(replace(run, retain=True)).stats
    worst = 0.0
    for a, b in zip(streamed, retained):
        if (a.n, a.triangle_count, a.cumulative_similarity_classes) != \
                (b.n, b.triangle_count, b.cumulative_similarity_classes):
            return -1.0, spec
        if a.min_angle_deg != b.min_angle_deg or \
                a.min_largest_angle_deg != b.min_largest_angle_deg:
            return -1.0, spec
        for x, y in ((a.mesh, b.mesh), (a.max_aspect_ratio, b.max_aspect_ratio),
                     (a.rho or 0.0, b.rho or 0.0)):
            if y != 0.0 or x != 0.0:
                worst = max(worst, abs(x - y) / max(abs(x), abs(y), 1e-300))
    return -worst, spec


# ---------------------------------------------------------------------------
# Suite driver
# ---------------------------------------------------------------------------

def check_suite_args(depth: int, sweep_size: int, seed: int) -> None:
    """``ValueError`` unless ``run_suite`` accepts ``depth``, ``sweep_size``
    and ``seed``; the checks refine at ``depth``, so it must also pass
    ``RefinementRun``'s streaming limit."""
    for name, value in (("depth", depth), ("sweep_size", sweep_size),
                        ("seed", seed)):
        check_int(value, name)
    if depth < 4:
        raise ValueError("depth must be at least 4")
    if sweep_size < 1:
        raise ValueError("sweep_size must be at least 1")
    RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=depth, base=EQUILATERAL)


def run_suite(depth: int = 8, sweep_size: int = 1000,
              seed: int = 0) -> list[CheckReport]:
    """Run every check; deterministic given the seed; sorted by check name."""
    check_suite_args(depth, sweep_size, seed)
    ctx = _Context(depth, sweep_size, seed)
    reports = [
        _finish(name, check.tolerance,
                (check.margin(spec, ctx.runs) for spec in check.population(ctx)))
        for name, check in _CHECKS.items()
    ]
    reports.sort(key=lambda r: r.name)
    return reports


def check_names() -> list[str]:
    return sorted(_CHECKS)


def replay_margin(name: str, witness: dict) -> float:
    """Recompute the margin of a report's extremal case from its witness.

    The witness, parsed back by ``_spec``, goes through the very margin
    function that produced the report, on the same deterministic inputs, so
    the value matches bit for bit.
    """
    try:
        check = _CHECKS[name]
    except KeyError:
        raise KeyError(f"unknown check name {name!r}") from None
    return check.margin(_spec(witness), {})[0]


def report_as_dict(reports: list[CheckReport], depth: int, sweep_size: int,
                   seed: int) -> dict:
    return {
        "depth": depth,
        "sweep_size": sweep_size,
        "seed": seed,
        "all_pass": all(r.passed for r in reports),
        "checks": [r.to_json_dict() for r in reports],
    }
