"""Refinement driver: iterate a splitting procedure and stream statistics.

A run starts from either exact base angles or numeric side lengths, applies
one of the three procedures ``depth`` times, and reports one row of
aggregate statistics per generation:

* ``mesh``            -- longest side over the generation (non-increasing),
* ``min_angle_deg``   -- smallest angle over the generation,
* ``min_largest_angle_deg`` -- smallest per-triangle maximum angle,
* ``max_aspect_ratio``-- largest aspect ratio,
* ``rho``             -- max(r_n, r_{n+1}, sqrt(3)/2), the factor bounding
  two-generation mesh decay (undefined for the last generation),
* ``cumulative_similarity_classes`` -- distinct sorted angle triples seen in
  generations 0..n.

One depth-first loop in ``refine`` walks the tree for every procedure and
both modes, carrying each node's generation and three angles beside it on
the stack (a node carries geometry only).  In exact-base mode
(largest-angle procedure from rational angles) the angles are integers at
the run's scale q * 2**(depth+1) from ``BaseAngles.units``, as in
``track_carrier``, so angle statistics and similarity keys are exact;
numeric mode carries floats and quantizes them to 1e-9 degrees for class
counting, and splits every node at the vertex opposite its first longest
side, which carries its largest angle.  An exact key is one int packed at
the run's scale (see ``RefinementResult``); one run has one scale, so
integer equality is rational equality, and the keys are counted and
returned in that one form.  A streaming run keeps no nodes, so memory
stays flat in the depth; a run with ``retain`` set also returns the
2**depth nodes of the last generation, the one an SVG draws, and drops
every earlier node once it is split.  Both execute the identical per-node
computation, so their statistics agree bit for bit.  Aggregation uses only
min/max/set-union, hence the result is independent of traversal order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import BaseAngles, check_int
from .geometry import (
    ProcedureKind,
    TriangleNode,
    bisect,
    check_scale,
    triangle_from_angles,
    triangle_from_sides,
    triangle_sides,
)

SQRT3_2 = math.sqrt(3.0) / 2.0

# Numeric-mode similarity keys round each angle times _KEY_SCALE, that is
# to NUMERIC_KEY_QUANTUM_DEG degrees: far below the angle separation of any
# supported run, far above accumulated float error at the permitted depths.
# 1 / 1e9 is the double 1e-9, while 1 / 1e-9 is not the double 1e9.
_KEY_SCALE = 1e9
NUMERIC_KEY_QUANTUM_DEG = 1 / _KEY_SCALE

MAX_DEPTH_STREAMING = 40
# A run that retains nodes keeps 2**depth of them: at most 2**14 = 16384
# polygons, the most an SVG draws.
MAX_RENDER_GENERATION = 14


class RunMode:
    EXACT_BASE = "exact-base"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class RefinementRun:
    """Configuration of one refinement run.

    Exactly one of ``base`` (exact angles) or ``sides`` must be given;
    ``sides`` must pass ``triangle_sides`` and are kept as a tuple of
    floats in the order given.  ``scale`` is the initial longest side for
    angle input, kept as the float ``check_scale`` accepts; side input is
    used as given.  ``retain`` keeps the last generation's nodes (depth at
    most ``MAX_RENDER_GENERATION``; ``MAX_DEPTH_STREAMING`` without it).
    """

    kind: ProcedureKind
    depth: int
    base: BaseAngles | None = None
    sides: tuple[float, float, float] | None = None
    retain: bool = False
    scale: float = 1.0

    @property
    def mode(self) -> str:
        """Exact-base when base angles drive the largest-angle procedure,
        whose splits stay in their dyadic span; numeric otherwise."""
        if self.base is not None and self.kind is ProcedureKind.LARGEST_ANGLE:
            return RunMode.EXACT_BASE
        return RunMode.NUMERIC

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ProcedureKind):
            raise ValueError(f"unknown procedure {self.kind!r}")
        check_int(self.depth, "depth")
        if (self.base is None) == (self.sides is None):
            raise ValueError("exactly one of base angles or sides must be given")
        if self.base is not None and not isinstance(self.base, BaseAngles):
            raise ValueError(f"base must be a BaseAngles, got {self.base!r}")
        if not isinstance(self.retain, bool):
            raise ValueError(f"retain must be a bool, got {self.retain!r}")
        limit, name = ((MAX_RENDER_GENERATION, "final-generation")
                       if self.retain else (MAX_DEPTH_STREAMING, "streaming"))
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        if self.depth > limit:
            raise ValueError(
                f"depth {self.depth} exceeds the {name} limit of {limit}")
        object.__setattr__(self, "scale", check_scale(self.scale))
        if self.sides is not None:
            sides = tuple(self.sides)
            triangle_sides(sides)
            object.__setattr__(self, "sides", tuple(map(float, sides)))

    def root(self) -> TriangleNode:
        """The base angles' triangle with longest side ``scale``, or the sides'."""
        if self.base is not None:
            return triangle_from_angles(self.base, scale=self.scale)
        return triangle_from_sides(*self.sides)


@dataclass
class GenerationStats:
    """Aggregates over the 2**n triangles of one generation."""

    n: int
    triangle_count: int
    mesh: float
    min_angle_deg: Fraction | float
    min_largest_angle_deg: Fraction | float
    max_aspect_ratio: float
    rho: float | None
    cumulative_similarity_classes: int


@dataclass
class RefinementResult:
    """Statistics of one run, plus the last generation's nodes if retained.

    ``nodes`` holds the 2**depth nodes of the last generation in lineage
    order for a retaining run, and is ``None`` for a streaming run.

    ``key_sets[g]`` holds generation g's similarity keys, the only form
    they take.  In numeric mode a key is the sorted angle triple, each a
    whole number of ``NUMERIC_KEY_QUANTUM_DEG``.  In exact-base mode it is
    one int: with the run's scale ``run.base.units(run.depth + 1)[1]``,
    the sorted angles lo <= mid <= hi in units of 1/scale degrees and
    M = 180 * scale their sum, the key is ``lo * M + mid`` (hi is
    M - lo - mid).
    """

    run: RefinementRun
    stats: list[GenerationStats]
    nodes: list[TriangleNode] | None
    key_sets: list[set] = field(repr=False)


def refine(run: RefinementRun) -> RefinementResult:
    """Run the refinement and collect per-generation statistics.

    One depth-first loop serves every procedure and both modes.  A stack
    entry is a node, its generation and its angles in vertex order; the
    children's angles come from the procedure's angle algebra, not from
    coordinates: an angle bisection gives (A/2, B, A/2+C), an altitude
    split (90, B, 90-B).  Only the longest-edge split, whose foot angles
    are new, measures them: ``bisect`` hands over those measured from the
    vectors it formed as ``_split_angles``, which the loop moves onto the
    stack and deletes, so a retained node holds its geometry only.  The
    modes differ in values fixed once per run:

    * exact-base: ints in units of 1/(q * 2**(depth+1)) degrees, q the
      common denominator of the base angles, so halving is a shift; the
      split vertex is the first largest angle, by integer equality; a key
      packs the two smaller ints into one (see ``RefinementResult``); the
      angle minima become ``Fraction``s at the end.
    * numeric: floats in degrees, within a few ulp of the true angles at
      any supported depth; the split vertex is opposite the first longest
      side; keys round each angle to ``NUMERIC_KEY_QUANTUM_DEG``.

    Each node's sides are read from ``_sides``, which every node carries
    from the moment the constructor or ``bisect`` makes it; the longest
    side is found by the same compare chain as the mesh.

    The class keys are a streaming run's memory, so generation n's new
    classes are counted without a union of every key: a generation that
    shares no key with any earlier one (each ``isdisjoint`` test allocates
    nothing) adds its size, and only one that repeats a key is copied to
    take the set difference.

    Aborts with a ``DegenerateTriangleError`` naming the lineage path if a
    split ever produces a numerically collinear child, so a run that
    returns has walked the whole tree and generation n's
    ``triangle_count`` is ``2**n`` by construction.
    """
    depth = run.depth
    kind = run.kind
    largest = kind is ProcedureKind.LARGEST_ANGLE
    altitude = kind is ProcedureKind.SHORTEST_ALTITUDE
    retain = run.retain
    exact = run.mode == RunMode.EXACT_BASE
    root = run.root()
    if exact:
        (a0, a1, a2), scale = run.base.units(depth + 1)
        key_base = 180 * scale
    else:
        a0, a1, a2 = (root.angles_deg() if run.base is None
                      else map(float, run.base.as_tuple()))

    mesh = [0.0] * (depth + 1)
    max_aspect = [0.0] * (depth + 1)
    min_angle: list = [math.inf] * (depth + 1)
    min_largest: list = [math.inf] * (depth + 1)
    key_sets: list[set] = [set() for _ in range(depth + 1)]
    nodes: list[TriangleNode] | None = [] if retain else None
    stack = [(root, 0, a0, a1, a2)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, g, v0, v1, v2 = pop()
        s0, s1, s2 = node._sides
        longest = s0 if s0 >= s1 else s1
        if s2 > longest:
            longest = s2
        if longest > mesh[g]:
            mesh[g] = longest
        r = longest / (s0 + s1 + s2 - longest)
        if r > max_aspect[g]:
            max_aspect[g] = r
        # The sorted angles by compare-swaps; rounding is monotone, so the
        # numeric key keeps their order.
        if v0 <= v1:
            lo, hi = v0, v1
        else:
            lo, hi = v1, v0
        if v2 < lo:
            lo, mid = v2, lo
        elif v2 > hi:
            mid, hi = hi, v2
        else:
            mid = v2
        if lo < min_angle[g]:
            min_angle[g] = lo
        if hi < min_largest[g]:
            min_largest[g] = hi
        if exact:
            key_sets[g].add(lo * key_base + mid)
        else:
            key_sets[g].add((round(lo * _KEY_SCALE), round(mid * _KEY_SCALE),
                             round(hi * _KEY_SCALE)))
        if g < depth:
            g += 1  # the children's generation
            # Exact angles split at the first largest one; numeric runs at
            # the vertex opposite the first longest side, the rule of
            # ``longest_side_vertex``, which carries the largest angle.
            if (hi == v0) if exact else (s0 == longest):
                ia, va, vb, vc = 0, v0, v1, v2
            elif (hi == v1) if exact else (s1 == longest):
                ia, va, vb, vc = 1, v1, v2, v0
            else:
                ia, va, vb, vc = 2, v2, v0, v1
            left, right = bisect(node, kind, ia)
            if largest:
                half = va >> 1 if exact else va / 2.0
                push((right, g, half, half + vb, vc))
                push((left, g, half, vb, half + vc))
            elif altitude:
                push((right, g, 90.0 - vc, 90.0, vc))
                push((left, g, 90.0 - vb, vb, 90.0))
            else:
                push((right, g) + right._split_angles)
                push((left, g) + left._split_angles)
                # The angles now ride on the stack: a retained leaf keeps
                # its geometry only.
                del left._split_angles, right._split_angles
        elif retain:
            # Left children are popped first, so the last generation
            # arrives in lineage order.
            nodes.append(node)

    if exact:
        # Only the angle aggregates become exact rational degrees; the keys
        # stay packed ints.
        min_angle = [Fraction(x, scale) for x in min_angle]
        min_largest = [Fraction(x, scale) for x in min_largest]
    stats: list[GenerationStats] = []
    cumulative = 0
    for n in range(depth + 1):
        # The keys new in generation n; a union of every key would be a
        # second copy of key_sets.  A generation disjoint from every
        # earlier one, as every generation of a generic exact base is, is
        # all new, and ``isdisjoint`` allocates nothing.
        keys = key_sets[n]
        if all(map(keys.isdisjoint, key_sets[:n])):
            cumulative += len(keys)
        else:
            cumulative += len(keys.difference(*key_sets[:n]))
        rho = (max(max_aspect[n], max_aspect[n + 1], SQRT3_2)
               if n < depth else None)
        stats.append(GenerationStats(
            n=n,
            triangle_count=2 ** n,
            mesh=mesh[n],
            min_angle_deg=min_angle[n],
            min_largest_angle_deg=min_largest[n],
            max_aspect_ratio=max_aspect[n],
            rho=rho,
            cumulative_similarity_classes=cumulative,
        ))
    return RefinementResult(run=run, stats=stats, nodes=nodes,
                            key_sets=key_sets)


def split_units(units: tuple[int, int, int]
                ) -> tuple[int, tuple[int, int, int], tuple[int, int, int]]:
    """(ia, left, right) for a largest-angle split of exact angles ``units``:
    ``ia`` is the first vertex of the largest angle, as in ``refine`` with a
    tie window of 0, and (A, B, C) counted from it become (A/2, B, A/2 + C)
    and (A/2, A/2 + B, C) in ``bisect``'s vertex order, at the parent's
    scale; ``BaseAngles.units(depth + 1)`` allows depth splits.  An odd
    largest angle is refused: halving it would need a finer scale."""
    ia = units.index(max(units))
    if units[ia] & 1:
        raise ValueError(f"largest angle {units[ia]} is odd: the units "
                         "allow no further split")
    half = units[ia] >> 1
    vb, vc = units[(ia + 1) % 3], units[(ia + 2) % 3]
    return ia, (half, vb, half + vc), (half, half + vb, vc)


def carrier_units(base: BaseAngles, depth: int
                  ) -> tuple[list[tuple[int, int, int]], int]:
    """The carrier's angles for generations 1 .. depth as integers, and
    their scale: ``base.units(depth + 1)``'s, a refine's of that depth.

    The carrier is the child that keeps the vertex labeled gamma at every
    split; a triangle's largest angle is never the kept gamma corner, so
    the lineage is well defined.  Each row is (major, minor, kept) in units
    of 1/scale degrees, where major >= minor are the two mutable angles and
    kept is the angle the walk holds at the gamma corner.  The walk builds
    no triangles, so a collinear float root is no obstacle: it splits
    integers by ``split_units`` and follows gamma by index.
    """
    check_int(depth, "depth", 0)
    units, scale = base.units(depth + 1)
    rows: list[tuple[int, int, int]] = []
    i_gamma = 2  # the root's vertex order is (alpha, beta, gamma)
    for n in range(1, depth + 1):
        ia, left, right = split_units(units)
        # Left is (A, B, foot) and right is (A, foot, C).
        if i_gamma == (ia + 1) % 3:
            units, i_gamma = left, 1
        elif i_gamma == (ia + 2) % 3:
            units, i_gamma = right, 2
        else:
            raise RuntimeError(f"carrier lineage lost at generation {n}")
        major, minor = sorted((units[0], units[3 - i_gamma]), reverse=True)
        rows.append((major, minor, units[i_gamma]))
    return rows, scale


def track_carrier(run: RefinementRun) -> list[tuple[Fraction, Fraction, Fraction]]:
    """``carrier_units`` of an exact-base run, in degrees: per generation
    1 .. depth, (major, minor, kept) exactly.  They match
    ``carrier_angle_forms(n)`` evaluated at the base, and kept is gamma."""
    if run.mode != RunMode.EXACT_BASE:
        raise ValueError("carrier tracking requires exact-base mode")
    rows, scale = carrier_units(run.base, run.depth)
    return [tuple(Fraction(x, scale) for x in row) for row in rows]
