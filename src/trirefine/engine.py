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

In exact-base mode (largest-angle procedure from rational angles) the angle
statistics and similarity keys are exact; numeric mode quantizes angles to
1e-9 degrees for class counting.  Exact keys stay sorted triples of
integers at the run's scale while the run counts classes (one run has one
scale, so integer equality is rational equality); ``class_keys`` converts
them to (numerator, denominator) pairs on first read.  Streaming mode walks
the tree depth-first without retaining nodes, so memory stays flat in the
depth; full-tree mode additionally returns every generation (for
rendering).  Both modes execute the identical per-node computation, so
their statistics agree bit for bit.  Aggregation uses only
min/max/set-union, hence the result is independent of traversal or worker
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .exact import BaseAngles
from .geometry import (
    ANGLE_TIE_TOL_DEG,
    ProcedureKind,
    TriangleNode,
    bisect,
    exact_angle_units,
    largest_angle_vertex,
    longest_side_vertex,
    triangle_from_angles,
    triangle_from_sides,
)

SQRT3_2 = math.sqrt(3.0) / 2.0

# Numeric-mode similarity keys quantize angles to this many degrees: far
# below the angle separation of any supported run, far above accumulated
# float error at the permitted depths.
NUMERIC_KEY_QUANTUM_DEG = 1e-9
_KEY_SCALE = 1e9

MAX_DEPTH_STREAMING = 40
MAX_DEPTH_FULL_TREE = 24


class RunMode:
    EXACT_BASE = "exact-base"
    NUMERIC = "numeric"


class RetainPolicy:
    STREAMING = "streaming"
    FULL_TREE = "full-tree"


@dataclass(frozen=True)
class RefinementRun:
    """Configuration of one refinement run.

    Exactly one of ``base`` (exact angles) or ``sides`` must be given.
    ``mode`` defaults to exact-base when base angles drive the largest-angle
    procedure, numeric otherwise.  ``scale`` is the initial longest side for
    angle input; side input is used as given.
    """

    kind: ProcedureKind
    depth: int
    base: BaseAngles | None = None
    sides: tuple[float, float, float] | None = None
    mode: str | None = None
    retain: str = RetainPolicy.STREAMING
    scale: float = 1.0

    def __post_init__(self) -> None:
        if (self.base is None) == (self.sides is None):
            raise ValueError("exactly one of base angles or sides must be given")
        if self.mode is None:
            derived = (RunMode.EXACT_BASE
                       if self.base is not None
                       and self.kind is ProcedureKind.LARGEST_ANGLE
                       else RunMode.NUMERIC)
            object.__setattr__(self, "mode", derived)
        if self.mode not in (RunMode.EXACT_BASE, RunMode.NUMERIC):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == RunMode.EXACT_BASE:
            if self.base is None:
                raise ValueError("exact-base mode requires base angles")
            if self.kind is not ProcedureKind.LARGEST_ANGLE:
                raise ValueError(
                    "exact-base mode is only available for the largest-angle "
                    "procedure; the other procedures leave the exact span")
        if self.retain not in (RetainPolicy.STREAMING, RetainPolicy.FULL_TREE):
            raise ValueError(f"unknown retain policy {self.retain!r}")
        if self.depth < 0:
            raise ValueError("depth must be non-negative")
        limit = (MAX_DEPTH_FULL_TREE if self.retain == RetainPolicy.FULL_TREE
                 else MAX_DEPTH_STREAMING)
        if self.depth > limit:
            raise ValueError(
                f"depth {self.depth} exceeds the {self.retain} limit of {limit}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("scale must be a positive finite number")
        if self.sides is not None and not all(
                s > 0 and math.isfinite(s) for s in self.sides):
            raise ValueError("sides must be positive finite numbers")


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
    """Statistics of one run, plus every generation's nodes for full-tree runs.

    ``key_sets[g]`` holds generation g's similarity keys as the engine built
    them: sorted triples of angles quantized to 1e-9 degrees in numeric
    mode, or, in exact-base mode, sorted triples of integers in units of
    1/``key_scale`` degrees.  ``class_keys`` is the public form, computed on
    first read and cached.
    """

    run: RefinementRun
    stats: list[GenerationStats]
    generations: list[list[TriangleNode]] | None
    key_sets: list[set] = field(repr=False)
    key_scale: int | None = field(default=None, repr=False)

    @cached_property
    def class_keys(self) -> list[frozenset]:
        """Per-generation similarity keys.  Exact keys are tuples of
        (numerator, denominator) pairs, sorted as pairs (not by value)."""
        scale = self.key_scale
        if scale is None:
            return [frozenset(keys) for keys in self.key_sets]
        return [
            frozenset(
                tuple(sorted(Fraction(i, scale).as_integer_ratio() for i in key))
                for key in keys)
            for keys in self.key_sets
        ]


def _root_node(run: RefinementRun) -> TriangleNode:
    if run.base is not None:
        return triangle_from_angles(run.base, scale=run.scale,
                                    exact=run.mode == RunMode.EXACT_BASE)
    return triangle_from_sides(*run.sides)


class _Accumulators:
    """Per-generation aggregates; merging is min/max/union, so order-free."""

    __slots__ = ("counts", "mesh", "max_aspect", "min_angle", "min_largest",
                 "key_sets")

    def __init__(self, depth: int) -> None:
        self.counts = [0] * (depth + 1)
        self.mesh = [0.0] * (depth + 1)
        self.max_aspect = [0.0] * (depth + 1)
        self.min_angle: list = [math.inf] * (depth + 1)
        self.min_largest: list = [math.inf] * (depth + 1)
        self.key_sets: list[set] = [set() for _ in range(depth + 1)]

    def observe_shape(self, g: int, node: TriangleNode) -> None:
        s0, s1, s2 = node.sides()
        longest = s0 if s0 >= s1 else s1
        if s2 > longest:
            longest = s2
        if longest > self.mesh[g]:
            self.mesh[g] = longest
        r = longest / (s0 + s1 + s2 - longest)
        if r > self.max_aspect[g]:
            self.max_aspect[g] = r
        self.counts[g] += 1


def _assemble(run: RefinementRun, acc: _Accumulators, generations,
              key_scale: int | None = None) -> RefinementResult:
    depth = run.depth
    stats: list[GenerationStats] = []
    cumulative: set = set()
    for n in range(depth + 1):
        cumulative |= acc.key_sets[n]
        rho = (max(acc.max_aspect[n], acc.max_aspect[n + 1], SQRT3_2)
               if n < depth else None)
        stats.append(GenerationStats(
            n=n,
            triangle_count=acc.counts[n],
            mesh=acc.mesh[n],
            min_angle_deg=acc.min_angle[n],
            min_largest_angle_deg=acc.min_largest[n],
            max_aspect_ratio=acc.max_aspect[n],
            rho=rho,
            cumulative_similarity_classes=len(cumulative),
        ))
    return RefinementResult(
        run=run,
        stats=stats,
        generations=generations,
        key_sets=acc.key_sets,
        key_scale=key_scale,
    )


def _refine_exact(run: RefinementRun, full: bool) -> RefinementResult:
    """Exact-base largest-angle run.

    Every angle that appears at generation g is an integer multiple of
    1 / (q * 2**g) degrees, q being the common denominator of the base
    angles.  Mirroring the exact values as integers at the fixed scale
    q * 2**(depth+1) turns halving, adding and comparing into plain int
    ops; the engine then hands the precomputed split index to ``bisect``.
    Full-tree runs additionally keep exact angles on the retained nodes.
    """
    depth = run.depth
    base = run.base
    acc = _Accumulators(depth)
    generations = [[] for _ in range(depth + 1)] if full else None

    (u0, u1, u2), q = exact_angle_units(base.as_tuple())
    shift = depth + 1
    scale = q << shift
    root = triangle_from_angles(base, scale=run.scale, exact=full)
    stack = [(root, u0 << shift, u1 << shift, u2 << shift)]
    push = stack.append
    pop = stack.pop
    min_angle = acc.min_angle
    min_largest = acc.min_largest
    key_sets = acc.key_sets
    while stack:
        node, v0, v1, v2 = pop()
        g = node.generation
        acc.observe_shape(g, node)
        # The sorted key by compare-swaps; its ends are the smallest and
        # largest angles.
        if v0 <= v1:
            lo, hi = v0, v1
        else:
            lo, hi = v1, v0
        if v2 < lo:
            key = (v2, lo, hi)
            lo = v2
        elif v2 > hi:
            key = (lo, hi, v2)
            hi = v2
        else:
            key = (lo, v2, hi)
        if lo < min_angle[g]:
            min_angle[g] = lo
        if hi < min_largest[g]:
            min_largest[g] = hi
        key_sets[g].add(key)
        if full:
            generations[g].append(node)
        if g < depth:
            # Split the first vertex holding the largest angle.
            if v0 == hi:
                ia, vb, vc = 0, v1, v2
            elif v1 == hi:
                ia, vb, vc = 1, v2, v0
            else:
                ia, vb, vc = 2, v0, v1
            left, right = bisect(node, ProcedureKind.LARGEST_ANGLE, ia)
            half = hi >> 1
            push((right, half, half + vb, vc))
            push((left, half, vb, half + vc))

    # Only the angle aggregates become exact rational degrees here; the
    # keys stay integers until ``class_keys`` is read.
    for g in range(depth + 1):
        min_angle[g] = Fraction(min_angle[g], scale)
        min_largest[g] = Fraction(min_largest[g], scale)
    return _assemble(run, acc, generations, scale)


def _refine_numeric(run: RefinementRun, full: bool) -> RefinementResult:
    """Numeric-mode run.

    Angle statistics follow each procedure's own angle algebra rather than
    remeasuring coordinates: halving a float is exact, an angle-bisection
    child has angles (A/2, B, A/2+C), and an altitude split always produces
    (90, B, 90-B).  Coordinates accumulate error relative to the shrinking
    local scale (badly so for thin triangles), while the propagated values
    stay within a few ulp of the true angles at any supported depth, which
    keeps quantized similarity keys stable.  Only the longest-edge split,
    whose foot angles are genuinely new, measures them from the child
    coordinates.
    """
    depth = run.depth
    kind = run.kind
    acc = _Accumulators(depth)
    generations = [[] for _ in range(depth + 1)] if full else None

    root = _root_node(run)
    if run.base is not None:
        a0, a1, a2 = (float(x) for x in run.base.as_tuple())
    else:
        a0, a1, a2 = root.angles_deg()
    stack = [(root, a0, a1, a2)]
    push = stack.append
    pop = stack.pop
    min_angle = acc.min_angle
    min_largest = acc.min_largest
    key_sets = acc.key_sets
    while stack:
        node, v0, v1, v2 = pop()
        g = node.generation
        acc.observe_shape(g, node)
        # Compare-swaps; rounding is monotone, so it keeps the order.
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
        key_sets[g].add((round(lo * _KEY_SCALE), round(mid * _KEY_SCALE),
                         round(hi * _KEY_SCALE)))
        if full:
            generations[g].append(node)
        if g < depth:
            if kind is ProcedureKind.LARGEST_ANGLE:
                if hi - v0 <= ANGLE_TIE_TOL_DEG:
                    ia = 0
                    va, vb, vc = v0, v1, v2
                elif hi - v1 <= ANGLE_TIE_TOL_DEG:
                    ia = 1
                    va, vb, vc = v1, v2, v0
                else:
                    ia = 2
                    va, vb, vc = v2, v0, v1
                left, right = bisect(node, kind, ia)
                half = va / 2.0
                push((right, half, half + vb, vc))
                push((left, half, vb, half + vc))
            elif kind is ProcedureKind.SHORTEST_ALTITUDE:
                ia = longest_side_vertex(node)
                if ia == 0:
                    vb, vc = v1, v2
                elif ia == 1:
                    vb, vc = v2, v0
                else:
                    vb, vc = v0, v1
                left, right = bisect(node, kind, ia)
                push((right, 90.0 - vc, 90.0, vc))
                push((left, 90.0 - vb, vb, 90.0))
            else:
                left, right = bisect(node, kind)
                push((right,) + right.angles_deg())
                push((left,) + left.angles_deg())
    return _assemble(run, acc, generations)


def refine(run: RefinementRun) -> RefinementResult:
    """Run the refinement and collect per-generation statistics.

    Depth-first traversal with per-generation accumulators; aborts with a
    ``DegenerateTriangleError`` naming the lineage path if a split ever
    produces a numerically collinear child.  Streaming and full-tree runs
    execute the same per-node computation and report identical statistics.
    """
    full = run.retain == RetainPolicy.FULL_TREE
    if run.mode == RunMode.EXACT_BASE:
        return _refine_exact(run, full)
    return _refine_numeric(run, full)


def track_carrier(run: RefinementRun) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Angles of the carrier triangle for generations 1 .. depth, exactly.

    The carrier is the child that keeps the vertex labeled gamma at every
    split; a triangle's largest angle is never the kept gamma corner, so
    the lineage is well defined.  Each entry is (major, minor, kept) in
    degrees, where major >= minor are the two mutable angles; they match
    ``carrier_angle_forms(n)`` evaluated at the base.
    """
    if run.mode != RunMode.EXACT_BASE:
        raise ValueError("carrier tracking requires exact-base mode")
    node = _root_node(run)
    out: list[tuple[Fraction, Fraction, Fraction]] = []
    kept = run.base.gamma
    i_gamma = 2  # the root's vertex order is (alpha, beta, gamma)
    for _ in range(run.depth):
        ia = largest_angle_vertex(node)
        left, right = bisect(node, ProcedureKind.LARGEST_ANGLE, ia)
        # Left is (A, B, foot) and right is (A, foot, C).
        if i_gamma == (ia + 1) % 3:
            node, i_gamma = left, 1
        elif i_gamma == (ia + 2) % 3:
            node, i_gamma = right, 2
        else:
            raise RuntimeError(
                f"carrier lineage lost at generation {left.generation}")
        angles = node.angles_exact
        major, minor = sorted((angles[0], angles[3 - i_gamma]), reverse=True)
        out.append((major, minor, kept))
    return out
