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
both modes, carrying each node's three angles beside it on the stack.  In
exact-base mode (largest-angle procedure from rational angles) those angles
are integers at the run's scale q * 2**(depth+1), so the angle statistics
and similarity keys are exact; numeric mode carries floats and quantizes
them to 1e-9 degrees for class counting.  Exact keys stay sorted triples of
integers at the run's scale while the run counts classes (one run has one
scale, so integer equality is rational equality); ``class_keys`` converts
them to (numerator, denominator) pairs on first read.  Streaming mode keeps
no nodes, so memory stays flat in the depth; full-tree mode additionally
returns every generation (for rendering).  Both modes execute the identical
per-node computation, so their statistics agree bit for bit.  Aggregation
uses only min/max/set-union, hence the result is independent of traversal
or worker order.
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


def refine(run: RefinementRun) -> RefinementResult:
    """Run the refinement and collect per-generation statistics.

    One depth-first loop serves every procedure and both modes.  A stack
    entry is a node and its angles in vertex order.  Children get theirs
    from the procedure's angle algebra, not from their coordinates: an
    angle bisection gives (A/2, B, A/2+C), an altitude split (90, B, 90-B).
    Only the longest-edge split, whose foot angles are genuinely new,
    measures them.  The modes differ in values fixed once per run:

    * exact-base: ints in units of 1/(q * 2**(depth+1)) degrees, q the
      common denominator of the base angles, so halving is a shift; the
      largest angle has a tie window of 0, i.e. equality; keys are the
      sorted ints; the angle minima become ``Fraction``s at the end, and
      retained nodes get the ints as ``angle_units`` over ``angle_scale``.
    * numeric: floats in degrees, within a few ulp of the true angles at
      any supported depth; the tie window is ``ANGLE_TIE_TOL_DEG``; keys
      round each angle to ``NUMERIC_KEY_QUANTUM_DEG``.

    Aborts with a ``DegenerateTriangleError`` naming the lineage path if a
    split ever produces a numerically collinear child.
    """
    depth = run.depth
    kind = run.kind
    full = run.retain == RetainPolicy.FULL_TREE
    exact = run.mode == RunMode.EXACT_BASE
    if run.base is not None:
        root = triangle_from_angles(run.base, scale=run.scale, exact=False)
    else:
        root = triangle_from_sides(*run.sides)
    if exact:
        (a0, a1, a2), q = exact_angle_units(run.base.as_tuple())
        shift = depth + 1
        scale = q << shift
        a0, a1, a2 = a0 << shift, a1 << shift, a2 << shift
        tie = 0
    else:
        scale = None
        a0, a1, a2 = (root.angles_deg() if run.base is None
                      else map(float, run.base.as_tuple()))
        tie = ANGLE_TIE_TOL_DEG

    counts = [0] * (depth + 1)
    mesh = [0.0] * (depth + 1)
    max_aspect = [0.0] * (depth + 1)
    min_angle: list = [math.inf] * (depth + 1)
    min_largest: list = [math.inf] * (depth + 1)
    key_sets: list[set] = [set() for _ in range(depth + 1)]
    generations = [[] for _ in range(depth + 1)] if full else None
    stack = [(root, a0, a1, a2)]
    push = stack.append
    pop = stack.pop
    while stack:
        node, v0, v1, v2 = pop()
        g = node.generation
        s0, s1, s2 = node.sides()
        longest = s0 if s0 >= s1 else s1
        if s2 > longest:
            longest = s2
        if longest > mesh[g]:
            mesh[g] = longest
        r = longest / (s0 + s1 + s2 - longest)
        if r > max_aspect[g]:
            max_aspect[g] = r
        counts[g] += 1
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
            key_sets[g].add((lo, mid, hi))
        else:
            key_sets[g].add((round(lo * _KEY_SCALE), round(mid * _KEY_SCALE),
                             round(hi * _KEY_SCALE)))
        if g < depth:
            if kind is ProcedureKind.LARGEST_ANGLE:
                # Split the first vertex within the tie window of the
                # largest angle.
                if hi - v0 <= tie:
                    ia, va, vb, vc = 0, v0, v1, v2
                elif hi - v1 <= tie:
                    ia, va, vb, vc = 1, v1, v2, v0
                else:
                    ia, va, vb, vc = 2, v2, v0, v1
                left, right = bisect(node, kind, ia)
                half = va >> 1 if exact else va / 2.0
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
        if full:
            generations[g].append(node)
            if exact:  # set after the split: ``bisect`` then adds no units
                node.angle_units = (v0, v1, v2)
                node.angle_scale = scale

    if exact:
        # Only the angle aggregates become exact rational degrees here; the
        # keys stay integers until ``class_keys`` is read.
        min_angle = [Fraction(x, scale) for x in min_angle]
        min_largest = [Fraction(x, scale) for x in min_largest]
    stats: list[GenerationStats] = []
    cumulative: set = set()
    for n in range(depth + 1):
        cumulative |= key_sets[n]
        rho = (max(max_aspect[n], max_aspect[n + 1], SQRT3_2)
               if n < depth else None)
        stats.append(GenerationStats(
            n=n,
            triangle_count=counts[n],
            mesh=mesh[n],
            min_angle_deg=min_angle[n],
            min_largest_angle_deg=min_largest[n],
            max_aspect_ratio=max_aspect[n],
            rho=rho,
            cumulative_similarity_classes=len(cumulative),
        ))
    return RefinementResult(run=run, stats=stats, generations=generations,
                            key_sets=key_sets, key_scale=scale)


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
    node = triangle_from_angles(run.base, scale=run.scale)
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
