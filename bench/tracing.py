"""Boundary tracing for the benchmark's per-layer metrics.

The traced run replaces public names with timing wrappers in the namespace
of the module that *calls* them: the package modules bind their
dependencies with ``from .x import y``, so patching ``trirefine.geometry.bisect``
would miss the engine's calls.  Each wrapper records calls, total time and
self time (total minus the time of traced calls made inside it), plus the
work counts the layer returns.  The exact counts the closed forms predict
are asserted: a refine of depth ``d`` makes ``2^d - 1`` bisect calls and
visits ``2^(d+1) - 1`` nodes, and a render of generation ``d`` draws ``2^d``
polygons.  A mismatch is recorded and fails the operation.

The wrappers' own cost lands in the self time of the caller of the wrapped
function; ``trace.overhead_ratio`` reports the total.
"""

from __future__ import annotations

import os
import time
from collections import Counter

import trirefine
from trirefine import cli, engine, exact, geometry, verifier

BISECT = "geometry.bisect"

# (owner, attribute names, layer) for wrappers that only record time.
_TIMED = (
    (engine, ("bisect",), BISECT),
    (verifier, ("bisect",), BISECT),
    (geometry.TriangleNode, ("sides",), "geometry.sides"),
    (engine, ("triangle_from_angles", "triangle_from_sides"), "geometry.root"),
    (verifier, ("triangle_from_angles", "triangle_from_sides",
                "triangle_from_angles_deg"), "geometry.root"),
    (verifier, ("carrier_angle_forms", "check_major_angles_distinct",
                "evaluate_angle_form", "first_major_angle_collision",
                "jacobsthal"), "exact"),
    (exact.AngleForm, ("halve", "__add__"), "exact"),
    (cli, ("main",), "cli.main"),
)

# name -> unit, in the order they are reported.
LAYER_UNITS = {
    "geometry.bisect.calls": "count",
    "geometry.bisect.self_ns_per_call": "ns",
    "geometry.sides.calls": "count",
    "geometry.sides.ns_per_call": "ns",
    "geometry.root.ns_per_call": "ns",
    "engine.refine.calls": "count",
    "engine.refine.self_ns_per_node": "ns",
    "engine.refine.self_us_per_call": "us",
    "engine.nodes": "count",
    "engine.classes": "count",
    "verifier.run_suite.s": "s",
    "verifier.self_s": "s",
    "verifier.checks": "count",
    "verifier.refine.calls": "count",
    "verifier.refine.unique_ratio": "ratio",
    "exact.calls": "count",
    "exact.self_s": "s",
    "svg.render.s": "s",
    "svg.polygons": "count",
    "svg.bytes": "bytes",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    """Span totals per layer; ``install`` before a traced call, ``restore`` after."""

    units = LAYER_UNITS

    def __init__(self) -> None:
        self.spans: dict[str, list[int]] = {}  # layer -> [calls, total_ns, self_ns]
        self.work: Counter = Counter()
        self.mismatches: list[str] = []
        self._stack = [0]  # time spent in traced callees, per open span
        self._suite_keys: set = set()
        self._wrappers = []
        for owner, names, layer in _TIMED:
            for name in names:
                self._add(owner, name, layer)
        for owner in (trirefine, cli):
            self._add(owner, "refine", "engine.refine",
                      self._refine_start, self._refine_end)
        self._add(verifier, "refine", "engine.refine",
                  self._refine_start, self._verifier_refine_end)
        self._add(cli, "run_suite", "verifier.run_suite",
                  self._suite_start, self._suite_end)
        self._add(cli, "render_svg", "svg.render", None, self._render_end)

    def _add(self, owner, name, layer, before=None, after=None) -> None:
        original = getattr(owner, name)
        wrapper = self._span(layer, original, before, after)
        self._wrappers.append((owner, name, original, wrapper))

    def _span(self, layer, fn, before, after):
        stat = self.spans.setdefault(layer, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if after is not None:
                after(args, result, token)
            return result

        return traced

    def install(self) -> None:
        for owner, name, _, wrapper in self._wrappers:
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self._wrappers:
            setattr(owner, name, original)

    def _refine_start(self, args) -> int:
        return self.spans[BISECT][0]

    def _refine_end(self, args, result, bisects_before: int) -> None:
        depth = args[0].depth
        bisects = self.spans[BISECT][0] - bisects_before
        nodes = sum(s.triangle_count for s in result.stats)
        if bisects != 2 ** depth - 1:
            self.mismatches.append(
                f"refine depth {depth}: {bisects} bisect calls, expected {2 ** depth - 1}")
        if nodes != 2 ** (depth + 1) - 1:
            self.mismatches.append(
                f"refine depth {depth}: {nodes} nodes, expected {2 ** (depth + 1) - 1}")
        self.work["engine.nodes"] += nodes
        self.work["engine.classes"] += result.stats[-1].cumulative_similarity_classes

    def _verifier_refine_end(self, args, result, bisects_before: int) -> None:
        self._refine_end(args, result, bisects_before)
        run = args[0]
        self.work["verifier.refine.calls"] += 1
        self._suite_keys.add((run.kind, run.base if run.base is not None else run.sides,
                              run.depth, run.retain))

    def _suite_start(self, args) -> None:
        self._suite_keys = set()

    def _suite_end(self, args, reports, token) -> None:
        self.work["verifier.checks"] += len(reports)
        self.work["verifier.refine.unique"] += len(self._suite_keys)

    def _render_end(self, args, result, token) -> None:
        nodes, path = args[0], args[1]
        expected = 2 ** nodes[0].generation
        if len(nodes) != expected:
            self.mismatches.append(
                f"render of generation {nodes[0].generation}: {len(nodes)} polygons, "
                f"expected {expected}")
        self.work["svg.polygons"] += len(nodes)
        self.work["svg.bytes"] += os.path.getsize(path)

    def layer_metrics(self, ops: int, bytes_written: int) -> dict[str, float]:
        """Per-operation layer metrics over ``ops`` traced operations."""
        def span(layer):
            return self.spans.get(layer, (0, 0, 0))

        bisect, sides, root = span(BISECT), span("geometry.sides"), span("geometry.root")
        refine, suite, exact_ = span("engine.refine"), span("verifier.run_suite"), span("exact")
        svg, main = span("svg.render"), span("cli.main")
        work = self.work
        return {
            "geometry.bisect.calls": bisect[0] / ops,
            "geometry.bisect.self_ns_per_call": _ratio(bisect[2], bisect[0]),
            "geometry.sides.calls": sides[0] / ops,
            "geometry.sides.ns_per_call": _ratio(sides[1], sides[0]),
            "geometry.root.ns_per_call": _ratio(root[1], root[0]),
            "engine.refine.calls": refine[0] / ops,
            "engine.refine.self_ns_per_node": _ratio(refine[2], work["engine.nodes"]),
            "engine.refine.self_us_per_call": _ratio(refine[2], refine[0]) / 1e3,
            "engine.nodes": work["engine.nodes"] / ops,
            "engine.classes": work["engine.classes"] / ops,
            "verifier.run_suite.s": suite[1] / ops / 1e9,
            "verifier.self_s": suite[2] / ops / 1e9,
            "verifier.checks": work["verifier.checks"] / ops,
            "verifier.refine.calls": work["verifier.refine.calls"] / ops,
            "verifier.refine.unique_ratio": _ratio(work["verifier.refine.unique"],
                                                   work["verifier.refine.calls"]),
            "exact.calls": exact_[0] / ops,
            "exact.self_s": exact_[2] / ops / 1e9,
            "svg.render.s": svg[1] / ops / 1e9,
            "svg.polygons": work["svg.polygons"] / ops,
            "svg.bytes": work["svg.bytes"] / ops,
            "cli.main.s": main[1] / ops / 1e9,
            "cli.self_s": main[2] / ops / 1e9,
            "cli.bytes_written": bytes_written / ops,
        }
