"""Render one generation of a refinement tree as a standalone SVG file.

The drawing is deterministic: polygons appear in the order given (``refine``
hands over the drawn generation in lineage order), floats are written with
shortest round-trip repr, and the same input always produces a
byte-identical file.  The y axis is flipped so the apex points up, matching
the mathematical orientation of the construction.
"""

from __future__ import annotations

from typing import Sequence

from .geometry import Point2, TriangleNode, positive_float

_MARGIN_FRACTION = 0.02
_STROKE_FRACTION = 0.002


def render_svg(nodes: Sequence[TriangleNode], path: str,
               stroke_reference: float) -> None:
    """Write the triangles (one generation) to ``path``, one polygon each
    in the order given.

    The viewBox fits the union of the triangles (the initial triangle, which
    the generation tiles) with a 2% margin.  Stroke width is 0.2% of
    ``stroke_reference`` (the initial longest side), which must be a
    positive finite real number.
    """
    if not nodes:
        raise ValueError("nothing to render: empty generation")
    stroke = _STROKE_FRACTION * positive_float(
        stroke_reference, "stroke_reference must be a positive finite number")
    xs = [p.x for n in nodes for p in n.vertices]
    ys = [p.y for n in nodes for p in n.vertices]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin)
    margin = _MARGIN_FRACTION * span

    # Flip y inside the bounding box so screen-down SVG shows apex-up.
    flip = ymin + ymax

    tail = f'" fill="none" stroke="black" stroke-width="{stroke!r}"/>\n'
    # Each distinct vertex is formatted once: neighbouring triangles share
    # vertices, as one object or as equal values.  A vertex with a zero
    # coordinate is not cached, because 0.0 == -0.0 (and they hash alike)
    # while their reprs differ; equal nonzero floats print alike.
    points: dict[Point2, str] = {}

    def point(p) -> str:
        text = points.get(p)
        if text is None:
            x, y = p
            text = f"{x!r},{flip - y!r}"
            if x and y:
                points[p] = text
        return text

    with open(path, "w", encoding="ascii") as handle:
        write = handle.write
        write('<svg xmlns="http://www.w3.org/2000/svg" '
              f'viewBox="{xmin - margin!r} {ymin - margin!r} '
              f'{xmax - xmin + 2 * margin!r} {ymax - ymin + 2 * margin!r}">\n')
        for node in nodes:
            a, b, c = node.vertices
            write(f'<polygon points="{point(a)} {point(b)} {point(c)}{tail}')
        write("</svg>\n")
