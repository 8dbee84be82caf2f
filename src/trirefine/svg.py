"""Render one generation of a refinement tree as a standalone SVG file.

The drawing is deterministic: polygons appear in the order given (``refine``
hands over the drawn generation in lineage order), floats are written with
shortest round-trip repr, and the same input always produces a
byte-identical file.  The y axis is flipped so the apex points up, matching
the mathematical orientation of the construction.  Each distinct printed
coordinate value is formatted once, whichever vertices and axes share it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .geometry import TriangleNode, node_coordinates, positive_float

_MARGIN_FRACTION = 0.02
_STROKE_FRACTION = 0.002


class _FloatText(dict):
    """float -> its repr, formatted on first use.  A zero is not stored:
    0.0 == -0.0 and they hash alike, but they print differently."""

    def __missing__(self, value: float) -> str:
        text = repr(value)
        if value:
            self[value] = text
        return text


def render_svg(nodes: Sequence[TriangleNode], path: str,
               stroke_reference: float) -> None:
    """Write the triangles (one generation) to ``path``, one polygon each
    in the order given.

    ``nodes`` must be a non-empty ``Sequence``: the viewBox pass and the
    polygon pass each read it once, so an iterator would draw nothing.
    The viewBox fits the union of the triangles (the initial triangle, which
    the generation tiles) with a 2% margin.  Stroke width is 0.2% of
    ``stroke_reference`` (the initial longest side), which must be a
    positive finite real number.  Bad arguments are refused before the
    file is opened.
    """
    if not isinstance(nodes, Sequence):
        raise ValueError(
            f"nodes must be a sequence, got {type(nodes).__name__}")
    if not nodes:
        raise ValueError("nothing to render: empty generation")
    stroke = _STROKE_FRACTION * positive_float(
        stroke_reference, "stroke_reference must be a positive finite number")
    # One compare pass over the nodes' coordinates.  Of extremes that
    # differ only in a zero's sign it keeps the first; the text below is
    # the same, as the span, so the margin, is positive.
    xmin = ymin = math.inf
    xmax = ymax = -math.inf
    for ax, ay, bx, by, cx, cy in map(node_coordinates, nodes):
        if ax < xmin:
            xmin = ax
        if ax > xmax:
            xmax = ax
        if bx < xmin:
            xmin = bx
        if bx > xmax:
            xmax = bx
        if cx < xmin:
            xmin = cx
        if cx > xmax:
            xmax = cx
        if ay < ymin:
            ymin = ay
        if ay > ymax:
            ymax = ay
        if by < ymin:
            ymin = by
        if by > ymax:
            ymax = by
        if cy < ymin:
            ymin = cy
        if cy > ymax:
            ymax = cy
    span = max(xmax - xmin, ymax - ymin)
    margin = _MARGIN_FRACTION * span

    # Flip y inside the bounding box so screen-down SVG shows apex-up.
    flip = ymin + ymax

    tail = f'" fill="none" stroke="black" stroke-width="{stroke!r}"/>\n'
    # Keyed by the printed value, x or flip - y: neighbouring triangles
    # share vertices, and vertices share coordinates.
    text = _FloatText()

    with open(path, "w", encoding="ascii") as handle:
        write = handle.write
        write('<svg xmlns="http://www.w3.org/2000/svg" '
              f'viewBox="{xmin - margin!r} {ymin - margin!r} '
              f'{xmax - xmin + 2 * margin!r} {ymax - ymin + 2 * margin!r}">\n')
        for ax, ay, bx, by, cx, cy in map(node_coordinates, nodes):
            write(f'<polygon points="{text[ax]},{text[flip - ay]} '
                  f'{text[bx]},{text[flip - by]} '
                  f'{text[cx]},{text[flip - cy]}{tail}')
        write("</svg>\n")
