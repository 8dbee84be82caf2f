"""Test-side oracle for the exact angles of largest-angle bisection.

``reference_children`` is the split algebra on symbolic forms and on
``Fraction`` values, written independently of the engine's integer units;
the walks below split each node with the public ``bisect`` at the first
vertex of its largest angle, as ``split_units`` picks it in
``reference_walk`` and by reference value in ``exact_walk``.
"""

from trirefine.engine import split_units
from trirefine.exact import FORM_ALPHA, FORM_BETA, FORM_GAMMA
from trirefine.geometry import ProcedureKind, bisect, triangle_from_angles

ROOT_FORMS = (FORM_ALPHA, FORM_BETA, FORM_GAMMA)


def reference_children(forms, values, ia):
    """The exact algebra of a largest-angle split at vertex ``ia``, on
    symbolic forms and on ``Fraction`` values: children's (forms, values),
    left then right."""
    ib, ic = (ia + 1) % 3, (ia + 2) % 3
    half_form, half_value = forms[ia].halve(), values[ia] / 2
    left = ((half_form, forms[ib], half_form + forms[ic]),
            (half_value, values[ib], half_value + values[ic]))
    right = ((half_form, half_form + forms[ib], forms[ic]),
             (half_value, half_value + values[ib], values[ic]))
    return left, right


def reference_walk(base, lineage):
    """Follow ``lineage`` (a sequence of 0/1) from the root of ``base``.

    At every split, at the vertex ``split_units`` picks, yields each child
    with its reference forms and values and its angles by ``split_units``,
    in units of 1/scale degrees where ``base.units(len(lineage) + 1)``
    gives the scale; then descends into the child the lineage names.
    """
    node = triangle_from_angles(base)
    forms, values = ROOT_FORMS, base.as_tuple()
    units, _ = base.units(len(lineage) + 1)
    for bit in lineage:
        ia, *children_units = split_units(units)
        children = bisect(node, ProcedureKind.LARGEST_ANGLE, ia)
        references = reference_children(forms, values, ia)
        for child, (child_forms, child_values), child_units in zip(
                children, references, children_units):
            yield child, child_forms, child_values, child_units
        node, units = children[bit], children_units[bit]
        forms, values = references[bit]


def exact_walk(base, depth):
    """Every generation of the largest-angle tree from the root of ``base``,
    as (node, reference values) pairs."""
    generations = [[(triangle_from_angles(base), ROOT_FORMS, base.as_tuple())]]
    for _ in range(depth):
        level = []
        for node, forms, values in generations[-1]:
            ia = values.index(max(values))
            children = bisect(node, ProcedureKind.LARGEST_ANGLE, ia)
            for child, reference in zip(
                    children, reference_children(forms, values, ia)):
                level.append((child, *reference))
        generations.append(level)
    return [[(node, values) for node, _, values in level]
            for level in generations]
