"""The package's public surface: ``__all__``, star import, and README."""

import re
from pathlib import Path

import trirefine

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = {
    "AngleForm", "BaseAngles", "carrier_angle_forms", "evaluate_angle_form",
    "first_major_angle_collision", "jacobsthal",
    "DegenerateTriangleError", "Point2", "ProcedureKind", "TriangleNode",
    "bisect", "longest_side_vertex", "triangle_from_angles",
    "triangle_from_sides",
    "GenerationStats", "RefinementResult", "RefinementRun", "RunMode",
    "refine", "track_carrier",
    "render_svg",
    "CheckReport", "random_valid_base", "replay_margin", "run_suite",
}


def test_all_lists_each_name_once():
    assert len(trirefine.__all__) == len(set(trirefine.__all__))


def test_all_is_the_documented_surface():
    assert set(trirefine.__all__) == PUBLIC_NAMES


def test_every_listed_name_resolves():
    missing = [name for name in trirefine.__all__ if not hasattr(trirefine, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from trirefine import *", namespace)
    assert set(trirefine.__all__) <= set(namespace)


def test_readme_library_section_documents_every_public_name():
    # A name is documented when a code span in the section starts with it:
    # `name`, `name(...)` or `name.attribute`.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    documented = {m.group() for span in re.findall(r"`([^`]+)`", section)
                  if (m := re.match(r"\w+", span))}
    assert sorted(set(trirefine.__all__) - documented) == []
