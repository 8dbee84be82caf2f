"""Tests for the command-line interface and the SVG renderer."""

import csv
import gc
import json
import math
import random
from fractions import Fraction

import pytest

from trirefine import cli, verifier
from trirefine.cli import main
from trirefine.engine import (
    SQRT3_2,
    ProcedureKind,
    RefinementRun,
    refine,
)
from trirefine.exact import BaseAngles, carrier_angle_forms, evaluate_angle_form
from trirefine.geometry import DegenerateTriangleError, Point2, TriangleNode
from trirefine.svg import render_svg

R2_EQUILATERAL = math.sin(math.radians(52.5)) / math.cos(math.radians(7.5))
# Valid exact angles whose float root is collinear.
COLLINEAR_ROOT_ANGLES = ("1799999999999999/10000000000000,"
                         "1/20000000000000,1/20000000000000")


class TestRefineCommand:
    def test_equilateral_json(self, tmp_path):
        out = tmp_path / "out.json"
        code = main(["refine", "--angles", "60/1,60/1,60/1",
                     "--procedure", "largest-angle", "--iterations", "10",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["procedure"] == "largest-angle"
        rows = payload["generations"]
        assert len(rows) == 11
        assert rows[2]["max_aspect_ratio"] == pytest.approx(
            R2_EQUILATERAL, abs=1e-9)
        assert rows[1]["min_angle_deg_exact"] == "30"
        assert rows[10]["rho"] is None
        for row in rows:
            assert list(row)[:8] == [
                "n", "triangle_count", "mesh", "min_angle_deg",
                "min_largest_angle_deg", "max_aspect_ratio", "rho",
                "cumulative_similarity_classes"]

    def test_right_isosceles_svg(self, tmp_path):
        out = tmp_path / "mesh.svg"
        code = main(["refine", "--angles", "90/1,45/1,45/1",
                     "--iterations", "6", "--svg", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.count("<polygon") == 64
        assert text.startswith('<svg xmlns="http://www.w3.org/2000/svg"')

    def test_pythagorean_altitude_csv(self, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["refine", "--sides", "3,4,5",
                     "--procedure", "shortest-altitude", "--iterations", "4",
                     "--csv", str(out)])
        assert code == 0
        with out.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "triangle_count", "mesh", "min_angle_deg",
                           "min_largest_angle_deg", "max_aspect_ratio", "rho",
                           "cumulative_similarity_classes"]
        assert len(rows) == 6
        for row in rows[2:]:  # generations 1..4
            assert int(row[7]) <= 2
        assert rows[5][6] == ""  # no rho for the last generation

    def test_svg_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["refine", "--angles", "60,60,60",
                         "--iterations", "5", "--svg", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scale_applies_to_angles(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["refine", "--angles", "60,60,60", "--iterations", "1",
                     "--scale", "2.0", "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["generations"][0]["mesh"] == pytest.approx(2.0)
        assert payload["input"]["scale"] == 2.0

    def test_side_input_reports_default_scale(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["refine", "--sides", "3,4,5", "--iterations", "1",
                     "--json", str(out)]) == 0
        assert json.loads(out.read_text())["input"]["scale"] == 1.0


class TestInputErrors:
    # Rows that every input front end shares are in BAD_INPUTS below.

    def test_bad_angle_sum(self, capsys):
        assert main(["refine", "--angles", "90,45,46", "--iterations", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: angles must sum to 180 degrees exactly, got "
            "90 + 46 + 45\n")

    def test_missing_input(self, capsys):
        assert main(["refine", "--iterations", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: exactly one of base angles or sides must be given\n")

    def test_both_inputs(self, capsys):
        assert main(["refine", "--angles", "60,60,60", "--sides", "3,4,5",
                     "--iterations", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: exactly one of base angles or sides must be given\n")

    def test_malformed_rational(self, capsys):
        assert main(["refine", "--angles", "60,60,sixty",
                     "--iterations", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot parse angles '60,60,sixty': "
            "Invalid literal for Fraction: 'sixty'\n")

    def test_zero_angle(self, capsys):
        assert main(["refine", "--angles", "90,90,0", "--iterations", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: angles must satisfy alpha >= beta >= gamma > 0, "
            "got (90, 90, 0)\n")

    def test_depth_over_limit(self, capsys):
        assert main(["refine", "--angles", "60,60,60",
                     "--iterations", "99"]) == 2
        assert capsys.readouterr().err == (
            "error: depth 99 exceeds the streaming limit of 40\n")

    def test_svg_depth_over_render_limit(self, tmp_path, capsys):
        # The library refuses the retaining run before any output is staged.
        assert main(["refine", "--angles", "60,60,60", "--iterations", "15",
                     "--svg", str(tmp_path / "x.svg")]) == 2
        assert capsys.readouterr().err == (
            "error: depth 15 exceeds the final-generation limit of 14\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code, message", [
        (["refine", "--angles", "60,60,60", "--iterations", "2",
          "--scale", "nan"], 2, "error: scale must be"),
        (["refine", "--angles", "60,60,60", "--iterations", "2",
          "--scale", "inf"], 2, "error: scale must be"),
        (["refine", "--sides", "nan,1,1", "--iterations", "2"], 2,
         "error: sides must be"),
        (["refine", "--sides", "1e308,1e308,1e308", "--iterations", "2"], 3,
         "geometry error"),
        (["refine", "--angles", "60,60,60", "--iterations", "2",
          "--json", "{bad}"], 2, "error: cannot write {bad}"),
        (["refine", "--angles", "60,60,60", "--iterations", "2",
          "--csv", "{bad}"], 2, "error: cannot write {bad}"),
        (["refine", "--angles", "60,60,60", "--iterations", "2",
          "--svg", "{bad}"], 2, "error: cannot write {bad}"),
        (["verify", "--depth", "4", "--sweep", "1", "--report", "{bad}"], 2,
         "error: cannot write {bad}"),
        (["verify", "--report", "{bad}"], 2, "error: cannot write {bad}"),
        (["refine", "--angles", "80,60,40", "--iterations", "3",
          "--json", "{ok}", "--csv", "{bad}"], 2, "error: cannot write {bad}"),
        (["refine", "--sides", "1e308,1e308,1e308", "--iterations", "2",
          "--json", "{ok}"], 3, "geometry error"),
        (["refine", "--sides", "1,1,1", "--iterations", "2", "--scale", "2",
          "--json", "{ok}"], 2, "error: --scale applies only to --angles"),
        (["refine", "--angles", "60,60,60", "--iterations", "3",
          "--svg", "{ok}", "--json", "{ok}"], 2, "error: cannot write {ok}"),
        (["refine", "--angles", "60,60,60", "--iterations", "2",
          "--scale", "1e-300"], 3, "geometry error: longest side 1e-300 is "
         "too small: squared lengths underflow\n"),
        (["refine", "--sides", "1e-200,1e-200,1e-200", "--iterations", "2"],
         3, "geometry error: longest side 1e-200 is too small: squared "
         "lengths underflow\n"),
        (["compare", "--angles", "60,60,60", "--iterations", "2",
          "--csv", "{bad}"], 2, "error: cannot write {bad}"),
        # A root above the floor whose children shrink below it.
        (["refine", "--angles", "60,60,60", "--scale", "1e-153",
          "--procedure", "longest-edge", "--iterations", "14"], 3,
         "squared lengths underflow\n"),
    ])
    def test_bad_numbers_and_outputs(self, tmp_path, capsys, monkeypatch,
                                     argv, code, message):
        bad = str(tmp_path / "no-such-directory" / "out")
        ok = str(tmp_path / "ok.json")
        started = []
        for name in ("refine", "run_suite"):
            def record(*args, _run=getattr(cli, name), **kwargs):
                started.append(name)
                return _run(*args, **kwargs)
            monkeypatch.setattr(cli, name, record)
        assert main([a.format(bad=bad, ok=ok) for a in argv]) == code
        assert message.format(bad=bad, ok=ok) in capsys.readouterr().err
        # An unwritable output path fails before the run starts, and a
        # failed command leaves no output or temp file behind.
        if "cannot write" in message:
            assert started == []
        assert list(tmp_path.iterdir()) == []

    def test_smallest_scale_runs(self, capsys):
        assert main(["refine", "--angles", "60,60,60", "--scale", "1e-153",
                     "--iterations", "4"]) == 0
        assert capsys.readouterr().err == ""

    def test_geometry_error_exit_code(self, capsys, monkeypatch):
        # Fault-inject the refinement to pin the exit-code mapping apart
        # from any particular geometry.  Real inputs that end here are
        # covered by test_thin_input_geometry_error and, for coordinates
        # that overflow, by test_bad_numbers_and_outputs.
        def boom(run):
            raise DegenerateTriangleError("injected failure at lineage '01'")
        monkeypatch.setattr("trirefine.cli.refine", boom)
        assert main(["refine", "--angles", "60,60,60", "--iterations", "2"]) == 3
        assert "geometry error" in capsys.readouterr().err

    @pytest.mark.parametrize("angles, iterations, lineage", [
        ("178,1,1", 10, "001010101"),
        ("170,5,5", 20, "0000000000101010101"),
    ])
    def test_thin_input_geometry_error(self, capsys, angles, iterations,
                                       lineage):
        # Valid thin input: under shortest-altitude some lineages shrink by
        # about sin(smallest angle) per split while their coordinates stay
        # near the root's, until the relative-area test can no longer tell
        # them from collinear.  A documented limit (README, exit codes);
        # pinned here so the failing node cannot move unnoticed.
        code = main(["refine", "--angles", angles, "--procedure",
                     "shortest-altitude", "--iterations", str(iterations)])
        assert code == 3
        assert capsys.readouterr().err == (
            "geometry error: shortest-altitude bisection produced a "
            f"degenerate child at depth {iterations} (parent lineage "
            f"{lineage!r})\n")

    @pytest.mark.parametrize("command", ["refine", "classes", "compare"])
    def test_collinear_float_root_geometry_error(self, capsys, command):
        # A documented limit (README, exit codes): these commands build the
        # float root, which is collinear for this valid exact base, so they
        # exit 3 although classes and angles are exact.  upsilon walks
        # integers only and runs (TestUpsilonCommand).
        code = main([command, "--angles", COLLINEAR_ROOT_ANGLES,
                     "--iterations", "3"])
        out, err = capsys.readouterr()
        assert (code, out) == (3, "")
        assert err.startswith(
            "geometry error: collinear vertices (lineage '')")


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["verify", "--depth", "4", "--sweep", "10", "--seed", "1",
                     "--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out
        payload = json.loads(report.read_text())
        assert payload["all_pass"] is True
        assert payload["sweep_size"] == 10
        assert {c["name"] for c in payload["checks"]} >= {
            "bisector-length-bound", "min-angle-equals-min-gamma-half-alpha"}

    def test_bad_depth(self, capsys):
        assert main(["verify", "--depth", "2", "--sweep", "5",
                     "--report", "r.json"]) == 2

    @pytest.mark.parametrize("argv, err", [
        (["--depth", "3"], "error: depth must be at least 4\n"),
        (["--depth", "41", "--sweep", "1"],
         "error: depth 41 exceeds the streaming limit of 40\n"),
        (["--sweep", "0"], "error: sweep_size must be at least 1\n"),
    ])
    def test_bad_arguments(self, tmp_path, capsys, monkeypatch, argv, err):
        # Refused as input before the report is staged or any check runs.
        monkeypatch.setattr(cli, "run_suite", None)
        report = tmp_path / "report.json"
        assert main(["verify", *argv, "--report", str(report)]) == 2
        assert capsys.readouterr() == ("", err)
        assert list(tmp_path.iterdir()) == []

    def test_geometry_error_in_a_check_exit_code(self, tmp_path, capsys,
                                                 monkeypatch):
        # A check that meets a degenerate triangle is a geometry error
        # (exit 3), not invalid input, and leaves no report behind.
        def boom(spec, runs):
            raise DegenerateTriangleError("injected")
        name, check = next(iter(verifier._CHECKS.items()))
        monkeypatch.setitem(verifier._CHECKS, name, check._replace(margin=boom))
        report = tmp_path / "report.json"
        assert main(["verify", "--depth", "4", "--sweep", "1",
                     "--report", str(report)]) == 3
        assert capsys.readouterr().err == "geometry error: injected\n"
        assert list(tmp_path.iterdir()) == []


class TestUpsilonCommand:
    def test_equilateral_track(self, tmp_path):
        out = tmp_path / "u.json"
        code = main(["upsilon", "--angles", "60,60,60", "--iterations", "3",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        rows = payload["generations"]
        assert rows[0]["major_exact"] == "90"
        assert rows[1]["major_exact"] == "75"
        assert rows[2]["major_exact"] == "165/2"
        assert rows[0]["kept_exact"] == "60"

    def test_collinear_float_root(self, capsys):
        # Valid exact angles whose float root is collinear: the carrier is
        # tracked on exact angles alone, so its rows are the closed form.
        base = BaseAngles(*map(Fraction, COLLINEAR_ROOT_ANGLES.split(",")))
        with pytest.raises(DegenerateTriangleError):
            RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=3,
                          base=base).root()
        assert main(["upsilon", "--angles", COLLINEAR_ROOT_ANGLES,
                     "--iterations", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for n, row in enumerate(rows, start=1):
            major, minor = (evaluate_angle_form(form, base)
                            for form in carrier_angle_forms(n))
            index, got_major, _, got_minor, _, got_kept = row.split()
            assert (index, got_major, got_minor, got_kept) == (
                str(n), str(major), str(minor), str(base.gamma))

    def test_unsorted_labels_are_sorted(self, capsys):
        assert main(["upsilon", "--angles", "45,90,45", "--iterations", "2"]) == 0
        assert "90" in capsys.readouterr().out


class TestClassesCommand:
    def test_right_isosceles_single_class(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(["classes", "--angles", "90,45,45", "--iterations", "8",
                     "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["quantization_deg"] is None
        assert all(row["cumulative_similarity_classes"] == 1
                   for row in payload["generations"])

    def test_numeric_quantization_reported(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        code = main(["classes", "--sides", "3,4,5", "--procedure",
                     "shortest-altitude", "--iterations", "4",
                     "--json", str(out)])
        assert code == 0
        assert "quantized to 1e-09 degrees" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["quantization_deg"] == pytest.approx(1e-9)


class TestMeshDecayScript:
    """``compare`` parses its input as ``refine`` does and exits as it does."""

    @pytest.mark.parametrize("argv, code, err", [
        (["--angles", "60,60", "--iterations", "12"], 2,
         "error: expected three comma-separated angles, e.g. 60/1,60/1,60/1\n"),
        (["--sides", "1,1,5", "--iterations", "12"], 2,
         "error: sides (1.0, 1.0, 5.0) do not form a triangle\n"),
        (["--angles", "60,60,60", "--iterations", "-1"], 2,
         "error: depth must be non-negative\n"),
        (["--sides", "3,4,inf", "--iterations", "12"], 2,
         "error: sides must be positive finite numbers\n"),
        (["--angles", "60,60,60", "--sides", "3,4,5", "--iterations", "12"], 2,
         "error: exactly one of base angles or sides must be given\n"),
        (["--iterations", "2"], 2,
         "error: exactly one of base angles or sides must be given\n"),
        # The pinned shortest-altitude thin-input limit
        # (test_thin_input_geometry_error).
        (["--angles", "178,1,1", "--iterations", "12"], 3,
         "geometry error: shortest-altitude bisection produced a degenerate "
         "child at depth 12 (parent lineage '00000010101')\n"),
    ])
    def test_bad_input_exit_codes(self, capsys, argv, code, err):
        assert (main(["compare", *argv]), *capsys.readouterr()) == (code, "", err)

    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "decay.csv"
        assert main(["compare", "--sides", "3,4,5", "--iterations", "3",
                     "--csv", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("start: sides 3,4,5   depth 3   rho0 = ")
        assert lines[-1] == f"wrote {out}"
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "n" and len(rows) == 5

    def test_depth_zero(self, capsys):
        # rho0 needs generation 1: a depth-0 table has none to print.
        assert main(["compare", "--angles", "60,60,60", "--iterations", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "start: angles 60,60,60   depth 0   rho0 = n/a"
        assert len(lines) == 4

    @pytest.mark.parametrize("depth", [0, 5])
    @pytest.mark.parametrize("source, run_input", [
        (["--angles", "80,60,40", "--scale", "3.7"],
         dict(base=BaseAngles(80, 60, 40), scale=3.7)),
        (["--sides", "1.3,1.7,1.5"], dict(sides=(1.3, 1.7, 1.5))),
    ], ids=["angles-scale", "sides"])
    def test_longest_edge_bound_starts_at_its_mesh(self, tmp_path, capsys,
                                                   source, run_input, depth):
        # The longest-edge bound scales the largest-angle run's mesh(0).
        # Every procedure builds the same root, so at generation 0 the
        # bound is the longest-edge mesh itself.
        out = tmp_path / "decay.csv"
        assert main(["compare", *source, "--iterations", str(depth),
                     "--csv", str(out)]) == 0
        capsys.readouterr()
        with out.open(newline="") as handle:
            row = next(csv.DictReader(handle))
        le = refine(RefinementRun(kind=ProcedureKind.LONGEST_EDGE,
                                  depth=depth, **run_input)).stats
        assert row["n"] == "0"
        assert row["longest_edge_bound"] == row["longest_edge_mesh"]
        assert float(row["longest_edge_mesh"]) == le[0].mesh

    @pytest.mark.parametrize("base, sides", [
        (BaseAngles(80, 60, 40), None),
        (None, (1.3, 1.7, 1.5)),
    ])
    def test_csv_rows_are_refine_stats(self, tmp_path, capsys, base, sides):
        # Each row holds, per generation, the streaming refine statistics
        # of the three procedures, and the envelopes hold.
        source = (["--angles", "80,60,40"] if base is not None
                  else ["--sides", "1.3,1.7,1.5"])
        out = tmp_path / "decay.csv"
        assert main(["compare", *source, "--iterations", "8",
                     "--csv", str(out)]) == 0
        capsys.readouterr()
        la, le, sa = (refine(RefinementRun(kind=kind, depth=8, base=base,
                                           sides=sides)).stats
                      for kind in ProcedureKind)
        with out.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 9
        for n, row in enumerate(rows):
            assert int(row["n"]) == n
            assert float(row["largest_angle_mesh"]) == la[n].mesh
            assert float(row["min_angle_deg"]) == float(la[n].min_angle_deg)
            assert (int(row["cumulative_classes"])
                    == la[n].cumulative_similarity_classes)
            assert float(row["longest_edge_mesh"]) == le[n].mesh
            assert float(row["shortest_altitude_mesh"]) == sa[n].mesh
            assert float(row["largest_angle_bound"]) == (
                la[0].mesh * la[0].rho ** (n // 2))
            assert float(row["longest_edge_bound"]) == (
                la[0].mesh * SQRT3_2 ** (n // 2))
            assert la[n].mesh <= float(row["largest_angle_bound"])
            assert le[n].mesh <= float(row["longest_edge_bound"])


# One row per input rule: (input options, depth, exit code, stderr).  The
# library owns each rule, so every front end reports it with the same code
# and the same line.
BAD_INPUTS = {
    "bad-sum": (["--angles", "90,45,46"], "2", 2,
                "error: angles must sum to 180 degrees exactly, got "
                "90 + 46 + 45\n"),
    "zero-angle": (["--angles", "90,90,0"], "2", 2,
                   "error: angles must satisfy alpha >= beta >= gamma > 0, "
                   "got (90, 90, 0)\n"),
    "malformed-rational": (["--angles", "60,60,sixty"], "2", 2,
                           "error: cannot parse angles '60,60,sixty': "
                           "Invalid literal for Fraction: 'sixty'\n"),
    "non-triangle-sides": (["--sides", "1,1,5"], "2", 2,
                           "error: sides (1.0, 1.0, 5.0) do not form a "
                           "triangle\n"),
    "flat-sides": (["--sides", "1,2,3"], "2", 2,
                   "error: sides (1.0, 2.0, 3.0) do not form a triangle\n"),
    "nan-side": (["--sides", "nan,1,1"], "2", 2,
                 "error: sides must be positive finite numbers\n"),
    "both-inputs": (["--angles", "60,60,60", "--sides", "3,4,5"], "2", 2,
                    "error: exactly one of base angles or sides must be "
                    "given\n"),
    "neither-input": ([], "2", 2,
                      "error: exactly one of base angles or sides must be "
                      "given\n"),
    "negative-depth": (["--angles", "60,60,60"], "-1", 2,
                       "error: depth must be non-negative\n"),
    # upsilon's closed form needs no limit, but every front end keeps it.
    "depth-over-limit": (["--angles", "60,60,60"], "41", 2,
                         "error: depth 41 exceeds the streaming limit of "
                         "40\n"),
    "malformed-side": (["--sides", "1,x,2"], "1", 2,
                       "error: cannot parse sides '1,x,2': could not convert "
                       "string to float: 'x'\n"),
    # The side text is converted as given: float's message keeps the space.
    "spaced-malformed-side": (["--sides", "1, x,2"], "1", 2,
                              "error: cannot parse sides '1, x,2': could not "
                              "convert string to float: ' x'\n"),
    "two-sides": (["--sides", "1,2"], "1", 2,
                  "error: expected three comma-separated side lengths, "
                  "e.g. 3,4,5\n"),
}

# upsilon takes --angles only, so it runs the rows that give angles alone.
BAD_INPUT_CASES = [
    (front, row) for row, (options, *_) in BAD_INPUTS.items()
    for front in ("refine", "classes", "upsilon", "compare")
    if front != "upsilon" or "--angles" in options and "--sides" not in options
]


@pytest.mark.parametrize("front, row", BAD_INPUT_CASES,
                         ids=[f"{front}-{row}" for front, row in BAD_INPUT_CASES])
def test_bad_input_same_on_every_front_end(capsys, front, row):
    options, depth, code, err = BAD_INPUTS[row]
    got = (main([front, *options, "--iterations", depth]), *capsys.readouterr())
    assert got == (code, "", err)


def join_render_svg(nodes, path, stroke_reference=None):
    """The SVG writer as first written: every vertex formatted where it is
    used, the document joined in memory and written at once."""
    ordered = sorted(nodes, key=lambda n: n.lineage)
    xs = [p.x for n in ordered for p in n.vertices]
    ys = [p.y for n in ordered for p in n.vertices]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    margin = 0.02 * max(xmax - xmin, ymax - ymin)
    if stroke_reference is None:
        stroke_reference = max(max(n.sides()) for n in ordered)
    stroke = 0.002 * stroke_reference
    flip = ymin + ymax
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{xmin - margin!r} {ymin - margin!r} '
        f'{xmax - xmin + 2 * margin!r} {ymax - ymin + 2 * margin!r}">'
    ]
    for node in ordered:
        pts = " ".join(f"{p.x!r},{flip - p.y!r}" for p in node.vertices)
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="black" '
            f'stroke-width="{stroke!r}"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


class TestRenderSvg:
    def run_retained(self, depth):
        return refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                    depth=depth, base=BaseAngles(60, 60, 60),
                                    retain=True))

    def test_single_polygon_at_depth_zero(self, tmp_path):
        result = self.run_retained(0)
        out = tmp_path / "root.svg"
        render_svg(result.nodes, str(out), result.stats[0].mesh)
        assert out.read_text().count("<polygon") == 1

    def test_eight_polygons_at_depth_three(self, tmp_path):
        result = self.run_retained(3)
        out = tmp_path / "g3.svg"
        render_svg(result.nodes, str(out), result.stats[0].mesh)
        assert out.read_text().count("<polygon") == 8

    def test_viewbox_margin_and_stroke(self, tmp_path):
        result = self.run_retained(2)
        out = tmp_path / "g2.svg"
        render_svg(result.nodes, str(out),
                   stroke_reference=result.stats[0].mesh)
        text = out.read_text()
        # 2% margin around the unit-based equilateral: x starts at -0.02.
        assert 'viewBox="-0.02 ' in text
        assert 'stroke-width="0.002"' in text
        assert 'fill="none"' in text

    def test_render_limit(self, tmp_path, monkeypatch):
        # The limit belongs to the run: a retaining run deeper than an SVG
        # draws is refused before anything is drawn.
        drawn = []
        monkeypatch.setattr(cli, "render_svg",
                            lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="final-generation limit of 14"):
            self.run_retained(15)
        svg = tmp_path / "x.svg"
        assert main(["refine", "--angles", "60,60,60", "--iterations", "15",
                     "--svg", str(svg)]) == 2
        assert drawn == [] and not svg.exists()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg([], str(tmp_path / "x.svg"), 1.0)

    @pytest.mark.parametrize("stroke_reference",
                             [-1.0, 0.0, math.inf, math.nan, "1", None, True])
    def test_bad_stroke_reference_rejected(self, tmp_path, stroke_reference):
        # Refused before the file is opened, by the geometry's rule for a
        # positive finite real number.
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="^stroke_reference must be a "
                           "positive finite number$"):
            render_svg(self.run_retained(1).nodes, str(out), stroke_reference)
        assert not out.exists()

    @pytest.mark.parametrize("wrap", [iter, lambda nodes: (n for n in nodes)],
                             ids=["iterator", "generator"])
    def test_non_sequence_rejected(self, tmp_path, wrap):
        # The viewBox pass would consume an iterator and leave a drawing
        # with no polygon: refused before the file is opened.
        out = tmp_path / "x.svg"
        with pytest.raises(ValueError, match="^nodes must be a sequence, "
                           "got (list_iterator|generator)$"):
            render_svg(wrap(self.run_retained(3).nodes), str(out), 1.0)
        assert not out.exists()

    def test_polygons_in_given_order(self, tmp_path):
        # No sort: reversed nodes give reversed polygon lines under the same
        # header.
        nodes = self.run_retained(3).nodes
        forward, backward = tmp_path / "forward.svg", tmp_path / "backward.svg"
        render_svg(nodes, str(forward), 1.0)
        render_svg(nodes[::-1], str(backward), 1.0)
        head, *polygons, tail = forward.read_text().splitlines()
        assert len(polygons) == 8 and len(set(polygons)) == 8
        assert backward.read_text().splitlines() == [head, *polygons[::-1], tail]

    @pytest.mark.parametrize("kind", list(ProcedureKind))
    def test_matches_join_writer(self, tmp_path, kind):
        result = refine(RefinementRun(kind=kind, depth=8, sides=(1.3, 1.7, 1.5),
                                      retain=True))
        # The root mesh, and the longest side of the drawn triangles.
        for stroke_reference in (max(max(n.sides()) for n in result.nodes),
                                 result.stats[0].mesh):
            render_svg(result.nodes, str(tmp_path / "new.svg"),
                       stroke_reference=stroke_reference)
            join_render_svg(result.nodes, str(tmp_path / "old.svg"),
                            stroke_reference=stroke_reference)
            assert ((tmp_path / "new.svg").read_bytes()
                    == (tmp_path / "old.svg").read_bytes())

    def test_signed_zero_vertices_keep_their_repr(self, tmp_path):
        # 0.0 == -0.0 and they hash alike, but they print differently: a
        # vertex cache keyed by value would write one for the other.
        def node(vertices, lineage):
            return TriangleNode(tuple(Point2(x, y) for x, y in vertices),
                                lineage=lineage)

        nodes = [node(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)), "0"),
                 node(((-0.0, 0.0), (0.0, 1.0), (-1.0, 0.5)), "1")]
        render_svg(nodes, str(tmp_path / "new.svg"), 1.0)
        join_render_svg(nodes, str(tmp_path / "old.svg"), 1.0)
        text = (tmp_path / "new.svg").read_text()
        assert text == (tmp_path / "old.svg").read_text()
        assert 'points="-0.0,' in text

    def test_equal_values_share_text_but_signed_zeros_do_not(self, tmp_path):
        # Twelve vertices: some with equal nonzero values, which may share
        # one formatted text, and pairs that differ only in the sign of a
        # zero coordinate, which must not.
        def node(vertices, lineage):
            return TriangleNode(tuple(Point2(x, y) for x, y in vertices),
                                lineage=lineage)

        triangles = (((0.0, 2.0), (1.5, 2.0), (1.5, 0.0)),
                     ((-0.0, 2.0), (1.5, -0.0), (3.0, 1.0)),
                     ((1.5, 2.0), (3.0, 1.0), (2.5, 3.0)),
                     ((1.5, 0.0), (3.0, 1.0), (2.5, 3.0)))
        nodes = [node(v, lineage)
                 for v, lineage in zip(triangles, ("00", "01", "10", "11"))]
        points = [p for n in nodes for p in n.vertices]
        assert ([tuple(map(repr, p)) for p in points]
                == [tuple(map(repr, p)) for v in triangles for p in v])
        assert len(points) == 12 and len(set(points)) == 5
        assert {math.copysign(1.0, x) for p in points for x in p
                if x == 0} == {1.0, -1.0}
        render_svg(nodes, str(tmp_path / "new.svg"), 1.0)
        join_render_svg(nodes, str(tmp_path / "old.svg"), 1.0)
        text = (tmp_path / "new.svg").read_text()
        assert text == (tmp_path / "old.svg").read_text()
        assert 'points="0.0,' in text and 'points="-0.0,' in text

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_join_writer_on_shared_coordinates(self, tmp_path, seed):
        # Random triangles on a small grid of values: distinct points share
        # x or y values, 0.0 and -0.0 occur on both axes, and some vertices
        # are the previous triangle's own objects.  The first triangle fixes
        # y from -1.0 to 3.0, so a vertex at y == 2.0 == ymin + ymax prints
        # its flipped y as 0.0.
        rng = random.Random(seed)
        pool = (0.0, -0.0, 0.5, -1.0, 1.25, 2.0, 3.0, 1 / 3)
        nodes = [TriangleNode((Point2(0.5, -1.0), Point2(1.25, 3.0),
                               Point2(-0.0, 2.0)), lineage=f"{0:08b}")]
        while len(nodes) < 64:
            vertices = tuple(
                rng.choice(nodes[-1].vertices) if rng.random() < 0.3
                else Point2(rng.choice(pool), rng.choice(pool))
                for _ in range(3))
            try:
                nodes.append(TriangleNode(vertices,
                                          lineage=f"{len(nodes):08b}"))
            except DegenerateTriangleError:
                continue
        render_svg(nodes, str(tmp_path / "new.svg"), 1.0)
        join_render_svg(nodes, str(tmp_path / "old.svg"), 1.0)
        text = (tmp_path / "new.svg").read_bytes()
        assert text == (tmp_path / "old.svg").read_bytes()
        assert b'points="0.0,' in text and b'points="-0.0,' in text
        assert b",0.0 " in text or b',0.0"' in text


class TestCollectorPause:
    """``main`` pauses the cyclic garbage collector for the command and puts
    it back as the caller had it, however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def enabled(self, request):
        """The caller's setting, put back after the test."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, code", [
        (["refine", "--angles", "60,60,60", "--iterations", "4"], 0),
        (["refine", "--angles", "90,46,45", "--iterations", "4"], 2),
        (["refine", "--angles", "178,1,1", "--procedure", "shortest-altitude",
          "--iterations", "10"], 3),
    ], ids=["exit-0", "exit-2", "exit-3"])
    def test_restored_after_exit_code(self, capsys, enabled, argv, code):
        assert main(argv) == code
        assert gc.isenabled() is enabled

    def test_restored_after_exception(self, monkeypatch, enabled):
        seen = []

        def boom(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "_cmd_refine", boom)
        with pytest.raises(RuntimeError, match="boom"):
            main(["refine", "--angles", "60,60,60", "--iterations", "1"])
        assert seen == [False]
        assert gc.isenabled() is enabled

    # The premise of the pause: a command leaves the same cyclic garbage
    # whatever its size, so pausing cannot let memory grow with the work.
    # The count itself depends on argparse and the Python version, so only
    # the two sizes are compared.
    @pytest.mark.parametrize("enabled", [False], indirect=True,
                             ids=["disabled"])
    @pytest.mark.parametrize("command, sizes", [
        (["refine", "--sides", "1.3,1.7,1.5", "--procedure", "longest-edge",
          "--svg", "f.svg", "--json", "g.json", "--iterations"], (2, 12)),
        (["verify", "--depth", "4", "--report", "report.json", "--sweep"],
         (1, 20)),
    ], ids=["refine-depth", "verify-sweep"])
    def test_garbage_does_not_grow_with_size(self, tmp_path, monkeypatch,
                                             capsys, enabled, command, sizes):
        monkeypatch.chdir(tmp_path)
        counts = []
        for size in sizes:
            gc.collect()
            assert main([*command, str(size)]) == 0
            counts.append(gc.collect())
        assert counts[0] == counts[1]
