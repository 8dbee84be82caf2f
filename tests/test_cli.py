"""Tests for the command-line interface and the SVG renderer."""

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from trirefine import cli
from trirefine.cli import main
from trirefine.engine import (
    ProcedureKind,
    RefinementRun,
    RetainPolicy,
    refine,
)
from trirefine.exact import BaseAngles
from trirefine.geometry import DegenerateTriangleError
from trirefine.svg import render_svg

R2_EQUILATERAL = math.sin(math.radians(52.5)) / math.cos(math.radians(7.5))
MESH_DECAY_SCRIPT = (Path(__file__).resolve().parent.parent / "scripts"
                     / "mesh_decay_comparison.py")


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
    def test_bad_angle_sum(self, capsys):
        assert main(["refine", "--angles", "90,45,46", "--iterations", "2"]) == 2
        assert "sum to 180" in capsys.readouterr().err

    def test_non_triangle_sides(self, capsys):
        assert main(["refine", "--sides", "1,2,3", "--iterations", "2"]) == 2
        assert "do not form a triangle" in capsys.readouterr().err

    def test_depth_over_limit(self, capsys):
        assert main(["refine", "--angles", "60,60,60",
                     "--iterations", "99"]) == 2
        assert "exceeds" in capsys.readouterr().err

    def test_svg_depth_over_render_limit(self, capsys):
        assert main(["refine", "--angles", "60,60,60", "--iterations", "15",
                     "--svg", "x.svg"]) == 2
        assert "--svg supports at most" in capsys.readouterr().err

    def test_missing_input(self, capsys):
        assert main(["refine", "--iterations", "2"]) == 2

    def test_both_inputs(self, capsys):
        assert main(["refine", "--angles", "60,60,60", "--sides", "3,4,5",
                     "--iterations", "2"]) == 2

    def test_malformed_rational(self, capsys):
        assert main(["refine", "--angles", "60,60,sixty",
                     "--iterations", "2"]) == 2

    def test_zero_angle(self, capsys):
        assert main(["refine", "--angles", "90,90,0", "--iterations", "2"]) == 2

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
    """The script parses its input through ``cli`` and exits as ``main`` does."""

    @staticmethod
    def run_script(*argv):
        return subprocess.run([sys.executable, str(MESH_DECAY_SCRIPT), *argv],
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("argv, code, err", [
        (["--angles", "60,60"], 2, "error: expected three comma-separated "
         "angles, e.g. 60/1,60/1,60/1\n"),
        (["--sides", "1,1,5"], 2,
         "error: sides '1,1,5' do not form a triangle\n"),
        (["--angles", "60,60,60", "--depth", "-1"], 2,
         "error: depth must be non-negative\n"),
        (["--sides", "3,4,inf"], 2,
         "error: sides must be positive finite numbers\n"),
        (["--angles", "60,60,60", "--sides", "3,4,5"], 2,
         "error: give either --angles or --sides, not both\n"),
        (["--depth", "2"], 2,
         "error: one of --angles or --sides is required\n"),
        # The pinned shortest-altitude thin-input limit
        # (test_thin_input_geometry_error).
        (["--angles", "178,1,1", "--depth", "12"], 3,
         "geometry error: shortest-altitude bisection produced a degenerate "
         "child at depth 12 (parent lineage '00000010101')\n"),
    ])
    def test_bad_input_exit_codes(self, argv, code, err):
        proc = self.run_script(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)

    def test_table_and_csv(self, tmp_path):
        out = tmp_path / "decay.csv"
        proc = self.run_script("--sides", "3,4,5", "--depth", "3",
                               "--csv", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("start: sides 3,4,5   depth 3   rho0 = ")
        assert lines[-1] == f"wrote {out}"
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][0] == "n" and len(rows) == 5


class TestRenderSvg:
    def run_full(self, depth):
        return refine(RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                                    depth=depth, base=BaseAngles(60, 60, 60),
                                    retain=RetainPolicy.FULL_TREE))

    def test_single_polygon_at_depth_zero(self, tmp_path):
        result = self.run_full(0)
        out = tmp_path / "root.svg"
        render_svg(result.generations[0], str(out))
        assert out.read_text().count("<polygon") == 1

    def test_eight_polygons_at_depth_three(self, tmp_path):
        result = self.run_full(3)
        out = tmp_path / "g3.svg"
        render_svg(result.generations[3], str(out))
        assert out.read_text().count("<polygon") == 8

    def test_viewbox_margin_and_stroke(self, tmp_path):
        result = self.run_full(2)
        out = tmp_path / "g2.svg"
        render_svg(result.generations[2], str(out),
                   stroke_reference=result.stats[0].mesh)
        text = out.read_text()
        # 2% margin around the unit-based equilateral: x starts at -0.02.
        assert 'viewBox="-0.02 ' in text
        assert 'stroke-width="0.002"' in text
        assert 'fill="none"' in text

    def test_render_limit(self, tmp_path):
        result = self.run_full(3)
        node = result.generations[3][0]
        node.generation = 15
        with pytest.raises(ValueError):
            render_svg([node], str(tmp_path / "x.svg"))

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            render_svg([], str(tmp_path / "x.svg"))
