"""The benchmark's tracer against the current package.

``bench/tracing.py`` wraps package names by attribute and asserts closed-form
work counts; a renamed or removed name, or a run attribute it reads, would
otherwise fail only a traced benchmark run.  The tracer is loaded by path,
without writing bytecode, so ``bench/`` is read and never changed.
"""

import importlib.util
import sys
from pathlib import Path

import trirefine
from trirefine import cli, engine, exact, geometry, verifier
from trirefine.engine import ProcedureKind, RefinementRun
from trirefine.exact import BaseAngles

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
# Every namespace the tracer patches.
OWNERS = (trirefine, cli, engine, verifier, geometry.TriangleNode,
          exact.AngleForm)


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_runs_match_closed_forms(tmp_path, monkeypatch):
    tracer = load_tracing(monkeypatch).Tracer()
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer.install()
    try:
        assert cli.main(["verify", "--depth", "4", "--sweep", "1",
                         "--report", str(tmp_path / "report.json")]) == 0
        assert cli.main(["refine", "--angles", "80,60,40", "--iterations",
                         "3", "--svg", str(tmp_path / "out.svg")]) == 0
        result = trirefine.refine(RefinementRun(
            kind=ProcedureKind.LARGEST_ANGLE, depth=5,
            base=BaseAngles(100, 50, 30)))
    finally:
        tracer.restore()
    assert [dict(vars(owner)) for owner in OWNERS] == before
    assert tracer.mismatches == []
    assert len(result.stats) == 6
    # Each traced layer saw its calls: two commands, the suite, one
    # drawing of 2**3 polygons, and the refines inside all of them.
    assert tracer.spans["cli.main"][0] == 2
    assert tracer.spans["verifier.run_suite"][0] == 1
    assert tracer.work["svg.polygons"] == 8
    assert tracer.work["verifier.refine.calls"] > 0
    assert tracer.spans["engine.refine"][0] > tracer.work["verifier.refine.calls"]
    assert tracer.spans["geometry.bisect"][0] > 0
