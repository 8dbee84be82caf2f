"""The benchmark's workloads: seeded inputs, one operation, and its output check.

Every workload is a closed loop with one client: operation ``i + 1`` starts
only after operation ``i`` has returned and its output has been checked.
Inputs depend on the seed alone.  Operation ``i`` runs input
``i % inputs``, so a run repeats every input many times.  ``run`` is the
timed part; ``check`` runs outside the timed region and raises
``CheckFailed`` when an output breaks a property that holds for every seed.
It returns the triangles the operation visited and the bytes it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from typing import NamedTuple

import trirefine
from trirefine import cli, engine, verifier
from trirefine.engine import RefinementRun
from trirefine.exact import BaseAngles
from trirefine.geometry import ProcedureKind

RIGHT_ISOSCELES = BaseAngles(90, 45, 45)
MESH_BOUND_REL_TOL = 1e-9

# Columns of ``refine --json`` generations compared against a streaming run.
STATS_FIELDS = ("n", "triangle_count", "mesh", "min_angle_deg",
                "min_largest_angle_deg", "max_aspect_ratio", "rho",
                "cumulative_similarity_classes")


class CheckFailed(Exception):
    """An operation's output violates a property that holds for every seed."""


class Outcome(NamedTuple):
    nodes: int
    bytes_written: int


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _quiet_main(argv: list[str]) -> int:
    # Looked up at call time, so a traced run sees its wrapper.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class DeepExact:
    """Exact-base streaming ``refine`` deep enough that per-node work dominates."""

    name = "deep-exact"
    inputs = 8

    def __init__(self, rng: random.Random, smoke: bool, workdir: str) -> None:
        self.depth = 6 if smoke else 15
        self.bases = [verifier.random_valid_base(rng) for _ in range(self.inputs)]

    def run(self, i: int):
        run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE, depth=self.depth,
                            base=self.bases[i % len(self.bases)])
        return trirefine.refine(run)

    def check(self, i: int, result) -> Outcome:
        base = self.bases[i % len(self.bases)]
        stats = result.stats
        _require(len(stats) == self.depth + 1,
                 f"{len(stats)} generations, expected {self.depth + 1}")
        min_angle = min(base.gamma, base.alpha / 2)
        m0, rho0 = stats[0].mesh, stats[0].rho
        single_class = base == RIGHT_ISOSCELES
        for s in stats:
            _require(s.triangle_count == 2 ** s.n,
                     f"generation {s.n} has {s.triangle_count} triangles")
            _require(s.n == 0 or s.min_angle_deg == min_angle,
                     f"generation {s.n}: min angle {s.min_angle_deg} != "
                     f"min(gamma, alpha/2) = {min_angle} for {base}")
            bound = m0 * rho0 ** (s.n // 2)
            _require(s.mesh <= bound * (1 + MESH_BOUND_REL_TOL),
                     f"generation {s.n}: mesh {s.mesh!r} above m0*rho0^(n//2) "
                     f"= {bound!r}")
            classes = s.cumulative_similarity_classes
            _require(classes == 1 if single_class else classes >= s.n,
                     f"generation {s.n}: {classes} cumulative classes")
        return Outcome(sum(s.triangle_count for s in stats), 0)


class VerifySweep:
    """``trirefine verify`` at the CLI default depth: many shallow runs per operation."""

    name = "verify-sweep"
    inputs = 4

    def __init__(self, rng: random.Random, smoke: bool, workdir: str) -> None:
        self.depth = 4 if smoke else 8
        self.sweep = 2 if smoke else 20
        self.sweep_seeds = [rng.randrange(2 ** 31) for _ in range(self.inputs)]
        self.report = os.path.join(workdir, "verify-report.json")
        self.reference: dict[int, tuple[bytes, int]] = {}

    def _argv(self, sweep_seed: int) -> list[str]:
        return ["verify", "--depth", str(self.depth), "--sweep", str(self.sweep),
                "--seed", str(sweep_seed), "--report", self.report]

    def run(self, i: int) -> int:
        return _quiet_main(self._argv(self.sweep_seeds[i % self.inputs]))

    def check(self, i: int, exit_code: int) -> Outcome:
        _require(exit_code == 0, f"verify exited {exit_code}")
        report = _read(self.report)
        _require(json.loads(report)["all_pass"] is True, "verify report: not all_pass")
        sweep_seed = self.sweep_seeds[i % self.inputs]
        if sweep_seed not in self.reference:
            self.reference[sweep_seed] = self._counted_run(sweep_seed)
        expected, nodes = self.reference[sweep_seed]
        _require(report == expected,
                 f"verify report for sweep seed {sweep_seed} differs between runs")
        return Outcome(nodes, len(report))

    def _counted_run(self, sweep_seed: int) -> tuple[bytes, int]:
        """Repeat the run, summing the triangles of the suite's refinements."""
        original = verifier.refine
        nodes = 0

        def counting_refine(run):
            nonlocal nodes
            result = original(run)
            nodes += sum(s.triangle_count for s in result.stats)
            return result

        verifier.refine = counting_refine
        try:
            exit_code = _quiet_main(self._argv(sweep_seed))
        finally:
            verifier.refine = original
        _require(exit_code == 0, f"verify exited {exit_code}")
        return _read(self.report), nodes


class _RenderInput(NamedTuple):
    kind: ProcedureKind
    base: BaseAngles | None
    sides: tuple[float, float, float] | None

    def argv(self) -> list[str]:
        if self.base is not None:
            shape = ["--angles", ",".join(str(a) for a in self.base.as_tuple())]
        else:
            shape = ["--sides", ",".join(repr(s) for s in self.sides)]
        return shape + ["--procedure", self.kind.value]


def _random_sides(rng: random.Random) -> tuple[float, float, float]:
    # Well-shaped triangles, so no split at depth 14 comes near degeneracy.
    while True:
        sides = tuple(rng.uniform(1.0, 2.0) for _ in range(3))
        a, b, c = sorted(sides, reverse=True)
        if b + c >= 1.2 * a:
            return sides


class RenderReference:
    """Full-tree ``refine`` writing SVG, JSON and CSV: the whole tree is retained."""

    name = "render-reference"
    inputs = 3

    def __init__(self, rng: random.Random, smoke: bool, workdir: str) -> None:
        self.depth = 4 if smoke else 14
        self.specs = [
            _RenderInput(ProcedureKind.LONGEST_EDGE, None, _random_sides(rng)),
            _RenderInput(ProcedureKind.SHORTEST_ALTITUDE, None, _random_sides(rng)),
            _RenderInput(ProcedureKind.LARGEST_ANGLE, RIGHT_ISOSCELES, None),
        ]
        self.svg = os.path.join(workdir, "mesh.svg")
        self.json = os.path.join(workdir, "stats.json")
        self.csv = os.path.join(workdir, "stats.csv")
        self.svg_digests: dict[int, str] = {}
        self.expected_rows: dict[int, list[list]] = {}

    def run(self, i: int) -> int:
        spec = self.specs[i % self.inputs]
        return _quiet_main(["refine", *spec.argv(), "--iterations", str(self.depth),
                            "--svg", self.svg, "--json", self.json,
                            "--csv", self.csv])

    def check(self, i: int, exit_code: int) -> Outcome:
        k = i % self.inputs
        _require(exit_code == 0, f"refine exited {exit_code}")
        svg, stats_json, stats_csv = (_read(p) for p in (self.svg, self.json, self.csv))
        _require(svg.count(b"<polygon ") == 2 ** self.depth,
                 f"SVG does not hold 2^{self.depth} polygons")
        digest = hashlib.sha256(svg).hexdigest()
        _require(self.svg_digests.setdefault(k, digest) == digest,
                 f"SVG for input {k} differs between runs")
        generations = json.loads(stats_json)["generations"]
        rows = [[g[f] for f in STATS_FIELDS] for g in generations]
        if k not in self.expected_rows:
            self.expected_rows[k] = self._streaming_rows(self.specs[k])
        _require(rows == self.expected_rows[k],
                 f"JSON stats for input {k} differ from a streaming refine")
        _require(stats_csv.count(b"\n") == self.depth + 2,
                 "CSV does not hold a header and one row per generation")
        return Outcome(sum(g["triangle_count"] for g in generations),
                       len(svg) + len(stats_json) + len(stats_csv))

    def _streaming_rows(self, spec: _RenderInput) -> list[list]:
        run = RefinementRun(kind=spec.kind, depth=self.depth, base=spec.base,
                            sides=spec.sides)
        return [[s.n, s.triangle_count, s.mesh, float(s.min_angle_deg),
                 float(s.min_largest_angle_deg), s.max_aspect_ratio, s.rho,
                 s.cumulative_similarity_classes]
                for s in engine.refine(run).stats]


WORKLOADS = {w.name: w for w in (DeepExact, VerifySweep, RenderReference)}


def make(name: str, seed: int, smoke: bool, workdir: str):
    """Build a workload's inputs from the seed; each workload has its own stream."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), smoke, workdir)
