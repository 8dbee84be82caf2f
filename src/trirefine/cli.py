"""Command-line front end.

Subcommands:

* ``refine``  -- run a refinement and emit per-generation statistics as a
  table, JSON, CSV, and/or an SVG drawing of the final generation.
* ``verify``  -- run the verification suite and write its report.
* ``upsilon`` -- print the exact angles of the triangle that keeps the
  smallest starting angle through every generation.
* ``classes`` -- print cumulative similarity-class counts per generation.
* ``compare`` -- tabulate mesh decay under all three procedures against the
  largest-angle envelope ``mesh(0) * rho0**(n // 2)`` and the longest-edge
  bound ``mesh(0) * (sqrt(3)/2)**(n // 2)``, optionally as CSV.

Exit codes: 0 success, 2 invalid input (including non-finite numbers and
unwritable output paths), 3 degenerate geometry (including finite input
whose squared lengths overflow or underflow); ``verify`` exits 1 when a
check fails (the report is still written).  Input text is only split into
numbers here; the library checks the values, and its messages are shown.

Each command runs with Python's cyclic garbage collector paused (see
``main``); the library functions it calls leave the collector alone.

Output files are checked before the run starts and written atomically:
each goes to a temp file beside it that replaces it only once the whole
command has succeeded, so a failed run leaves no output file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import gc
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .engine import (
    NUMERIC_KEY_QUANTUM_DEG,
    SQRT3_2,
    GenerationStats,
    ProcedureKind,
    RefinementResult,
    RefinementRun,
    RunMode,
    refine,
    track_carrier,
)
from .exact import BaseAngles
from .geometry import DegenerateTriangleError
from .svg import render_svg
from .verifier import check_suite_args, report_as_dict, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3

STATS_FIELDS = tuple(f.name for f in dataclasses.fields(GenerationStats))
# The statistics that are Fractions in exact mode: written as floats, and
# in exact mode also as "p/q" strings under "<name>_exact".
_ANGLE_FIELDS = ("min_angle_deg", "min_largest_angle_deg")


class InputError(ValueError):
    """Invalid command-line input (maps to exit code 2)."""


def _parse_three(text: str, noun: str, expected: str, convert) -> tuple:
    """``text`` as three comma-separated numbers, each ``convert``ed."""
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"expected three comma-separated {expected}")
    try:
        return tuple(convert(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse {noun} {text!r}: {exc}") from None


def _build_run(args, retain: bool = False) -> RefinementRun:
    """The run the input options describe.  Only the text is parsed here:
    ``BaseAngles`` and ``RefinementRun`` check the values, and their
    ``ValueError`` becomes an ``InputError``.  The one rule left to the
    command line is that ``--scale`` goes with ``--angles``, since a run
    cannot tell a default scale of 1.0 from a given one."""
    try:
        base = None if args.angles is None else BaseAngles.from_unordered(
            *_parse_three(args.angles, "angles", "angles, e.g. 60/1,60/1,60/1",
                          lambda p: Fraction(p.strip())))
        sides = None if args.sides is None else _parse_three(
            args.sides, "sides", "side lengths, e.g. 3,4,5", float)
        run = RefinementRun(kind=ProcedureKind(args.procedure),
                            depth=args.iterations, base=base, sides=sides,
                            retain=retain,
                            scale=1.0 if args.scale is None else args.scale)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    if run.sides is not None and args.scale is not None:
        raise InputError("--scale applies only to --angles input; "
                         "--sides are used as given")
    return run


@contextlib.contextmanager
def _writing(path: str):
    """Report a failure to write an output file as invalid input."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from None


class _Output(NamedTuple):
    """An output file as named on the command line, and the file written in
    its place until the command succeeds."""

    path: str
    temp: str


def _stage(path: str) -> str:
    """Create the file written in place of ``path``: a new temp file beside
    it, or ``path`` itself when that is an existing device or pipe (such as
    /dev/stdout), which cannot be replaced."""
    with _writing(path):
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.exists(path) and not os.path.isfile(path):
            return path
        head, name = os.path.split(os.path.realpath(path))
        temp = os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
        os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    return temp


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """Stage a command's output files, one ``_Output`` per path (``None``
    for an option not given), before the command does its work.

    An unwritable path, or a file named by two outputs (one would silently
    replace the other), thus fails up front.  The temp files replace their
    outputs only when the block completes; otherwise they are removed, so
    a failed run leaves no output file behind.
    """
    outputs: list[_Output | None] = []
    targets: set[str] = set()
    try:
        for path in paths:
            out = None if path is None else _Output(path, _stage(path))
            outputs.append(out)
            if out is not None and out.temp != out.path:
                target = os.path.realpath(path)
                if target in targets:
                    raise InputError(
                        f"cannot write {path}: another output names the same file")
                targets.add(target)
        yield outputs
        for out in outputs:
            if out is not None and out.temp != out.path:
                with _writing(out.path):
                    os.replace(out.temp, os.path.realpath(out.path))
    finally:
        for out in outputs:
            if out is not None and out.temp != out.path:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(out.temp)


def _write_json(out: _Output, payload: dict) -> None:
    with _writing(out.path), open(out.temp, "w", encoding="ascii") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _stats_row(stats: GenerationStats, exact: bool) -> dict:
    row = {name: getattr(stats, name) for name in STATS_FIELDS}
    for name in _ANGLE_FIELDS:
        row[name] = float(row[name])
    if exact:
        for name in _ANGLE_FIELDS:
            row[f"{name}_exact"] = str(getattr(stats, name))
    return row


def _input_dict(run: RefinementRun) -> dict:
    return {
        "angles": ([str(x) for x in run.base.as_tuple()]
                   if run.base is not None else None),
        "sides": list(run.sides) if run.sides is not None else None,
        "scale": run.scale,
        "iterations": run.depth,
        "mode": run.mode,
    }


def _result_json(result: RefinementResult) -> dict:
    exact = result.run.mode == RunMode.EXACT_BASE
    return {
        "input": _input_dict(result.run),
        "procedure": result.run.kind.value,
        "generations": [_stats_row(s, exact) for s in result.stats],
    }


def _write_csv(out: _Output, header, rows) -> None:
    with _writing(out.path), \
            open(out.temp, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _print_stats_table(result: RefinementResult) -> None:
    print(f"procedure: {result.run.kind.value}   mode: {result.run.mode}")
    header = (f"{'n':>3} {'count':>8} {'mesh':>12} {'min_angle':>12} "
              f"{'min_largest':>12} {'max_aspect':>12} {'rho':>12} {'classes':>8}")
    print(header)
    for s in result.stats:
        rho = f"{s.rho:12.9f}" if s.rho is not None else " " * 12
        print(f"{s.n:>3} {s.triangle_count:>8} {s.mesh:12.9f} "
              f"{float(s.min_angle_deg):12.7f} "
              f"{float(s.min_largest_angle_deg):12.7f} "
              f"{s.max_aspect_ratio:12.9f} {rho} "
              f"{s.cumulative_similarity_classes:>8}")


def _cmd_refine(args) -> int:
    run = _build_run(args, retain=args.svg is not None)
    with _outputs(args.json, args.csv, args.svg) as (json_out, csv_out, svg_out):
        result = refine(run)
        _print_stats_table(result)
        if json_out:
            _write_json(json_out, _result_json(result))
        if csv_out:
            _write_csv(csv_out, STATS_FIELDS,
                       (_stats_row(s, exact=False).values()
                        for s in result.stats))
        if svg_out:
            with _writing(svg_out.path):
                render_svg(result.nodes, svg_out.temp,
                           stroke_reference=result.stats[0].mesh)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # Only the arguments are input; an error inside a check keeps its code.
    try:
        check_suite_args(args.depth, args.sweep, args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    with _outputs(args.report) as (report_out,):
        reports = run_suite(depth=args.depth, sweep_size=args.sweep,
                            seed=args.seed)
        payload = report_as_dict(reports, args.depth, args.sweep, args.seed)
        _write_json(report_out, payload)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name} (population {r.population}, "
              f"worst margin {r.worst_margin:+.3e}, tolerance {r.tolerance:g})")
    print(f"report written to {args.report}")
    return EXIT_OK if payload["all_pass"] else 1


def _cmd_upsilon(args) -> int:
    run = _build_run(args)
    with _outputs(args.json) as (json_out,):
        track = track_carrier(run)
        rows = []
        print(f"{'n':>3} {'major':>14} {'deg':>9} {'minor':>14} {'deg':>9} "
              f"{'kept':>10}")
        for n, (major, minor, kept) in enumerate(track, start=1):
            print(f"{n:>3} {str(major):>14} {float(major):9.4f} "
                  f"{str(minor):>14} {float(minor):9.4f} {str(kept):>10}")
            rows.append({
                "n": n,
                "major_deg": float(major), "major_exact": str(major),
                "minor_deg": float(minor), "minor_exact": str(minor),
                "kept_deg": float(kept), "kept_exact": str(kept),
            })
        if json_out:
            payload = {"input": {"angles": [str(x) for x in run.base.as_tuple()],
                                 "iterations": args.iterations},
                       "generations": rows}
            _write_json(json_out, payload)
    return EXIT_OK


def _cmd_classes(args) -> int:
    run = _build_run(args)
    with _outputs(args.json) as (json_out,):
        result = refine(run)
        exact = run.mode == RunMode.EXACT_BASE
        quantum = None if exact else NUMERIC_KEY_QUANTUM_DEG
        if quantum is not None:
            print(f"numeric mode: classes quantized to {quantum:g} degrees")
        print(f"{'n':>3} {'cumulative_classes':>20}")
        for s in result.stats:
            print(f"{s.n:>3} {s.cumulative_similarity_classes:>20}")
        if json_out:
            payload = {
                "input": _input_dict(run),
                "procedure": run.kind.value,
                "quantization_deg": quantum,
                "generations": [
                    {"n": s.n,
                     "cumulative_similarity_classes": s.cumulative_similarity_classes}
                    for s in result.stats
                ],
            }
            _write_json(json_out, payload)
    return EXIT_OK


def _cmd_compare(args) -> int:
    run = _build_run(args)
    with _outputs(args.csv) as (csv_out,):
        la, le, sa = (refine(dataclasses.replace(run, kind=kind)).stats
                      for kind in ProcedureKind)
        m0, rho0 = la[0].mesh, la[0].rho
        # All runs share one root, so m0 is every mesh(0); rho0 needs
        # generation 1, so at depth 0 the largest-angle bound is m0 itself.
        rho0_text = "n/a" if rho0 is None else f"{rho0:.9f}"
        start = (f"angles {args.angles}" if args.angles is not None
                 else f"sides {args.sides}")
        print(f"start: {start}   depth {run.depth}   rho0 = {rho0_text}")
        header = (f"{'n':>3} | {'LA mesh':>11} {'bound':>11} {'min ang':>8} "
                  f"{'cls':>5} | {'LE mesh':>11} {'bound':>11} | {'SA mesh':>11}")
        print(header)
        print("-" * len(header))
        rows = []
        for n, (la_row, le_row, sa_row) in enumerate(zip(la, le, sa)):
            la_bound = m0 if n == 0 else m0 * rho0 ** (n // 2)
            le_bound = m0 * SQRT3_2 ** (n // 2)
            print(f"{n:>3} | {la_row.mesh:11.8f} {la_bound:11.8f} "
                  f"{float(la_row.min_angle_deg):8.4f} "
                  f"{la_row.cumulative_similarity_classes:>5} | "
                  f"{le_row.mesh:11.8f} {le_bound:11.8f} | {sa_row.mesh:11.8f}")
            rows.append([n, la_row.mesh, la_bound, float(la_row.min_angle_deg),
                         la_row.cumulative_similarity_classes, le_row.mesh,
                         le_bound, sa_row.mesh])
        if csv_out:
            _write_csv(csv_out, ["n", "largest_angle_mesh", "largest_angle_bound",
                                 "min_angle_deg", "cumulative_classes",
                                 "longest_edge_mesh", "longest_edge_bound",
                                 "shortest_altitude_mesh"], rows)
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trirefine",
        description="Triangle refinement by largest-angle bisection, with "
                    "longest-edge and shortest-altitude reference procedures.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_options(p):
        p.add_argument("--angles", metavar="A,B,C",
                       help="three exact angles in degrees, each 'p/q' or an "
                            "integer; labels are sorted descending")
        p.add_argument("--sides", metavar="X,Y,Z",
                       help="three side lengths (numeric mode)")
        p.add_argument("--iterations", type=int, required=True,
                       help="number of bisection generations")
        p.add_argument("--scale", type=float, default=None,
                       help="initial longest side for angle input (default 1.0)")

    p_refine = sub.add_parser("refine", help="run a refinement and emit statistics")
    add_input_options(p_refine)
    p_refine.add_argument("--procedure", choices=[k.value for k in ProcedureKind],
                          default=ProcedureKind.LARGEST_ANGLE.value)
    p_refine.add_argument("--json", metavar="PATH", help="write statistics as JSON")
    p_refine.add_argument("--csv", metavar="PATH", help="write statistics as CSV")
    p_refine.add_argument("--svg", metavar="PATH",
                          help="draw the final generation as SVG")
    p_refine.set_defaults(func=_cmd_refine)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--depth", type=int, default=8)
    p_verify.add_argument("--sweep", type=int, default=1000,
                          help="random bases in the sweep")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--report", metavar="PATH", default="verify-report.json",
                          help="report file (always written)")
    p_verify.set_defaults(func=_cmd_verify)

    p_upsilon = sub.add_parser(
        "upsilon",
        help="angles of the triangle that keeps the smallest starting angle")
    p_upsilon.add_argument("--angles", metavar="A,B,C", required=True)
    p_upsilon.add_argument("--iterations", type=int, required=True)
    p_upsilon.add_argument("--json", metavar="PATH")
    p_upsilon.set_defaults(func=_cmd_upsilon,
                           procedure=ProcedureKind.LARGEST_ANGLE.value,
                           sides=None, scale=None)

    p_classes = sub.add_parser(
        "classes", help="cumulative similarity-class counts per generation")
    add_input_options(p_classes)
    p_classes.add_argument("--procedure", choices=[k.value for k in ProcedureKind],
                           default=ProcedureKind.LARGEST_ANGLE.value)
    p_classes.add_argument("--json", metavar="PATH")
    p_classes.set_defaults(func=_cmd_classes)

    p_compare = sub.add_parser(
        "compare",
        help="mesh decay of the three procedures against their bounds")
    add_input_options(p_compare)
    p_compare.add_argument("--csv", metavar="PATH", help="write the table as CSV")
    p_compare.set_defaults(func=_cmd_compare,
                           procedure=ProcedureKind.LARGEST_ANGLE.value)

    return parser


def main(argv=None) -> int:
    """Run a command and return its exit code, reporting invalid input
    (exit 2) and degenerate geometry (exit 3) on stderr.

    The command runs with the cyclic garbage collector paused, and the
    caller's setting is restored however it ends.  A retained tree holds no
    reference cycles, yet the collector would re-scan it while it grows;
    each command leaves the same few hundred cyclic objects whatever its
    size, and its own data is freed by reference counting before the
    collector resumes.  Library calls leave the collector alone."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateTriangleError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
