"""Command-line front end.

Subcommands:

* ``refine``  -- run a refinement and emit per-generation statistics as a
  table, JSON, CSV, and/or an SVG drawing of the final generation.
* ``verify``  -- run the verification suite and write its report.
* ``upsilon`` -- print the exact angles of the triangle that keeps the
  smallest starting angle through every generation.
* ``classes`` -- print cumulative similarity-class counts per generation.

Exit codes: 0 success, 2 invalid input (including non-finite numbers and
unwritable output paths), 3 degenerate geometry (including finite input
whose coordinates overflow); ``verify`` exits 1 when a check fails (the
report is still written).

Output files are checked before the run starts and written atomically:
each goes to a temp file beside it that replaces it only once the whole
command has succeeded, so a failed run leaves no output file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import json
import math
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from .engine import (
    NUMERIC_KEY_QUANTUM_DEG,
    ProcedureKind,
    RefinementResult,
    RefinementRun,
    RetainPolicy,
    RunMode,
    refine,
    track_carrier,
)
from .exact import BaseAngles
from .geometry import DegenerateTriangleError
from .svg import MAX_RENDER_GENERATION, render_svg
from .verifier import report_as_dict, run_suite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_GEOMETRY = 3

STATS_FIELDS = ("n", "triangle_count", "mesh", "min_angle_deg",
                "min_largest_angle_deg", "max_aspect_ratio", "rho",
                "cumulative_similarity_classes")


class InputError(ValueError):
    """Invalid command-line input (maps to exit code 2)."""


def _parse_angles(text: str) -> BaseAngles:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("expected three comma-separated angles, e.g. 60/1,60/1,60/1")
    try:
        values = [Fraction(p.strip()) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse angles {text!r}: {exc}") from None
    if any(v <= 0 for v in values):
        raise InputError("angles must be positive")
    if sum(values) != 180:
        raise InputError(
            f"angles must sum to 180 degrees exactly; {text!r} sums to "
            f"{sum(values)}")
    return BaseAngles.from_unordered(*values)


def _parse_sides(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError("expected three comma-separated side lengths, e.g. 3,4,5")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InputError(f"cannot parse sides {text!r}: {exc}") from None
    if not all(v > 0 and math.isfinite(v) for v in values):
        raise InputError("sides must be positive finite numbers")
    a, b, c = sorted(values, reverse=True)
    if b + c <= a:
        raise InputError(f"sides {text!r} do not form a triangle")
    return values


def _build_run(args, retain: str) -> RefinementRun:
    kind = ProcedureKind(args.procedure)
    base = sides = None
    if args.angles is not None:
        base = _parse_angles(args.angles)
    elif args.scale is not None:
        raise InputError("--scale applies only to --angles input; "
                         "--sides are used as given")
    else:
        sides = _parse_sides(args.sides)
    scale = 1.0 if args.scale is None else args.scale
    try:
        return RefinementRun(kind=kind, depth=args.iterations, base=base,
                             sides=sides, retain=retain, scale=scale)
    except ValueError as exc:
        raise InputError(str(exc)) from None


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


def _stats_row(stats, exact: bool) -> dict:
    row = {
        "n": stats.n,
        "triangle_count": stats.triangle_count,
        "mesh": stats.mesh,
        "min_angle_deg": float(stats.min_angle_deg),
        "min_largest_angle_deg": float(stats.min_largest_angle_deg),
        "max_aspect_ratio": stats.max_aspect_ratio,
        "rho": stats.rho,
        "cumulative_similarity_classes": stats.cumulative_similarity_classes,
    }
    if exact:
        row["min_angle_deg_exact"] = str(stats.min_angle_deg)
        row["min_largest_angle_deg_exact"] = str(stats.min_largest_angle_deg)
    return row


def _input_dict(run: RefinementRun, iterations: int) -> dict:
    return {
        "angles": ([str(x) for x in run.base.as_tuple()]
                   if run.base is not None else None),
        "sides": list(run.sides) if run.sides is not None else None,
        "scale": run.scale,
        "iterations": iterations,
        "mode": run.mode,
    }


def _result_json(result: RefinementResult) -> dict:
    exact = result.run.mode == RunMode.EXACT_BASE
    return {
        "input": _input_dict(result.run, result.run.depth),
        "procedure": result.run.kind.value,
        "generations": [_stats_row(s, exact) for s in result.stats],
    }


def _write_csv(result: RefinementResult, out: _Output) -> None:
    with _writing(out.path), \
            open(out.temp, "w", newline="", encoding="ascii") as handle:
        writer = csv.writer(handle)
        writer.writerow(STATS_FIELDS)
        for s in result.stats:
            writer.writerow([
                s.n, s.triangle_count, repr(s.mesh),
                repr(float(s.min_angle_deg)),
                repr(float(s.min_largest_angle_deg)),
                repr(s.max_aspect_ratio),
                "" if s.rho is None else repr(s.rho),
                s.cumulative_similarity_classes,
            ])


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
    retain = RetainPolicy.FULL_TREE if args.svg else RetainPolicy.STREAMING
    if args.svg and args.iterations > MAX_RENDER_GENERATION:
        raise InputError(
            f"--svg supports at most {MAX_RENDER_GENERATION} iterations "
            f"(2**{MAX_RENDER_GENERATION} polygons); got {args.iterations}")
    run = _build_run(args, retain)
    with _outputs(args.json, args.csv, args.svg) as (json_out, csv_out, svg_out):
        result = refine(run)
        _print_stats_table(result)
        if json_out:
            _write_json(json_out, _result_json(result))
        if csv_out:
            _write_csv(result, csv_out)
        if svg_out:
            with _writing(svg_out.path):
                render_svg(result.generations[-1], svg_out.temp,
                           stroke_reference=result.stats[0].mesh)
    return EXIT_OK


def _cmd_verify(args) -> int:
    with _outputs(args.report) as (report_out,):
        try:
            reports = run_suite(depth=args.depth, sweep_size=args.sweep,
                                seed=args.seed)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        payload = report_as_dict(reports, args.depth, args.sweep, args.seed)
        _write_json(report_out, payload)
    for r in reports:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{flag} {r.name} (population {r.population}, "
              f"worst margin {r.worst_margin:+.3e}, tolerance {r.tolerance:g})")
    print(f"report written to {args.report}")
    return EXIT_OK if payload["all_pass"] else 1


def _cmd_upsilon(args) -> int:
    base = _parse_angles(args.angles)
    try:
        run = RefinementRun(kind=ProcedureKind.LARGEST_ANGLE,
                            depth=args.iterations, base=base)
    except ValueError as exc:
        raise InputError(str(exc)) from None
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
            payload = {"input": {"angles": [str(x) for x in base.as_tuple()],
                                 "iterations": args.iterations},
                       "generations": rows}
            _write_json(json_out, payload)
    return EXIT_OK


def _cmd_classes(args) -> int:
    run = _build_run(args, RetainPolicy.STREAMING)
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
                "input": _input_dict(run, args.iterations),
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
    p_upsilon.set_defaults(func=_cmd_upsilon)

    p_classes = sub.add_parser(
        "classes", help="cumulative similarity-class counts per generation")
    add_input_options(p_classes)
    p_classes.add_argument("--procedure", choices=[k.value for k in ProcedureKind],
                           default=ProcedureKind.LARGEST_ANGLE.value)
    p_classes.add_argument("--json", metavar="PATH")
    p_classes.set_defaults(func=_cmd_classes)

    return parser


def run_command(command, args) -> int:
    """Run ``command(args)`` and return its exit code, reporting invalid
    input (exit 2) and degenerate geometry (exit 3) on stderr.

    A command whose arguments include ``--sides`` takes exactly one of
    ``--angles`` and ``--sides``.
    """
    try:
        angles = getattr(args, "angles", None)
        if angles is not None and getattr(args, "sides", None) is not None:
            raise InputError("give either --angles or --sides, not both")
        if hasattr(args, "sides") and angles is None and args.sides is None:
            raise InputError("one of --angles or --sides is required")
        return command(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenerateTriangleError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run_command(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
