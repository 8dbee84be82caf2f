#!/usr/bin/env python3
"""Compare mesh decay and class growth across the three splitting procedures.

Runs the same starting triangle under largest-angle, longest-edge, and
shortest-altitude splitting and tabulates, per generation, the mesh (longest
surviving side), the smallest angle, and the cumulative similarity-class
count.  The guaranteed geometric envelopes are printed alongside so the
measured decay can be eyeballed against them.  Input is parsed and checked
as by ``trirefine refine``, with the same exit codes: 2 for invalid input,
3 for degenerate geometry.

Example:
    python scripts/mesh_decay_comparison.py --angles 60,60,60 --depth 12
    python scripts/mesh_decay_comparison.py --sides 3,4,5 --depth 10 --csv out.csv
"""

import argparse
import csv
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from trirefine import ProcedureKind, RetainPolicy, cli, refine  # noqa: E402
from trirefine.engine import SQRT3_2  # noqa: E402


def compare(args) -> int:
    results = {}
    with cli._outputs(args.csv) as (csv_out,):
        for kind in ProcedureKind:
            run_args = argparse.Namespace(
                procedure=kind.value, angles=args.angles, sides=args.sides,
                iterations=args.depth, scale=None)
            results[kind] = refine(
                cli._build_run(run_args, RetainPolicy.STREAMING)).stats

        la = results[ProcedureKind.LARGEST_ANGLE]
        m0 = la[0].mesh
        rho0 = la[0].rho
        start = (f"angles {args.angles}" if args.angles is not None
                 else f"sides {args.sides}")
        print(f"start: {start}   depth {args.depth}   rho0 = {rho0:.9f}")
        header = (f"{'n':>3} | {'LA mesh':>11} {'bound':>11} {'min ang':>8} "
                  f"{'cls':>5} | {'LE mesh':>11} {'bound':>11} | {'SA mesh':>11}")
        print(header)
        print("-" * len(header))
        rows = []
        for n in range(args.depth + 1):
            la_row = results[ProcedureKind.LARGEST_ANGLE][n]
            le_row = results[ProcedureKind.LONGEST_EDGE][n]
            sa_row = results[ProcedureKind.SHORTEST_ALTITUDE][n]
            la_bound = m0 * rho0 ** (n // 2)
            le_bound = le_row.mesh if n == 0 else m0 * SQRT3_2 ** (n // 2)
            print(f"{n:>3} | {la_row.mesh:11.8f} {la_bound:11.8f} "
                  f"{float(la_row.min_angle_deg):8.4f} "
                  f"{la_row.cumulative_similarity_classes:>5} | "
                  f"{le_row.mesh:11.8f} {le_bound:11.8f} | {sa_row.mesh:11.8f}")
            rows.append([n, la_row.mesh, la_bound, float(la_row.min_angle_deg),
                         la_row.cumulative_similarity_classes, le_row.mesh,
                         le_bound, sa_row.mesh])
        if csv_out:
            with cli._writing(csv_out.path), \
                    open(csv_out.temp, "w", newline="", encoding="ascii") as handle:
                writer = csv.writer(handle)
                writer.writerow(["n", "largest_angle_mesh", "largest_angle_bound",
                                 "min_angle_deg", "cumulative_classes",
                                 "longest_edge_mesh", "longest_edge_bound",
                                 "shortest_altitude_mesh"])
                writer.writerows(rows)
    if args.csv:
        print(f"wrote {args.csv}")
    return cli.EXIT_OK


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--angles", default=None,
                        help="three exact angles, e.g. 60,60,60")
    parser.add_argument("--sides", default=None, help="three sides, e.g. 3,4,5")
    parser.add_argument("--depth", type=int, default=12)
    parser.add_argument("--csv", default=None, help="optional CSV output path")
    return cli.run_command(compare, parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
