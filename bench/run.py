#!/usr/bin/env python3
"""trirefine benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload deep-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload render-reference --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

``--trace 0`` reports the end-to-end metrics: ``setup_s``, ``wall_ref``,
``nodes_per_ref`` and ``peak_rss_mb``.  ``wall_ref`` is an operation's wall
time in units of a fixed reference computation timed right around it, so the
load of other tenants on a shared host, which slows both alike, cancels out.
``--trace 1`` reports the per-layer metrics of ``tracing.LAYER_UNITS`` from a
traced run, and the tracing overhead against an untraced twin of each
operation, run just before it in the same process.  Each workload runs
in its own child process, one at a time, so memory and set-up time belong to
that workload.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the environment and every metric by name and unit.  ``--smoke`` runs
every workload once at tiny size, in both modes, and checks the metric names.

Stdlib only.  The program under test is imported from ``src/``.  See
``bench/README.md`` for why each workload exists and what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Operations in a traced run: two of the bases, then one pass over the other
# workloads' distinct inputs (all four sweep seeds, all three render inputs).
TRACE_OPS = {"deep-exact": 2, "verify-sweep": 4, "render-reference": 3}
END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "nodes_per_ref": "1/ref",
                    "peak_rss_mb": "MB"}
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

# Extra child processes that only set up, so setup_s is a median.
SETUP_PROBES = 24
# Every run ends, children included, well inside 180 s.
RUN_DEADLINE_S = 170.0
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """A child process failed or ran out of time; no result is printed."""


# ---------------------------------------------------------------------------
# Reference computation: the yardstick for operation times
# ---------------------------------------------------------------------------

class _Item:
    __slots__ = ("key", "value", "weight")

    def __init__(self, key, value, weight) -> None:
        self.key, self.value, self.weight = key, value, weight


def _reference_work() -> int:
    """A fixed pure-Python computation, about 10 ms, that uses no trirefine code.

    It does the kind of work the package does per node (small ``Fraction``
    arithmetic, float maths, slotted objects, tuple-keyed dict updates), so
    other tenants of a shared host slow it about as much as an operation.
    Never change it: every ``wall_ref`` figure is measured against it.
    """
    classes: dict[tuple, int] = {}
    items = []
    x = Fraction(1, 3)
    for i in range(450):
        x = (x + Fraction(i % 7 + 1, i % 5 + 2)).limit_denominator(1000) / 3
        key = (x.numerator % 101, x.denominator % 103, i % 7)
        item = _Item(key, math.sqrt(i + 1.0) * float(x), i & 3)
        items.append(item)
        classes[key] = classes.get(key, 0) + item.weight
    return len(classes) + len(items)


def _time_reference() -> float:
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# Child process: one workload, timed or traced
# ---------------------------------------------------------------------------

def _child(args) -> int:
    sys.path.insert(0, str(SRC))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        import workloads
        workload = workloads.make(args.workload, args.seed, args.smoke, workdir)
        setup_s = time.monotonic() - args.t0
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.child == "trace":
            import tracing
            tracer = tracing.Tracer()
        result = _measure(workload, args, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import resource
    import trirefine
    result.update(setup_s=setup_s, version=trirefine.__version__,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    print(json.dumps(result))
    return 0


def _measure(workload, args, tracer) -> dict:
    """Run operations until ``--seconds`` have passed, or exactly ``--ops`` of them.

    A timed run covers every input at least once, however short ``--seconds``.
    """
    walls, refs, untraced, nodes, inputs = [], [], [], [], []
    attempted = failed = bytes_written = 0
    deadline = time.perf_counter() + args.seconds
    while (attempted < args.ops) if args.ops else \
            (attempted < workload.inputs or time.perf_counter() < deadline):
        attempted += 1
        try:
            wall, ref, untraced_wall, outcome = _operation(workload, attempted - 1,
                                                           tracer)
        except Exception as exc:  # a failed operation is counted, not fatal
            failed += 1
            print(f"{workload.name} operation {attempted - 1} failed: {exc!r}",
                  file=sys.stderr)
            continue
        walls.append(wall)
        refs.append(ref)
        untraced.append(untraced_wall)
        nodes.append(outcome.nodes)
        inputs.append((attempted - 1) % workload.inputs)
        bytes_written += outcome.bytes_written
    result = {"walls": walls, "refs": refs, "nodes": nodes, "inputs": inputs,
              "attempted": attempted, "failed": failed}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(attempted, bytes_written)
        result["units"] = tracer.units
        result["untraced_walls"] = untraced
    return result


def _operation(workload, i: int, tracer):
    """Operation ``i``, timed and optionally traced; its check runs untimed and untraced.

    Returns the operation's wall time, the mean time of the reference
    computation run just before and just after it, the wall time of an
    untraced twin (traced runs only, else ``None``) and the checked outcome.
    """
    untraced_wall = None
    if tracer is not None:
        # The same operation untraced, moments before the traced one, so that
        # trace.overhead_ratio compares runs on a host of the same speed.  Its
        # output is the one the timed runs check.
        start = time.perf_counter()
        workload.run(i)
        untraced_wall = time.perf_counter() - start
    ref_before = _time_reference()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        raw = workload.run(i)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    ref = (ref_before + _time_reference()) / 2
    outcome = workload.check(i, raw)
    if tracer is not None and tracer.mismatches:
        mismatches = "; ".join(tracer.mismatches)
        tracer.mismatches.clear()
        raise RuntimeError(f"traced counts differ from the closed forms: {mismatches}")
    return wall, ref, untraced_wall, outcome


# ---------------------------------------------------------------------------
# Parent process
# ---------------------------------------------------------------------------

def _spawn(mode: str, workload: str, seed: int, seconds: int, ops: int,
           smoke: bool, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    argv = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--ops", str(ops), "--t0", repr(time.monotonic())]
    if smoke:
        argv.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} child exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} child exited {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if mode != "setup" and not result["walls"]:
        raise BenchError(f"every {workload} operation failed")
    return result


def _per_input_median(values: list[float], inputs: list[int]) -> float:
    """Mean over the inputs of each input's median across its repeats.

    Inputs differ in cost, so a median over all operations would fall between
    them; the mean weighs every input alike.
    """
    per_input: dict[int, list[float]] = {}
    for k, value in zip(inputs, values):
        per_input.setdefault(k, []).append(value)
    return statistics.fmean(statistics.median(v) for v in per_input.values())


def _tail(walls: list[float]) -> str:
    """Highest listed percentile that still has at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(walls) * (1 - p / 100) >= 10:
            value = statistics.quantiles(walls, n=1000)[round(p * 10) - 1]
            return f"p{p:g}={value:.6f} s"
    return "no percentile has 10 samples beyond it"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 smoke: bool = False) -> dict:
    """One benchmark run; returns the result object and prints the report lines."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    if trace:
        ops = TRACE_OPS[workload]
        traced = _spawn("trace", workload, seed, seconds, ops, smoke, deadline)
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = (sum(traced["walls"])
                                          / sum(traced["untraced_walls"]))
        units = traced["units"]
        runs = (traced,)
    else:
        def probe_setups(count: int) -> list[float]:
            return [_spawn("setup", workload, seed, seconds, 0, smoke, deadline)["setup_s"]
                    for _ in range(count)]

        # Half the probes before the measuring child and half after, so a
        # change in the host's speed during the run weighs on both sides.
        setups = probe_setups(SETUP_PROBES // 2)
        main = _spawn("time", workload, seed, seconds, 0, smoke, deadline)
        setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2) + [main["setup_s"]]
        walls, refs, inputs = main["walls"], main["refs"], main["inputs"]
        in_refs = [w / r for w, r in zip(walls, refs)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_ref": _per_input_median(in_refs, inputs),
            "nodes_per_ref": _per_input_median(
                [n / x for n, x in zip(main["nodes"], in_refs)], inputs),
            "peak_rss_mb": main["maxrss_kb"] / 1024,
        }
        units = END_TO_END_UNITS
        runs = (main,)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    environment = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "trirefine": runs[-1]["version"],
        "git_commit": _git_commit(), "workload": workload, "seed": seed,
        "seconds": seconds, "trace": int(trace), "operations": attempted,
    }
    print(json.dumps({"environment": environment}))
    if not trace:
        print(f"wall_s: median {statistics.median(walls):.6f} s per operation over "
              f"{len(walls)} operations on {len(set(inputs))} inputs; {_tail(walls)}")
        print(f"nodes_per_s: median "
              f"{statistics.median(n / w for n, w in zip(main['nodes'], walls)):.1f} 1/s")
        print(f"ref: median {statistics.median(refs):.6f} s per reference computation")
    print(f"error_rate: {failed / attempted:.6f} ({failed} of {attempted} operations failed)")
    for name, value in values.items():
        print(f"{name}: {value!r} {units[name]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def smoke() -> int:
    """Every workload once at tiny size, in both modes; checks metric names."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in declared["end_to_end"]},
                1: {m["name"] for m in declared["per_layer"]}}
    problems = []
    for workload in TRACE_OPS:
        for trace in (0, 1):
            result = run_workload(workload, seed=0, seconds=1, trace=bool(trace),
                                  smoke=True)
            names = set(result["metrics"])
            problems += [f"{workload}: bad metric name {n!r}" for n in names
                         if not METRIC_NAME.fullmatch(n)]
            if names != expected[trace]:
                problems.append(f"{workload} trace {trace}: metrics {sorted(names)} "
                                f"!= BENCHMARK.json {sorted(expected[trace])}")
            if not result["correct"]:
                problems.append(f"{workload} trace {trace}: {result['failed']} "
                                f"of {result['attempted']} operations failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(TRACE_OPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny size and check the "
                             "metric names")
    # Internal: the parent starts children with these.
    parser.add_argument("--child", choices=("setup", "time", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "trirefine" / "__init__.py").is_file():
        print(f"error: no trirefine sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
