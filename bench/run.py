"""The repository benchmark: one seeded workload, timed or traced.

Usage (from the repository root):

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads: corpus, ladder, solve, cli (see bench/README.md).  A run sets the
workload up five times (imports, input generation, file writing, warm-up)
and reports the median as ``setup_s``.  It then runs whole passes over the
workload's op list, one op at a time, until ``--seconds`` of wall time have
passed and at least MIN_OPS ops ran, and checks every result against its
oracle outside the timed region.  Times are reference seconds: wall time
scaled by the machine's current speed, measured by a calibration kernel
between ops.

With ``--trace 1`` it runs one plain pass and one traced pass instead, and
reports the per-layer metrics of the traced pass plus the tracing overhead.
``--smoke`` runs a tiny op list for two passes.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (each with its unit).  Exit code 2, with no result, when the program
source is missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUPS = 5
#: a timed run needs this many ops, so that ten samples lie beyond its p90
MIN_OPS = 100

#: seconds the calibration kernel takes on this repository's reference
#: machine when it runs at full speed (see bench/README.md, "Reference time")
KERNEL_REF = 0.0027
_KERNEL_MATRIX = [[Fraction(i + 2 * j + 1, j + 2) for j in range(8)] for i in range(8)]

#: (name, unit) of every end-to-end metric, in output order
END_TO_END = (
    ("ops_per_s", "ops/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("setup_s", "s"),
    ("peak_rss_mb", "MB"), ("ok_share", "ratio"),
)


def kernel_seconds() -> float:
    """Wall time of a fixed stdlib-only job: two 8x8 Fraction matrix
    products, the same mix of Python loops and Fraction arithmetic the
    program spends its time on."""
    a = _KERNEL_MATRIX
    t0 = time.perf_counter()
    for _ in range(2):
        [[sum((a[i][k] * a[k][j] for k in range(8)), Fraction(0)) for j in range(8)] for i in range(8)]
    return time.perf_counter() - t0


#: kernel samples on each side of an interval that estimate the speed it ran at
WINDOW = 8


def to_reference(walls: list[float], kernels: list[float]) -> list[float]:
    """Convert wall intervals to reference seconds.

    The machine's speed moves by up to a factor of two, over milliseconds as
    well as over tens of seconds (other tenants share its cores), and the
    program slows down with it.  The calibration kernel ran before the first
    interval and after each one (``kernels[i]`` before interval ``i``); each
    interval is scaled by KERNEL_REF over the median kernel time among the
    WINDOW samples on either side of it.
    """
    out = []
    for i, wall in enumerate(walls):
        around = kernels[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(wall * KERNEL_REF / statistics.median(around))
    return out


def _setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Fresh imports of the program and the generators, inputs, warm-up."""
    for name in [m for m in sys.modules if m in ("workloads", "bihomlie") or m.startswith("bihomlie.")]:
        del sys.modules[name]
    wl = importlib.import_module("workloads")
    ops = wl.build(workload, seed, smoke, workdir, ROOT)
    wl.warm_up(workload, ROOT)
    return wl, ops


def _run_passes(ops, seconds: float, passes: int | None = None, before=None, after=None):
    """Closed loop over whole passes, either ``passes`` of them or as many as
    reach ``seconds`` of wall time and MIN_OPS ops.  Returns (latencies in
    reference seconds, (op, result) list, summed op wall seconds).

    A repeat whose result equals the first pass's is stored as that first
    result, so memory (and ``peak_rss_mb``) does not grow with the passes."""
    walls, kernels, results = [], [kernel_seconds()], []
    done = 0
    start = time.perf_counter()
    while True:
        for index, op in enumerate(ops):
            if before:
                before(index, op)
            t0 = time.perf_counter()
            try:
                result = op.run(op)
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                exc.trace = traceback.format_exc()
                result = exc
            walls.append(time.perf_counter() - t0)
            if after:
                after(index, op, result)
            kernels.append(kernel_seconds())
            if done and not isinstance(result, BaseException) and result == results[index][1]:
                result = results[index][1]
            results.append((op, result))
        done += 1
        if (passes is not None and done >= passes) or (
                passes is None and time.perf_counter() - start >= seconds and len(walls) >= MIN_OPS):
            return to_reference(walls, kernels), results, sum(walls)


def _verify(wl, results) -> tuple[int, int]:
    """(failed ops, failed ops outside the known-defect class)."""
    failed = unexpected = 0
    first: dict[int, tuple] = {}
    for op, result in results:
        seen = first.get(id(op))
        if seen is not None and not isinstance(result, BaseException) and seen[0] == result:
            verdict = seen[1]
        else:
            verdict = wl.verdict(op, result)
            first.setdefault(id(op), (result, verdict))
        if verdict == "ok":
            continue
        failed += 1
        if verdict == "fail":
            unexpected += 1
            if unexpected == 1:
                detail = getattr(result, "trace", None) or repr(result)[:2000]
                print(f"unexpected failure: {op.kind} {op.size}\n{detail}", file=sys.stderr)
    return failed, unexpected


def _timed(wl, ops, args) -> tuple[dict, int]:
    latencies, results, wall = _run_passes(ops, args.seconds, passes=2 if args.smoke else None)
    failed, unexpected = _verify(wl, results)
    n = len(latencies)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    print(f"{args.workload} seed {args.seed}: {n} ops, {wall:.2f} s wall, {sum(latencies):.2f} reference s "
          f"({n // len(ops)} passes of {len(ops)}); p90 from {n} samples; failed {failed} (unexpected {unexpected})")
    # each op's median over the passes, so that one slow sample of a long op
    # does not move the rate
    per_op = [statistics.median(latencies[i::len(ops)]) for i in range(len(ops))]
    values = {
        "ops_per_s": len(ops) / sum(per_op),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "ok_share": (n - failed) / n,
    }
    return values, (n, failed, unexpected)


def _traced(wl, ops, args, workdir: str) -> tuple[dict, tuple]:
    import spans

    plain_lat, plain_results, _ = _run_passes(ops, 0, passes=1)
    tracer = spans.Tracer()
    child_file = os.path.join(workdir, "child-trace.json")
    cli = args.workload == "cli"

    # installed around each op only: the calibration kernel between ops must
    # not run under the Fraction counter
    def before(index, op):
        tracer.op = index
        if cli:
            op.state["child_trace"] = child_file
        tracer.install()

    def after(index, op, result):
        tracer.uninstall()
        if cli:
            del op.state["child_trace"]
            with open(child_file, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(child_file)
            tracer.merge(child["raw"], child["spans"])
            tracer.totals["cli.process"] += result.wall
            tracer.counts["bundles.bytes_written"] += sum(len(b) for b in result.written.values())

    latencies, results, wall = _run_passes(ops, 0, passes=1, before=before, after=after)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tracer.write(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.jsonl"))
    failed, unexpected = _verify(wl, plain_results + results)
    n = len(latencies)
    overhead = 1 - sum(plain_lat) / sum(latencies)
    print(f"{args.workload} seed {args.seed}: traced pass of {n} ops in {sum(latencies):.2f} reference s "
          f"({wall:.2f} s wall), plain pass {sum(plain_lat):.2f} reference s; "
          f"{len(tracer.spans)} spans; failed {failed} (unexpected {unexpected})")
    return spans.layer_metrics(tracer, sum(latencies), wall, overhead), (n, failed, unexpected)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "ladder", "solve", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op list, two passes")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bihomlie", "__init__.py")):
        print(f"error: the program source {os.path.join(SRC, 'bihomlie')} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_out", f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_walls, kernels = [], [kernel_seconds()]
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            wl, ops = _setup(args.workload, args.seed, args.smoke, workdir)
            setup_walls.append(time.perf_counter() - t0)
            kernels.append(kernel_seconds())
        setup_times = to_reference(setup_walls, kernels)
        if args.trace:
            values, (n, failed, unexpected) = _traced(wl, ops, args, workdir)
            import spans

            units = dict(spans.PER_LAYER)
        else:
            values, (n, failed, unexpected) = _timed(wl, ops, args)
            values["setup_s"] = statistics.median(setup_times)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": unexpected == 0, "attempted": n, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
