"""In-process A/B timing of two source trees of this repository on one benchmark workload
(not part of the test suite).

Run from anywhere with

    python tests/ab_trees.py PARENT_TREE CHANGE_TREE --workload corpus --seed 1 --rounds 30

where each tree is a checkout of the repository (``git archive`` of a commit, or the
working tree itself).  Each tree's ``bench/workloads.py`` and ``src/bihomlie`` are
imported into this one process under their usual names, and the module sets are
swapped in and out of ``sys.modules`` around every op, so each op runs on its own tree's
code.  Each tree is loaded twice, in the order parent, change, change, parent: a copy's
speed depends a little on when it was loaded, and in that order both trees sit at mean load
position 2.5, each as a pair of copies.  The mean of the two change copies is measured
against the mean of the two parent copies, and the ratio of the two copies of each tree is
the run's own A/A spread.  All four copies build the same op list from the seed.
The ops then run in turn: for each op of a pass, the op of each copy, and which copy runs
first rotates from op to op and from pass to pass.  A slow or fast stretch of the machine
therefore falls on all of them alike, which separate benchmark processes, minutes apart,
cannot promise when the machine's speed moves by more than the effect being measured.

It prints, for each copy, the sum over ops of each op's median time (the rate
``bench/run.py`` reports is the op count over that sum), the p50 and p90 of all op
times, then the changes' mean against the parents' mean, and the parent/parent' and
change/change' ratios side by side, then one line per op kind (a twisted input apart
from a plain one): the kind's summed per-op medians, parents' mean against changes' mean,
and last one line per op size (``sl2``, ``gl3-twisted``, ``dim4``, ...) in the same columns,
so that a kernel change shows where it acts, on the small operands or on the large ones.
Each result is checked against its oracle once, after the timed passes, so a fast wrong
answer fails the run.  No clock calibration is applied: all copies see the same machine
within microseconds.  What the copies built before the first op is frozen out of garbage
collection (``gc.freeze``): a full collection would otherwise rescan every copy's modules
and inputs in whichever op set it off, four times the heap one benchmark process holds,
and add that noise to all sides.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import statistics
import sys
import tempfile
import time


def _owned(name: str) -> bool:
    return name in ("workloads", "bihomlie") or name.startswith("bihomlie.")


class Tree:
    """One checkout's modules, imported once and kept out of ``sys.modules`` while the other tree runs."""

    def __init__(self, root: str, workload: str, seed: int, workdir: str) -> None:
        self.root = os.path.abspath(root)
        for name in [m for m in sys.modules if _owned(m)]:
            del sys.modules[name]
        sys.path[:0] = [os.path.join(self.root, "bench"), os.path.join(self.root, "src")]
        try:
            wl = importlib.import_module("workloads")
            self.ops = wl.build(workload, seed, False, workdir, self.root)
            wl.warm_up(workload, self.root)
        finally:
            del sys.path[:2]
        self.wl = wl
        self.modules = {m: mod for m, mod in sys.modules.items() if _owned(m)}
        for name in self.modules:
            del sys.modules[name]

    def run(self, index: int) -> tuple[float, object]:
        """Wall seconds of op ``index`` of this tree, run with this tree's modules in ``sys.modules``, and its result."""
        sys.modules.update(self.modules)
        op = self.ops[index]
        try:
            t0 = time.perf_counter()
            result = op.run(op)
            return time.perf_counter() - t0, result
        finally:
            for name in self.modules:
                del sys.modules[name]


def _kind(op) -> str:
    """The op's kind, with a twisted input (a size ending in "-twisted") apart from a plain one."""
    return f"{op.kind} (twisted)" if op.size.endswith("-twisted") else op.kind


def _summary(times: list[list[float]]) -> tuple[float, float, float]:
    """(sum of per-op medians, p50, p90) in milliseconds."""
    flat = [t for per_op in times for t in per_op]
    return (sum(map(statistics.median, times)) * 1e3, statistics.median(flat) * 1e3,
            statistics.quantiles(flat, n=10, method="inclusive")[8] * 1e3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the parent tree")
    parser.add_argument("change", help="root of the changed tree")
    parser.add_argument("--workload", default="corpus", choices=("corpus", "ladder", "solve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=20, help="passes over the op list, each tree once per op")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        trees = [Tree(root, args.workload, args.seed, workdir)
                 for root in (args.parent, args.change, args.change, args.parent)]
    n = len(trees[0].ops)
    if any([(op.kind, op.size) for op in tree.ops] != [(op.kind, op.size) for op in trees[0].ops] for tree in trees):
        print("error: the two trees build different op lists for this seed", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()  # the copies' modules and inputs: no collection rescans them, so none pays for another's
    times: list[list[list[float]]] = [[[] for _ in range(n)] for _ in trees]
    last: list[list[object]] = [[None] * n for _ in trees]
    for rnd in range(args.rounds):
        for index in range(n):
            first = (index + rnd) % 4
            for side in ((first + k) % 4 for k in range(4)):
                wall, last[side][index] = trees[side].run(index)
                times[side][index].append(wall)
    bad = [(side, trees[side].ops[i].kind) for side in range(4) for i in range(n)
           if trees[side].wl.verdict(trees[side].ops[i], last[side][i]) == "fail"]
    if bad:
        print(f"error: results failing their oracle (tree, op kind): {bad[:5]}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {n} ops x {args.rounds} rounds per tree, in turn")
    sums = []
    for name, tree_times in zip(("parent", "change", "change'", "parent'"), times):
        total, p50, p90 = _summary(tree_times)
        sums.append(total)
        print(f"  {name:7s} sum of per-op medians {total:9.3f} ms   p50 {p50:.4f} ms   p90 {p90:.4f} ms")
    parent, change = (sums[0] + sums[3]) / 2, (sums[1] + sums[2]) / 2
    per_op = [(statistics.median(c) + statistics.median(d)) / (statistics.median(p) + statistics.median(q))
              for p, c, d, q in zip(*times)]
    print(f"  changes' mean / parents' mean: sum {change / parent:.4f} ({(change / parent - 1) * 100:+.1f} %), "
          f"median per-op ratio {statistics.median(per_op):.4f}")
    print(f"  A/A spread: parent / parent' sum {sums[0] / sums[3]:.4f} ({(sums[0] / sums[3] - 1) * 100:+.1f} %), "
          f"change / change' sum {sums[1] / sums[2]:.4f} ({(sums[1] / sums[2] - 1) * 100:+.1f} %)")
    for key in (_kind, lambda op: op.size):
        groups: dict[str, list[float]] = {}  # group -> [its ops, the parents' mean, the changes' mean], medians summed
        for op, p, c, d, q in zip(trees[0].ops, *times):
            tally = groups.setdefault(key(op), [0, 0.0, 0.0])
            tally[0] += 1
            tally[1] += (statistics.median(p) + statistics.median(q)) / 2 * 1e3
            tally[2] += (statistics.median(c) + statistics.median(d)) / 2 * 1e3
        for group, (count, parent, change) in sorted(groups.items()):
            print(f"  {group:28s} {count:3d} ops   parents {parent:8.3f} ms   changes {change:8.3f} ms   "
                  f"change / parent {change / parent:.4f} ({(change / parent - 1) * 100:+.1f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
