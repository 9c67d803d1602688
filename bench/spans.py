"""Per-layer tracing for the benchmark's traced run.

Nothing in the program changes: ``Tracer.install`` wraps the public functions
of each ``bihomlie`` module in place, including every other ``bihomlie``
module's binding of the same function (``checks`` imports ``apply_bilinear``
from ``exact``, ``equivalence`` imports ``check_bihom_lie`` and so on), and
``uninstall`` puts the originals back.

Two kinds of wrapper:

* a span (name, start, end, parent span, op id) around every public function
  of ``checks``, ``constructions``, ``equivalence``, ``search``, ``cli`` and the
  I/O and elimination entry points of ``bundles`` and ``exact``;
* a timed counter, with no span kept, around the hot kernel entry points
  (``apply_bilinear``, ``apply_comul``, ``Matrix.__matmul__``, ``Matrix.apply``,
  ``Residual.collect``, ``entry``), which run millions of times.

Both keep the call stack, so a layer's self time is each call's duration
minus what the wrapped calls inside it cover.  Inline helpers that are not
wrapped (``vec_add``, ``Matrix.add`` and the like) count toward their caller.
``Fraction`` constructions are counted by wrapping ``Fraction.__new__``.
Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("exact", "bundles", "checks", "constructions", "equivalence", "search", "cli")

#: hot entry points: timed and counted, no span kept
AGGREGATE = {
    "exact.apply_bilinear", "exact.apply_comul", "exact.Matrix.__matmul__", "exact.Matrix.apply",
    "bundles.Residual.collect", "bundles.entry",
}
#: other public names of exact and bundles that get spans
SPANNED = {
    "exact": ("invert", "nullspace", "solve", "rank", "contract", "block_diag"),
    "bundles": ("load", "load_path", "from_document", "document", "dumps", "save_path", "fixture_by_name"),
}
#: function -> the groups whose time is totalled over outermost calls
GROUPS = {
    **{f"exact.{n}": ("exact.elim",) for n in ("invert", "nullspace", "solve", "rank")},
    "checks.check_bihom_lie": ("checks.bihom_lie",),
    "checks.check_matched_pair": ("checks.matched_pair",),
    **{f"checks.{n}": ("checks.representation",) for n in (
        "check_representation", "check_nijenhuis_representation", "check_diff_rep", "check_eta_admissible")},
    **{f"checks.{n}": ("checks.coalgebra",) for n in (
        "check_bihom_coalgebra", "check_nijenhuis_coalgebra", "check_diff_coalgebra", "full_coalgebra_suite")},
    "checks.check_bialgebra_cocycle": ("checks.cocycle",),
    **{f"constructions.{n}": ("constructions.twist",) for n in ("yau_twist", "untwist", "hom_specialize")},
    **{f"bundles.{n}": ("bundles.load",) for n in ("load", "load_path", "from_document")},
    **{f"bundles.{n}": ("bundles.dump",) for n in ("document", "dumps", "save_path")},
}

#: (name, unit) of every per-layer metric, in output order.  ``_s`` metrics
#: are seconds summed over the traced pass; counts are summed too.
PER_LAYER = (
    ("exact.self_s", "s"), ("exact.fraction_ops", "count"), ("exact.matmul_calls", "count"),
    ("exact.apply_bilinear_calls", "count"), ("exact.elim_s", "s"), ("exact.elim_rows", "count"),
    ("exact.elim_useful_row_ratio", "ratio"),
    ("checks.self_s", "s"), ("checks.calls", "count"), ("checks.cells", "count"), ("checks.cells_per_s", "1/s"),
    ("checks.bihom_lie_s", "s"), ("checks.matched_pair_s", "s"), ("checks.representation_s", "s"),
    ("checks.coalgebra_s", "s"), ("checks.cocycle_s", "s"),
    ("constructions.self_s", "s"), ("constructions.calls", "count"), ("constructions.twist_s", "s"),
    ("constructions.hypothesis_s", "s"),
    ("equivalence.self_s", "s"), ("equivalence.instances", "count"), ("equivalence.disagreements", "count"),
    ("search.self_s", "s"), ("search.equations", "count"),
    ("bundles.residual_collect_s", "s"), ("bundles.residual_cells", "count"), ("bundles.load_s", "s"),
    ("bundles.dump_s", "s"), ("bundles.bytes_written", "bytes"),
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("cli.process_s", "s"),
    ("trace.op_s", "s"), ("trace.spans", "count"), ("trace.overhead_share", "ratio"),
)


class Tracer:
    """Spans and counters for one traced pass; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, op id, name, start, end)
        self.op = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [id to parent children to, child time, layer]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._undo: list[tuple] = []
        self._fractions = [0]

    # -- wrappers ---------------------------------------------------------------

    def _span(self, layer: str, qual: str, fn):
        groups = GROUPS.get(qual, ()) + (layer,)
        stack, depth, counts, totals, self_s = self._stack, self._depth, self.counts, self.totals, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = self._next_id
            self._next_id += 1
            outer = [g for g in groups if not depth[g]]
            for g in groups:
                depth[g] += 1
            frame = [sid, 0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                for g in groups:
                    depth[g] -= 1
                d = t1 - t0
                if parent is not None:
                    parent[1] += d
                self_s[layer] += d - frame[1]
                for g in outer:
                    totals[g] += d
                counts[layer + ".calls"] += 1
                if layer == "checks" and parent is not None and parent[2] == "constructions":
                    totals["constructions.hypothesis"] += d
                self.spans.append((sid, parent[0] if parent else -1, self.op, qual, t0, t1))
            if layer in outer:
                self._outermost(layer, result)
            return result

        return wrapper

    def _outermost(self, layer: str, result) -> None:
        if layer == "checks" and hasattr(result, "entries"):
            cells = 0
            for e in result.entries:
                size = 1
                for extent in e.residual.shape:
                    size *= extent
                cells += size
            self.counts["checks.cells"] += cells
        elif layer == "equivalence" and hasattr(result, "agree"):
            self.counts["equivalence.instances"] += 1
            self.counts["equivalence.disagreements"] += not result.agree

    def _aggregate(self, layer: str, qual: str, fn, materialize: bool = False):
        stack, counts, self_s = self._stack, self.counts, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if materialize:  # Residual.collect(shape, cells): count the cells
                args = (args[0], list(args[1]))
                counts["bundles.residual_cells"] += len(args[1])
            parent = stack[-1] if stack else None
            frame = [parent[0] if parent else -1, 0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += d
                self_s[layer] += d - frame[1]
                self.totals[qual] += d
                counts[qual] += 1

        return wrapper

    # -- install / uninstall --------------------------------------------------------

    def _replace_everywhere(self, fn, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "bihomlie" and not name.startswith("bihomlie."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every loaded bihomlie layer module."""
        for layer in LAYERS:
            module = sys.modules.get(f"bihomlie.{layer}")
            if module is None:
                continue
            for name, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__ or name.startswith("_"):
                    continue
                qual = f"{layer}.{name}"
                if qual in AGGREGATE:
                    self._replace_everywhere(fn, self._aggregate(layer, qual, fn))
                elif layer not in SPANNED or name in SPANNED[layer]:
                    self._replace_everywhere(fn, self._span(layer, qual, fn))
        exact = sys.modules["bihomlie.exact"]
        bundles = sys.modules["bihomlie.bundles"]
        for attr in ("__matmul__", "apply"):
            self._set(exact.Matrix, attr, self._aggregate("exact", f"exact.Matrix.{attr}", vars(exact.Matrix)[attr]))
        collect = vars(bundles.Residual)["collect"].__func__
        self._set(bundles.Residual, "collect",
                  staticmethod(self._aggregate("bundles", "bundles.Residual.collect", collect, materialize=True)))
        self._set(exact, "_bareiss_echelon", self._counted_echelon(exact._bareiss_echelon))
        search = sys.modules.get("bihomlie.search")
        if search is not None:
            solve = vars(search._System)["solve"]
            counts = self.counts

            def counted_solve(system):
                counts["search.equations"] += len(system.rows)
                return solve(system)

            self._set(search._System, "solve", counted_solve)
        fractions = self._fractions
        new = vars(Fraction)["__new__"].__func__

        def counting_new(cls, *args, **kwargs):
            fractions[0] += 1
            return new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(counting_new))

    def _counted_echelon(self, fn):
        counts = self.counts

        def wrapper(rows):
            counts["exact.elim_rows"] += len(rows)
            result = fn(rows)
            counts["exact.elim_rank"] += len(result[1])
            return result

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self.counts["exact.fraction_ops"] += self._fractions[0]
        self._fractions[0] = 0

    # -- results --------------------------------------------------------------------

    def raw(self) -> dict:
        """Mergeable sums: self time per layer, group totals, counts."""
        return {"self_s": dict(self.self_s), "totals": dict(self.totals), "counts": dict(self.counts)}

    def merge(self, raw: dict, spans: list) -> None:
        """Add a child process's sums and spans, under the current op id."""
        for key in ("self_s", "totals", "counts"):
            mine = getattr(self, key)
            for name, value in raw[key].items():
                mine[name] += value
        offset = self._next_id
        for sid, parent, _, name, t0, t1 in spans:
            self.spans.append((sid + offset, parent + offset if parent >= 0 else -1, self.op, name, t0, t1))
            self._next_id = max(self._next_id, sid + offset + 1)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, op_s: float, wall: float, overhead: float) -> dict[str, float]:
    """Every PER_LAYER metric from a finished traced pass.

    ``op_s`` is the pass's op time in reference seconds and ``wall`` its wall
    time: span times are wall times and are scaled by their ratio, so that
    layer times add up to ``trace.op_s``."""
    ref = op_s / wall
    s = {k: v * ref for k, v in tracer.self_s.items()}
    t = {k: v * ref for k, v in tracer.totals.items()}
    c = tracer.counts
    rows = c.get("exact.elim_rows", 0)
    checks_s = t.get("checks", 0.0)
    values = {
        "exact.self_s": s.get("exact", 0.0),
        "exact.fraction_ops": c.get("exact.fraction_ops", 0),
        "exact.matmul_calls": c.get("exact.Matrix.__matmul__", 0),
        "exact.apply_bilinear_calls": c.get("exact.apply_bilinear", 0),
        "exact.elim_s": t.get("exact.elim", 0.0),
        "exact.elim_rows": rows,
        "exact.elim_useful_row_ratio": c.get("exact.elim_rank", 0) / rows if rows else 0.0,
        "checks.self_s": s.get("checks", 0.0),
        "checks.calls": c.get("checks.calls", 0),
        "checks.cells": c.get("checks.cells", 0),
        "checks.cells_per_s": c.get("checks.cells", 0) / checks_s if checks_s else 0.0,
        "checks.bihom_lie_s": t.get("checks.bihom_lie", 0.0),
        "checks.matched_pair_s": t.get("checks.matched_pair", 0.0),
        "checks.representation_s": t.get("checks.representation", 0.0),
        "checks.coalgebra_s": t.get("checks.coalgebra", 0.0),
        "checks.cocycle_s": t.get("checks.cocycle", 0.0),
        "constructions.self_s": s.get("constructions", 0.0),
        "constructions.calls": c.get("constructions.calls", 0),
        "constructions.twist_s": t.get("constructions.twist", 0.0),
        "constructions.hypothesis_s": t.get("constructions.hypothesis", 0.0),
        "equivalence.self_s": s.get("equivalence", 0.0),
        "equivalence.instances": c.get("equivalence.instances", 0),
        "equivalence.disagreements": c.get("equivalence.disagreements", 0),
        "search.self_s": s.get("search", 0.0),
        "search.equations": c.get("search.equations", 0),
        "bundles.residual_collect_s": t.get("bundles.Residual.collect", 0.0),
        "bundles.residual_cells": c.get("bundles.residual_cells", 0),
        "bundles.load_s": t.get("bundles.load", 0.0),
        "bundles.dump_s": t.get("bundles.dump", 0.0),
        "bundles.bytes_written": c.get("bundles.bytes_written", 0),
        "cli.import_s": t.get("cli.import", 0.0),
        "cli.main_s": t.get("cli", 0.0),
        "cli.process_s": t.get("cli.process", 0.0),
        "trace.op_s": op_s,
        "trace.spans": len(tracer.spans),
        "trace.overhead_share": overhead,
    }
    return values
