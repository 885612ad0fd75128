"""Spans around simpsurf's layer boundaries, installed from outside.

The tracer replaces public functions and methods of the package modules
with timing wrappers and restores them afterwards; the package source is
not touched.  A function that one module imports from another is bound
in both, so every module attribute that is the original function object
is replaced, which also covers calls inside the defining module.

Spans are kept in memory as (id, parent, job, name, start, end, work)
tuples and written out once at the end; `work` is what the call
processed (matrix cells, simplices built, bytes read, collapse pairs, or
the (complete, matching) state counts of a search).  The runner sets
`job` to the number of the job in progress, so one job's spans share it.

Which end-to-end figure each layer should move, and where:
  gf2.*          wall_s and job_p90_ms on cohomology, wall_s on reduce;
                 nothing on search, which does no elimination
  complex2.*     wall_s on reduce (large rebuilds) and search (tiny builds)
  homology.*     cohomology; on reduce only the betti_* figures
  reduction.*    reduce only
  surfaces.*     search, little on reduce
  bounds.*       job_p50_ms on reduce
  search.*       search only
  io.*, cli.*    job_p50_ms everywhere: small jobs are mostly fixed costs
Times are inclusive except cli.self_s, which leaves out child spans.
A layer a workload never calls reads 0 there.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name, work counter or None)
_TARGETS = (
    ("gf2", "Gf2Matrix.rank", "gf2.rank", "cells"),
    ("gf2", "Gf2Matrix.kernel_basis", "gf2.kernel_basis", "cells"),
    ("gf2", "Gf2Matrix.solve", "gf2.solve", "cells"),
    ("complex2", "Complex2.__init__", "complex2.build", "simplices"),
    ("homology", "homology_summary", "homology.summary", None),
    ("homology", "betti_numbers", "homology.betti", None),
    ("homology", "cup_product", "homology.cup", None),
    ("homology", "h2_coordinates", "homology.h2_coord", None),
    ("homology", "cup_pairing_on_h1", "homology.cup_pairing", None),
    ("homology", "has_property_a", "homology.property_a", None),
    ("surfaces", "classify", "surfaces.classify", None),
    ("surfaces", "catalog", "surfaces.catalog", None),
    ("bounds", "complexity_certificate", "bounds.certificate", None),
    ("bounds", "euler_bounds_check", "bounds.euler_check", None),
    ("reduction", "simplify_pipeline", "reduction.pipeline", None),
    ("reduction", "kill_step", "reduction.kill", None),
    ("reduction", "collapse_all", "reduction.collapse", "pairs"),
    ("reduction", "eliminate_maximal_edges", "reduction.eliminate", None),
    ("reduction", "PreservationSpec.is_surjective_on_cycles",
     "reduction.surjectivity", None),
    ("search", "min_triangles_for_surface", "search.min_tri", "states"),
    ("search", "complexes_with_one_triple_edge", "search.triple", None),
    ("search", "canonical_form", "search.canonical", None),
    ("io", "load_named_complex", "io.load", "bytes_in"),
    ("io", "load_functionals", "io.load", "bytes_in"),
    ("io", "complex_to_dict", "io.dump", None),
    ("io", "dumps_complex", "io.dump", None),
    # the CLI's JSON writer is where large documents are serialized
    ("cli", "_print_json", "io.dump", None),
    ("cli", "run_report", "cli.report", None),
    ("cli", "main", "cli.main", None),
)


def _work(kind, args, result):
    if kind == "cells":
        return args[0].n_rows * args[0].n_cols
    if kind == "simplices":
        k = args[0]
        return len(k.vertices) + len(k.edges) + len(k.triangles)
    if kind == "pairs":
        return len(result[1])
    if kind == "states":
        return (result.complete_states, result.target_states)
    if kind == "bytes_in":
        return Path(args[0]).stat().st_size
    return 0


class Tracer:
    """Installs span wrappers on the simpsurf modules and collects spans."""

    package = "simpsurf"

    def __init__(self) -> None:
        self.spans: list = []
        self.job = 0
        self._stack: list = [0]
        self._next_id = 1
        self._undo: list = []

    def _wrap(self, fn, name: str, kind):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.job, name, start, end, 0))
                raise
            end = clock()
            stack.pop()
            work = _work(kind, args, result) if kind else 0
            spans.append((sid, parent, self.job, name, start, end, work))
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        for mod_name, path, name, kind in _TARGETS:
            owner = sys.modules[f"{self.package}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, kind)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def layer_metrics(spans: list, bytes_out: int) -> dict:
    """Per-layer totals of one pass's spans, keyed by metric name."""
    by_id = {s[0]: s for s in spans}
    child_time: dict = defaultdict(float)
    for s in spans:
        child_time[s[1]] += s[5] - s[4]
    total = defaultdict(float)
    count = defaultdict(int)
    work: dict = defaultdict(int)
    states = [0, 0]
    self_time = defaultdict(float)
    for s in spans:
        name = s[3]
        total[name] += s[5] - s[4]
        count[name] += 1
        if name == "search.min_tri":
            if s[6]:  # 0 when the search raised
                states[0] += s[6][0]
                states[1] += s[6][1]
        else:
            work[name] += s[6]
        self_time[name] += s[5] - s[4] - child_time[s[0]]

    def under(span, names) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] in names:
                return True
            parent = by_id.get(parent[1])
        return False

    reduction = {"reduction.pipeline", "reduction.kill", "reduction.collapse",
                 "reduction.eliminate"}
    audit_s = sum(s[5] - s[4] for s in spans
                  if s[3] in ("homology.betti", "reduction.surjectivity")
                  and under(s, reduction))
    elims = ("gf2.rank", "gf2.kernel_basis", "gf2.solve")
    kill_elims = sum(1 for s in spans
                     if s[3] in elims and under(s, {"reduction.kill"}))
    complete, target = states
    return {
        "gf2.eliminations": (sum(count[n] for n in elims), "count"),
        "gf2.elim_s": (sum(total[n] for n in elims), "s"),
        "gf2.elim_cells": (sum(work[n] for n in elims), "cells"),
        "gf2.solve_calls": (count["gf2.solve"], "count"),
        "gf2.solve_s": (total["gf2.solve"], "s"),
        "complex2.builds": (count["complex2.build"], "count"),
        "complex2.build_s": (total["complex2.build"], "s"),
        "complex2.build_simplices": (work["complex2.build"], "count"),
        "homology.summary_calls": (count["homology.summary"], "count"),
        "homology.summary_s": (total["homology.summary"], "s"),
        "homology.betti_calls": (count["homology.betti"], "count"),
        "homology.betti_s": (total["homology.betti"], "s"),
        "homology.cup_products": (count["homology.cup"], "count"),
        "homology.cup_s": (total["homology.cup"], "s"),
        "homology.h2_coord_calls": (count["homology.h2_coord"], "count"),
        "homology.h2_coord_s": (total["homology.h2_coord"], "s"),
        "reduction.pipeline_s": (total["reduction.pipeline"], "s"),
        "reduction.kill_steps": (count["reduction.kill"], "count"),
        "reduction.kill_s": (total["reduction.kill"], "s"),
        "reduction.collapse_pairs": (work["reduction.collapse"], "count"),
        "reduction.collapse_s": (total["reduction.collapse"], "s"),
        "reduction.eliminate_s": (total["reduction.eliminate"], "s"),
        "reduction.surjectivity_checks": (count["reduction.surjectivity"],
                                          "count"),
        "reduction.audit_s": (audit_s, "s"),
        "reduction.elims_per_kill": (
            kill_elims / count["reduction.kill"] if count["reduction.kill"]
            else 0.0, "ratio"),
        "surfaces.classify_calls": (count["surfaces.classify"], "count"),
        "surfaces.classify_s": (total["surfaces.classify"], "s"),
        "bounds.certificate_s": (total["bounds.certificate"], "s"),
        "bounds.euler_check_s": (total["bounds.euler_check"], "s"),
        "search.complete_states": (complete, "count"),
        "search.target_frac": (target / complete if complete else 0.0, "ratio"),
        "search.min_tri_s": (total["search.min_tri"], "s"),
        "search.canonical_calls": (count["search.canonical"], "count"),
        "search.canonical_s": (total["search.canonical"], "s"),
        "io.load_s": (total["io.load"], "s"),
        "io.dump_s": (total["io.dump"], "s"),
        "io.bytes_in": (work["io.load"], "B"),
        "io.bytes_out": (bytes_out, "B"),
        "cli.self_s": (self_time["cli.main"] + self_time["cli.report"], "s"),
    }
