"""Per-layer tracing from outside the package.

``Tracer.install`` swaps each traced function of ``preproj`` for a wrapper
that records a span (name, start, end, parent span, request id) and adds to
per-name counters.  Functions are replaced at every module-level binding
that holds them, because ``cli``, ``repmod`` and ``tautilt`` import names
directly; methods are replaced on their class.  Hot kernels (``leaf``) add
to the counters and to their parent's child time but keep no span, so a
trace of millions of calls stays small.  Self time is a call's duration
minus the time its traced children cover.
"""

from __future__ import annotations

import importlib
import json
import statistics
from time import perf_counter

MODULES = ("preproj", "preproj.cartan", "preproj.cli", "preproj.coxeter",
           "preproj.fields", "preproj.linalg", "preproj.pathalg",
           "preproj.repmod", "preproj.tautilt")

# (metric prefix, module, attribute path, leaf kernel?)
TARGETS = (
    ("coxeter.enumerate_weyl", "preproj.coxeter", "enumerate_weyl", False),
    ("pathalg.build_algebra", "preproj.pathalg", "build_algebra", False),
    ("pathalg.verify_algebra", "preproj.pathalg", "verify_algebra", False),
    ("pathalg.mul_coords", "preproj.pathalg", "FiniteDimAlgebra.mul_coords", True),
    ("linalg.rref", "preproj.linalg", "rref", True),
    ("linalg.Subspace.add", "preproj.linalg", "Subspace.add", True),
    ("linalg.nullspace", "preproj.linalg", "nullspace", False),
    ("linalg.solve_matrix", "preproj.linalg", "solve_matrix", False),
    ("repmod.ModuleRep", "preproj.repmod", "ModuleRep.__init__", False),
    ("repmod.ModuleRep.act_word", "preproj.repmod", "ModuleRep.act_word", True),
    ("repmod.module_from_subspace", "preproj.repmod", "module_from_subspace", False),
    ("repmod.minimal_projective_presentation", "preproj.repmod",
     "minimal_projective_presentation", False),
    ("repmod.hom_space", "preproj.repmod", "hom_space", False),
    ("repmod.auslander_reiten_translate", "preproj.repmod",
     "auslander_reiten_translate", False),
    ("repmod.is_indecomposable", "preproj.repmod", "is_indecomposable", False),
    ("repmod.structure_series", "preproj.repmod", "structure_series", False),
    ("repmod.locally_free_rank", "preproj.repmod", "locally_free_rank", False),
    ("repmod.is_isomorphic", "preproj.repmod", "is_isomorphic", False),
    ("tautilt.extend_left", "preproj.tautilt", "extend_left", False),
    ("tautilt.extend_right", "preproj.tautilt", "extend_right", False),
    ("tautilt.ideal_product", "preproj.tautilt", "ideal_product", False),
    ("tautilt.Ideal.block", "preproj.tautilt", "Ideal.block", False),
    ("tautilt.verify_stt", "preproj.tautilt", "verify_stt", False),
    ("tautilt.classification_report", "preproj.tautilt",
     "classification_report", False),
    ("tautilt.mutation_graph", "preproj.tautilt", "mutation_graph", False),
    ("tautilt.left_mutation", "preproj.tautilt", "left_mutation", False),
    ("tautilt.ModuleNamer.name_block", "preproj.tautilt",
     "ModuleNamer.name_block", False),
    ("cli.main", "preproj.cli", "main", False),
)

# The reported per-layer metrics, in BENCHMARK.json order, with units.
METRICS = (
    ("coxeter.enumerate_weyl.s", "s"),
    ("coxeter.order", "count"),
    ("pathalg.build_algebra.s", "s"),
    ("pathalg.verify_algebra.s", "s"),
    ("pathalg.dim", "count"),
    ("pathalg.groebner_size", "count"),
    ("pathalg.mul_coords.calls", "count"),
    ("pathalg.mul_coords.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.max_cells", "count"),
    ("linalg.Subspace.add.calls", "count"),
    ("linalg.Subspace.add.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.solve_matrix.calls", "count"),
    ("repmod.ModuleRep.calls", "count"),
    ("repmod.ModuleRep.s", "s"),
    ("repmod.module_from_subspace.calls", "count"),
    ("repmod.module_from_subspace.self_s", "s"),
    ("repmod.minimal_projective_presentation.calls", "count"),
    ("repmod.minimal_projective_presentation.s", "s"),
    ("repmod.minimal_projective_presentation.hit_frac", "ratio"),
    ("repmod.hom_space.calls", "count"),
    ("repmod.hom_space.s", "s"),
    ("repmod.auslander_reiten_translate.s", "s"),
    ("repmod.is_indecomposable.s", "s"),
    ("repmod.structure_series.s", "s"),
    ("repmod.locally_free_rank.s", "s"),
    ("repmod.is_isomorphic.calls", "count"),
    ("repmod.is_isomorphic.s", "s"),
    ("repmod.is_isomorphic.true_frac", "ratio"),
    ("repmod.ModuleRep.act_word.calls", "count"),
    ("tautilt.extend_left.calls", "count"),
    ("tautilt.extend_left.s", "s"),
    ("tautilt.extend_right.s", "s"),
    ("tautilt.ideal_product.calls", "count"),
    ("tautilt.ideal_product.s", "s"),
    ("tautilt.Ideal.block.calls", "count"),
    ("tautilt.Ideal.block.s", "s"),
    ("tautilt.verify_stt.s", "s"),
    ("tautilt.classification_report.s", "s"),
    ("tautilt.mutation_graph.s", "s"),
    ("tautilt.left_mutation.calls", "count"),
    ("tautilt.left_mutation.s", "s"),
    ("tautilt.left_mutation.self_s", "s"),
    ("tautilt.ModuleNamer.name_block.s", "s"),
    ("cli.main.s", "s"),
    ("trace_overhead_s", "s"),
)


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Spans and counters for one traced pass; install, run, uninstall."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent span id, request id]
        self.totals = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}  # calls, s, self_s
        self.extra = {"coxeter.order": 0, "pathalg.dim": 0,
                      "pathalg.groebner_size": 0, "linalg.rref.max_cells": 0,
                      "presentation_hits": 0, "isomorphic_true": 0}
        self.request = None
        self._stack = []     # per active call: [child seconds, span id]
        self._undo = []

    # -- hooks that read arguments or results -------------------------------

    def _before(self, name, args):
        if name == "linalg.rref":
            cells = len(args[0]) * args[1]
            if cells > self.extra["linalg.rref.max_cells"]:
                self.extra["linalg.rref.max_cells"] = cells
        elif name == "repmod.minimal_projective_presentation":
            if "presentation" in args[0]._cache:
                self.extra["presentation_hits"] += 1

    def _after(self, name, result):
        if name == "coxeter.enumerate_weyl":
            self.extra["coxeter.order"] += result.order
        elif name == "pathalg.build_algebra":
            self.extra["pathalg.dim"] += result.dim
            self.extra["pathalg.groebner_size"] += len(result.groebner_words())
        elif name == "repmod.is_isomorphic" and result:
            self.extra["isomorphic_true"] += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, leaf):
        stack = self._stack
        spans = self.spans
        totals = self.totals[name]
        hooked_before = name in ("linalg.rref",
                                 "repmod.minimal_projective_presentation")
        hooked_after = name in ("coxeter.enumerate_weyl", "pathalg.build_algebra",
                                "repmod.is_isomorphic")
        tracer = self

        def wrapper(*args, **kwargs):
            if hooked_before:
                tracer._before(name, args)
            if leaf:
                span_id = None
            else:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                span_id = len(spans)
                spans.append([name, 0.0, 0.0, parent, tracer.request])
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if span_id is not None:
                    spans[span_id][1] = start
                    spans[span_id][2] = end
            if hooked_after:
                tracer._after(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every binding of every traced function; undo with uninstall."""
        modules = [importlib.import_module(m) for m in MODULES]
        for name, module_name, path, leaf in TARGETS:
            owner, attr = _resolve(module_name, path)
            orig = owner.__dict__[attr]
            wrapper = self._wrap(name, orig, leaf)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, orig))
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- report --------------------------------------------------------------

    def metrics(self):
        """Every METRICS value except trace_overhead_s, which needs a second pass."""
        out = {}
        for name, (calls, total, self_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        for key in ("coxeter.order", "pathalg.dim", "pathalg.groebner_size",
                    "linalg.rref.max_cells"):
            out[key] = self.extra[key]
        pres_calls = self.totals["repmod.minimal_projective_presentation"][0]
        out["repmod.minimal_projective_presentation.hit_frac"] = (
            self.extra["presentation_hits"] / pres_calls if pres_calls else 0.0)
        iso_calls = self.totals["repmod.is_isomorphic"][0]
        out["repmod.is_isomorphic.true_frac"] = (
            self.extra["isomorphic_true"] / iso_calls if iso_calls else 0.0)
        return out

    def write(self, path, origin):
        """Spans as JSON lines, times relative to ``origin``."""
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, request) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, round(start - origin, 7),
                                     round(end - origin, 7), parent, request]))
                fh.write("\n")


def median_metrics(per_pass):
    """Median of each metric over the traced passes of one run."""
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
