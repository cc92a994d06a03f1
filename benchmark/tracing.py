"""Span recorder that wraps the program's public functions from outside.

``install`` replaces each traced function or method with a wrapper that
records a span (name, start, end, parent span, run id) in memory.  Modules
that bound a function at import time (``from .symbols import is_elliptic``)
get the wrapper too, so no call slips past.  ``summarize`` turns the span
tree into per-layer call counts and self times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, module, class or None, attribute)
TRACED = [
    ("quantize.multiply", "quantize", "LabeledOperator", "multiply"),
    ("quantize.op_classical", "quantize", None, "op_classical"),
    ("transforms.conjugate", "transforms", "ModeMap", "conjugate"),
    ("transforms.weighted_shift_matrix", "transforms", None, "weighted_shift_matrix"),
    ("symbols.is_elliptic", "symbols", None, "is_elliptic"),
    ("symbols.invert_principal", "symbols", None, "invert_principal"),
    ("problems.operator", "problems", "GOperatorProblem", "operator"),
    ("index_engine.parametrix", "index_engine", None, "parametrix"),
    ("index_engine.index_of_matrix", "index_engine", None, "index_of_matrix"),
    ("index_engine.tr_g", "index_engine", None, "tr_g"),
    ("semiclass.star", "semiclass", "StarSeries", "star"),
    ("semiclass.dx", "semiclass", "SampledTerm", "dx"),
    ("semiclass.dxi", "semiclass", "SampledTerm", "dxi"),
    ("semiclass.transport_term", "semiclass", None, "transport_term"),
    ("semiclass.symbol_parametrix_h", "semiclass", None, "symbol_parametrix_h"),
    ("semiclass.tau_g", "semiclass", None, "tau_g"),
    ("semiclass.laurent_fit", "semiclass", None, "laurent_fit"),
]
LAB = ["lab.parse_config", "lab.run", "lab.emit_reports"]


def _count_multiply(counts, args, result):
    a, b = args[0], args[1]
    pairs = len(a.parts) * len(b.parts)
    counts["quantize.multiply.part_products"] += pairs
    # computed, not counted: one complex dim x dim matmul per part product
    counts["quantize.multiply.gflop"] += 8.0 * a.window.dim ** 3 * pairs / 1e9


def _count_inversion(counts, args, result):
    counts["symbols.invert_principal.grid_growth_sum"] += result.grid.size / args[0].grid.size


AFTER = {"quantize.multiply": _count_multiply,
         "symbols.invert_principal": _count_inversion}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []           # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        after = AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result
        return wrapper

    def install(self) -> list[str]:
        """Wrap every TRACED target; return the import-time bindings rebound."""
        rebound = []
        for name, modname, clsname, attr in TRACED:
            module = importlib.import_module(f"gindexlab.{modname}")
            owner = getattr(module, clsname) if clsname else module
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            if clsname:
                continue
            for other_name, other in list(sys.modules.items()):
                if not other_name.startswith("gindexlab.") or other is module:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        rebound.append(f"{other_name[len('gindexlab.'):]}.{key}")
        return rebound

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
                for n, s, e, p in self.spans]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer calls and self times, plus ratios read off the span tree."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for prefix, *_ in TRACED:
        out[f"{prefix}.calls"] = 0
        out[f"{prefix}.s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start - child_time[i])
    for name in LAB:
        out.pop(f"{name}.calls", None)
    counts = tracer.counts
    out["quantize.multiply.part_products"] = int(counts["quantize.multiply.part_products"])
    out["quantize.multiply.gflop"] = counts["quantize.multiply.gflop"]
    inversions = out["symbols.invert_principal.calls"]
    out["symbols.invert_principal.grid_growth"] = (
        counts["symbols.invert_principal.grid_growth_sum"] / inversions if inversions else 0.0)
    out["index_engine.parametrix.multiply_calls"] = sum(
        1 for name, _, _, parent in spans
        if name == "quantize.multiply" and parent >= 0 and spans[parent][0] == "index_engine.parametrix")
    run_ids = [i for i, sp in enumerate(spans) if sp[0] == "lab.run"]
    if run_ids:
        root = run_ids[0]
        below = _descendants(spans, root)
        covered = sum(spans[i][2] - spans[i][1] - child_time[i] for i in below)
        out["trace.coverage"] = covered / (spans[root][2] - spans[root][1])
    return out


def _descendants(spans: list[list], root: int) -> list[int]:
    inside = {root}
    found = []
    for i in range(root + 1, len(spans)):          # children follow their parent
        if spans[i][3] in inside:
            inside.add(i)
            found.append(i)
    return found
