"""In-memory spans around the public functions of the `ybk` layers.

Wrappers are installed from the benchmark's own files: every public function
defined in one of the nine layer modules is replaced, in every layer module
namespace that binds it, by a wrapper that records one span (name, layer,
start, end, parent, job).  Calls between layers therefore show as nested
spans.  Per-letter helpers stay unwrapped.

Work counts are computed from arguments and results at the same boundary.
The time spent computing them is charged to no layer: it is added to the
parent's child time, like a nested span.
"""

from __future__ import annotations

import inspect
import json
import sys
from math import factorial
from time import perf_counter

LAYERS = (
    "solution",
    "constructions",
    "kgraph",
    "semigroup",
    "classify",
    "homology",
    "serialize",
    "catalog",
    "cli",
)
UNWRAPPED = {"encode_word", "decode_word", "apply_leg"}
COUNTS = (
    "classify.tables_tested",
    "classify.witness_searches",
    "classify.witnesses_found",
    "semigroup.words",
    "semigroup.classes",
    "constructions.level_entries",
    "kgraph.letters_normalized",
    "kgraph.diamond_cells",
    "homology.matrix_entries",
    "homology.matrix_nonzeros",
    "serialize.bytes_parsed",
    "serialize.bytes_emitted",
)
BOUNDARY_FUNCS = {"boundary_matrix", "derived_boundary"}
SNF_FUNCS = {"smith_normal_form", "invariant_factors"}


def _perm_rank(perm) -> int:
    """Position of `perm` in the lexicographic order itertools.permutations uses."""
    rank = 0
    rest = sorted(perm)
    for pos, value in enumerate(perm):
        idx = rest.index(value)
        rank += idx * factorial(len(perm) - pos - 1)
        rest.pop(idx)
    return rank


# Count hooks: hook(counts, delta, args, result, raised).  `delta(name)` is
# how much `name` grew inside the span, so an outer function counts only the
# work its nested calls did not already count.


def _count_enumerate(counts, delta, args, result, raised):
    n = args[0]
    if 1 <= n <= 3 and not raised:
        counts["classify.tables_tested"] += factorial(n * n)


def _count_sample(counts, delta, args, result, raised):
    if not raised:
        counts["classify.tables_tested"] += max(args[1], 0)


def _count_iso(counts, delta, args, result, raised):
    if raised:
        return
    n = args[0].size
    counts["classify.witness_searches"] += 1
    if result is None:
        counts["classify.tables_tested"] += factorial(n)
    else:
        counts["classify.witnesses_found"] += 1
        counts["classify.tables_tested"] += _perm_rank(result) + 1


def _count_conj(counts, delta, args, result, raised):
    if raised:
        return
    n = args[0].size
    counts["classify.witness_searches"] += 1
    if result is None:
        counts["classify.tables_tested"] += factorial(n) ** 2
    else:
        counts["classify.witnesses_found"] += 1
        tau, rho = result
        counts["classify.tables_tested"] += _perm_rank(tau) * factorial(n) + _perm_rank(rho) + 1


def _count_graded(counts, delta, args, result, raised):
    if not raised:
        counts["semigroup.words"] += args[0].size ** args[1]
        counts["semigroup.classes"] += len(result.classes)


def _count_growth(counts, delta, args, result, raised):
    if not raised and not delta("semigroup.words"):
        counts["semigroup.words"] += sum(args[0].size ** n for n in range(1, args[1] + 1))
        counts["semigroup.classes"] += sum(result[1:])


def _count_level_map(counts, delta, args, result, raised):
    if not raised:
        counts["constructions.level_entries"] += len(result.table)


def _count_level_solution(counts, delta, args, result, raised):
    if not raised and not delta("constructions.level_entries"):
        counts["constructions.level_entries"] += len(result.table)


def _count_normalize(counts, delta, args, result, raised):
    if not raised:
        counts["kgraph.letters_normalized"] += len(result.letters())


def _count_diamond(counts, delta, args, result, raised):
    counts["kgraph.diamond_cells"] += sum(args[1].degree) * sum(args[2].degree)


def _count_boundary(counts, delta, args, result, raised):
    if not raised:
        counts["homology.matrix_entries"] += result.rows * result.cols
        counts["homology.matrix_nonzeros"] += sum(1 for row in result.entries for v in row if v)


def _count_parse(counts, delta, args, result, raised):
    if not raised:
        counts["serialize.bytes_parsed"] += len(args[0].encode())


def _count_emit(counts, delta, args, result, raised):
    if not raised:
        counts["serialize.bytes_emitted"] += len(result.encode())


HOOKS = {
    "enumerate_solutions": _count_enumerate,
    "sample_ybe_solutions": _count_sample,
    "yb_isomorphic": _count_iso,
    "product_conjugate": _count_conj,
    "graded_elements": _count_graded,
    "growth": _count_growth,
    "level_map": _count_level_map,
    "level_solution": _count_level_solution,
    "normalize": _count_normalize,
    "complete_diamond": _count_diamond,
    "boundary_matrix": _count_boundary,
    "derived_boundary": _count_boundary,
    "parse_solution_document": _count_parse,
    "parse_theta_document": _count_parse,
    "canonical_json": _count_emit,
}


class Tracer:
    """Records spans while installed; `install` and `uninstall` swap the wrappers in and out."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self._patches: list = []
        self.reset_round()

    def reset_round(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.func_self_s: dict = {}
        self.counts = dict.fromkeys(COUNTS, 0)

    def _targets(self):
        """(namespace, attribute, function, layer) for every binding to wrap."""
        prefix = "ybk."
        namespaces = [sys.modules["ybk"]] + [sys.modules[prefix + layer] for layer in LAYERS]
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(value):
                    continue
                layer = value.__module__[len(prefix):] if value.__module__.startswith(prefix) else None
                if layer in LAYERS:
                    yield namespace, attr, value, layer

    def install(self):
        if self._patches:
            return
        for namespace, attr, fn, layer in list(self._targets()):
            setattr(namespace, attr, self._wrap(fn, layer))
            self._patches.append((namespace, attr, fn))

    def uninstall(self):
        for namespace, attr, fn in self._patches:
            setattr(namespace, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, layer):
        name = fn.__name__
        hook = HOOKS.get(name)
        tracer = self
        spans = self.spans
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, len(spans), dict(tracer.counts) if hook else None]
            spans.append(None)
            stack.append(frame)
            raised = True
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                tracer.calls[layer] += 1
                tracer.self_s[layer] += own
                key = (layer, name)
                tracer.func_self_s[key] = tracer.func_self_s.get(key, 0.0) + own
                spans[frame[1]] = (name, layer, start, end, parent[1] if parent else -1, tracer.job)
                if parent is not None:
                    parent[0] += duration
                if hook is not None:
                    before = frame[2]
                    hook(tracer.counts, lambda c: tracer.counts[c] - before[c], args, result, raised)
                    if parent is not None:
                        parent[0] += perf_counter() - end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = name
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def clear_stack(self):
        """Drop frames left open by an exception raised inside a wrapper's own bookkeeping."""
        self.stack.clear()

    def round_metrics(self, run_s: float) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / run_s if run_s > 0 else 0.0
        out.update(self.counts)
        searches = self.counts["classify.witness_searches"]
        out["classify.witness_hit_ratio"] = (
            self.counts["classify.witnesses_found"] / searches if searches else 0.0
        )
        out["homology.boundary_s"] = sum(
            t for (layer, fn), t in self.func_self_s.items() if layer == "homology" and fn in BOUNDARY_FUNCS
        )
        out["homology.snf_s"] = sum(
            t for (layer, fn), t in self.func_self_s.items() if layer == "homology" and fn in SNF_FUNCS
        )
        return out

    def write(self, path, origin: float) -> int:
        """Write the recorded spans as JSON lines, times in seconds from `origin`."""
        written = 0
        with open(path, "w") as fh:
            for idx, span in enumerate(self.spans):
                if span is None:
                    continue
                name, layer, start, end, parent, job = span
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "layer": layer,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                            "parent": parent,
                            "job": job,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )
                written += 1
        return written
