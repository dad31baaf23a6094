"""Span tracing around the public functions of each pbindex module.

``Tracer.enable`` wraps the listed functions and rebinds every name that
refers to them in every loaded ``pbindex`` module, so ``from ... import``
copies (``_fsum`` in approx, indices and oracle; ``banzhaf_influence`` in
oracle) are traced too; ``Tracer.disable`` restores the originals.  Spans (id, name, start, end, parent) stay in memory
and are written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# module -> wrapped functions; "Class.method" wraps a method on the class.
TARGETS = {
    "cli": ("parse_game", "parse_profile", "parse_subsets", "write_rows"),
    "core": ("PseudoBooleanFunction.__init__", "mobius", "zeta", "subset_products",
             "s_difference", "sigma_s"),
    "measure": ("ProbabilityProfile.weights", "_fsum", "inner_product", "expectation",
                "covariance", "variance", "basis_function"),
    "approx": ("best_s_approximation", "best_k_approximation", "residual_norm"),
    "indices": ("index_report", "banzhaf_interaction", "banzhaf_influence",
                "shapley_generalized_value", "normalized_influence", "g_function"),
    "oracle": ("mc_expectation", "cdf_integral_check", "diagonal_quadrature", "cube_average"),
}
# banzhaf_influence spans are labelled by their ``method`` argument.
INFLUENCE_METHODS = ("mobius", "projection", "average", "inner-product")


def _span_name(module: str, target: str) -> str:
    return f"{module}.{target[:-len('.__init__')] if target.endswith('.__init__') else target}"


def span_names() -> List[str]:
    names = []
    for module, targets in TARGETS.items():
        for target in targets:
            base = _span_name(module, target)
            if target == "banzhaf_influence":
                names.extend(f"{base}.{m}" for m in INFLUENCE_METHODS)
            else:
                names.append(base)
    return names


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["measure._fsum.elems"] = "count"
    units["core.mobius.hit_ratio"] = "ratio"
    units["measure.ProbabilityProfile.weights.hit_ratio"] = "ratio"
    for module in TARGETS:
        units[f"{module}.errors"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


Span = Tuple[int, str, float, float, Optional[int]]


class Tracer:
    """Records spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.hits: Counter = Counter()
        self.elems = 0
        self.errors: Counter = Counter()
        self._stack: List[Tuple[int, str]] = []  # (span id, module) of open spans
        self._next_id = 0
        self._bindings: List[Tuple[object, str, Callable, Callable]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, module: str, name: str, fn: Callable,
              label: Optional[Callable] = None, probe: Optional[Callable] = None) -> Callable:
        from pbindex.errors import PbindexError

        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = label(args, kwargs) if label else name
            if probe:
                probe(span, args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = tracer._next_id
            tracer._next_id += 1
            stack.append((sid, module))
            start = clock()
            try:
                return fn(*args, **kwargs)
            except PbindexError:
                if parent is None or parent[1] != module:
                    tracer.errors[module] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((sid, span, start, end, parent[0] if parent else None))

        return wrapper

    def root(self, name: str):
        """A callable that runs ``fn(*args)`` as the root span of one CLI command."""
        return self._wrap("command", name, lambda fn, *a: fn(*a))

    def enable(self) -> None:
        """Bind the wrappers (built on first use) in place of the originals."""
        if not self._bindings:
            self._bindings = self._build_bindings()
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def disable(self) -> None:
        """Restore the original functions; recorded spans are kept."""
        for owner, attr, original, _ in self._bindings:
            setattr(owner, attr, original)

    def _build_bindings(self) -> List[Tuple[object, str, Callable, Callable]]:
        import pbindex.cli  # noqa: F401  (loads every pbindex module)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pbindex" or name.startswith("pbindex.")}

        def hit_mobius(span, args):
            self.hits[span + ".calls"] += 1
            self.hits[span + ".hits"] += args[0]._mobius_cache is not None

        def hit_weights(span, args):
            self.hits[span + ".calls"] += 1
            self.hits[span + ".hits"] += args[0]._weights is not None

        def count_elems(span, args):
            self.elems += args[0].size

        def influence_label(args, kwargs):
            method = kwargs.get("method", args[3] if len(args) > 3 else "mobius")
            return f"indices.banzhaf_influence.{method}"

        probes = {"core.mobius": hit_mobius, "measure.ProbabilityProfile.weights": hit_weights,
                  "measure._fsum": count_elems}
        bindings = []
        for module, targets in TARGETS.items():
            home = modules[f"pbindex.{module}"]
            for target in targets:
                name = _span_name(module, target)
                label = influence_label if target == "banzhaf_influence" else None
                if "." in target:
                    cls_name, meth = target.split(".")
                    cls = getattr(home, cls_name)
                    original = getattr(cls, meth)
                    wrapped = self._wrap(module, name, original, label, probes.get(name))
                    bindings.append((cls, meth, original, wrapped))
                    continue
                original = getattr(home, target)
                wrapped = self._wrap(module, name, original, label, probes.get(name))
                for mod in modules.values():
                    bindings.extend((mod, attr, original, wrapped)
                                    for attr, value in vars(mod).items() if value is original)
        return bindings

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self, bounds: Sequence[Tuple[int, int]]) -> Dict[str, float]:
        """Per-iteration calls and median self time per span, plus counters.

        ``bounds`` holds one (first, end) slice of ``spans`` per traced
        iteration; counters are divided by the number of iterations.
        """
        iterations = len(bounds)
        calls: Counter = Counter()
        self_by_iter: Dict[str, List[float]] = defaultdict(lambda: [0.0] * iterations)
        for k, (lo, hi) in enumerate(bounds):
            chunk = self.spans[lo:hi]
            child: Dict[Optional[int], float] = defaultdict(float)
            for _, _, start, end, parent in chunk:
                child[parent] += end - start
            for sid, name, start, end, _ in chunk:
                calls[name] += 1
                self_by_iter[name][k] += (end - start) - child.get(sid, 0.0)
        out: Dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name] / iterations
            out[f"{name}.self_s"] = statistics.median(self_by_iter[name]) if name in self_by_iter else 0.0
        out["measure._fsum.elems"] = self.elems / iterations
        for name in ("core.mobius", "measure.ProbabilityProfile.weights"):
            attempts = self.hits[name + ".calls"]
            out[f"{name}.hit_ratio"] = self.hits[name + ".hits"] / attempts if attempts else 0.0
        for module in TARGETS:
            out[f"{module}.errors"] = self.errors[module] / iterations
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
