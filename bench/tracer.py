"""Span tracer that wraps public sponge functions from outside the package.

``Tracer.install`` replaces each target function by a wrapper in every
``sponge`` module namespace that holds it (the defining module, modules
that imported the name, and the package), so calls made inside the
package are traced as well as calls made by the benchmark.  ``uninstall``
puts the original objects back.  Spans are kept in memory as tuples
``(span_id, parent_id, item, name, start_ns, end_ns)``.

Per-pair methods such as ``Box.dist_sq`` are not wrapped; their work is
computed from the sizes of the traced calls' inputs and outputs instead
(the ``count_*`` functions below), which costs nothing per pair.
"""

import functools
import importlib
import sys
import time
from collections import Counter


def count_boxes(counts, args, result):
    counts["components.boxes"] += len(result)


def count_components(counts, args, result):
    n = len(args[0])
    counts["components.pair_tests"] += n * (n - 1) // 2
    counts["components.diam_pairs"] += sum(len(b) * (len(b) + 1) // 2
                                           for b in result.blocks)
    counts["components.merges"] += n - len(result.blocks)


def count_intervals_out(counts, args, result):
    counts["components.intervals_out"] += len(result.intervals)


def count_intervals_in(counts, args, result):
    counts["components.intervals_in"] += len(args[0])


def count_lipschitz_pairs(counts, args, result):
    counts["cantor.bilipschitz_check.pairs"] += result.pairs


# (module.function, counter or None): every function whose calls and self
# time the benchmark reports.
TARGETS = (
    ("ifs.parse_ifs", None),
    ("ifs.validate_lg", None),
    ("ifs.cylinder_box", None),
    ("tree.build_labeled_tree", None),
    ("tree.fiber_ifs", None),
    ("classify.classify", None),
    ("components.enumerate_cylinders", count_boxes),
    ("components.delta_components_sq", count_components),
    ("components.pre_moran_intervals", count_intervals_out),
    ("components.interval_components", count_intervals_in),
    ("components.check_product_decomposition", None),
    ("cantor.analyze_special_system", None),
    ("cantor.cylinder_length", None),
    ("cantor.build_cantor_tree", None),
    ("cantor.bilipschitz_check", count_lipschitz_pairs),
    ("cantor.to_binary_tree", None),
    ("util.sqrt_decimal_str", None),
    ("cli.run", None),
    ("cli.emit", None),
)


class Tracer:
    """Records spans and work counts of the TARGETS while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.item = None
        self._stack = []
        self._saved = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {q.split(".")[0] for q, _ in TARGETS}
        for module in sorted(modules):
            importlib.import_module("sponge." + module)
        namespaces = [m for name, m in sys.modules.items()
                      if name == "sponge" or name.startswith("sponge.")]
        for qualname, counter in TARGETS:
            module, func = qualname.split(".")
            original = getattr(sys.modules["sponge." + module], func)
            wrapper = self._wrap(qualname, original, counter)
            for ns in namespaces:
                if vars(ns).get(func) is original:
                    self._saved.append((ns, func, original))
                    setattr(ns, func, wrapper)

    def uninstall(self):
        while self._saved:
            ns, func, original = self._saved.pop()
            setattr(ns, func, original)

    def reset(self):
        """Drop the spans and counts recorded so far."""
        self.spans = []
        self.counts = Counter()

    def _wrap(self, name, fn, counter):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self.spans
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, self.item, name, start, end)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return wrapper


def layer_stats(spans):
    """Per span name: (calls, self_ns), where a span's self time is its
    duration minus the durations of its direct children.  Spans come from
    one thread, so children never overlap each other."""
    child_ns = [0] * len(spans)
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls = Counter()
    self_ns = Counter()
    for span_id, _, _, name, start, end in spans:
        calls[name] += 1
        self_ns[name] += end - start - child_ns[span_id]
    return {name: (calls[name], self_ns[name]) for name in calls}
