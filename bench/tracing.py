"""Per-layer tracing by wrapping monomat's public functions in place.

Each layer is a function the CLI and the pipelines call through a module
attribute (``extraction.best_tree_like``, ``cli.parse_matrix``, ...). The
tracer replaces that function object in every ``monomat`` namespace that
binds it, so the pipelines' own inner calls are timed and no file of the
package changes. Spans are recorded only inside an op's root span, so the
harness's own output checks never count.

A span layer accumulates self time (its duration minus its child spans) and
a call count. A counted layer only counts calls: its time stays in the
enclosing span, which keeps very frequent calls (``trees.vertex_ancestor``)
from inflating the overhead.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (module, qualified name) of each timed layer, outermost first.
SPAN_LAYERS = (
    ("cli", "main"),
    ("matrix", "parse_matrix"),
    ("matrix", "format_matrix"),
    ("matrix", "is_row_monotone"),
    ("matrix", "is_monotone"),
    ("matrix", "SubmatrixWitness.validate"),
    ("extraction", "IndexedSequence.from_columns"),
    ("extraction", "best_tree_like"),
    ("extraction", "find_row_monotone"),
    ("extraction", "monochromatic_submatrix"),
    ("extraction", "monotone_subsequence_1d"),
    ("extraction", "find_monotone"),
    ("trees", "levels_leafset"),
    ("oracle", "brute_force_row_monotone"),
    ("oracle", "brute_force_monotone"),
    ("witness", "sample_sign_matrix"),
    ("witness", "verify_witness"),
    ("witness", "WitnessMatrix.materialize"),
)

# Layers whose calls are counted but not timed.
COUNT_LAYERS = (
    ("trees", "vertex_ancestor"),
    ("oracle", "brute_force_monochromatic"),
)


class LayerStats:
    __slots__ = ("self_s", "calls", "hits", "items")

    def __init__(self):
        self.self_s = 0.0
        self.calls = 0
        self.hits = 0  # calls with a useful outcome (a run found, a sample accepted)
        self.items = 0  # work items reported by the callee (row sets tested)


def _on_return(name):
    """Hook that reads a layer's outcome from its return value."""
    if name == "extraction.monotone_subsequence_1d":
        def hook(stats, result):
            stats.hits += result is not None
        return hook
    if name == "witness.verify_witness":
        def hook(stats, result):
            stats.items += getattr(result, "row_sets_tested", 0)
        return hook
    if name == "witness.sample_sign_matrix":
        def hook(stats, result):
            stats.hits += 1  # the sampler returns only an accepted sample
        return hook
    return None


class Tracer:
    """Installs and removes the layer wrappers; aggregates per-layer totals."""

    def __init__(self):
        self.stats = {f"{mod}.{qual}": LayerStats() for mod, qual in SPAN_LAYERS + COUNT_LAYERS}
        self.missing: list[str] = []
        self._stack: list[list] = []  # frames: [start, child seconds, layer name]
        self._patches: list[tuple] | None = None  # built on first install
        self.root_s = 0.0
        self.ops = 0

    # -- spans -----------------------------------------------------------
    def _span(self, name, fn):
        stack = self._stack
        stats = self.stats[name]
        hook = _on_return(name)

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [perf_counter(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                stack.pop()
                stats.self_s += duration - frame[1]
                stats.calls += 1
                stack[-1][1] += duration
            if hook is not None:
                hook(stats, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        stack = self._stack
        stats = self.stats[name]
        sampling = self.stats["witness.sample_sign_matrix"]

        def wrapper(*args, **kwargs):
            if stack:
                stats.calls += 1
                # A block search inside the sampler is one rejection-sampling attempt.
                if stack[-1][2] == "witness.sample_sign_matrix":
                    sampling.items += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def root(self):
        """One op's root span; layers record only inside it."""
        frame = [perf_counter(), 0.0, "op"]
        self._stack.append(frame)
        try:
            yield
        finally:
            self._stack.pop()
            self.root_s += perf_counter() - frame[0]
            self.ops += 1

    # -- installation ----------------------------------------------------
    def install(self):
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def _plan(self):
        """(owner, attribute, original, wrapper) for every binding of every layer."""
        namespaces = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "monomat" or key.startswith("monomat."))
        ]
        patches = []
        for layers, make in ((SPAN_LAYERS, self._span), (COUNT_LAYERS, self._counter)):
            for mod_name, qual in layers:
                name = f"{mod_name}.{qual}"
                owner = sys.modules.get(f"monomat.{mod_name}")
                *cls_path, attr = qual.split(".")
                for part in cls_path:
                    owner = getattr(owner, part, None)
                raw = None if owner is None else vars(owner).get(attr)
                if raw is None:
                    self.missing.append(name)
                elif isinstance(raw, classmethod):
                    patches.append((owner, attr, raw, classmethod(make(name, raw.__func__))))
                elif cls_path:
                    patches.append((owner, attr, raw, make(name, raw)))
                else:
                    wrapped = make(name, raw)
                    patches.extend(
                        (ns, key, raw, wrapped)
                        for ns in namespaces
                        for key, value in vars(ns).items()
                        if value is raw
                    )
        return patches

    # -- results ---------------------------------------------------------
    def layer_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

