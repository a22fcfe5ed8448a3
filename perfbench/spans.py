"""In-memory span tracing of twintree's layers, bound from outside the package.

Each traced name is rebound at every place the package looks it up at
call time: a module global that other code reads through the module,
or an attribute of a class (so ``self.analyze`` inside the engine is
traced too).  Patching only the defining module would miss the calls
that go through another module's copy of the name, such as
``twintree.clustering.graph_distance``.

A span is ``[name, start, end, parent, run]``; ``parent`` is the index
of the enclosing span or -1.  Self time is a span's duration minus the
durations of its direct children (calls are synchronous, so children
never overlap).
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> every (module, attribute path) where it is looked up.
SITES: dict[str, list[tuple[str, str]]] = {
    **{f"cli.{stage}": [("twintree.cli", f"cmd_{stage}")]
       for stage in ("ingest", "cluster", "trees", "grid", "analyze",
                     "approx", "metrics", "report")},
    "digraph.load_edge_list": [("twintree.cli", "load_edge_list"),
                               ("twintree.digraph", "load_edge_list")],
    "digraph.symmetrize": [("twintree.clustering", "symmetrize"),
                           ("twintree.digraph", "symmetrize")],
    "digraph.graph_distance": [("twintree.clustering", "graph_distance"),
                               ("twintree.digraph", "graph_distance")],
    "clustering.twt": [("twintree.cli", "twt"),
                       ("twintree.clustering", "twt")],
    "clustering.medoid_partition": [("twintree.clustering",
                                     "medoid_partition")],
    "clustering.coarse_grain": [("twintree.clustering", "coarse_grain")],
    "filtration.build_filtration": [("twintree.cli", "build_filtration"),
                                    ("twintree.filtration",
                                     "build_filtration")],
    "basis.value_table": [("twintree.basis", "TreeBasis.value_table")],
    # GridAnalysis is patched on the class, which is also the object
    # that twintree.cli.GridAnalysis names.
    "analysis.engine_build": [("twintree.analysis", "GridAnalysis.__init__")],
    "analysis.gram_orthonormalize": [("twintree.analysis",
                                      "gram_orthonormalize")],
    "analysis.lp": [("twintree.analysis", "linprog")],
    "analysis.analyze": [("twintree.analysis", "GridAnalysis.analyze")],
    "analysis.synthesize": [("twintree.analysis", "GridAnalysis.synthesize")],
    "analysis.smoothness_profile": [("twintree.analysis",
                                     "GridAnalysis.smoothness_profile")],
    "analysis.default_multiplier": [("twintree.analysis",
                                     "default_multiplier")],
    "metrics.modularity": [("twintree.metrics", "modularity")],
    "metrics.align_and_score": [("twintree.metrics", "align_and_score")],
    "metrics.random_coloring_baseline": [("twintree.metrics",
                                          "random_coloring_baseline")],
}

# Stages are the roots of a CLI operation: their time is reported
# inclusive; every library span reports self time.
INCLUSIVE = frozenset(n for n in SITES if n.startswith("cli."))


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans while installed; ``run`` tags the spans of one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, sites in SITES.items():
            for module, path in sites:
                owner, attr = _owner(module, path)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self, runs=None) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, seconds), seconds being self time except
        for the inclusive cli stages; ``runs`` selects spans by run tag."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for i, (name, start, end, _, tag) in enumerate(self.spans):
            if runs is not None and tag not in runs:
                continue
            dur = end - start
            calls, secs = out.get(name, (0, 0.0))
            out[name] = (calls + 1,
                         secs + (dur if name in INCLUSIVE else dur - child[i]))
        return out
