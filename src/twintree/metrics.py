"""Cluster quality scores: modularity, set-matching measures, alignment.

All scores accept a partition as a list of disjoint vertex sets
covering 0..n-1.  Modularity follows the directed convention (out-
degrees against in-degrees, total edge weight as the normalizer), so
it applies unchanged to both digraphs and their symmetrizations.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .clustering import ClusterTree
from .digraph import WeightedDigraph, label_index


Partition = list[frozenset]


def check_partition(partition: Sequence, n: int) -> Partition:
    """Validate a disjoint cover of range(n); returns frozensets."""
    seen: set[int] = set()
    out: Partition = []
    for part in partition:
        fs = frozenset(int(v) for v in part)
        if not fs:
            raise ValueError("empty cluster in partition")
        if fs & seen:
            raise ValueError("overlapping clusters in partition")
        seen |= fs
        out.append(fs)
    if seen != set(range(n)):
        raise ValueError("partition does not cover the vertex set")
    return out


def partition_from_labels(labels: Sequence[int]) -> Partition:
    """Group vertex indices by label value, in sorted label order."""
    groups: dict[int, set[int]] = {}
    for v, lab in enumerate(labels):
        groups.setdefault(int(lab), set()).add(v)
    return [frozenset(groups[k]) for k in sorted(groups)]


def modularity(G: WeightedDigraph, partition: Sequence) -> float:
    """Directed weighted modularity of a partition.

    (1/m) * sum over clusters of [ internal weight
        - (out-weight of cluster) * (in-weight of cluster) / m ].
    A graph with no edges has no modularity; a single cluster scores 0.
    One pass over the edges scores every cluster (see _label_modularity).
    """
    parts = check_partition(partition, G.n)
    labels = np.empty(G.n, dtype=np.intp)
    for j, part in enumerate(parts):
        labels[np.fromiter(part, dtype=np.intp)] = j
    return _label_modularity(G, labels, len(parts), _degree_totals(G))


def _degree_totals(G: WeightedDigraph
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """(m, out-degrees, in-degrees): the graph-side terms of every
    modularity score of G, computed once per graph."""
    m = G.total_weight()
    if m <= 0:
        raise ValueError("modularity needs at least one edge")
    return m, G.out_degrees(), G.in_degrees()


def _label_modularity(G: WeightedDigraph, labels: np.ndarray,
                      n_parts: int, totals) -> float:
    """Modularity of the partition {v : labels[v] == j}, j = 0..n_parts-1,
    given G's ``_degree_totals``.

    Empty labels are skipped.  The internal edges are grouped by label
    with a stable sort, so each cluster's weights are summed in CSR
    order, the order of its submatrix's stored entries; clusters are
    added up in label order.
    """
    m, k_out, k_in = totals
    W = G.weights
    row_label = np.repeat(labels, np.diff(W.indptr))
    inside = row_label == labels[W.indices]
    edge_label = row_label[inside]
    by_label = np.argsort(edge_label, kind="stable")
    internal = W.data[inside][by_label]
    edge_bounds = np.searchsorted(edge_label[by_label], np.arange(n_parts + 1))
    members = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[members], np.arange(n_parts + 1))
    score = 0.0
    for j in range(n_parts):
        idx = members[bounds[j]:bounds[j + 1]]
        if idx.size == 0:
            continue
        inner = float(internal[edge_bounds[j]:edge_bounds[j + 1]].sum())
        score += inner - float(k_out[idx].sum()) * float(k_in[idx].sum()) / m
    return score / m


def random_coloring_baseline(G: WeightedDigraph, n_colors: int,
                             trials: int, seed: int
                             ) -> tuple[float, float, list[float]]:
    """Modularity of uniform random colorings: (mean, std, samples).

    Colorings that miss a color are kept (their occupied classes form
    the partition, in color order); the std is the population standard
    deviation.  Each coloring is scored straight from its color vector,
    against degree totals computed once per call.
    """
    rng = np.random.default_rng(seed)
    totals = _degree_totals(G)
    samples = []
    for _ in range(trials):
        colors = rng.integers(0, n_colors, size=G.n)
        samples.append(_label_modularity(G, colors, n_colors, totals))
    arr = np.array(samples)
    return float(arr.mean()), float(arr.std()), samples


def f_measure(pred: Sequence, truth: Sequence, n: int) -> float:
    """Size-weighted best-match F score of a predicted partition.

    Each predicted cluster C picks its best true class L by the dice
    overlap 2|C & L| / (|C| + |L|); the scores are averaged with
    weights |C|.  Equal partitions score 1.
    """
    pred = check_partition(pred, n)
    truth = check_partition(truth, n)
    total = 0.0
    for C in pred:
        best = max(2.0 * len(C & L) / (len(C) + len(L)) for L in truth)
        total += len(C) * best
    return total / n


def confusion_matrix(pred: Sequence, truth: Sequence, n: int) -> np.ndarray:
    """Class-recall matrix under best-match assignment of clusters.

    Every predicted cluster is assigned to the true class it overlaps
    most (ties to the lowest class index).  Entry [j, k] is the
    fraction of class k's vertices landing in clusters assigned to
    class j, so every column sums to 1.  Classes must all be nonempty
    (check_partition enforces that); the matrix is square in the
    number of true classes.
    """
    pred = check_partition(pred, n)
    truth = check_partition(truth, n)
    ncls = len(truth)
    M = np.zeros((ncls, ncls))
    for C in pred:
        overlaps = [len(C & L) for L in truth]
        j = int(np.argmax(overlaps))
        for k, L in enumerate(truth):
            M[j, k] += len(C & L) / len(L)
    return M


def tree_partition(tree: ClusterTree, level: int, n: int) -> Partition:
    """Partition of the vertex set induced by a tree level."""
    return check_partition(tree.partition_at_level(level), n)


def product_partition(tree_es: ClusterTree, tree_os: ClusterTree,
                      level: int, n: int) -> Partition:
    """Common refinement of the two trees' level partitions.

    Vertices are grouped by the pair (ancestor in the first tree,
    ancestor in the second); empty intersections vanish.
    """
    groups: dict[tuple[int, int], set[int]] = {}
    for v in range(n):
        key = (tree_es.ancestor_at_level(v, level),
               tree_os.ancestor_at_level(v, level))
        groups.setdefault(key, set()).add(v)
    return check_partition(
        [groups[k] for k in sorted(groups)], n)


def align_and_score(G: WeightedDigraph, tree_es: ClusterTree,
                    tree_os: ClusterTree,
                    labels: Optional[dict[int, tuple]] = None,
                    levels: Optional[Sequence[int]] = None) -> list[dict]:
    """Score the twin trees level by level on their common refinement.

    Returns one record per level with the cluster count and modularity,
    plus the F score against ground-truth labels when given (labels use
    their first path component as the class).
    """
    depth = min(tree_es.depth(), tree_os.depth())
    if levels is None:
        levels = range(1, depth + 1)
    truth = None
    if labels:
        index = label_index(labels)
        classes: dict[int, set[int]] = {}
        for v in range(G.n):
            if v not in index:
                raise ValueError(f"vertex {v} has no label")
            classes.setdefault(index[v], set()).add(v)
        truth = [frozenset(classes[c]) for c in sorted(classes)]
    records = []
    for level in levels:
        parts = product_partition(tree_es, tree_os, level, G.n)
        rec = {
            "level": int(level),
            "n_clusters": len(parts),
            "modularity": modularity(G, parts),
        }
        if truth is not None:
            rec["f_measure"] = f_measure(parts, truth, G.n)
        records.append(rec)
    return records
