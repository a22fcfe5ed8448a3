"""Cluster quality scores: modularity, set-matching measures, alignment.

The public scores accept a partition as a list of disjoint vertex sets
(any iterables of vertex ids, numpy arrays included) covering 0..n-1;
``modularity`` also accepts a (trials, n) integer label matrix, whose
rows it scores at once.  Modularity follows the directed convention
(out-degrees against in-degrees, total edge weight as the normalizer),
so it applies unchanged to both digraphs and their symmetrizations.

Scores are computed on label vectors (a cluster index per vertex), to
which a public function converts its partitions once, on entry.  One
kernel scores any number of them at once: each cluster's internal
weight is summed over its edges in CSR order and its out- and
in-weights over its vertices in vertex order, each sum running from
0.0, and the clusters are added up in label order; the graph's total
weight and degrees are computed once per graph
(``WeightedDigraph.degree_totals``).  The seeded-trial protocol scores
all trials' twin trees together, level by level on their common
refinements, from the two (trials, depth, n) level-id stacks that
``TwinTreeBuilder.level_ids_batch`` gives without building trees: one
label matrix, one modularity call and one contingency table per level
for every trial that reaches it, a trial's unused bins adding exactly
+0.0.  ``random_coloring_baseline`` scores its colorings in blocks.  On
integer weights every sum is exact; on other weights a score can differ
in the last bits from one summed in another order.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .clustering import ClusterTree, _parts, _row_ranks
from .digraph import WeightedDigraph, label_index


Partition = list[frozenset]

# random_coloring_baseline scores at most this many (coloring, stored
# edge) pairs at once, and a batched score about this many (row, stored
# edge) or (row, contingency cell) pairs, which bounds their transient
# arrays.
BLOCK_ENTRIES = 1 << 16


def partition_from_labels(labels: Sequence[int]) -> Partition:
    """Group vertex indices by label value, in sorted label order."""
    _, compact = np.unique(np.asarray(labels), return_inverse=True)
    return [frozenset(part.tolist()) for part in _parts(compact)]


def _partition_labels(partition: Sequence, n: int) -> tuple[np.ndarray, int]:
    """(label vector, part count) of a disjoint cover of range(n): part j's
    vertices get label j.  A vertex repeated inside one part counts once;
    an empty part, a vertex in two parts, or a vertex outside range(n) or
    missing from every part is an error, and so is n < 1."""
    if n < 1:
        raise ValueError(f"a partition needs at least one vertex, not n={n}")
    ids = [p if isinstance(p, np.ndarray) else np.fromiter(p, dtype=np.intp)
           for p in partition]
    sizes = [p.size for p in ids]
    # one cast, of all parts at once
    ids = (np.concatenate(ids, dtype=np.intp, casting="unsafe") if ids
           else np.zeros(0, dtype=np.intp))
    if 0 in sizes:
        raise ValueError("empty cluster in partition")
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError("partition does not cover the vertex set")
    part_of = np.repeat(np.arange(len(sizes)), sizes)
    labels = np.full(n, -1, dtype=np.intp)
    labels[ids] = part_of
    if np.any(labels[ids] != part_of):
        raise ValueError("overlapping clusters in partition")
    if np.any(labels < 0):
        raise ValueError("partition does not cover the vertex set")
    return labels, len(sizes)


def modularity(G: WeightedDigraph, partition: Sequence | np.ndarray
               ) -> float | np.ndarray:
    """Directed weighted modularity of a partition, or of each row of a
    label matrix.

    (1/m) * sum over clusters of [ internal weight
        - (out-weight of cluster) * (in-weight of cluster) / m ].
    A graph with no edges has no modularity; a single cluster scores 0.
    Clusters are added in partition order (see _modularity_scores).  A
    (trials, G.n) integer ndarray is a label matrix: row t is the
    partition {v : labels[t, v] == j}, its clusters in label order, and
    the result is an array of one score per row, the rows scored
    together, in blocks of about BLOCK_ENTRIES (row, stored edge) pairs.
    A label that a row does not use adds exactly +0.0, so each row
    scores as its own partition does.
    """
    matrix = isinstance(partition, np.ndarray) and partition.ndim == 2
    if matrix:
        # a label past n would only add empty bins, n_parts per row
        if (partition.dtype.kind not in "iu" or partition.shape[0] < 1
                or partition.shape[1] != G.n
                or partition.min(initial=0) < 0
                or partition.max(initial=0) >= G.n):
            raise ValueError(f"a label matrix needs shape (trials >= 1, "
                             f"{G.n}) and integer labels in [0, {G.n}), not "
                             f"{partition.dtype} of shape {partition.shape}")
        labels = partition.astype(np.intp, copy=False)
        n_parts = int(labels.max(initial=0)) + 1
    else:
        labels, n_parts = _partition_labels(partition, G.n)
        labels = labels[None]
    totals = _degree_totals(G)
    scores = _by_blocks(lambda rows: _modularity_scores(G, rows, n_parts,
                                                        totals),
                        labels, G.weights.nnz)
    return scores if matrix else float(scores[0])


def _by_blocks(score, rows: np.ndarray, per_row: int) -> np.ndarray:
    """score(rows) of a batched score whose rows never share a bin, taken
    max(1, BLOCK_ENTRIES // per_row) rows at a time, per_row being the
    entries a row adds to its largest transient array.  The block size
    does not change a score."""
    step = max(1, BLOCK_ENTRIES // per_row)
    return np.concatenate([score(rows[lo:lo + step])
                           for lo in range(0, len(rows), step)])


def _degree_totals(G: WeightedDigraph
                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """(m, out-degrees, in-degrees): the graph-side terms of every
    modularity score of G, which G computes once and keeps."""
    totals = G.degree_totals()
    if totals[0] <= 0:
        raise ValueError("modularity needs at least one edge")
    return totals


def _modularity_scores(G: WeightedDigraph, labels: np.ndarray,
                       n_parts: int, totals) -> np.ndarray:
    """Modularity of each row t of labels (trials x n), the partition
    {v : labels[t, v] == j}, j = 0..n_parts-1, given G's ``_degree_totals``.

    Cluster j of row t is bin t*n_parts + j.  Weighted bincounts sum each
    bin's internal edge weights in CSR order and its out- and in-degrees
    in vertex order, each from 0.0; a cumulative sum then adds each row's
    cluster terms in label order.  An empty cluster's term is exactly
    0.0, so it adds nothing.
    """
    m, k_out, k_in = totals
    W = G.weights
    trials, n = labels.shape
    n_bins = trials * n_parts
    bins = labels + n_parts * np.arange(trials)[:, None]
    tail = bins[:, np.repeat(np.arange(n), np.diff(W.indptr))]
    inside = tail == bins[:, W.indices]
    inner = np.bincount(tail[inside],
                        np.broadcast_to(W.data, tail.shape)[inside], n_bins)
    flat = bins.ravel()
    out_w = np.bincount(flat, np.tile(k_out, trials), n_bins)
    in_w = np.bincount(flat, np.tile(k_in, trials), n_bins)
    terms = (inner - out_w * in_w / m).reshape(trials, n_parts)
    return np.cumsum(terms, axis=1)[:, -1] / m


def random_coloring_baseline(G: WeightedDigraph, n_colors: int,
                             trials: int, seed: int
                             ) -> tuple[float, float, list[float]]:
    """Modularity of uniform random colorings: (mean, std, samples).

    Colorings that miss a color are kept (their occupied classes form
    the partition, in color order); the std is the population standard
    deviation.  The colorings are drawn and scored in blocks of at most
    BLOCK_ENTRIES (coloring, stored edge) pairs, each block's by one
    ``rng.integers`` draw of (colorings, G.n), the same stream as one
    draw of G.n per coloring, and scored against the degree totals that
    G keeps.  Each coloring's sums stay in its own bins, so the block
    size does not change a score.
    """
    if n_colors < 1 or trials < 1:
        raise ValueError(f"random colorings need n_colors >= 1 and "
                         f"trials >= 1, not {n_colors} and {trials}")
    rng = np.random.default_rng(seed)
    totals = _degree_totals(G)
    block = max(1, BLOCK_ENTRIES // G.weights.nnz)
    samples: list[float] = []
    for start in range(0, trials, block):
        colors = rng.integers(0, n_colors,
                              size=(min(block, trials - start), G.n))
        samples += _modularity_scores(G, colors, n_colors, totals).tolist()
    arr = np.array(samples)
    return float(arr.mean()), float(arr.std()), samples


def f_measure(pred: Sequence, truth: Sequence, n: int) -> float:
    """Size-weighted best-match F score of a predicted partition.

    Each predicted cluster C picks its best true class L by the dice
    overlap 2|C & L| / (|C| + |L|); the scores are averaged with
    weights |C|.  Equal partitions score 1.
    """
    pred_labels, n_pred = _partition_labels(pred, n)
    truth_labels, n_truth = _partition_labels(truth, n)
    return float(_label_f_measures(pred_labels[None], n_pred, truth_labels,
                                   n_truth)[0])


def _contingency(pred: np.ndarray, n_pred: int, truth: np.ndarray,
                 n_truth: int) -> np.ndarray:
    """(T, n_pred, n_truth) vertex counts of each (predicted, true) label
    pair, per row of the (T, n) label matrix pred, by one bincount."""
    T = len(pred)
    bins = (pred + n_pred * np.arange(T)[:, None]) * n_truth + truth
    return np.bincount(bins.ravel(), minlength=T * n_pred * n_truth
                       ).reshape(T, n_pred, n_truth)


def _label_f_measures(pred: np.ndarray, n_pred: int, truth: np.ndarray,
                      n_truth: int) -> np.ndarray:
    """f_measure of each row of the (T, n) label matrix pred against the
    label vector truth, whose n_truth classes are all nonempty, from one
    contingency table; each row's weighted best matches are added in
    predicted-label order.  A label that a row does not use matches
    nothing and adds exactly +0.0."""
    overlap = _contingency(pred, n_pred, truth, n_truth)
    size = overlap.sum(axis=2)
    best = (2.0 * overlap / (size[:, :, None] + overlap.sum(axis=1)[:, None])
            ).max(axis=2)
    return np.cumsum(size * best, axis=1)[:, -1] / pred.shape[1]


def confusion_matrix(pred: Sequence, truth: Sequence, n: int) -> np.ndarray:
    """Class-recall matrix under best-match assignment of clusters.

    Every predicted cluster is assigned to the true class it overlaps
    most (ties to the lowest class index).  Entry [j, k] is the
    fraction of class k's vertices landing in clusters assigned to
    class j, so every column sums to 1; clusters add up in partition
    order.  Classes are nonempty parts of a cover of range(n), and the
    matrix is square in their number.
    """
    pred_labels, n_pred = _partition_labels(pred, n)
    truth_labels, n_truth = _partition_labels(truth, n)
    overlap = _contingency(pred_labels[None], n_pred, truth_labels,
                           n_truth)[0]
    M = np.zeros((n_truth, n_truth))
    np.add.at(M, overlap.argmax(axis=1), overlap / overlap.sum(axis=0))
    return M


def _product_labels(es_ids: np.ndarray, os_ids: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(T, n) label matrix and (T,) cluster counts of the common
    refinements of the rows of two (T, n) node-id matrices: row t's
    vertices grouped by the pair (es node, os node), groups numbered 0,
    1, ... in sorted pair order, every row by one ``_row_ranks`` call."""
    width = int(os_ids.max()) + 1
    labels, cut = _row_ranks(es_ids * width + os_ids,
                             (int(es_ids.max()) + 1) * width)
    return labels, cut[1:] - cut[:-1]


def product_partition(tree_es: ClusterTree, tree_os: ClusterTree,
                      level: int, n: int) -> Partition:
    """Common refinement of the two trees' level partitions.

    Both trees must hold the vertices range(n).  Vertices are grouped by
    the pair (``ancestor_at_level`` in the first tree, in the second), in
    sorted pair order; empty intersections vanish.
    """
    ids = []
    for tree in (tree_es, tree_os):
        if tree.vertices() != frozenset(range(n)):
            raise ValueError(f"product_partition needs trees over range({n}),"
                             f" not over {len(tree.vertices())} vertices")
        ids.append(np.fromiter((tree.ancestor_at_level(v, level)
                                for v in range(n)), dtype=np.intp, count=n))
    labels, _ = _product_labels(*(row[None] for row in ids))
    return [frozenset(part.tolist()) for part in _parts(labels[0])]


def align_and_score(G: WeightedDigraph, es: np.ndarray, os_: np.ndarray,
                    labels: Optional[dict[int, tuple]] = None) -> list[dict]:
    """Score a batch of trials' twin trees level by level on their common
    refinements.

    es and os_ are the two (trials, depth, G.n) level-id stacks of
    ``TwinTreeBuilder.level_ids_batch`` (-1 below a trial's own depth).
    Returns one record per level that some trial reaches in both trees:
    the level, and arrays over the trials that reach it, in trial order,
    of their cluster counts (``n_clusters``) and modularities, plus F
    scores against ground-truth labels when given (labels use their
    first path component as the class).  Per level, one np.unique over
    (trial, es id, os id) gives the refinements' label matrix, one
    ``modularity`` call scores it, and one contingency bincount gives
    the F scores (both in blocks of about BLOCK_ENTRIES entries).  A
    trial with fewer clusters than another pads its bins, which add
    exactly +0.0, so each score is the one its trial gets alone.
    """
    shapes = np.shape(es), np.shape(os_)
    if (any(len(shape) != 3 or 0 in shape[:2] or shape[2] != G.n
            for shape in shapes) or shapes[0][0] != shapes[1][0]):
        raise ValueError(f"es and os level ids have shapes {shapes[0]} and "
                         f"{shapes[1]}, not (trials >= 1, depth >= 1, "
                         f"{G.n}) with equal trials")
    truth = None
    if labels:
        index = label_index(labels)
        truth = np.fromiter((index.get(v, -1) for v in range(G.n)),
                            dtype=np.intp, count=G.n)
        if np.any(truth < 0):
            raise ValueError(f"vertex {np.argmax(truth < 0)} has no label")
        classes, truth = np.unique(truth, return_inverse=True)
    records = []
    for level in range(1, min(shapes[0][1], shapes[1][1]) + 1):
        reach = np.flatnonzero((es[:, level - 1, 0] >= 0)
                               & (os_[:, level - 1, 0] >= 0))
        if not reach.size:  # nor does any trial reach a deeper level
            break
        lab, counts = _product_labels(es[reach, level - 1],
                                      os_[reach, level - 1])
        rec = {"level": level, "n_clusters": counts,
               "modularity": modularity(G, lab)}
        if truth is not None:
            n_pred = int(counts.max())
            rec["f_measure"] = _by_blocks(
                lambda rows: _label_f_measures(rows, n_pred, truth,
                                               classes.size),
                lab, n_pred * classes.size)
        records.append(rec)
    return records
