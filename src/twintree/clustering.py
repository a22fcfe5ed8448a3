"""Hierarchical clustering of graphs into trees of nested vertex sets.

Three clusterers share one center/medoid iteration over a coarsening
loop (``_medoid_hierarchy``): nhc measures shortest paths in the
symmetrized graph, mll Euclidean distances between diffusion
coordinates, and mbo partitions the finest level by semi-supervised
threshold dynamics.  Coarser levels always come from re-clustering the
coarse-grained cluster graph, so every level is a partition nested in
the one below.

A ClusterTree records the hierarchy: the root at level 0 holds every
vertex, each internal node's children partition its members, and leaves
are single vertices.  The twin-tree builder runs the construction twice
per digraph — once for each symmetrized companion — component by
component, and numbers the nodes of each side in one (trials, depth, n)
level-id stack (``TwinTreeBuilder.level_ids_batch``), the trials of a
batch clustered and numbered together.  That stack is the only way a
twin tree is assembled: ``build`` turns a batch of one into a
ClusterTree, and the seeded metrics trials read it directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .digraph import (UndirectedGraph, WeightedDigraph, graph_distance,
                      reciprocal_lengths, symmetrize, weak_component_indices)


# -- cluster trees ---------------------------------------------------------


@dataclass
class ClusterNode:
    id: int
    level: int
    parent: Optional[int]
    children: list[int] = field(default_factory=list)
    members: frozenset[int] = frozenset()


class ClusterTree:
    """Rooted hierarchy of nested vertex sets with ordered children."""

    def __init__(self, nodes: dict[int, ClusterNode], root: int = 0):
        self.nodes = nodes
        self.root = root
        self._leaves: Optional[list[ClusterNode]] = None
        self._leaf_of_vertex: dict[int, int] = {}
        for node in nodes.values():
            if not node.children:
                if len(node.members) != 1:
                    raise ValueError(
                        f"leaf node {node.id} must hold exactly one vertex")
                (v,) = node.members
                self._leaf_of_vertex[v] = node.id

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> ClusterNode:
        return self.nodes[node_id]

    def vertices(self) -> frozenset[int]:
        return self.nodes[self.root].members

    def depth(self) -> int:
        return max(n.level for n in self.nodes.values())

    def leaves(self) -> list[ClusterNode]:
        """Leaf nodes in left-to-right (depth-first) order, walked on the
        first call so that a malformed tree still reaches ``validate``."""
        if self._leaves is None:
            self._leaves, stack = [], [self.root]
            while stack:
                node = self.nodes[stack.pop()]
                if not node.children:
                    self._leaves.append(node)
                else:
                    stack.extend(reversed(node.children))
        return list(self._leaves)

    def n_leaves(self) -> int:
        return len(self.leaves())

    def level_nodes(self, level: int) -> list[ClusterNode]:
        return [n for n in self.nodes.values() if n.level == level]

    def leaf_of_vertex(self, v: int) -> int:
        return self._leaf_of_vertex[v]

    def ancestor_at_level(self, v: int, level: int) -> int:
        """Node id covering vertex v at the given level.

        A leaf shallower than the requested level counts as its own
        ancestor, as if it were repeated as its own only child down to
        that level.
        """
        node = self.nodes[self._leaf_of_vertex[v]]
        while node.level > level:
            node = self.nodes[node.parent]
        return node.id

    def partition_at_level(self, level: int) -> list[frozenset[int]]:
        """Vertex partition induced by a level; shallow leaves stay whole."""
        groups: dict[int, set[int]] = {}
        for v in sorted(self.vertices()):
            nid = self.ancestor_at_level(v, level)
            groups.setdefault(nid, set()).add(v)
        return [frozenset(groups[nid]) for nid in sorted(groups)]

    def validate(self) -> None:
        """Raise if the tree is not a consistent nested hierarchy."""
        root = self.nodes[self.root]
        if root.level != 0 or root.parent is not None:
            raise ValueError("root must be at level 0 with no parent")
        seen_leaves: set[int] = set()
        for node in self.nodes.values():
            if node.children:
                union: set[int] = set()
                for c in node.children:
                    if c not in self.nodes:
                        raise ValueError(f"node {node.id} lists a missing "
                                         f"child {c}")
                    child = self.nodes[c]
                    if child.parent != node.id:
                        raise ValueError(f"broken parent link at node {c}")
                    if child.level != node.level + 1:
                        raise ValueError(f"level skip at node {c}")
                    if union & child.members:
                        raise ValueError(f"overlapping children of {node.id}")
                    union |= child.members
                if union != set(node.members):
                    raise ValueError(
                        f"children of {node.id} do not cover its members")
            else:
                seen_leaves |= node.members
        if seen_leaves != set(root.members):
            raise ValueError("leaves do not cover the root")

    # -- persistence ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"nodes": [
            {"id": n.id, "level": n.level, "parent": n.parent,
             "children": list(n.children),
             "members": sorted(n.members),
             # No node is synthetic any more; the key stays so that tree
             # JSON keeps its bytes, and loading ignores it.
             "synthetic": False}
            for n in sorted(self.nodes.values(), key=lambda x: x.id)]}

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.to_json_dict(), sort_keys=True,
                                indent=1) + "\n")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ClusterTree":
        nodes = {}
        root = None
        for rec in obj["nodes"]:
            node = ClusterNode(
                id=int(rec["id"]), level=int(rec["level"]),
                parent=None if rec["parent"] is None else int(rec["parent"]),
                children=[int(c) for c in rec["children"]],
                members=frozenset(int(m) for m in rec["members"]))
            nodes[node.id] = node
            if node.parent is None:
                root = node.id
        if root is None:
            raise ValueError("tree has no root")
        return cls(nodes, root)

    @classmethod
    def load_json(cls, path) -> "ClusterTree":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def _row_ranks(keys: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, cut) of a (T, n) matrix of integer keys in [0, span):
    ranks[t, v] is the rank of keys[t, v] among the distinct keys of row
    t, which number cut[t + 1] - cut[t].  One np.unique over t * span +
    key serves every row, the row being its leading sort key."""
    T, n = keys.shape
    rows = np.arange(T + 1) * span
    distinct, rank = np.unique((keys + rows[:T, None]).ravel(),
                               return_inverse=True)
    cut = distinct.searchsorted(rows)
    return rank.reshape(T, n) - cut[:T, None], cut


def _level_ids(levels: np.ndarray, n: int) -> np.ndarray:
    """(T, L + 1, n) node ids of a (T, L, n) stack of level label vectors,
    one tree per trial t: row d - 1 of trial t holds the node covering
    each of n positions at depth d, the last row its single-vertex leaf.

    Below the root (node 0, holding every position), each level's nodes
    are its distinct (parent node, label) pairs in lexicographic order,
    numbered on from the level above; the leaves, by parent and then
    position, come last.  So a parent's children come in label order,
    and a label that meets two parents in one trial breaks the nesting.
    Each trial is numbered as if it were alone, by one _row_ranks call
    per level for all trials.
    """
    T, L = levels.shape[:2]
    ids = np.empty((T, L + 1, n), dtype=np.intp)
    above = np.zeros((T, n), dtype=np.intp)  # node one level up
    first = np.ones(T, dtype=np.intp)  # each trial's next node id
    trial = np.arange(T)[:, None]
    for depth in range(1, L + 1):
        lab = levels[:, depth - 1]
        width = int(lab.max()) + 1
        # a level has at most n nodes per trial, so the ids above are
        # below 1 + (depth - 1) * n
        rank, cut = _row_ranks(above * width + lab,
                               (1 + (depth - 1) * n) * width)
        # each trial's labels meet as many (parent, label) pairs
        if np.count_nonzero(np.bincount((trial * width + lab).ravel())
                            ) < cut[-1]:
            raise ValueError(f"level {depth} does not nest in level {depth-1}")
        above = ids[:, depth - 1] = rank + first[:, None]
        first += cut[1:] - cut[:-1]
    # the leaves, each trial's n positions ranked by (parent, position):
    # a stable sort does it without np.unique
    rank = np.empty(T * n, dtype=np.intp)
    rank[np.argsort((above + trial * (1 + L * n)).ravel(),
                    kind="stable")] = np.arange(T * n)
    ids[:, L] = rank.reshape(T, n) + (first[:, None] - n * trial)
    return ids


def _tree_of_ids(idx: np.ndarray, ids: np.ndarray) -> ClusterTree:
    """The ClusterTree of one trial's ``_level_ids`` or ``_graft_ids``
    matrix over the vertices idx: the root 0 holds them all, and each
    id first met in row d - 1 is a node at level d whose parent is its
    vertices' id one row up.  An id met again in a deeper row (a shallow component's
    leaf standing in for it there) is skipped."""
    nodes = {0: ClusterNode(id=0, level=0, parent=None,
                            members=frozenset(idx.tolist()))}
    above = np.zeros(idx.size, dtype=np.intp)
    for depth, row in enumerate(ids, start=1):
        by_node = np.argsort(row, kind="stable")
        nids, starts = np.unique(row[by_node], return_index=True)
        ends = [*starts[1:].tolist(), idx.size]
        flat = idx[by_node].tolist()
        for nid, lo, hi in zip(nids.tolist(), starts.tolist(), ends):
            if nid in nodes:
                continue
            parent = int(above[by_node[lo]])
            nodes[nid] = ClusterNode(nid, depth, parent, [],
                                     frozenset(flat[lo:hi]))
            nodes[parent].children.append(nid)
        above = row
    return ClusterTree(nodes)


# -- level specifications ---------------------------------------------------


def check_level_spec(K: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate cluster counts: strictly increasing, inside (1, n)."""
    K = tuple(int(k) for k in K)
    for k in K:
        if not 1 < k < n:
            raise ValueError(f"cluster count {k} outside (1, {n})")
    if any(a >= b for a, b in zip(K, K[1:])):
        raise ValueError(f"cluster counts must strictly increase: {K}")
    return K


# -- the shared center/medoid iteration ------------------------------------
#
# The iteration runs a batch of starts in lockstep: each start reads one
# matrix of a (D, n, n) distance stack, and every array it builds holds
# O(starts * n) entries, or at most one n x n matrix's worth.


def _counts(labels: np.ndarray, k: int) -> np.ndarray:
    """(S, k) sizes of the clusters 0..k-1 of each row of labels."""
    S = len(labels)
    flat = (labels + k * np.arange(S)[:, None]).ravel()
    return np.bincount(flat, minlength=S * k).reshape(S, k)


def _nearest(rows: np.ndarray, base: np.ndarray,
             centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each start's nearest center per point (ties to the lowest center
    index) and the distance to it; start s reads rows[base[s] + c], the
    distances from c.  Starts are gathered n // k at a time, so that no
    (starts, k, n) gather holds more than n * n entries."""
    (S, k), n = centers.shape, rows.shape[1]
    near, own = np.empty((S, n), dtype=np.intp), np.empty((S, n))
    step = max(1, n // k)
    for lo in range(0, S, step):
        to_centers = rows[base[lo:lo + step, None] + centers[lo:lo + step]]
        near[lo:lo + step] = to_centers.argmin(axis=1)
        own[lo:lo + step] = to_centers.min(axis=1)
    return near, own


def _reseed(dist: np.ndarray, centers: np.ndarray, assign: np.ndarray,
            own: np.ndarray, k: int) -> np.ndarray:
    """Re-seed one start's empty clusters in place, the lowest first, each
    with the vertex farthest from its assigned center, re-assigning after
    each (at most 2k times); returns the assignment."""
    n = dist.shape[0]
    counts = np.bincount(assign, minlength=k)
    reseeds = 0
    while counts.min() == 0 and reseeds < 2 * k:
        empty = int(np.flatnonzero(counts == 0)[0])
        centers[empty] = int(np.argmax(own))
        to_centers = dist[centers]
        assign = np.argmin(to_centers, axis=0)
        own = to_centers[assign, np.arange(n)]
        counts = np.bincount(assign, minlength=k)
        reseeds += 1
    return assign


def _medoids(flat: np.ndarray, which: np.ndarray, assign: np.ndarray,
             centers: np.ndarray, k: int) -> np.ndarray:
    """Each start's cluster medoids: the member of least distance sum to
    its cluster, ties to the lowest vertex id; an empty cluster keeps its
    center.  Start s reads matrix which[s] of the flattened stack flat.

    The clusters of equal size m, over all starts, are one (c, m, m)
    gather summed along its last axis (cut into pieces of at most n * n
    entries): the same contiguous row reduction as one cluster's (m, m)
    gather, so every sum is the same, bit for bit.
    """
    S, n = assign.shape
    sizes = _counts(assign, k).ravel()  # cluster q = s * k + j
    by_size = np.argsort(sizes, kind="stable")
    ranked = sizes[by_size]
    # every start's vertices by cluster, ascending within each, and
    # where each one's distance row starts in flat; then reordered so
    # that the clusters come by size, cluster by_size[i] from start[i]
    by_vertex = np.argsort(assign, axis=1, kind="stable")
    row_at = ((which * n)[:, None] + by_vertex).ravel() * n
    start = np.cumsum(ranked) - ranked
    order = np.repeat((np.cumsum(sizes) - sizes)[by_size] - start, ranked)
    order += np.arange(S * n)
    members, row_at = by_vertex.ravel()[order], row_at[order]
    cuts = [*(np.flatnonzero(np.diff(ranked)) + 1).tolist(), S * k]
    first = int(np.searchsorted(ranked, 1))  # the first nonempty cluster
    best = []
    ranked, start = ranked.tolist(), start.tolist()
    for lo, hi in zip([first, *cuts], cuts):
        if lo >= hi:
            continue
        m = ranked[lo]
        step = max(1, n * n // (m * m))
        for a in range(lo, hi, step):
            span = slice(start[a], start[a] + (min(hi, a + step) - a) * m)
            block = members[span].reshape(-1, m)
            within = flat.take(row_at[span].reshape(-1, m)[:, :, None]
                               + block[:, None, :])
            best.append(within.sum(axis=2).argmin(axis=1))
    new = centers.ravel().copy()
    if best:
        new[by_size[first:]] = members[np.array(start[first:])
                                       + np.concatenate(best)]
    return new.reshape(S, k)


def _medoid_iterate(dist: np.ndarray, which: np.ndarray, k: int,
                    centers: np.ndarray, max_iter: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Assign-to-nearest-center / recenter-at-medoid until stable, for S
    starts at once: start s clusters dist[which[s]] from the k centers
    centers[s].

    Ties in the assignment go to the lowest center index; medoid ties go
    to the lowest vertex id.  An empty cluster (possible only when two
    points coincide) is re-seeded, start by start, with the vertex
    farthest from its assigned center.  A start stops when its medoids
    are its centers, or when a round that re-seeds nothing repeats the
    previous round's assignment (its medoids are then the centers it just
    used); the others go on in lockstep, at most max_iter rounds.
    Returns the (S, n) assignments and (S, k) centers.
    """
    n = dist.shape[1]
    rows, flat = dist.reshape(-1, n), dist.reshape(-1)
    centers = centers.copy()
    assign = np.zeros((len(centers), n), dtype=np.intp)
    live = np.arange(len(centers))
    for rnd in range(max_iter):
        near, own = _nearest(rows, which[live] * n, centers[live])
        fresh = _counts(near, k).min(axis=1) > 0
        for r in np.flatnonzero(~fresh).tolist():
            s = live[r]
            near[r] = _reseed(dist[which[s]], centers[s], near[r], own[r], k)
        settled = (fresh & (near == assign[live]).all(axis=1) if rnd
                   else np.zeros(live.size, dtype=bool))
        assign[live] = near
        live, near = live[~settled], near[~settled]
        if not live.size:
            break
        medoids = _medoids(flat, which[live], near, centers[live], k)
        moved = (medoids != centers[live]).any(axis=1)
        centers[live] = medoids
        live = live[moved]
        if not live.size:
            break
    return assign, centers


def _initial_centers(n: int, k: int, rng: np.random.Generator,
                     seed_vertices: Optional[Sequence[int]] = None
                     ) -> np.ndarray:
    if seed_vertices:
        chosen = list(dict.fromkeys(int(v) for v in seed_vertices))[:k]
        pool = np.setdiff1d(np.arange(n), chosen)
        extra = k - len(chosen)
        if extra > 0:
            chosen.extend(rng.choice(pool, size=extra, replace=False))
        return np.asarray(chosen, dtype=int)
    return rng.choice(n, size=k, replace=False)


def medoid_partition(dist: np.ndarray, k: int,
                     rngs: Sequence[np.random.Generator],
                     seed_vertices: Optional[Sequence] = None,
                     n_init: int = 1, max_iter: int = 100) -> np.ndarray:
    """Best-of-n_init medoid clustering of finite metrics, one trial per
    generator in rngs, all trials' starts iterated at once.

    dist is a (T, n, n) stack, trial t clustering dist[t], or a (1, n, n)
    one that every trial clusters.  Trial t draws its n_init starts from
    rngs[t], in order; its first start is seeded by seed_vertices[t] when
    that is given.  Of a trial's starts, the first of least objective
    (the sum of each point's distance to its center) wins.  Returns the
    (T, n) labels.
    """
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance matrix has infinite entries "
                         "(graph must be connected)")
    T, n, tries = len(rngs), dist.shape[1], max(1, n_init)
    seeds = seed_vertices or [None] * T
    starts = np.array([_initial_centers(n, k, rng,
                                        seeds[t] if i == 0 else None)
                       for t, rng in enumerate(rngs) for i in range(tries)])
    which = np.repeat(np.arange(T) if len(dist) > 1 else np.zeros(T, int),
                      tries)
    assign, centers = _medoid_iterate(dist, which, k, starts, max_iter)
    at = (which[:, None] * n + centers[np.arange(len(centers))[:, None],
                                      assign]) * n
    objective = dist.reshape(-1).take(at + np.arange(n)).sum(axis=1)
    best = np.argmin(objective.reshape(T, tries), axis=1)
    return assign.reshape(T, tries, n)[np.arange(T), best]


def _parts(labels: np.ndarray) -> list[np.ndarray]:
    """Ascending vertex ids of each label 0, 1, ..., max(labels)."""
    by_label = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [by_label[lo:hi] for lo, hi in zip([0, *ends], ends)]


def _medoid_hierarchy(G, K: Sequence[int], seeds: Sequence[int],
                      labeled: Sequence[Optional[dict]], dist_of,
                      n_init: int = 1, finest: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """Finest-to-coarsest medoid clustering with coarse-graining, for a
    batch of trials run in lockstep.

    Trial t draws from default_rng(seeds[t]).  The finest level splits G
    into K[-1] clusters by the best of n_init medoid starts (at most 100
    rounds each); each coarser level re-runs it on the coarse-grained
    cluster graph, whose edge weight between two clusters is the total
    original weight between their members.  dist_of maps a graph to its
    distance matrix: it is called once on G for every trial, and on the
    block-diagonal union of several trials' coarse graphs, whose diagonal
    blocks must be the graphs' own distances (as shortest paths are).
    The labeled vertices labeled[t] seed trial t's finest level only,
    where vertices are original.  A given (T, G.n) ``finest`` label
    matrix is taken as the finest level instead of clustering it.
    Returns a (T, len(K), G.n) array: per trial, one label vector per
    level, coarsest first; a level's nonempty clusters are numbered 0,
    1, ... in the order of their cluster indices.
    """
    K = check_level_spec(K, G.n)
    rngs = [np.random.default_rng(s) for s in seeds]
    starts = [_label_seed_vertices(lab) for lab in labeled]
    levels = _descend(G, 0, K, rngs, starts, dist_of, n_init, finest,
                      np.arange(G.n), G.n)
    return np.stack(levels[::-1], axis=1) if levels else np.zeros(
        (len(seeds), 0, G.n), dtype=np.intp)


def _descend(graph, blocks: int, K: tuple[int, ...], rngs: list,
             starts: Optional[list], dist_of, n_init: int,
             finest: Optional[np.ndarray], labels: np.ndarray,
             n: int) -> list[np.ndarray]:
    """The levels K[-1], K[-2], ... of ``_medoid_hierarchy`` for the
    trials of rngs, finest first, each a (T, n) label matrix over the
    original vertices.  graph is G itself (blocks 0), or the union of
    one coarse graph per trial (blocks T); labels maps each trial's
    original vertices to graph's vertices of its own block.  Trials
    whose coarse graphs differ in size, and trials beyond the first
    n * n // k**2 of a coarse size k, continue in separate batches."""
    T = len(rngs)
    levels = []
    for li in range(len(K), 0, -1):
        if finest is not None and li == len(K):
            assign = finest
        else:
            assign = medoid_partition(
                _block_distances(graph, blocks, n, dist_of), K[li - 1],
                rngs, starts if li == len(K) else None, n_init)
        present = _counts(assign, int(assign.max()) + 1) > 0
        trial = np.arange(T)[:, None]
        assign = (np.cumsum(present, axis=1) - 1)[trial, assign]
        labels = assign[trial, labels]
        levels.append(labels)
        if li == 1:  # the coarsest level's graph is never clustered
            break
        # the trials go on in batches of one coarse size k, at most
        # n * n // k**2 trials each, so that no batch's (trials, k, k)
        # distances or weights hold more than n * n entries
        sizes = present.sum(axis=1)
        per = max(1, n * n // int(sizes.max()) ** 2)
        groups = [same[lo:lo + per] for size in np.unique(sizes).tolist()
                  for same in [np.flatnonzero(sizes == size)]
                  for lo in range(0, same.size, per)]
        if len(groups) == 1:
            graph, blocks = coarse_grain(graph, assign), T
            continue
        rest = [np.empty((T, n), dtype=np.intp) for _ in range(li - 1)]
        for group in groups:
            part = graph if not blocks else _blocks(
                graph, graph.n // blocks, group)
            deeper = _descend(coarse_grain(part, assign[group]), group.size,
                              K[:li - 1], [rngs[t] for t in group], None,
                              dist_of, n_init, None, labels[group], n)
            for level, rows in zip(rest, deeper):
                level[group] = rows
        return levels + rest
    return levels


def _blocks(graph, m: int, rows: np.ndarray):
    """The union of the blocks rows (each m vertices, no edge between
    them) of a block-diagonal graph, in that order, as its own graph."""
    idx = (rows[:, None] * m + np.arange(m)).ravel()
    W = graph.weights[idx][:, idx]
    W.sort_indices()
    return type(graph)._canonical(W, [str(i) for i in range(idx.size)], {})


def _block_distances(graph, blocks: int, n: int, dist_of) -> np.ndarray:
    """dist_of of graph, as a (1, n, n) stack when blocks is 0 (graph is
    G), else of each of its blocks as a (blocks, m, m) stack: dist_of
    runs on unions of up to n // m blocks, so that no call returns more
    than n x n distances."""
    if not blocks:
        return dist_of(graph)[None]
    m = graph.n // blocks
    per = max(1, n // m)
    out = np.empty((blocks, m, m))
    for lo in range(0, blocks, per):
        rows = np.arange(lo, min(blocks, lo + per))
        part = graph if rows.size == blocks else _blocks(graph, m, rows)
        d = dist_of(part).reshape(rows.size, m, rows.size, m)
        out[rows] = d[np.arange(rows.size), :, np.arange(rows.size), :]
    return out


# -- clusterers -------------------------------------------------------------


def _path_distance(G: UndirectedGraph, edge_length: str) -> np.ndarray:
    """Shortest paths with edge lengths 1/w ("reciprocal") or w ("raw")."""
    if edge_length == "reciprocal":
        return graph_distance(reciprocal_lengths(G))
    if edge_length == "raw":
        return graph_distance(G)
    raise ValueError(f"unknown edge_length {edge_length!r}")


def _label_seed_vertices(labeled: Optional[dict]) -> Optional[list[int]]:
    """One representative (lowest id) per distinct class, classes sorted
    by their own values (label_index integers or label-path tuples)."""
    if not labeled:
        return None
    reps: dict = {}
    for v, cls in labeled.items():
        if cls not in reps or v < reps[cls]:
            reps[cls] = int(v)
    return [reps[cls] for cls in sorted(reps)]


def coarse_grain(G: WeightedDigraph, labels: np.ndarray) -> WeightedDigraph:
    """Sum-collapse a graph onto the clusters of a label vector, or of
    several at once.

    Vertex v joins coarse vertex labels[v] >= 0; there are k = max(labels)
    + 1 of them.  The weight between coarse vertices i and j is the sum
    of all original weights from members of i to members of j, added
    from 0.0 in CSR order; an undirected graph's upper triangle is
    mirrored.  The result has G's type and default names, and is built
    as canonical CSR directly.  Labels arange(G.n) give a graph equal to G.

    A (T, m) label matrix collapses T graphs by weighted bincounts over
    several rows at once: G itself once per row (m == G.n), or, when G
    is the block-diagonal union of T graphs of m vertices each (as this
    function returns), block t by row t.  The result is the
    block-diagonal union of the T coarse graphs, k vertices each, row
    t's numbered from t * k; each row's bins gather only its own
    entries, in CSR order, so every sum is the one a single call adds.
    """
    labels = np.asarray(labels)
    rows = labels[None] if labels.ndim == 1 else labels
    T, m = rows.shape if rows.ndim == 2 else (0, -1)
    blocked = T > 0 and m != G.n and T * m == G.n
    W = G.weights
    tail = np.repeat(np.arange(G.n), np.diff(W.indptr))
    if (not (m == G.n or blocked)
            or labels.dtype.kind not in "iu" or labels.min(initial=0) < 0
            or (blocked and np.any(tail // m != W.indices // m))):
        raise ValueError(f"coarse_grain needs {G.n} nonnegative integer "
                         f"labels, or a row of them per block of a block-"
                         f"diagonal graph, not {labels.dtype} of shape "
                         f"{labels.shape}")
    k = int(labels.max(initial=-1)) + 1
    # a shared G is collapsed a few rows at a time, at most G.n**2
    # (row, entry) pairs, the size of G's dense matrix
    step = T if blocked else max(1, G.n * G.n // max(W.nnz, 1))
    coarse = np.concatenate(
        [_collapse(W, tail, rows[lo:lo + step], k, blocked)
         for lo in range(0, T, step)]) if T else np.zeros((0, k, k))
    if isinstance(G, UndirectedGraph):
        coarse = np.triu(coarse) + np.triu(coarse, 1).transpose(0, 2, 1)
    # sums of positive weights are positive, and the mirror is exactly
    # symmetric; only overflow to inf is left to check
    if not np.all(np.isfinite(coarse)):
        raise ValueError("edge weights must be finite")
    nz = np.flatnonzero(coarse)
    weights = sparse.csr_array(
        (coarse.ravel()[nz], nz // (k * k) * k + nz % k,
         np.searchsorted(nz, np.arange(T * k + 1) * k)), shape=(T * k,) * 2)
    return type(G)._canonical(weights, [str(i) for i in range(T * k)], {})


def _collapse(W: sparse.csr_array, tail: np.ndarray, rows: np.ndarray,
              k: int, blocked: bool) -> np.ndarray:
    """The (T, k, k) dense coarse weights of coarse_grain's label rows,
    by one weighted bincount: the bin of (row t, i, j) gathers its
    entries in CSR order, each row's apart from the others'."""
    T, m = rows.shape
    if blocked:  # one column: block t's vertices carry their row's bins
        lab = rows.reshape(-1, 1)
        first = lab * k + (np.arange(T * m) // m * k * k)[:, None]
    else:  # a column per row
        lab = np.ascontiguousarray(rows.T)
        first = lab * k + np.arange(T) * k * k
    bins = first.take(tail, axis=0)
    bins += lab.take(W.indices, axis=0)
    return np.bincount(bins.ravel(), np.repeat(W.data, lab.shape[1]),
                       minlength=T * k * k).reshape(T, k, k)


def _normalized_adjacency(G: UndirectedGraph
                          ) -> tuple[np.ndarray, sparse.csr_array]:
    """D^-1/2 (as a vector) and D^-1/2 A D^-1/2 of a graph without
    zero-degree vertices."""
    deg = G.out_degrees()
    if np.any(deg <= 0):
        raise ValueError("every vertex needs positive degree")
    dhalf = 1.0 / np.sqrt(deg)
    return dhalf, sparse.csr_array(
        G.weights.multiply(dhalf[:, None]).multiply(dhalf[None, :]))


def spectral_embedding(G: UndirectedGraph, n_eig: int,
                       seed: int = 0) -> np.ndarray:
    """Diffusion coordinates from the degree-normalized adjacency.

    Rows are vertices; column i is the i-th largest-eigenvalue
    eigenvector of the random-walk matrix, scaled by its eigenvalue
    (diffusion time 1).  Signs are fixed (largest-magnitude entry
    positive) so the embedding is reproducible.
    """
    n = G.n
    n_eig = min(n_eig, n)
    dhalf, S = _normalized_adjacency(G)
    if n_eig >= n - 1 or n <= 400:
        lam, U = np.linalg.eigh(S.toarray())
        lam, U = lam[::-1], U[:, ::-1]
        lam, U = lam[:n_eig], U[:, :n_eig]
    else:
        v0 = np.random.default_rng(seed).standard_normal(n)
        lam, U = sparse.linalg.eigsh(S, k=n_eig, which="LA", v0=v0,
                                     tol=1e-8)
        order = np.argsort(lam)[::-1]
        lam, U = lam[order], U[:, order]
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return dhalf[:, None] * U * lam[None, :]


def _embedding_distance(seed: int):
    """mll's dist_of: Euclidean distances between a graph's diffusion
    coordinates on up to 30 eigenvectors."""
    def dist_of(cur):
        coords = spectral_embedding(cur, 30, seed)
        diff = coords[:, None, :] - coords[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))

    return dist_of


def mbo_cluster(G: UndirectedGraph, labeled: dict[int, int],
                n_classes: int) -> np.ndarray:
    """Semi-supervised partition by thresholded diffusion.

    Class indicator rows diffuse in the span of the lowest 50
    eigenvectors of the symmetric normalized Laplacian, in time steps of
    0.01 with a fidelity term of strength 50 pinning labeled rows, and
    are re-thresholded to the nearest class indicator after every step;
    the iteration stops after 500 steps, or once the relative change of
    the thresholded state drops below 1e-3.  Unlabeled rows start at the
    simplex barycenter so the labels alone drive the spread.  Returns
    the class index per vertex.
    """
    if not labeled:
        raise ValueError("semi-supervised clustering needs labeled vertices")
    n = G.n
    if not 1 <= n_classes:
        raise ValueError("need at least one class")
    for v, c in labeled.items():
        if not 0 <= int(c) < n_classes:
            raise ValueError(f"label class {c} outside 0..{n_classes - 1}")
    n_eig, dt = min(50, n), 0.01
    lap = np.eye(n) - _normalized_adjacency(G)[1].toarray()
    lam, U = np.linalg.eigh(lap)
    lam, U = lam[:n_eig], U[:, :n_eig]

    u = np.full((n, n_classes), 1.0 / n_classes)
    anchor = np.zeros_like(u)
    mask = np.zeros(n)
    for v, c in labeled.items():
        anchor[int(v)] = 0.0
        anchor[int(v), int(c)] = 1.0
        mask[int(v)] = 1.0
    u[mask == 1.0] = anchor[mask == 1.0]

    prev = u.copy()
    for _ in range(500):
        force = 50.0 * mask[:, None] * (u - anchor)
        a = U.T @ u
        b = U.T @ force
        a = (a - dt * b) / (1.0 + dt * lam[:, None])
        u = U @ a
        idx = np.argmax(u, axis=1)
        u = np.zeros_like(u)
        u[np.arange(n), idx] = 1.0
        change = float(((u - prev) ** 2).sum())
        scale = max(float((u ** 2).sum()), 1.0)
        if change / scale < 1e-3:
            break
        prev = u.copy()
    return np.argmax(u, axis=1)


# -- the twin-tree construction ---------------------------------------------


_CLUSTER_ALGOS = ("nhc", "mll", "mbo")


class _Component:
    """One weak component on one side, prepared for seeded builds.

    Holds the component's vertex ids, its symmetrized subgraph S and the
    level sizes clipped to what it can support.  For nhc, dist_of(S) is
    computed once, on first use, and kept read-only; any other (coarse)
    graph gets fresh distances.  The position of each vertex id in the
    component is looked up the first time labeled vertices are given.
    """

    def __init__(self, idx: np.ndarray, S: UndirectedGraph,
                 K: tuple[int, ...], edge_length: str):
        self.idx = idx
        self.S = S
        self.K = K
        self.edge_length = edge_length
        self.finest_dist: Optional[np.ndarray] = None

    @cached_property
    def pos(self) -> dict[int, int]:
        return {v: j for j, v in enumerate(self.idx.tolist())}

    def local(self, labeled: Optional[dict]) -> Optional[dict]:
        """The labeled vertices inside the component, keyed by position
        (None if there are none)."""
        if not labeled:
            return None
        pos = self.pos
        return {pos[int(v)]: c for v, c in labeled.items()
                if int(v) in pos} or None

    def dist_of(self, cur: UndirectedGraph) -> np.ndarray:
        if cur is not self.S:
            return _path_distance(cur, self.edge_length)
        if self.finest_dist is None:
            self.finest_dist = _path_distance(cur, self.edge_length)
            self.finest_dist.setflags(write=False)
        return self.finest_dist


def _cluster_component(comp: _Component, algo: str, seeds: Sequence[int],
                       labeled: Sequence[Optional[dict]],
                       n_init: int) -> np.ndarray:
    """Level label vectors of one component for a batch of trials (seed,
    labeled vertices): a (trials, levels, component size) stack, coarsest
    first, with -1 rows below a trial's own depth (only mbo's differ).

    The labeled vertices inside the component seed (nhc, mll) or anchor
    (mbo) its clustering.  nhc clusters all trials as one batch on the
    component's one finest distance matrix; mll (whose distances depend
    on the seed) and mbo (whose levels depend on the labels) cluster
    trial by trial.  mbo's finest level has one cluster per label class
    present; a component with no labeled vertex, or with fewer than two
    classes or no fewer vertices than classes, gets no levels.
    """
    local = [comp.local(lab) for lab in labeled]
    if algo == "nhc":
        return _medoid_hierarchy(comp.S, comp.K, seeds, local, comp.dist_of,
                                 n_init)
    if algo == "mll":
        return np.concatenate([
            _medoid_hierarchy(comp.S, comp.K, [seed], [loc],
                              _embedding_distance(seed), n_init)
            for seed, loc in zip(seeds, local)])
    trials = [_mbo_levels(comp, seed, loc) for seed, loc in zip(seeds, local)]
    levels = np.full((len(trials), max(map(len, trials)), len(comp.idx)), -1,
                     dtype=np.intp)
    for row, trial in zip(levels, trials):
        row[:len(trial)] = trial
    return levels


def _mbo_levels(comp: _Component, seed: int,
                local: Optional[dict]) -> np.ndarray:
    """One trial's mbo levels of a component, as for _cluster_component."""
    none = np.zeros((0, len(comp.idx)), dtype=np.intp)
    if not local:
        return none
    classes = sorted(set(local.values()))
    K = tuple(k for k in comp.K if k < len(classes)) + (len(classes),)
    if not 2 <= K[-1] < len(comp.idx):
        return none
    class_idx = {c: i for i, c in enumerate(classes)}
    assign = mbo_cluster(comp.S, {v: class_idx[c] for v, c in local.items()},
                         K[-1])
    # coarser levels: reciprocal lengths, one start, a fresh generator
    return _medoid_hierarchy(
        comp.S, K, [seed], [None],
        lambda cur: _path_distance(cur, "reciprocal"), finest=assign[None])[0]


# Components with fewer vertices are not clustered: their vertices hang
# straight off the component's node.
_TINY_COMPONENT = 4


class TwinTreeBuilder:
    """The seed-independent part of the twin-tree construction.

    Preparation finds the weak components and, for each side ("es",
    then "os") and each component with at least _TINY_COMPONENT
    vertices, symmetrizes the component's subgraph and clips the level
    sizes K to it.  For nhc the finest level's shortest-path distances
    are also kept, computed on first use.  level_ids_batch(seeds,
    labeled) then runs only the seeded clustering and numbers each
    side's nodes in a level-id stack, so repeated trials share that
    work; build(seed, labeled) assembles the trees from a batch of one,
    the same trees as separate twt calls.
    """

    def __init__(self, G: WeightedDigraph, K: Sequence[int] = (),
                 algo: str = "nhc", edge_length: str = "reciprocal",
                 n_init: int = 1):
        if algo not in _CLUSTER_ALGOS:
            raise ValueError(f"unknown clustering algorithm {algo!r}")
        # only nhc's graph distances use edge lengths (mll measures
        # diffusion distance, mbo's coarse levels are reciprocal)
        if edge_length not in ("reciprocal", "raw"):
            raise ValueError(f"unknown edge_length {edge_length!r}")
        self.G = G
        self.K = K = tuple(int(k) for k in K)
        self.algo = algo
        self.edge_length = edge_length
        self.n_init = n_init
        self.comps = weak_component_indices(G)
        self.sides: list[list[Optional[_Component]]] = [
            [_Component(idx, symmetrize(G.subgraph(idx), side),
                        tuple(k for k in K if 1 < k < len(idx)), edge_length)
             if len(idx) >= _TINY_COMPONENT else None
             for idx in self.comps]
            for side in ("es", "os")]

    def _levels(self, seeds: Sequence[int],
                labeled: Sequence[Optional[dict]]) -> list[list[np.ndarray]]:
        """Per side ("es", "os") and component: its _cluster_component
        stack of level labels (no levels for a tiny component).  Each
        trial's seed spawns one generator seed per side and component."""
        comp_seeds = np.array([
            [s.generate_state(1)[0] for s in
             np.random.SeedSequence(seed).spawn(2 * len(self.comps))]
            for seed in seeds]).reshape(len(seeds), -1, 2).tolist()
        return [[np.empty((len(seeds), 0, idx.size), dtype=np.intp)
                 if comp is None else _cluster_component(
                     comp, self.algo, [cs[ci][side_index] for cs in comp_seeds],
                     labeled, self.n_init)
                 for ci, (idx, comp) in enumerate(zip(self.comps, comps))]
                for side_index, comps in enumerate(self.sides)]

    def build(self, seed: int = 0, labeled: Optional[dict] = None
              ) -> tuple[ClusterTree, ClusterTree]:
        """The twin trees for one seed (and optional labeled vertices),
        assembled from trial 0 of level_ids_batch([seed], [labeled]); a
        tree grafted from several components is validated."""
        es, os_ = (_tree_of_ids(np.arange(self.G.n), ids[0])
                   for ids in self.level_ids_batch([seed], [labeled]))
        if len(self.comps) > 1:
            es.validate()
            os_.validate()
        return es, os_

    def level_ids_batch(self, seeds: Sequence[int],
                        labeled: Optional[Sequence[Optional[dict]]] = None
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Every trial t's twin trees (seeds[t], labeled[t]) as one
        (trials, depth, n) level-id stack per side, without building
        them: row l - 1 of trial t holds the node id covering each vertex
        at level l, the id build gives that node
        (``ClusterTree.ancestor_at_level``), and rows below the trial's
        own depth are -1.  The trials are clustered as one batch (see
        _cluster_component), each getting the ids it gets alone.  Per
        side, the trials whose components all have the same depths (for
        nhc and mll, every trial) are numbered by one _level_ids call per
        component and grafted by one _graft_ids call into their block of
        the stack.  An empty batch is a ValueError."""
        if len(seeds) == 0:
            raise ValueError("level_ids_batch needs at least one seed, "
                             "got an empty batch")
        labeled = [None] * len(seeds) if labeled is None else labeled
        out = []
        for side in self._levels(seeds, labeled):
            depths = np.array([(lv[:, :, 0] >= 0).sum(1) for lv in side]).T
            keys, group_of = np.unique(depths, axis=0, return_inverse=True)
            groups = [np.flatnonzero(group_of == g) for g in range(len(keys))]
            blocks = [_graft_ids(self.G.n, self.comps, [
                _level_ids(levels[group, :depth], idx.size)
                for idx, levels, depth in zip(self.comps, side, key)])
                for group, key in zip(groups, keys.tolist())]
            if len(blocks) == 1:  # every trial alike: the block is the stack
                out.append(blocks[0])
                continue
            ids = np.full((len(seeds), max(b.shape[1] for b in blocks),
                           self.G.n), -1, dtype=np.intp)
            for group, block in zip(groups, blocks):
                ids[group, :block.shape[1]] = block
            out.append(ids)
        return out[0], out[1]


def twt(G: WeightedDigraph, K: Sequence[int] = (), algo: str = "nhc",
        seed: int = 0, labeled: Optional[dict] = None,
        edge_length: str = "reciprocal", n_init: int = 1, *,
        builder: Optional[TwinTreeBuilder] = None
        ) -> tuple[ClusterTree, ClusterTree]:
    """Build the twin cluster trees of a digraph.

    Weak components become the root's children (unless there is exactly
    one, which then *is* the root); each component large enough is
    clustered on its own symmetrized graph — the "es" companion for the
    first tree, the "os" companion for the second — with the requested
    level sizes clipped to what the component can support.  Components
    of fewer than four vertices attach their vertices directly.  One
    TwinTreeBuilder preparation and one build.  A given ``builder``,
    which must have been prepared from this very G with these K, algo,
    edge_length and n_init (else ValueError), is built from instead of a
    new one, so that its preparation serves later seeds as well; the
    trees are the same.
    """
    if builder is None:
        builder = TwinTreeBuilder(G, K, algo, edge_length, n_init)
    elif (builder.G is not G
          or (builder.K, builder.algo, builder.edge_length, builder.n_init)
          != (tuple(int(k) for k in K), algo, edge_length, n_init)):
        raise ValueError("the builder was prepared from another graph or "
                         "with other parameters")
    return builder.build(seed, labeled)


def _graft_ids(n: int, comps: list[np.ndarray],
               blocks: list[np.ndarray]) -> np.ndarray:
    """The (T, depth, n) level ids of T trials' twin trees over weak
    components, from each component's (T, depth_c, size) ``_level_ids``
    block.  A single block is the whole matrix.  Otherwise row 0 holds
    one node per component, the root's children in component order, and
    each block moves one level down, below its component's node, with
    each trial's ids shifted past those of the components before it; a
    shallow component's leaves stand in for it at the deeper levels."""
    if len(blocks) == 1:
        return blocks[0]
    depth = 1 + max(block.shape[1] for block in blocks)
    ids = np.empty((len(blocks[0]), depth, n), dtype=np.intp)
    offset = np.ones((len(ids), 1), dtype=np.intp)
    for idx, block in zip(comps, blocks):
        ids[:, 0, idx] = offset
        rows = np.minimum(np.arange(depth - 1), block.shape[1] - 1)
        ids[:, 1:, idx] = block[:, rows] + offset[:, :, None]
        offset += block[:, -1].max(axis=1, keepdims=True) + 1
    return ids
