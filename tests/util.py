"""Shared random-instance builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import sparse

from twintree.clustering import ClusterNode, ClusterTree, twt
from twintree.digraph import WeightedDigraph, synth_digraph
from twintree.filtration import Filtration, build_filtration

from oracles import tree_by_subset_scan


def random_nested_partitions(rng: np.random.Generator, n: int,
                             sizes: list[int]) -> list[list[frozenset[int]]]:
    """Nested random partitions of range(n), coarsest first.

    sizes must be strictly increasing with sizes[-1] <= n.  Blocks are
    contiguous runs of a random permutation; coarser levels keep a
    subset of the finer level's cut points, which guarantees nesting.
    """
    perm = rng.permutation(n)
    cut_lists = []
    cuts = sorted(int(c) for c in
                  rng.choice(np.arange(1, n), size=sizes[-1] - 1,
                             replace=False))
    cut_lists.append(cuts)
    prev = cuts
    for k in reversed(sizes[:-1]):
        kept = sorted(int(c) for c in
                      rng.choice(prev, size=k - 1, replace=False))
        cut_lists.insert(0, kept)
        prev = kept
    partitions = []
    for cl in cut_lists:
        edges = [0] + cl + [n]
        partitions.append([frozenset(int(perm[i]) for i in range(a, b))
                           for a, b in zip(edges, edges[1:])])
    return partitions


def random_tree(rng: np.random.Generator, n: int,
                sizes: list[int]) -> ClusterTree:
    return tree_by_subset_scan(
        range(n), random_nested_partitions(rng, n, sizes))


def caterpillar(n: int) -> ClusterTree:
    """A tree n - 1 levels deep on range(n): the internal node d, at depth
    d, holds d..n-1, and its children are [leaf d, the rest]; vertex v's
    leaf is node n - 1 + v."""
    nodes = {}
    for d in range(n - 1):
        rest = d + 1 if d < n - 2 else 2 * n - 2
        nodes[d] = ClusterNode(d, d, d - 1 if d else None,
                               [n - 1 + d, rest], frozenset(range(d, n)))
        nodes[n - 1 + d] = ClusterNode(n - 1 + d, d + 1, d,
                                       members=frozenset([d]))
    nodes[2 * n - 2] = ClusterNode(2 * n - 2, n - 1, n - 2,
                                   members=frozenset([n - 1]))
    return ClusterTree(nodes)


def random_filtration(rng: np.random.Generator, n_leaves: int,
                      sizes: list[int],
                      weights: str = "uniform") -> Filtration:
    """Random filtration; 'integer' weights are random exact rationals."""
    tree = random_tree(rng, n_leaves, sizes)
    if weights == "uniform":
        return build_filtration(tree, "uniform")
    if weights != "integer":
        raise ValueError(weights)
    raw = [int(a) for a in rng.integers(1, 10, size=n_leaves)]
    total = sum(raw)
    vertex_mass = {v: Fraction(raw[v], total) for v in range(n_leaves)}
    node_mass = {nid: sum((vertex_mass[v] for v in node.members),
                          Fraction(0))
                 for nid, node in tree.nodes.items()}
    return build_filtration(tree, weights=node_mass)


def random_digraph(rng: np.random.Generator, n: int, density: float = 0.2,
                   weighted: bool = True) -> WeightedDigraph:
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    W = np.where(mask, rng.uniform(0.5, 2.0, (n, n)) if weighted else 1.0,
                 0.0)
    return WeightedDigraph(sparse.csr_array(W))


def random_leaf_function(rng: np.random.Generator, filt: Filtration):
    """Random leaf-measurable piecewise constant with rational values."""
    from twintree.basis import PiecewiseConstant
    bps = [Fraction(0)]
    for leaf in filt.leaves():
        bps.append(leaf.b)
    vals = [Fraction(int(a), 8) for a in rng.integers(-40, 41,
                                                      size=len(bps) - 1)]
    return PiecewiseConstant(bps, vals)


def degenerate_digraphs() -> dict[str, WeightedDigraph]:
    """Digraphs whose twin trees graft tiny components off the root or
    see unusual weights: fragmented, out-star, self-loops, heavy-tailed."""
    star = np.zeros((12, 12))
    star[0, 1:] = 1.0
    planted = synth_digraph("planted", seed=5, sizes=(10, 10))
    heavy = planted.weights.copy()
    heavy.data = np.random.default_rng(6).lognormal(0.0, 6.0, heavy.nnz)
    return {
        "fragmented": synth_digraph("sparse", seed=3, n=40, density=0.02),
        "out_star": WeightedDigraph(star),
        "self_loops": WeightedDigraph(planted.weights.toarray()
                                      + np.eye(20)),
        "heavy_tailed": WeightedDigraph(heavy),
    }


def value_table_filtration(case: str) -> Filtration:
    """A filtration per case: a planted graph's under "uniform" or
    "volume" masses, one with single-child chains to collapse ("chain"),
    or a single leaf (any other case)."""
    if case in ("uniform", "volume"):
        G = synth_digraph("planted", seed=4, sizes=(15, 25))
        es, _ = twt(G, K=(2, 8), seed=3)
        return build_filtration(es, case, G)
    if case == "chain":
        # repeated levels give single-child chains above leaves and inner nodes
        a, b = frozenset({0, 1, 2}), frozenset({3, 4})
        return build_filtration(tree_by_subset_scan(
            range(5), [[a, b], [a, b],
                       [frozenset({0}), frozenset({1, 2}), b],
                       [frozenset({0}), frozenset({1}), frozenset({2}),
                        frozenset({3}), frozenset({4})]]))
    return build_filtration(tree_by_subset_scan(range(1), [[frozenset({0})]]))
