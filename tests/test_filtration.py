from fractions import Fraction

import numpy as np
import pytest

from twintree.clustering import twt
from twintree.digraph import WeightedDigraph
from twintree.filtration import (assign_weights, build_filtration,
                                 collapse_chains, llo_enumerate)

from oracles import (collapse_chains_fixpoint, llo_by_depth_scan,
                     tree_by_subset_scan)
from util import (caterpillar, degenerate_digraphs, random_filtration,
                  random_nested_partitions, random_tree)


def small_tree():
    return tree_by_subset_scan(
        range(4), [[frozenset({0, 1}), frozenset({2, 3})]])


def test_collapse_removes_padding_chains():
    # repeated levels give single-child chains, above leaves and inner nodes
    a, b = frozenset({0, 1}), frozenset({2, 3})
    tree = tree_by_subset_scan(
        range(4), [[a, b], [a, b], [frozenset({0}), frozenset({1}), b]])
    assert tree.depth() == 4
    flat = collapse_chains(tree)
    flat.validate()
    assert flat.depth() == 2
    for node in flat.nodes.values():
        assert len(node.children) != 1
    # the chain top keeps its id, so real node ids survive
    assert set(flat.nodes) <= set(tree.nodes)


def test_uniform_weights_are_exact_rationals():
    tree = small_tree()
    w = assign_weights(tree, "uniform")
    for leaf in tree.leaves():
        assert w[leaf.id] == Fraction(1, 4)
    assert w[tree.root] == 1
    assert all(isinstance(v, Fraction) for v in w.values())


def test_volume_weights_follow_degrees():
    W = np.array([[0.0, 3.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [2.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 2.0, 0.0]])
    G = WeightedDigraph(W)
    tree = small_tree()
    w = assign_weights(tree, "volume", G)
    total = Fraction(8)
    by_vertex = {next(iter(tree.nodes[leaf.id].members)): w[leaf.id]
                 for leaf in tree.leaves()}
    assert by_vertex[0] == Fraction(3) / total
    assert by_vertex[2] == Fraction(2) / total
    assert sum(by_vertex.values()) == 1


def test_volume_weights_warn_on_isolated_vertices():
    W = np.zeros((4, 4))
    W[0, 1] = 4.0
    G = WeightedDigraph(W)
    tree = small_tree()
    with pytest.warns(UserWarning, match="zero-degree"):
        w = assign_weights(tree, "volume", G)
    leaves = {next(iter(tree.nodes[leaf.id].members)): w[leaf.id]
              for leaf in tree.leaves()}
    # three isolated vertices take the uniform share, the rest goes to 0
    assert leaves[1] == leaves[2] == leaves[3] == Fraction(1, 4)
    assert leaves[0] == Fraction(1, 4)
    assert sum(leaves.values()) == 1


def test_volume_weights_all_isolated_fall_back_to_uniform():
    W = np.zeros((4, 4))
    W[1, 0] = 1.0  # only vertex 1 has out-degree; others are sinks
    G = WeightedDigraph(W)
    tree = small_tree()
    with pytest.warns(UserWarning):
        w = assign_weights(tree, "volume", G)
    assert w[tree.root] == 1


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        assign_weights(small_tree(), "entropy")


def test_filtration_tiles_the_unit_interval():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        filt = random_filtration(rng, 20, [3, 8], weights="integer")
        filt.validate()
        root = filt.nodes[filt.root]
        assert (root.a, root.b) == (Fraction(0), Fraction(1))
        leaves = filt.leaves()
        assert leaves[0].a == 0 and leaves[-1].b == 1
        for left, right in zip(leaves, leaves[1:]):
            assert left.b == right.a
        assert sum((lf.b - lf.a for lf in leaves), Fraction(0)) == 1


def test_filtrations_deeper_than_the_recursion_limit():
    n = 1201  # 1200 levels, past the default recursion limit of 1000
    tree = caterpillar(n)
    flat = collapse_chains(tree)
    # preorder: internal node d, then its leaf, then the rest
    assert list(flat.nodes) == [x for d in range(n - 1)
                                for x in (d, n - 1 + d)] + [2 * n - 2]
    assert assign_weights(tree)[0] == 1
    filt = build_filtration(tree, "uniform")
    assert filt.depth() == n - 1
    for d in range(n):
        assert filt.leaf_interval(d) == (Fraction(d, n), Fraction(d + 1, n))


def test_filtration_weights_are_exact():
    # thirds and sevenths stay exact end to end
    tree = collapse_chains(tree_by_subset_scan(
        range(3), [[frozenset({0}), frozenset({1}), frozenset({2})]]))
    w = {nid: Fraction(1) for nid in (tree.root,)}
    leaves = tree.leaves()
    w[leaves[0].id] = Fraction(1, 3)
    w[leaves[1].id] = Fraction(2, 7)
    w[leaves[2].id] = 1 - Fraction(1, 3) - Fraction(2, 7)
    filt = build_filtration(tree, weights=w)
    assert filt.leaves()[1].interval == (Fraction(1, 3),
                                         Fraction(1, 3) + Fraction(2, 7))


def test_tampered_masses_are_rejected():
    tree = small_tree()
    w = assign_weights(tree, "uniform")
    w[tree.leaves()[0].id] = Fraction(1, 2)  # breaks the telescoping sums
    with pytest.raises(ValueError):
        build_filtration(tree, weights=w)


def test_vertex_leaf_lookup():
    rng = np.random.default_rng(8)
    filt = random_filtration(rng, 12, [4])
    for v in range(12):
        a, b = filt.leaf_interval(v)
        node = filt.nodes[filt.leaf_of_vertex(v)]
        assert node.members == frozenset({v})
        assert (node.a, node.b) == (a, b)


def test_enumeration_counts_and_order():
    for seed in range(15):
        rng = np.random.default_rng(100 + seed)
        filt = random_filtration(rng, 18, [3, 7], weights="integer")
        enum = llo_enumerate(filt)
        assert len(enum) == filt.n_leaves()
        assert enum[0] == filt.root
        # index 0 is the root; everything else skips leftmost children
        for nid in enum[1:]:
            node = filt.nodes[nid]
            assert filt.nodes[node.parent].children[0] != nid
        # indices are sorted by (depth, left endpoint)
        keys = [(filt.nodes[nid].level, filt.nodes[nid].a)
                for nid in enum[1:]]
        assert keys == sorted(keys)


def test_enumeration_matches_leaf_count_identity():
    # nodes minus leftmost children at every internal node equals leaves
    rng = np.random.default_rng(77)
    tree = random_tree(rng, 25, [2, 5, 11])
    filt = build_filtration(tree)
    internal = [n for n in filt.nodes.values() if n.children]
    expected = 1 + sum(len(n.children) - 1 for n in internal)
    assert len(llo_enumerate(filt)) == expected == filt.n_leaves()


def chained_tree(seed):
    """Random nested partitions with every level repeated 1-3 times,
    under 1-3 copies of the whole set (chains at the root) and over 0-3
    copies of the singletons (chains above leaves, up to length 4)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 16))
    k = int(rng.integers(1, 4))
    sizes = sorted(int(s) for s in rng.choice(np.arange(2, n + 1), k,
                                                replace=False))
    levels = [[frozenset(range(n))]] * int(rng.integers(1, 4))
    for part in random_nested_partitions(rng, n, sizes):
        levels += [part] * int(rng.integers(1, 4))
    levels += [[frozenset({v}) for v in range(n)]] * int(rng.integers(0, 4))
    return tree_by_subset_scan(range(n), levels)


def degenerate_twin_trees():
    """twt trees whose grafts hang tiny components off the root."""
    for G in degenerate_digraphs().values():
        yield from twt(G, K=(2, 6), seed=7)


@pytest.mark.parametrize("source", ["chained", "twt"])
def test_collapse_and_enumeration_match_their_oracles(source):
    trees = ([chained_tree(seed) for seed in range(40)]
             if source == "chained" else list(degenerate_twin_trees()))

    def single(t, nid, steps):  # nid starts a chain of that many steps
        for _ in range(steps):
            if len(t.nodes[nid].children) != 1:
                return False
            nid = t.nodes[nid].children[0]
        return True
    if source == "chained":  # the corpus holds every kind of chain
        assert any(single(t, t.root, 1) for t in trees)
        assert any(single(t, nid, 3) for t in trees for nid in t.nodes)
        assert any(single(t, t.nodes[leaf.id].parent, 1)
                   for t in trees for leaf in t.leaves())
    for tree in trees:
        flat, want = collapse_chains(tree), collapse_chains_fixpoint(tree)
        # node by node: id, level, parent, children in order, members
        assert flat.root == want.root and flat.nodes == want.nodes
        filt = build_filtration(tree)
        assert llo_enumerate(filt) == llo_by_depth_scan(filt)
        assert [n.id for n in filt.leaves()] == [n.id for n in want.leaves()]
        for v in tree.vertices():
            assert filt.leaf_of_vertex(v) == want.leaf_of_vertex(v)
