import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import block_diag

from twintree import clustering
from twintree.cli import _sample_training_labels
from twintree.clustering import (ClusterNode, ClusterTree, TwinTreeBuilder,
                                 _label_seed_vertices, _medoid_hierarchy,
                                 _path_distance, check_level_spec,
                                 coarse_grain, medoid_partition, mbo_cluster,
                                 spectral_embedding, twt)
from twintree.digraph import (UndirectedGraph, WeightedDigraph, symmetrize,
                              synth_digraph, weak_component_indices)
from twintree.metrics import _partition_labels

from oracles import (coarse_grain_brute, exhaustive_two_medoid,
                     graft_by_offset, label_propagation, medoid_iterate_ix,
                     random_walk_embedding, seeded_hierarchy,
                     seeded_level_ids, set_hierarchy, trial_graft_ids,
                     trial_level_ids, tree_by_subset_scan)
from util import degenerate_digraphs, random_digraph, random_nested_partitions


def tree_of_levels(idx, levels):
    """The ClusterTree whose level l + 1 clusters idx by levels[l]."""
    return clustering._tree_of_ids(
        idx, clustering._level_ids(np.reshape(levels, (1, -1, idx.size)),
                                   idx.size)[0])


def chain_tree():
    """0 -> {0,1,2}; children {0,1} and {2}; then singleton leaves."""
    return tree_of_levels(np.arange(3), [np.array([0, 0, 1])])


# -- tree structure ----------------------------------------------------------


def test_level_ids_build_nested_levels():
    tree = chain_tree()
    tree.validate()
    assert tree.depth() == 2
    assert tree.vertices() == frozenset({0, 1, 2})
    assert [sorted(n.members) for n in tree.leaves()] == [[0], [1], [2]]
    assert tree.partition_at_level(1) == [frozenset({0, 1}), frozenset({2})]


def test_level_ids_reject_levels_that_do_not_nest():
    # {1, 2} at level 2 meets both {0, 1} and {2, 3} of level 1, in the
    # second trial of the batch; the first trial nests
    nests = [[0, 0, 1, 1], [0, 0, 1, 2]]
    breaks = [[0, 0, 1, 1], [0, 1, 1, 2]]
    for batch in ([breaks], [nests, breaks]):
        with pytest.raises(ValueError,
                           match="level 2 does not nest in level 1"):
            clustering._level_ids(np.array(batch), 4)
    # a label may meet different parents in different trials
    batch = np.array([nests, [[0, 1, 1, 1], [1, 0, 0, 2]]])
    got = clustering._level_ids(batch, 4)
    assert [ids.tolist() for ids in got] == [
        trial_level_ids(levels, 4).tolist() for levels in batch]


def test_random_nested_partitions_always_build():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tree = tree_of_levels(np.arange(30), [
            _partition_labels(parts, 30)[0]
            for parts in random_nested_partitions(rng, 30, [3, 7, 15])])
        tree.validate()
        assert tree.depth() == 4
        assert len(tree.level_nodes(2)) == 7


def label_levels(rng, n):
    """Nested label vectors over n positions, coarsest first, each level
    numbered 0, 1, ...: none to three distinct partitions (the finest
    sometimes all single vertices), each repeated one to three times."""
    finest = (np.arange(n) if rng.random() < 0.3
              else rng.integers(0, int(rng.integers(1, n + 1)), n))
    levels = [np.unique(finest, return_inverse=True)[1]]
    for _ in range(int(rng.integers(0, 3))):
        k = int(levels[-1].max()) + 1
        merge = rng.integers(0, int(rng.integers(1, k + 1)), k)
        levels.append(np.unique(merge[levels[-1]], return_inverse=True)[1])
    levels = levels[: int(rng.integers(0, len(levels) + 1))]
    return [lab for lab in levels[::-1] for _ in range(rng.integers(1, 4))]


def as_partitions(idx, levels):
    return [[frozenset(idx[lab == j].tolist()) for j in range(lab.max() + 1)]
            for lab in levels]


def test_label_vector_trees_match_the_subset_scan():
    kinds = set()
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        idx = np.sort(rng.choice(3 * n, size=n, replace=False))
        levels = label_levels(rng, n)
        if not levels:
            kinds.add("no levels")
        elif any(np.array_equal(a, b) for a, b in zip(levels, levels[1:])):
            kinds.add("repeated level")
        if levels and levels[-1].max() == n - 1:
            kinds.add("single vertices")
        want = tree_by_subset_scan(idx.tolist(), as_partitions(idx, levels))
        got = tree_of_levels(idx, levels)
        # node by node: id, level, parent, children in order, members
        assert got.root == want.root and got.nodes == want.nodes
    assert kinds == {"no levels", "repeated level", "single vertices"}


@pytest.mark.parametrize("algo", ["nhc", "mll", "mbo"])
def test_twt_trees_match_the_subset_scan(monkeypatch, algo):
    calls, real = [], clustering._cluster_component

    def recording(comp, *args):
        batch = real(comp, *args)
        calls.append((comp.idx, batch[0]))  # build is a batch of one
        return batch
    monkeypatch.setattr(clustering, "_cluster_component", recording)
    graphs = {**degenerate_digraphs(),
              # three weak components, the 6-vertex one a level shallower
              "components": synth_digraph("planted", seed=0,
                                          sizes=[20, 20, 6], p_out=0.0)}
    unequal = False
    for G in graphs.values():
        labeled = {v: v % 3 for v in range(G.n)} if algo == "mbo" else None
        calls.clear()
        trees = twt(G, K=(2, 6), algo=algo, seed=7, labeled=labeled)
        comps = weak_component_indices(G)
        half = len(calls) // 2  # every "es" component, then every "os" one
        for tree, side in zip(trees, (calls[:half], calls[half:])):
            levels = {tuple(idx.tolist()): lv for idx, lv in side}
            parts = [levels.get(tuple(idx.tolist()), []) for idx in comps]
            want = graft_by_offset(G.n, [
                (idx.tolist(), as_partitions(idx, lv))
                for idx, lv in zip(comps, parts)])
            assert tree.root == want.root and tree.nodes == want.nodes
            unequal |= len({len(lv) for lv in parts}) > 1
    assert unequal  # a shallow component's leaves stood in deeper down


def test_validate_catches_structural_damage():
    tree = chain_tree()
    tree.nodes[1].parent = 2
    with pytest.raises(ValueError, match="parent link"):
        tree.validate()

    tree = chain_tree()
    bad = max(tree.nodes) + 1
    leaf = tree.leaf_of_vertex(0)
    tree.nodes[bad] = ClusterNode(id=bad, level=3, parent=leaf,
                                  members=frozenset({0}))
    tree.nodes[leaf].children.append(bad)
    with pytest.raises(ValueError, match="level skip"):
        ClusterTree({**tree.nodes,
                     bad: ClusterNode(id=bad, level=4, parent=leaf,
                                      members=frozenset({0}))}).validate()

    with pytest.raises(ValueError, match="exactly one vertex"):
        ClusterTree({0: ClusterNode(id=0, level=0, parent=None,
                                    members=frozenset({0, 1}))})


def test_ancestor_lookup_with_shallow_leaves():
    tree = chain_tree()
    assert tree.depth() == 2
    deep = tree.nodes[tree.ancestor_at_level(2, 4)]
    assert not deep.children and deep.members == frozenset({2})
    # partitions below the leaves repeat the finest real split
    assert tree.partition_at_level(4) == [frozenset({0}), frozenset({1}),
                                          frozenset({2})]


def test_shallow_leaf_is_its_own_ancestor():
    tree = chain_tree()
    leaf = tree.leaf_of_vertex(2)
    assert tree.ancestor_at_level(2, 5) == leaf
    assert tree.ancestor_at_level(2, 2) == leaf
    assert tree.ancestor_at_level(2, 0) == tree.root


def test_tree_json_roundtrip(tmp_path):
    tree = chain_tree()
    path = tmp_path / "tree.json"
    tree.save_json(path)
    back = ClusterTree.load_json(path)
    back.validate()
    assert back.to_json_dict() == tree.to_json_dict()


def test_level_spec_validation():
    assert check_level_spec([2, 5], 10) == (2, 5)
    with pytest.raises(ValueError, match="strictly increase"):
        check_level_spec([5, 5], 10)
    with pytest.raises(ValueError, match="outside"):
        check_level_spec([1], 10)
    with pytest.raises(ValueError, match="outside"):
        check_level_spec([10], 10)


# -- the medoid engine -------------------------------------------------------


def blob_distances(rng, sizes, spread=0.05, gap=10.0):
    """Euclidean distances of 1-d points in well-separated blobs."""
    xs = []
    truth = []
    for b, size in enumerate(sizes):
        xs.extend(gap * b + spread * rng.random(size))
        truth.extend([b] * size)
    xs = np.array(xs)
    return np.abs(xs[:, None] - xs[None, :]), np.array(truth)


def assignment_objective(dist, assign):
    total = 0.0
    for j in np.unique(assign):
        member = np.flatnonzero(assign == j)
        within = dist[np.ix_(member, member)].sum(axis=1)
        total += within.min()
    return float(total)


def _medoid_batches():
    """(dist stack, which, k, centers) batches on reciprocal es/os
    distances of planted graphs: 240 seeded starts, k = 1 among them,
    each batch mixing both sides' matrices."""
    batches = []
    for seed in range(10):
        G = synth_digraph("planted", seed=seed, sizes=(12, 10, 8),
                          p_in=0.4, p_out=0.05)
        G = G.subgraph(weak_component_indices(G)[0])
        dist = np.stack([_path_distance(symmetrize(G, side), "reciprocal")
                         for side in ("es", "os")])
        rng = np.random.default_rng(seed)
        for k in range(1, 7):
            batches.append((dist, np.array([0, 0, 1, 1]), k, np.array(
                [rng.choice(G.n, size=k, replace=False) for _ in range(4)])))
    return batches


def test_medoid_steps_match_the_ix_loop():
    batches = _medoid_batches()
    # coincident points: cluster 1 starts empty and is re-seeded at the
    # far point; on the second line every re-seed coincides too
    # (the first beside a start in lockstep that re-seeds nothing)
    for pos, centers in (([0.0, 0.0, 1.0, 2.0, 5.0], [[0, 1, 2], [2, 3, 4]]),
                         ([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [[0, 1, 3]])):
        pos = np.asarray(pos)
        batches.append((np.abs(pos[:, None] - pos[None, :])[None],
                        np.zeros(len(centers), dtype=int), 3,
                        np.array(centers)))
    assert sum(len(which) for _, which, _, _ in batches) >= 200
    empty = 0
    for dist, which, k, centers in batches:
        assign, got = clustering._medoid_iterate(dist, which, k, centers, 100)
        for s in range(len(which)):
            want_assign, want = medoid_iterate_ix(dist[which[s]], k,
                                                  centers[s], 100)
            assert np.array_equal(assign[s], want_assign)
            assert np.array_equal(got[s], want)
            empty += np.bincount(assign[s], minlength=k).min() == 0
    assert empty == 1  # the second coincident line keeps an empty cluster


def test_grouped_medoid_sums_equal_the_per_cluster_gather():
    """Bit for bit, for every cluster size 1-513: pairwise summation
    blocks turn over at 8 and 128 entries, hence 9, 129 and 257."""
    rng = np.random.default_rng(8)
    n = 1100
    dist = rng.lognormal(0.0, 3.0, (n, n))
    flat = dist.reshape(-1)
    for m in range(1, 514):
        members = np.sort(np.array([rng.choice(n, size=m, replace=False)
                                    for _ in range(3)]), axis=1)
        at = members[:, :, None] * n + members[:, None, :]
        grouped = flat.take(at).sum(axis=2)
        for row, member in zip(grouped, members):
            one = dist[member[:, None], member].sum(axis=1)
            assert np.array_equal(row, one), m
    # the medoid step itself, on starts of mixed sizes
    sizes = [[513, 512, 75], [257, 256, 255, 129, 128, 75],
             [*range(1, 42), 239], [9, 8, 7, 1076]]
    assign = np.array([rng.permutation(np.repeat(np.arange(len(sz)), sz))
                       for sz in sizes for _ in range(2)], dtype=np.intp)
    k = max(len(sz) for sz in sizes)
    centers = np.zeros((len(assign), k), dtype=np.intp)
    got = clustering._medoids(flat, np.zeros(len(assign), dtype=int),
                              assign, centers, k)
    for s, labels in enumerate(assign):
        for j in range(k):
            member = np.flatnonzero(labels == j)
            want = (member[int(np.argmin(dist[member[:, None], member]
                                         .sum(axis=1)))]
                    if member.size else 0)
            assert got[s, j] == want


def test_medoid_partition_finds_planted_blobs():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        dist, truth = blob_distances(rng, [6, 9])
        assign = medoid_partition(dist[None], 2,
                                  [np.random.default_rng(seed)], n_init=5)[0]
        # same blocks up to label swap
        split = [frozenset(np.flatnonzero(assign == j)) for j in (0, 1)]
        expect = [frozenset(np.flatnonzero(truth == b)) for b in (0, 1)]
        assert sorted(split, key=min) == sorted(expect, key=min)


def test_medoid_objective_matches_exhaustive_two_centers():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        dist, _ = blob_distances(rng, [5, 7], spread=2.0, gap=4.0)
        assign = medoid_partition(dist[None], 2,
                                  [np.random.default_rng(seed)], n_init=40)[0]
        assert assignment_objective(dist, assign) == pytest.approx(
            exhaustive_two_medoid(dist), abs=1e-12)


def test_medoid_partition_is_deterministic_and_rejects_inf():
    rng = np.random.default_rng(3)
    dist, _ = blob_distances(rng, [4, 4, 4])
    a = medoid_partition(dist[None], 3, [np.random.default_rng(17)], n_init=3)
    b = medoid_partition(dist[None], 3, [np.random.default_rng(17)], n_init=3)
    assert np.array_equal(a, b)
    bad = dist.copy()
    bad[0, 1] = np.inf
    with pytest.raises(ValueError, match="infinite"):
        medoid_partition(bad[None], 2, [np.random.default_rng(0)])


def test_seed_vertices_become_first_centers():
    rng = np.random.default_rng(5)
    dist, truth = blob_distances(rng, [6, 6])
    # one seed in each blob; a single assignment step labels by seed order
    assign = medoid_partition(dist[None], 2, [np.random.default_rng(0)],
                              seed_vertices=[[0, 6]], max_iter=1)[0]
    assert np.array_equal(assign, truth)
    flipped = medoid_partition(dist[None], 2, [np.random.default_rng(0)],
                               seed_vertices=[[6, 0]], max_iter=1)[0]
    assert np.array_equal(flipped, 1 - truth)


# -- coarse graining ----------------------------------------------------------


def _random_parts(rng, n, k):
    """A label vector of k nonempty clusters of range(n), numbered in a
    random order, and its clusters as sets in label order."""
    labels = rng.permutation(np.arange(n) % k)
    labels = np.argsort(rng.permutation(k))[labels]
    return labels, [frozenset(np.flatnonzero(labels == j).tolist())
                    for j in range(k)]


def test_coarse_grain_matches_brute_force():
    """Bit for bit, on integer and lognormal weights, on a digraph, its
    es/os companions and their coarse graphs coarse-grained again."""
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        W = random_digraph(rng, 12, density=0.3).to_dense()
        edges = int((W > 0).sum())
        W[W > 0] = (rng.integers(1, 10, edges) if seed % 2 else
                    rng.lognormal(0.0, 6.0, edges))
        G = WeightedDigraph(W)
        for graph in (G, symmetrize(G, "es"), symmetrize(G, "os")):
            mirror = isinstance(graph, UndirectedGraph)
            labels, parts = _random_parts(rng, 12, 5)
            C = coarse_grain(graph, labels)
            assert type(C) is type(graph)
            assert np.array_equal(C.to_dense(), coarse_grain_brute(
                graph.to_dense(), parts, mirror))
            assert C.total_weight() == pytest.approx(graph.total_weight(),
                                                     rel=1e-12)
            labels, coarser = _random_parts(rng, 5, 2)
            assert np.array_equal(
                coarse_grain(C, labels).to_dense(),
                coarse_grain_brute(C.to_dense(), coarser, mirror))


def test_coarse_grain_identity_and_errors():
    rng = np.random.default_rng(4)
    G = random_digraph(rng, 6, density=0.4)
    same = coarse_grain(G, np.arange(6))
    assert np.allclose(same.to_dense(), G.to_dense())
    # a label that no vertex holds is an isolated coarse vertex
    gap = coarse_grain(G, [0, 0, 2, 2, 2, 2])
    assert np.array_equal(gap.to_dense(), coarse_grain_brute(
        G.to_dense(), [{0, 1}, set(), {2, 3, 4, 5}]))
    for labels in ([0, 0, 1, 1, 1],  # too short
                   [0, 0, 1, 1, 1, 1, 1],  # too long
                   [[0, 0, 0], [1, 1, 1]],  # not a vector
                   [], [-1, 0, 0, 1, 1, 1],
                   [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
                   [False, False, False, True, True, True]):
        with pytest.raises(ValueError, match="6 nonnegative integer labels"):
            coarse_grain(G, labels)
    S = symmetrize(G, "es")
    CS = coarse_grain(S, [0, 0, 0, 1, 1, 1])
    assert isinstance(CS, UndirectedGraph)


def test_coarse_grain_collapses_a_batch_as_one_call_per_row():
    """A label matrix gives the block-diagonal union of the single calls'
    graphs, bit for bit: on one shared graph, and again on that union,
    block by block."""
    rng = np.random.default_rng(7)
    W = random_digraph(rng, 12, density=0.4).to_dense()
    W[W > 0] = rng.lognormal(0.0, 6.0, int((W > 0).sum()))
    G = WeightedDigraph(W)
    for graph in (G, symmetrize(G, "os")):
        rows = np.array([_random_parts(rng, 12, 5)[0] for _ in range(4)])
        singles = [coarse_grain(graph, row) for row in rows]
        union = coarse_grain(graph, rows)
        assert type(union) is type(graph)
        assert np.array_equal(union.to_dense(), block_diag(
            *[C.to_dense() for C in singles]))
        coarser = np.array([_random_parts(rng, 5, 2)[0] for _ in range(4)])
        assert np.array_equal(coarse_grain(union, coarser).to_dense(),
                              block_diag(*[coarse_grain(C, row).to_dense()
                                           for C, row in zip(singles,
                                                             coarser)]))
    # two rows of six labels read G as two blocks, but edges join them
    with pytest.raises(ValueError, match="per block of a block-diagonal"):
        coarse_grain(G, rows[:2, :6])


def test_coarse_weights_that_overflow_are_not_finite():
    W = np.zeros((3, 3))
    W[0, 1] = W[0, 2] = 1e308
    for G in (WeightedDigraph(W), UndirectedGraph(W + W.T)):
        with pytest.raises(ValueError, match="edge weights must be finite"):
            coarse_grain(G, [0, 1, 1])


# -- spectral embedding -------------------------------------------------------


def test_embedding_matches_random_walk_oracle(monkeypatch):
    sparse_calls, eigsh = [], sparse.linalg.eigsh

    def recording_eigsh(*args, **kwargs):
        sparse_calls.append(args[0].shape)
        return eigsh(*args, **kwargs)
    monkeypatch.setattr(sparse.linalg, "eigsh", recording_eigsh)
    # 15 vertices take the dense eigensolver, 420 the sparse one
    for n, density in ((15, 0.5), (420, 0.05)):
        rng = np.random.default_rng(9)
        G = symmetrize(random_digraph(rng, n, density=density), "es")
        coords = spectral_embedding(G, n_eig=6)
        lam, ref = random_walk_embedding(G.to_dense(), 6, t=1.0)
        assert coords.shape == (n, 6)
        for j in range(6):
            a, b = coords[:, j], ref[:, j]
            corr = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert corr == pytest.approx(1.0, abs=1e-8)
        # leading eigenvalue of the walk matrix is 1
        assert lam[0] == pytest.approx(1.0, abs=1e-10)
    assert sparse_calls == [(420, 420)]


def test_embedding_requires_positive_degrees():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    with pytest.raises(ValueError, match="positive degree"):
        spectral_embedding(UndirectedGraph(W), 2)


def test_embedding_sign_fix_is_reproducible():
    rng = np.random.default_rng(12)
    G = symmetrize(random_digraph(rng, 10, density=0.5), "os")
    A = spectral_embedding(G, 4)
    B = spectral_embedding(G, 4)
    assert np.array_equal(A, B)


# -- full clusterers ----------------------------------------------------------


def planted_companion(seed=0):
    G = synth_digraph("planted", seed=seed, sizes=(15, 15), p_in=0.5,
                      p_out=0.01)
    return G, symmetrize(G, "es")


def expected_blocks():
    return sorted([frozenset(range(15)), frozenset(range(15, 30))], key=min)


def hierarchy(G, K, seed, labeled, dist_of, n_init=1, finest=None):
    """_medoid_hierarchy for a batch of one seed: its level label vectors,
    coarsest first."""
    return list(_medoid_hierarchy(
        G, K, [seed], [labeled], dist_of, n_init,
        None if finest is None else finest[None])[0])


def reciprocal_distance(cur):
    """nhc's dist_of under the default reciprocal edge lengths."""
    return _path_distance(cur, "reciprocal")


def test_graph_metric_clusterer_recovers_planted_blocks():
    hits = 0
    for seed in range(10):
        _, S = planted_companion(seed)
        tree = tree_of_levels(np.arange(S.n), hierarchy(
            S, (2,), seed, None, reciprocal_distance, n_init=3))
        tree.validate()
        if sorted(tree.partition_at_level(1), key=min) == expected_blocks():
            hits += 1
    assert hits >= 9


def test_embedding_clusterer_recovers_planted_blocks():
    hits = 0
    for seed in range(10):
        _, S = planted_companion(seed)
        tree = tree_of_levels(np.arange(S.n), hierarchy(
            S, (2,), seed, None, clustering._embedding_distance(seed),
            n_init=3))
        tree.validate()
        if sorted(tree.partition_at_level(1), key=min) == expected_blocks():
            hits += 1
    assert hits >= 9


def test_hierarchies_nest_and_are_deterministic():
    rng = np.random.default_rng(31)
    G = symmetrize(random_digraph(rng, 24, density=0.35), "es")
    for dist_of in (reciprocal_distance, clustering._embedding_distance(5)):
        t1, t2 = (tree_of_levels(np.arange(G.n), hierarchy(
            G, (2, 4, 8), 5, None, dist_of)) for _ in range(2))
        assert t1.to_json_dict() == t2.to_json_dict()
        t1.validate()
        assert t1.depth() == 4
        for lvl in (1, 2, 3):
            coarse = t1.partition_at_level(lvl)
            fine = t1.partition_at_level(lvl + 1)
            for f in fine:
                assert any(f <= c for c in coarse)


def test_labeled_seeding_controls_cluster_identity():
    _, S = planted_companion(3)
    labeled = {0: ("a",), 15: ("b",)}
    tree = tree_of_levels(np.arange(S.n), hierarchy(
        S, (2,), 1, labeled, reciprocal_distance, n_init=1))
    parts = tree.partition_at_level(1)
    assert sorted(parts, key=min) == expected_blocks()


# -- semi-supervised diffusion -------------------------------------------------


def test_diffusion_classifier_respects_full_labels():
    _, S = planted_companion(7)
    labeled = {v: int(v >= 15) for v in range(30)}
    assign = mbo_cluster(S, labeled, n_classes=2)
    assert np.array_equal(assign, np.array([0] * 15 + [1] * 15))


def test_diffusion_classifier_spreads_sparse_labels():
    G, S = planted_companion(11)
    labeled = {0: 0, 1: 0, 15: 1, 16: 1}
    assign = mbo_cluster(S, labeled, n_classes=2)
    truth = np.array([0] * 15 + [1] * 15)
    assert np.array_equal(assign, truth)
    ref = label_propagation(S.to_dense(), labeled, 2)
    assert np.array_equal(ref, truth)


def test_diffusion_classifier_validates_inputs():
    _, S = planted_companion(1)
    with pytest.raises(ValueError, match="labeled"):
        mbo_cluster(S, {}, n_classes=2)
    with pytest.raises(ValueError, match="outside"):
        mbo_cluster(S, {0: 5}, n_classes=2)


# -- twin tree construction ----------------------------------------------------


def test_twin_trees_on_connected_graph():
    G = synth_digraph("toy25", seed=1)
    es, os_ = twt(G, K=(2, 6), seed=9)
    for tree in (es, os_):
        tree.validate()
        assert tree.vertices() == frozenset(range(25))
        assert tree.depth() == 3
    # the two sides cluster different companions, so they may differ;
    # both must be reproducible
    es2, os2 = twt(G, K=(2, 6), seed=9)
    assert es.to_json_dict() == es2.to_json_dict()
    assert os_.to_json_dict() == os2.to_json_dict()


def test_twin_trees_split_components_first():
    rng = np.random.default_rng(21)
    A = random_digraph(rng, 10, density=0.5).to_dense()
    B = random_digraph(rng, 7, density=0.5).to_dense()
    W = np.zeros((19, 19))
    W[:10, :10] = A
    W[10:17, 10:17] = B
    W[17, 18] = 1.0  # a tiny two-vertex component
    G = WeightedDigraph(sparse.csr_array(W))
    comps = [frozenset(int(v) for v in idx)
             for idx in weak_component_indices(G)]
    es, os_ = twt(G, K=(2,), seed=0)
    for tree in (es, os_):
        tree.validate()
        level1 = sorted(tree.partition_at_level(1), key=min)
        assert level1 == sorted(comps, key=min)


def test_twin_trees_attach_tiny_components_directly():
    W = np.zeros((6, 6))
    W[0, 1] = W[1, 2] = W[2, 0] = 1.0   # 3-cycle, below the threshold
    W[3, 4] = W[4, 5] = W[5, 3] = 1.0
    G = WeightedDigraph(sparse.csr_array(W))
    es, _ = twt(G, K=(2,), seed=0)
    es.validate()
    assert es.depth() == 2
    assert sorted(es.partition_at_level(1), key=min) == [
        frozenset({0, 1, 2}), frozenset({3, 4, 5})]


def test_twin_trees_reject_unknown_algo():
    G = synth_digraph("sparse", seed=0, n=12)
    with pytest.raises(ValueError, match="algorithm"):
        twt(G, K=(2,), algo="zzz")


@pytest.mark.parametrize("algo", ["nhc", "mll", "mbo"])
def test_twin_trees_reject_unknown_parameters(algo):
    G = synth_digraph("sparse", seed=0, n=12)
    with pytest.raises(TypeError):
        twt(G, K=(2,), algo=algo, fidelty=5.0)
    for build in (TwinTreeBuilder, twt):  # at construction, for every algo
        with pytest.raises(ValueError, match="edge_length"):
            build(G, (2,), algo=algo, edge_length="bogus")


def test_label_seeds_order_classes_by_value():
    assert _label_seed_vertices({0: 10, 1: 2, 2: 1}) == [2, 1, 0]
    assert _label_seed_vertices({v: 12 - v for v in range(13)}) == list(
        range(12, -1, -1))
    paths = {0: ("a", "b"), 1: ("a-",), 2: ("a",)}
    assert _label_seed_vertices(paths) == [2, 0, 1]


def _tree_bytes(tmp_path, trees) -> list[bytes]:
    out = []
    for tree in trees:
        path = tmp_path / "tree.json"
        tree.save_json(path)
        out.append(path.read_bytes())
    return out


@pytest.mark.parametrize("algo,params,labels", [
    ("nhc", {"edge_length": "reciprocal"}, None),
    ("nhc", {"edge_length": "raw", "n_init": 2}, None),
    ("nhc", {}, "fixed"),
    ("nhc", {}, "per_build"),
    ("mll", {"edge_length": "raw"}, None),
    ("mll", {}, "per_build"),
    ("mbo", {"edge_length": "reciprocal"}, "fixed"),
    ("mbo", {}, "per_build"),
])
def test_prepared_builds_match_fresh_twt_calls(tmp_path, algo, params,
                                               labels):
    G = synth_digraph("sparse", seed=10, n=40, density=0.025)
    sizes = sorted(len(idx) for idx in weak_component_indices(G))
    assert sizes == [1, 1, 1, 1, 3, 6, 27]  # two tiny-threshold kinds
    K = (2,) if algo == "mbo" else (2, 5)
    builder = TwinTreeBuilder(G, K, algo=algo, **params)
    rng = np.random.default_rng(3)
    for seed in range(5):
        labeled = None
        if labels == "fixed":
            labeled = {v: v % 3 for v in range(G.n)}
        elif labels == "per_build":  # a fresh training sample per build
            picked = rng.choice(G.n, size=16, replace=False)
            labeled = {int(v): int(v) % 3 for v in picked}
        built = builder.build(seed, labeled)
        fresh = twt(G, K, algo=algo, seed=seed, labeled=labeled, **params)
        assert _tree_bytes(tmp_path, built) == _tree_bytes(tmp_path, fresh)
    cached = [comp.finest_dist for side in builder.sides
              for comp in side if comp is not None]
    if algo == "nhc":
        assert all(d is not None and not d.flags.writeable for d in cached)
    else:  # mll and mbo compute their finest level per build
        assert all(d is None for d in cached)


@pytest.mark.parametrize("algo", ["nhc", "mll", "mbo"])
def test_twt_from_a_given_builder_matches_a_fresh_twt(algo):
    graphs = [synth_digraph("planted", seed=1, sizes=(12, 12)),
              # three weak components, the 6-vertex one a level shallower
              synth_digraph("planted", seed=0, sizes=[20, 20, 6], p_out=0.0)]
    K = (2,) if algo == "mbo" else (2, 5)
    for G in graphs:
        labeled = {v: v % 3 for v in range(G.n)} if algo == "mbo" else None
        builder = TwinTreeBuilder(G, K, algo=algo)
        for seed in (0, 7):
            given = twt(G, K, algo=algo, seed=seed, labeled=labeled,
                        builder=builder)
            fresh = twt(G, K, algo=algo, seed=seed, labeled=labeled)
            assert ([t.to_json_dict() for t in given]
                    == [t.to_json_dict() for t in fresh])
        # another graph, even one equal to G, or other parameters
        same_content = WeightedDigraph(G.weights, G.names, G.labels)
        for H, kw in ((graphs[0] if G is graphs[1] else graphs[1], {}),
                      (same_content, {}), (G, {"K": (2, 4)}),
                      (G, {"algo": "mll" if algo == "nhc" else "nhc"}),
                      (G, {"edge_length": "raw"}), (G, {"n_init": 2})):
            with pytest.raises(ValueError, match="builder"):
                twt(H, **{"K": K, "algo": algo, **kw}, labeled=labeled,
                    builder=builder)


def _embedding_distance(cur):
    coords = spectral_embedding(cur, 30, 0)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def _two_places(cur):
    """Even and odd vertices sit at two points: clusters can be empty."""
    parity = np.arange(cur.n) % 2
    return (parity[:, None] != parity[None, :]).astype(float)


def _hierarchy_cases():
    """(graph, K, seed, labeled, dist_of, n_init, finest label vector)."""
    _, S = planted_companion(4)
    G3 = synth_digraph("planted", seed=2, sizes=(10, 12, 14), p_in=0.4,
                       p_out=0.03)
    S3 = symmetrize(G3, "os")
    truth3 = {v: int(v >= 10) + int(v >= 22) for v in range(G3.n)}
    finest = mbo_cluster(S3, {v: truth3[v] for v in range(0, 36, 5)},
                         n_classes=3)
    cases = {
        "nhc_reciprocal": (S, (2, 4, 8), 0, None,
                           lambda cur: _path_distance(cur, "reciprocal"), 1,
                           None),
        "nhc_raw_n_init_2": (S3, (3, 6, 12), 5, None,
                             lambda cur: _path_distance(cur, "raw"), 2, None),
        "nhc_labeled": (S3, (2, 3), 1, {0: ("a",), 10: ("b",), 30: ("c",)},
                        lambda cur: _path_distance(cur, "reciprocal"), 1,
                        None),
        "mll": (S, (2, 6), 3, None, _embedding_distance, 1, None),
        "mbo_finest": (S3, (2, 3), 7, None,
                       lambda cur: _path_distance(cur, "reciprocal"), 1,
                       finest),
        # seeded centers 0, 2 and 1: 0 and 2 coincide, so cluster 1 of
        # the finest level stays empty and clusters 0 and 2 remain
        "coincident": (S3, (2, 3), 0, {0: ("a",), 2: ("b",), 1: ("c",)},
                       _two_places, 1, None),
    }
    sparse40 = synth_digraph("sparse", seed=10, n=40, density=0.025)
    for idx in weak_component_indices(sparse40):
        if len(idx) >= 4:
            for side in ("es", "os"):
                cases[f"sparse40_{len(idx)}_{side}"] = (
                    symmetrize(sparse40.subgraph(idx), side),
                    tuple(k for k in (2, 5) if k < len(idx)), 2, None,
                    lambda cur: _path_distance(cur, "reciprocal"), 1, None)
    return cases


HIERARCHY_CASES = _hierarchy_cases()


@pytest.mark.parametrize("case", sorted(HIERARCHY_CASES))
def test_label_vector_hierarchy_matches_the_set_oracle(case, monkeypatch):
    G, K, seed, labeled, dist_of, n_init, finest = HIERARCHY_CASES[case]
    calls = []

    def counted(graph, labels):
        calls.append(int(labels.max()) + 1)
        return coarse_grain(graph, labels)

    monkeypatch.setattr("twintree.clustering.coarse_grain", counted)
    levels = hierarchy(G, K, seed, labeled, dist_of, n_init, finest)
    # every level but the coarsest is coarse-grained onto, finest first
    assert calls == [max(lab) + 1 for lab in levels[:0:-1]]
    got = [[frozenset(v for v in range(G.n) if lab[v] == j)
            for j in range(max(lab) + 1)] for lab in levels]
    want = set_hierarchy(
        G, K, np.random.default_rng(seed), dist_of,
        _label_seed_vertices(labeled), n_init, 100,
        None if finest is None else
        [frozenset(np.flatnonzero(finest == j).tolist())
         for j in range(K[-1]) if np.any(finest == j)])
    assert got == want
    if case == "coincident":  # two places hold at most two clusters
        assert [len(level) for level in got] == [2, 2]



def assert_trial_ids(ids, want, msg=None):
    """Trial ids of a level-id stack equal want, one trial's level-id
    matrix, in its first len(want) rows, and are exactly -1 below."""
    assert ids[:len(want)].tolist() == want.tolist(), msg
    assert np.all(ids[len(want):] == -1), msg


def _oracle_graphs():
    return {"components": synth_digraph("planted", seed=0, sizes=[20, 20, 6],
                                        p_out=0.0),
            "planted": synth_digraph("planted", seed=4, sizes=(12, 12, 12)),
            **degenerate_digraphs()}


@pytest.mark.parametrize("algo", ["nhc", "mll", "mbo"])
def test_batched_level_ids_match_the_per_seed_oracle(algo):
    """Every trial of a batch gets the level ids that its seed gets when
    clustered on its own, level after level on graph objects: three
    levels, several starts, labeled seeds fixed or drawn per trial,
    several weak components and the degenerate corpus.  Rows below a
    trial's own depth are -1."""
    seeds = [3, 11, 12, 40, 41, 99]
    kinds = set()
    for name, G in _oracle_graphs().items():
        rng = np.random.default_rng(len(name))
        fixed = [{v: v % 3 for v in range(G.n)}] * len(seeds)
        drawn = [{int(v): int(v) % 3
                  for v in rng.choice(G.n, size=G.n // 2, replace=False)}
                 for _ in seeds]
        for K, n_init in (((2, 4, 8), 3), ((3, 5), 1)):
            builder = TwinTreeBuilder(G, K, algo=algo, n_init=n_init)
            for labeled in ([None] * len(seeds), fixed, drawn):
                if algo == "mbo" and labeled[0] is None:
                    continue
                got = builder.level_ids_batch(seeds, labeled)
                for t, (seed, lab) in enumerate(zip(seeds, labeled)):
                    want = seeded_level_ids(builder, seed, lab)
                    for stack, ids in zip(got, want):
                        assert_trial_ids(stack[t], ids, (name, K, seed))
                    kinds.add(("depth", len(want[0])))
                if len(builder.comps) > 1:
                    kinds.add("components")
    assert "components" in kinds
    if algo != "mbo":
        assert ("depth", 4) in kinds


@pytest.mark.parametrize("algo", ["nhc", "mll", "mbo"])
def test_batched_numbering_matches_the_per_trial_oracle(algo):
    """level_ids_batch numbers and grafts every trial's level labels as
    trial_level_ids and trial_graft_ids do for that trial alone: on the
    degenerate corpus, on three weak components of unequal depth, and,
    for mbo, on per-trial training samples that give the trials of one
    batch different depths, which leave -1 rows below a shallower
    trial's depth."""
    seeds = list(range(8))
    kinds = set()
    for name, G in _oracle_graphs().items():
        index = {v: v % 3 for v in range(G.n)}
        samples = [[None] * len(seeds), [index] * len(seeds),
                   *([_sample_training_labels(index, pct, seed)
                      for seed in seeds] for pct in (5, 30))]
        builder = TwinTreeBuilder(G, (2, 4, 8), algo=algo)
        for labeled in samples[1:] if algo == "mbo" else samples[:2]:
            got = builder.level_ids_batch(seeds, labeled)
            for stack, side in zip(got, builder._levels(seeds, labeled)):
                depths = set()
                for t in range(len(seeds)):
                    # a trial's own levels: its rows that are not -1
                    levels = [lv[t][lv[t, :, 0] >= 0] for lv in side]
                    want = trial_graft_ids(G.n, builder.comps, [
                        trial_level_ids(lv, idx.size)
                        for idx, lv in zip(builder.comps, levels)])
                    assert_trial_ids(stack[t], want, (name, t))
                    depths.add(len(want))
                    kinds.add(("unequal components",
                               len({len(lv) for lv in levels}) > 1))
                kinds.add(("unequal trials", len(depths) > 1))
    assert ("unequal components", True) in kinds
    if algo == "mbo":
        assert ("unequal trials", True) in kinds


def test_an_empty_batch_is_rejected_by_name():
    G = synth_digraph("planted", seed=6, sizes=(20, 20, 6), p_out=0.0)
    for algo in ("nhc", "mll", "mbo"):
        builder = TwinTreeBuilder(G, (2, 4), algo=algo)
        for labeled in (None, []):
            with pytest.raises(ValueError, match="empty batch"):
                builder.level_ids_batch([], labeled)


def test_trials_whose_clusters_coincide_continue_in_groups():
    """Distances floored to even steps make points coincide, so trials
    keep different numbers of clusters, at the finest level and again at
    a coarse one; each group still matches its seeds' own hierarchies."""
    G = synth_digraph("planted", seed=4, sizes=(10, 12, 14), p_in=0.3,
                      p_out=0.05)
    S = symmetrize(G, "os")

    def coincident(cur):  # elementwise, so blockwise like the distances
        return np.floor(_path_distance(cur, "raw") / 2)

    K, seeds = (3, 5, 9), list(range(12))
    got = _medoid_hierarchy(S, K, seeds, [None] * len(seeds), coincident)
    sizes = got.max(axis=2) + 1
    assert len(set(sizes[:, 2].tolist())) > 1
    assert len(set(sizes[:, 1].tolist())) > 1
    for levels, seed in zip(got, seeds):
        want = seeded_hierarchy(S, K, seed, None, coincident)
        assert [lab.tolist() for lab in levels] == [
            lab.tolist() for lab in want]


def test_coarse_batches_hold_no_more_than_a_few_n_by_n_matrices():
    """With K[-1] = n / 2, one (trials, k, k) stack of 60 trials would
    hold 15 n x n matrices; trials go on in batches of n**2 // k**2, so
    that besides the level ids and its O(trials * n) arrays the whole
    batch holds a few n x n matrices."""
    G = synth_digraph("planted", seed=2, sizes=(40, 40, 40))
    seeds = list(range(60))
    for K in ((2, 60), (3, 30, 60)):
        builder = TwinTreeBuilder(G, K)
        builder.level_ids_batch([0])  # keeps the finest distances from here on
        tracemalloc.start()
        try:
            got = builder.level_ids_batch(seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(stack.nbytes for stack in got)
        assert peak - kept < 10 * G.n ** 2 * 8  # without batches: 48
        for seed in seeds[::15]:
            for stack, ids in zip(got, seeded_level_ids(builder, seed)):
                assert_trial_ids(stack[seed], ids)
