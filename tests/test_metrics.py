import re

import numpy as np
import pytest
from scipy import sparse

from twintree import metrics
from twintree.clustering import TwinTreeBuilder, twt
from twintree.digraph import WeightedDigraph, synth_digraph
from twintree.metrics import (align_and_score, confusion_matrix, f_measure,
                              modularity, partition_from_labels,
                              product_partition, random_coloring_baseline)

from oracles import (confusion_brute, f_measure_brute, modularity_brute,
                     modularity_sequential, modularity_sliced,
                     product_partition_by_ancestors)
from util import degenerate_digraphs, random_digraph


def random_labels(rng, n, k):
    while True:
        labs = rng.integers(0, k, size=n)
        if len(set(labs.tolist())) == k:
            return labs


def test_partition_validation():
    # parts list their vertices in any order
    assert f_measure([[2, 0], [1]], [{0, 2}, {1}], 3) == 1.0
    assert np.array_equal(confusion_matrix([[2, 0], [1]], [{0, 2}, {1}], 3),
                          np.eye(2))
    for score in (f_measure, confusion_matrix):
        for parts, n, match in (([[0, 1], []], 2, "empty"),
                                ([[0, 1], [1, 2]], 3, "overlap"),
                                ([[0], [2]], 3, "cover"),
                                ([[0], [1], [2], [3]], 3, "cover")):
            whole = [list(range(n))]
            for pred, truth in ((parts, whole), (whole, parts)):
                with pytest.raises(ValueError, match=match):
                    score(pred, truth, n)


def test_degenerate_metric_arguments_are_rejected():
    for score in (f_measure, confusion_matrix):
        with pytest.raises(ValueError, match="at least one vertex, not n=0"):
            score([], [], 0)
    G = random_digraph(np.random.default_rng(3), 6, density=0.5)
    for n_colors, trials in ((0, 5), (-1, 5), (2, 0), (2, -3)):
        with pytest.raises(ValueError, match="n_colors >= 1 and trials >= 1"):
            random_coloring_baseline(G, n_colors, trials, seed=0)


def test_labels_group_in_sorted_label_order():
    parts = partition_from_labels([5, 2, 5, 9, 2])
    assert parts == [frozenset({1, 4}), frozenset({0, 2}),
                     frozenset({3})]


def test_modularity_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        G = random_digraph(rng, 12, density=0.4, weighted=True)
        labs = random_labels(rng, 12, int(rng.integers(2, 5)))
        got = modularity(G, partition_from_labels(labs))
        ref = modularity_brute(G.to_dense(), labs)
        assert got == pytest.approx(ref, abs=1e-12)


def lognormal_digraph(rng, n, density):
    """Digraph with lognormal(sigma=3) weights, self-loops allowed."""
    mask = rng.random((n, n)) < density
    loop = rng.integers(0, n)
    mask[loop, loop] = True
    W = np.where(mask, rng.lognormal(0.0, 3.0, (n, n)), 0.0)
    return WeightedDigraph(sparse.csr_array(W))


def test_modularity_equals_the_sequential_sum_bit_for_bit():
    rng = np.random.default_rng(20)
    for trial in range(50):
        n = int(rng.integers(2, 120))
        G = lognormal_digraph(rng, n, float(rng.uniform(0.02, 0.5)))
        assert any(G.weights.diagonal() > 0)
        k = 1 if trial % 10 == 0 else int(rng.integers(1, min(n, 30) + 1))
        labs = rng.integers(0, k, size=n)
        # parts as lists of numpy ints in shuffled order
        parts = [list(rng.permutation(np.flatnonzero(labs == j)))
                 for j in rng.permutation(k) if np.any(labs == j)]
        in_order = np.empty(n, dtype=int)  # clusters add up in part order
        for j, part in enumerate(parts):
            in_order[part] = j
        got = modularity(G, parts)
        assert got == modularity_sequential(G, in_order)
        assert got == pytest.approx(modularity_sliced(G, parts), abs=1e-12)
        whole = [list(range(n))]
        got = modularity(G, whole)
        assert got == modularity_sequential(G, np.zeros(n, dtype=int))
        assert got == pytest.approx(modularity_sliced(G, whole), abs=1e-12)


def test_random_baseline_scores_each_coloring_like_its_partition():
    rng = np.random.default_rng(21)
    for n, k in ((30, 3), (8, 6), (40, 12)):
        G = lognormal_digraph(rng, n, 0.2)
        seed = int(rng.integers(1 << 30))
        _, _, samples = random_coloring_baseline(G, k, trials=20, seed=seed)
        colors = np.random.default_rng(seed)
        missed = 0
        for got in samples:
            labs = colors.integers(0, k, size=n)
            missed += len(set(labs.tolist())) < k
            # a missed color is an empty cluster: the occupied ones score
            assert got == modularity_sequential(G, labs)
            assert got == pytest.approx(
                modularity_sliced(G, partition_from_labels(labs)), abs=1e-12)
        if n == 8:
            assert missed > 0  # colorings that miss a color are covered


def test_random_baseline_blocks_do_not_change_a_sample(monkeypatch):
    rng = np.random.default_rng(22)
    for n, k in ((30, 3), (8, 6), (40, 12)):
        G = lognormal_digraph(rng, n, 0.2)
        seed = int(rng.integers(1 << 30))
        runs = []
        # one coloring per block, seven per block, one block
        for entries in (1, 7 * G.weights.nnz, 1 << 40):
            monkeypatch.setattr(metrics, "BLOCK_ENTRIES", entries)
            runs.append(random_coloring_baseline(G, k, trials=20, seed=seed))
        assert runs[0] == runs[1] == runs[2]
        if n == 8:  # colorings that miss a color are covered
            colors = np.random.default_rng(seed)
            assert any(len(set(colors.integers(0, k, size=n).tolist())) < k
                       for _ in range(20))


def test_random_baseline_equals_one_draw_and_one_score_per_coloring():
    # several blocks, the last one short: each block is one (rows, n) draw
    G = synth_digraph("planted", seed=2, sizes=(40, 40, 40))
    block = metrics.BLOCK_ENTRIES // G.weights.nnz
    trials = 2 * block + block // 2
    assert 1 < block < trials
    for k in (2, 3, 7):
        _, _, samples = random_coloring_baseline(G, k, trials, seed=k)
        colors = np.random.default_rng(k)
        want = [modularity(G, partition_from_labels(
                    colors.integers(0, k, size=G.n)))
                for _ in range(trials)]
        assert samples == want


def test_single_cluster_scores_zero():
    rng = np.random.default_rng(1)
    G = random_digraph(rng, 10, density=0.5, weighted=True)
    assert modularity(G, [list(range(10))]) == pytest.approx(0.0, abs=1e-12)


def test_modularity_is_scale_invariant():
    rng = np.random.default_rng(2)
    G = random_digraph(rng, 10, density=0.5, weighted=True)
    scaled = WeightedDigraph(G.weights * 7.5)
    labs = random_labels(rng, 10, 3)
    parts = partition_from_labels(labs)
    assert modularity(G, parts) == pytest.approx(modularity(scaled, parts),
                                                 abs=1e-12)


def test_modularity_rejects_empty_graph():
    G = WeightedDigraph(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="edge"):
        modularity(G, [[0, 1], [2, 3]])


def test_planted_structure_beats_random_colorings():
    G = synth_digraph("planted", seed=3, sizes=(15, 15), p_in=0.5,
                      p_out=0.02)
    planted = [set(range(15)), set(range(15, 30))]
    q = modularity(G, planted)
    mean, std, samples = random_coloring_baseline(G, 2, trials=100, seed=4)
    assert len(samples) == 100
    assert q > mean + 5 * std


def test_random_baseline_reports_the_population_std():
    G = synth_digraph("planted", seed=3, sizes=(8, 8), p_in=0.5, p_out=0.1)
    mean, std, samples = random_coloring_baseline(G, 3, trials=12, seed=7)
    assert mean == np.mean(samples)
    assert std == np.std(samples)
    assert std != np.std(samples, ddof=1)


def test_random_baseline_is_reproducible():
    rng = np.random.default_rng(5)
    G = random_digraph(rng, 12, density=0.4, weighted=True)
    a = random_coloring_baseline(G, 3, trials=25, seed=11)
    b = random_coloring_baseline(G, 3, trials=25, seed=11)
    assert a == b
    c = random_coloring_baseline(G, 3, trials=25, seed=12)
    assert a[2] != c[2]


def test_f_measure_matches_oracle_and_extremes():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = 14
        pred = partition_from_labels(random_labels(rng, n, 3))
        truth = partition_from_labels(random_labels(rng, n, 3))
        got = f_measure(pred, truth, n)
        assert got == pytest.approx(f_measure_brute(pred, truth, n),
                                    abs=1e-12)
        assert 0.0 < got <= 1.0
    perfect = partition_from_labels([0, 0, 1, 1, 2])
    assert f_measure(perfect, perfect, 5) == 1.0


def test_confusion_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 14
        pred = partition_from_labels(random_labels(rng, n, 4))
        truth = partition_from_labels(random_labels(rng, n, 3))
        got = confusion_matrix(pred, truth, n)
        assert np.allclose(got, confusion_brute(pred, truth), atol=1e-12)
        assert np.allclose(got.sum(axis=0), 1.0, atol=1e-12)
        assert got.shape == (3, 3)


def test_confusion_of_perfect_prediction_is_identity():
    truth = partition_from_labels([0, 0, 1, 1, 1, 2])
    M = confusion_matrix(truth, truth, 6)
    assert np.array_equal(M, np.eye(3))


def test_confusion_ties_go_to_the_lowest_class():
    # the predicted cluster overlaps both classes equally
    pred = [[0, 1, 2, 3]]
    truth = [[0, 1], [2, 3]]
    M = confusion_matrix(pred, truth, 4)
    assert np.array_equal(M, [[1.0, 1.0], [0.0, 0.0]])


@pytest.fixture(scope="module")
def twin_trees():
    G = synth_digraph("toy25", seed=1)
    es, os_ = twt(G, K=(2, 6), seed=9)
    return G, es, os_


@pytest.fixture(scope="module")
def twin_ids():
    """The level-id stacks, a batch of one, of the twin_trees fixture's
    trees."""
    G = synth_digraph("toy25", seed=1)
    return G, *TwinTreeBuilder(G, (2, 6)).level_ids_batch([9])


def test_level_partitions_are_disjoint_covers(twin_trees):
    G, es, _ = twin_trees
    for level in range(1, es.depth() + 1):
        parts = es.partition_at_level(level)
        assert all(parts)
        assert sorted(v for part in parts for v in part) == list(range(G.n))


def test_product_partition_refines_both_trees(twin_trees):
    G, es, os_ = twin_trees
    for level in range(1, min(es.depth(), os_.depth()) + 1):
        prod = product_partition(es, os_, level, G.n)
        for source in (es, os_):
            coarse = source.partition_at_level(level)
            for cell in prod:
                assert any(cell <= big for big in coarse)
        assert len(prod) >= max(len(es.partition_at_level(level)),
                                len(os_.partition_at_level(level)))


def test_product_partition_needs_trees_over_range_n(twin_trees):
    G, es, os_ = twin_trees
    for n in (G.n - 1, G.n + 1):
        with pytest.raises(ValueError, match=rf"range\({n}\), not over "
                                             rf"{G.n} vertices"):
            product_partition(es, os_, 1, n)


def test_alignment_records_all_levels(twin_ids):
    G, es, os_ = twin_ids
    records = align_and_score(G, es, os_)
    depth = min(es.shape[1], os_.shape[1])
    assert [r["level"] for r in records] == list(range(1, depth + 1))
    for r in records:
        assert r["n_clusters"].shape == r["modularity"].shape == (1,)
        assert r["n_clusters"][0] >= 1
        assert -1.0 <= r["modularity"][0] <= 1.0
        assert "f_measure" not in r
    counts = [int(r["n_clusters"][0]) for r in records]
    assert counts == sorted(counts)


def test_alignment_scores_against_labels(twin_ids):
    G, es, os_ = twin_ids
    labels = {v: (("left" if v < 13 else "right"), v) for v in range(G.n)}
    records = align_and_score(G, es, os_, labels=labels)
    assert [r["level"] for r in records] == list(
        range(1, min(es.shape[1], os_.shape[1]) + 1))
    for r in records:
        assert r["f_measure"].shape == (1,)
        assert 0.0 < r["f_measure"][0] <= 1.0


def test_alignment_requires_complete_labels(twin_ids):
    G, es, os_ = twin_ids
    labels = {v: ("a",) for v in range(G.n - 1)}
    with pytest.raises(ValueError, match="no label"):
        align_and_score(G, es, os_, labels=labels)


def test_alignment_requires_level_id_matrices(twin_trees, twin_ids):
    """A 2-D matrix, unequal trial counts, a wrong width, zero depth,
    zero trials and a tree in place of its ids, on either side, each
    raise naming the two shapes."""
    G, es, os_ = twin_ids
    for bad in (es[0], np.concatenate([es, es]), es[:, :, :-1],
                np.concatenate([es, es], axis=2), es[:, :0], es[:0],
                twin_trees[1]):
        for args in ((bad, os_), (es, bad)):
            shapes = re.escape(f"shapes {np.shape(args[0])} and "
                               f"{np.shape(args[1])}")
            with pytest.raises(ValueError, match=rf"{shapes}, not \(trials >= "
                               rf"1, depth >= 1, {G.n}\) with equal trials"):
                align_and_score(G, *args)


@pytest.fixture(scope="module")
def degenerate_scores():
    """(digraph, twin trees, their level-id matrices, class labels) of
    the degenerate corpus."""
    out = []
    for G in degenerate_digraphs().values():
        labels = {v: (f"c{v % 3}", v) for v in range(G.n)}
        builder = TwinTreeBuilder(G, (2, 6))
        out.append((G, builder.build(7), builder.level_ids_batch([7]),
                    labels))
    return out


def per_trial_records(G, trees, truth):
    """The records of one trial's twin trees by the per-trial route: each
    level's common refinement as frozensets by ``ancestor_at_level``,
    scored by ``modularity`` of that partition and ``f_measure_brute``."""
    es, os_ = trees
    records = []
    for level in range(1, min(es.depth(), os_.depth()) + 1):
        parts = product_partition_by_ancestors(es, os_, level, G.n)
        rec = {"level": level, "n_clusters": len(parts),
               "modularity": modularity(G, parts)}
        if truth is not None:
            rec["f_measure"] = f_measure_brute(parts, truth, G.n)
        records.append(rec)
    return records


def per_level(trials):
    """Per-trial records regrouped as align_and_score gives them: per
    level that some trial has, one record of lists over those trials, in
    trial order."""
    out = []
    for level in range(1, max(map(len, trials)) + 1):
        recs = [r[level - 1] for r in trials if len(r) >= level]
        out.append({key: [rec[key] for rec in recs] for key in recs[0]})
        out[-1]["level"] = level
    return out


def as_lists(records):
    """align_and_score's records with each array as a list."""
    return [{key: value if key == "level" else value.tolist()
             for key, value in rec.items()} for rec in records]


def pad_trials(batch):
    """The (es, os) level-id stacks of a batch of trials, each given as
    a batch of one: (trials, depth, n) per side, -1 below a trial's own
    depth, as level_ids_batch pads them."""
    out = []
    for side in zip(*batch):
        stack = np.full((len(side), max(ids.shape[1] for ids in side),
                         side[0].shape[2]), -1, dtype=np.intp)
        for row, ids in zip(stack, side):
            row[:ids.shape[1]] = ids[0]
        out.append(stack)
    return out


def test_scoring_matches_the_frozenset_route(degenerate_scores):
    kinds = set()  # integer weights, and lognormal ones
    for G, (es, os_), ids, labels in degenerate_scores:
        integral = bool(np.all(G.weights.data == np.round(G.weights.data)))
        kinds.add(integral)
        truth = partition_from_labels([v % 3 for v in range(G.n)])
        # the root's level, and past the shallower tree's depth too,
        # where leaves stand in
        for level in range(0, max(es.depth(), os_.depth()) + 2):
            parts = product_partition_by_ancestors(es, os_, level, G.n)
            assert product_partition(es, os_, level, G.n) == parts
            for tree in (es, os_):
                assert tree.partition_at_level(level) == (
                    product_partition_by_ancestors(tree, tree, level, G.n))
        records = align_and_score(G, *ids, labels)
        assert as_lists(records) == per_level(
            [per_trial_records(G, (es, os_), truth)])
        for rec in records:
            parts = product_partition_by_ancestors(es, os_, rec["level"], G.n)
            want = modularity_sliced(G, parts)
            if integral:
                assert rec["modularity"][0] == want
            else:
                assert rec["modularity"][0] == pytest.approx(want, abs=1e-12)
    assert kinds == {True, False}


def test_batched_scoring_equals_the_per_trial_route(monkeypatch):
    """One align_and_score call over a batch mixing level sizes, seeds and
    clusterers, padded into one pair of stacks, gives each level's arrays
    the records of the per-trial route, bit for bit: on integer and on
    lognormal weights, with trials of different cluster counts at one
    level (padded bins) and of unequal depth (a level is scored over the
    trials that reach it), whether the trials are scored one at a time
    or all in one block."""
    rng = np.random.default_rng(23)
    lognormal = lognormal_digraph(rng, 40, 0.15)
    graphs = {"planted": synth_digraph("planted", seed=4, sizes=(12, 12, 12)),
              "lognormal": lognormal, **degenerate_digraphs()}
    kinds = set()
    for name, G in graphs.items():
        integral = bool(np.all(G.weights.data == np.round(G.weights.data)))
        classes = [v % 3 for v in range(G.n)]
        labels = {v: (f"c{c}", v) for v, c in enumerate(classes)}
        trees, batch = [], []
        for K, algo, seeds in (((2, 6), "nhc", (1, 2, 3)),
                               ((2, 4, 8), "nhc", (4, 5)),
                               ((3,), "mll", (6,)),
                               ((2, 6), "mbo", (7,))):
            builder = TwinTreeBuilder(G, K, algo=algo)
            lab = {v: c for v, c in enumerate(classes)}
            for seed in seeds:
                trees.append(builder.build(seed, lab))
                batch.append(builder.level_ids_batch([seed], [lab]))
        es, os_ = pad_trials(batch)
        for truth in (None, partition_from_labels(classes)):
            want = per_level([per_trial_records(G, pair, truth)
                              for pair in trees])
            for entries in (1, 1 << 40):
                monkeypatch.setattr(metrics, "BLOCK_ENTRIES", entries)
                got = align_and_score(G, es, os_, labels if truth else None)
                assert as_lists(got) == want, (name, entries)
        kinds.add(("integral", integral))
        kinds.add(("unequal depth", any(
            len(rec["modularity"]) < len(trees) for rec in got)))
        kinds.add(("padded", any(
            len(set(rec["n_clusters"].tolist())) > 1 for rec in got)))
    assert kinds >= {("integral", True), ("integral", False),
                     ("unequal depth", True), ("padded", True)}


def test_modularity_scores_each_row_of_a_label_matrix(monkeypatch):
    rng = np.random.default_rng(24)
    for n, k in ((30, 4), (9, 5), (60, 12)):
        for G in (lognormal_digraph(rng, n, 0.2),
                  random_digraph(rng, n, density=0.3)):
            rows = rng.integers(0, k, size=(6, n))
            rows[1] = np.where(rows[1] == 1, 0, rows[1])  # skips label 1
            rows[2] = 0  # one cluster
            got = modularity(G, rows)
            assert got.shape == (6,)
            monkeypatch.setattr(metrics, "BLOCK_ENTRIES", 1)  # a row a block
            assert modularity(G, rows).tolist() == got.tolist()
            monkeypatch.undo()
            for row, score in zip(rows, got.tolist()):
                assert score == modularity(G, partition_from_labels(row))
                assert score == modularity_sequential(G, row)
            assert got.tolist() == modularity(
                G, rows.astype(np.uint8)).tolist()


def test_modularity_rejects_a_malformed_label_matrix():
    G = random_digraph(np.random.default_rng(25), 6, density=0.5)
    good = np.zeros((2, 6), dtype=int)
    for bad in (good - 1, good + 6, good[:, :5], np.hstack([good, good]),
                good.astype(float), good[:0]):
        with pytest.raises(ValueError, match=r"label matrix needs shape "
                           r"\(trials >= 1, 6\) and integer labels in "
                           r"\[0, 6\), not .* of shape "
                           + re.escape(str(bad.shape))):
            modularity(G, bad)


@pytest.mark.parametrize("algo", ["nhc", "mll", "mbo"])
def test_level_ids_are_the_built_trees_ancestor_ids(algo):
    graphs = {"planted": synth_digraph("planted", seed=4, sizes=(12, 12, 12)),
              **degenerate_digraphs()}
    kinds = set()
    for G in graphs.values():
        for K in ((2, 6), (2, 4, 8)):
            builder = TwinTreeBuilder(G, K, algo=algo)
            for labeled in (None, {v: v % 3 for v in range(G.n)}):
                trees = builder.build(7, labeled)
                stacks = builder.level_ids_batch([7], [labeled])
                for tree, ids in zip(trees, stacks):
                    assert ids.shape == (1, tree.depth(), G.n)
                    for level, row in enumerate(ids[0].tolist(), start=1):
                        assert row == [tree.ancestor_at_level(v, level)
                                       for v in range(G.n)]
                    kinds.add(("depth", tree.depth()))
                    if len(builder.comps) > 1:
                        kinds.add("grafted")
    assert "grafted" in kinds
    if algo != "mbo":  # mbo's finest level is one cluster per class
        assert ("depth", 4) in kinds
