import gzip
import io
import json

import numpy as np
import pytest
from scipy import sparse

from twintree.digraph import (GraphFormatError, UndirectedGraph,
                              WeightedDigraph, extend, graph_distance,
                              is_strongly_connected, label_index,
                              load_edge_list, load_labels,
                              reciprocal_lengths, symmetrize,
                              synth_digraph, weak_component_indices)

from oracles import components_union_find, floyd_warshall, lexsorted_edges
from util import degenerate_digraphs, random_digraph


def test_rejects_bad_weight_matrices():
    with pytest.raises(ValueError):
        WeightedDigraph(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        WeightedDigraph(np.array([[0.0, -1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedDigraph(np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        WeightedDigraph(np.zeros((2, 2)), names=["a"])
    with pytest.raises(ValueError):
        WeightedDigraph(np.zeros((2, 2)), names=["a", "a"])
    with pytest.raises(ValueError):
        WeightedDigraph(np.zeros((2, 2)), labels={5: ("x",)})
    with pytest.raises(ValueError):
        UndirectedGraph(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stored_matrix_drops_explicit_zeros():
    W = sparse.csr_array(np.array([[0.0, 2.0], [0.0, 0.0]]))
    W.data = np.array([2.0])
    G = WeightedDigraph(W)
    assert G.edge_count() == 1
    assert G.to_json_dict()["edges"] == [[0, 1, 2.0]]


def test_degrees_and_total_weight():
    W = np.array([[0.0, 2.0, 0.0],
                  [1.0, 0.0, 3.0],
                  [0.0, 0.0, 0.0]])
    G = WeightedDigraph(W)
    assert np.allclose(G.out_degrees(), [2.0, 4.0, 0.0])
    assert np.allclose(G.in_degrees(), [1.0, 2.0, 3.0])
    assert G.total_weight() == 6.0
    assert len(G) == 3


def test_undirected_graph_rejects_any_asymmetry():
    ulp = np.array([[0.0, 1.0], [np.nextafter(1.0, 2.0), 0.0]])
    # a 3-cycle: row pointers and values equal its transpose's, columns not
    cycle = np.roll(np.eye(3), 1, axis=1)
    for W in (ulp, cycle, sparse.csr_array(cycle)):
        with pytest.raises(ValueError,
                           match="undirected graph requires a symmetric"):
            UndirectedGraph(W)


def test_undirected_graph_accepts_symmetry_after_canonicalization():
    # row 0 lists 2 before 1 and holds 1 twice: 0.5 + 1.5 == W[1, 0]
    W = sparse.csr_array((np.array([3.0, 0.5, 1.5, 2.0, 3.0]),
                          np.array([2, 1, 1, 0, 0]),
                          np.array([0, 3, 4, 5])), shape=(3, 3))
    G = UndirectedGraph(W)
    assert np.array_equal(G.to_dense(), [[0.0, 2.0, 3.0],
                                         [2.0, 0.0, 0.0],
                                         [3.0, 0.0, 0.0]])


def test_symmetric_companions_are_bitwise_symmetric():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        G = random_digraph(rng, 12, density=0.3)
        for kind in ("es", "os"):
            S = symmetrize(G, kind)
            diff = (S.weights != S.weights.T)
            assert diff.nnz == 0
    for kind in ("underlying", "ES", ""):
        with pytest.raises(ValueError, match="unknown symmetrization kind"):
            symmetrize(G, kind)


def test_symmetric_companions_match_dense_formulas():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        G = random_digraph(rng, 9, density=0.35)
        W = G.to_dense()
        We = W + np.eye(9)
        assert np.allclose(symmetrize(G, "es").to_dense(), We @ We.T,
                           atol=1e-12)
        assert np.allclose(symmetrize(G, "os").to_dense(), We.T @ We,
                           atol=1e-12)


def test_source_companion_is_target_companion_of_reverse():
    rng = np.random.default_rng(7)
    G = random_digraph(rng, 10, density=0.3)
    GT = WeightedDigraph(sparse.csr_array(G.to_dense().T))
    assert np.allclose(symmetrize(G, "os").to_dense(),
                       symmetrize(GT, "es").to_dense(), atol=1e-12)


def test_symmetrize_rejects_unknown_kind():
    G = random_digraph(np.random.default_rng(0), 5)
    with pytest.raises(ValueError):
        symmetrize(G, "average")


def test_extend_adds_unit_selfloops_only():
    rng = np.random.default_rng(3)
    G = random_digraph(rng, 8, density=0.25)
    E = extend(G)
    assert np.allclose(E.to_dense(), G.to_dense() + np.eye(8))
    assert E.names == G.names


def test_weakly_connected_digraph_has_connected_target_companion():
    # self-loop extension makes the companion's support contain every
    # original edge in both directions, so weak connectivity survives
    for seed in range(15):
        rng = np.random.default_rng(200 + seed)
        G = random_digraph(rng, 20, density=0.12)
        comp = weak_component_indices(G)[0]
        H = G.subgraph(comp)
        S = symmetrize(H, "es")
        assert len(weak_component_indices(S)) == 1


def test_distance_matches_dense_oracle():
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        G = random_digraph(rng, 11, density=0.25)
        D = graph_distance(G)
        W = G.to_dense()
        ref = floyd_warshall(np.where(W > 0, W, np.inf))
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(D), finite)
        assert np.allclose(D[finite], ref[finite], atol=1e-12)
        assert np.all(np.diag(D) == 0.0)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(42)
    G = random_digraph(rng, 14, density=0.3)
    D = graph_distance(G)
    via = D[:, :, None] + D[None, :, :]          # (i, k, j)
    for i in range(G.n):
        for j in range(G.n):
            assert D[i, j] <= via[i, :, j].min() + 1e-12


def test_unreachable_pairs_are_exact_inf():
    W = np.array([[0.0, 1.0], [0.0, 0.0]])
    D = graph_distance(WeightedDigraph(W))
    assert D[0, 1] == 1.0
    assert D[1, 0] == np.inf


def test_weak_components_match_union_find():
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        G = random_digraph(rng, 18, density=0.06)
        groups = weak_component_indices(G)
        ref = components_union_find(G.n, zip(*G.to_dense().nonzero()))
        got = sorted((frozenset(int(v) for v in g) for g in groups),
                     key=min)
        assert got == sorted(ref, key=min)
        sizes = [len(g) for g in groups]
        assert sizes == sorted(sizes, reverse=True)
        for a, b in zip(groups, groups[1:]):
            if len(a) == len(b):
                assert int(a[0]) < int(b[0])


def test_strong_connectivity():
    cycle = np.roll(np.eye(5), 1, axis=1)
    assert is_strongly_connected(WeightedDigraph(cycle))
    path = np.triu(np.roll(np.eye(5), 1, axis=1))
    assert not is_strongly_connected(WeightedDigraph(path))


def test_subgraph_slices_weights_names_labels():
    rng = np.random.default_rng(11)
    G = WeightedDigraph(random_digraph(rng, 7, density=0.4).weights,
                        names=list("abcdefg"), labels={2: ("x", "y"), 5: "z"})
    H = G.subgraph([5, 2, 0])
    assert np.allclose(H.to_dense(),
                       G.to_dense()[np.ix_([5, 2, 0], [5, 2, 0])])
    assert H.names == ["f", "c", "a"]
    assert H.labels == {0: ("z",), 1: ("x", "y")}


def test_reciprocal_lengths_inverts_weights_and_keeps_type():
    rng = np.random.default_rng(13)
    G = random_digraph(rng, 8, density=0.3)
    R = reciprocal_lengths(G)
    assert np.allclose(R.to_dense()[G.to_dense() > 0],
                       1.0 / G.to_dense()[G.to_dense() > 0])
    S = symmetrize(G, "es")
    S.degree_totals()
    RS = reciprocal_lengths(S)
    assert isinstance(RS, UndirectedGraph)
    assert RS.names == S.names and RS.labels == S.labels
    # the reciprocal graph's totals are its own, not S's
    m, k_out, k_in = RS.degree_totals()
    assert m == RS.total_weight()
    assert np.array_equal(k_out, RS.out_degrees())
    assert np.array_equal(k_in, RS.in_degrees())


def test_reciprocal_of_a_subnormal_weight_is_not_finite():
    G = WeightedDigraph(np.array([[0.0, 1e-320], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="edge weights must be finite"):
        reciprocal_lengths(G)


def test_degree_totals_are_kept_read_only():
    rng = np.random.default_rng(14)
    G = random_digraph(rng, 9, density=0.4)
    m, k_out, k_in = totals = G.degree_totals()
    assert G.degree_totals() is totals
    assert m == G.total_weight()
    assert np.array_equal(k_out, G.out_degrees())
    assert np.array_equal(k_in, G.in_degrees())
    assert not k_out.flags.writeable and not k_in.flags.writeable


def test_edge_list_parsing_names_comments_and_duplicates():
    text = """# a comment line
    alpha beta 1.5
    beta gamma 2.0   # trailing comment
    alpha beta 0.5
    """
    G = load_edge_list(io.StringIO(text))
    assert G.names == ["alpha", "beta", "gamma"]
    m = {name: i for i, name in enumerate(G.names)}
    W = G.to_dense()
    assert W[m["alpha"], m["beta"]] == 2.0
    assert W[m["beta"], m["gamma"]] == 2.0
    assert G.edge_count() == 2


def test_edge_list_gzip_roundtrip(tmp_path):
    text = "u v 1.0\nv w 2.5\n"
    plain = tmp_path / "edges.txt"
    plain.write_text(text)
    packed = tmp_path / "edges.txt.gz"
    packed.write_bytes(gzip.compress(text.encode()))
    A = load_edge_list(plain)
    B = load_edge_list(packed)
    assert np.allclose(A.to_dense(), B.to_dense())
    assert A.names == B.names


@pytest.mark.parametrize("pack", [bytes, gzip.compress])
def test_edge_list_loads_from_a_binary_stream(pack):
    text = "u v 1.0\nv wé 2.5\n"
    raw = io.BytesIO(pack(text.encode("utf-8")))
    G = load_edge_list(raw)
    ref = load_edge_list(io.StringIO(text))
    assert G.names == ref.names == ["u", "v", "wé"]
    assert np.array_equal(G.to_dense(), ref.to_dense())
    assert not raw.closed


@pytest.mark.parametrize("bad, lineno", [
    ("a b\n", 1),
    ("a b one\n", 1),
    ("a b 1.0\nc d -2\n", 2),
    ("a b 1.0\nc d inf\n", 2),
])
def test_edge_list_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(GraphFormatError, match=f"line {lineno}"):
        load_edge_list(io.StringIO(bad))


def test_label_files_attach_paths_by_name():
    edges = io.StringIO("a b 1.0\nb c 1.0\n")
    labels = io.StringIO("a red/warm\nb blue\nzzz green\n")
    G = load_edge_list(edges, labels)
    assert G.labels == {0: ("red", "warm"), 1: ("blue",)}
    parsed = load_labels(io.StringIO("x  p/q/r\n"))
    assert parsed == {"x": ("p", "q", "r")}
    with pytest.raises(GraphFormatError, match="line 1"):
        load_labels(io.StringIO("loner\n"))


def test_label_index_numbers_top_level_classes_by_name():
    labels = {4: ("red", "warm"), 0: ("blue",), 2: ("red", "cold"),
              3: ("10",), 5: ("9",)}
    index = label_index(labels)
    assert index == {4: 3, 0: 2, 2: 3, 3: 0, 5: 1}
    assert list(index) == list(labels)
    assert label_index({}) == {}


def test_json_roundtrip_preserves_everything(tmp_path):
    rng = np.random.default_rng(17)
    G = WeightedDigraph(random_digraph(rng, 6, density=0.4).weights,
                        names=list("uvwxyz"), labels={1: ("a", "b")})
    path = tmp_path / "g.json"
    G.save_json(path)
    H = WeightedDigraph.load_json(path)
    assert np.allclose(G.to_dense(), H.to_dense())
    assert G.names == H.names
    assert G.labels == H.labels
    assert type(H) is WeightedDigraph
    S = symmetrize(G, "es")
    S.save_json(path)
    T = WeightedDigraph.load_json(path)
    assert type(T) is UndirectedGraph


def test_json_edges_equal_the_lexsorted_coo_listing():
    rng = np.random.default_rng(4)
    # duplicate (u, v) entries, given out of order, are summed first
    dup = sparse.coo_array(([1.5, 2.0, 0.25, 3.0],
                            ([2, 0, 2, 1], [1, 2, 1, 0])), shape=(3, 3))
    graphs = {**degenerate_digraphs(),
              "random": random_digraph(rng, 30, density=0.3),
              "duplicates": WeightedDigraph(dup),
              "no_edges": WeightedDigraph(np.zeros((4, 4))),
              "planted_es": symmetrize(synth_digraph("planted", seed=2,
                                                     sizes=(8, 8)), "es")}
    graphs["reciprocal"] = reciprocal_lengths(graphs["planted_es"])
    for name, G in graphs.items():
        listed = G.to_json_dict()["edges"]
        # equal as JSON too: ints stay ints, weights Python floats
        assert json.dumps(listed) == json.dumps(lexsorted_edges(G)), name
        assert len(listed) == G.edge_count(), name
    assert graphs["duplicates"].to_json_dict()["edges"] == [
        [0, 2, 2.0], [1, 0, 3.0], [2, 1, 1.75]]


def test_synthetic_families_are_deterministic():
    for kind, params in [("toy25", {}), ("planted", {}),
                         ("sparse", {"n": 40})]:
        A = synth_digraph(kind, seed=5, **params)
        B = synth_digraph(kind, seed=5, **params)
        assert np.array_equal(A.to_dense(), B.to_dense())
        C = synth_digraph(kind, seed=6, **params)
        assert not np.array_equal(A.to_dense(), C.to_dense())


def test_toy_instance_is_strongly_connected():
    G = synth_digraph("toy25", seed=1)
    assert G.n == 25
    assert is_strongly_connected(G)


def test_planted_instance_labels_blocks():
    G = synth_digraph("planted", seed=2, sizes=(10, 15), p_in=0.5,
                      p_out=0.02)
    assert G.n == 25
    assert [G.labels[v][0] for v in range(10)] == ["0"] * 10
    assert [G.labels[v][0] for v in range(10, 25)] == ["1"] * 15


def test_synthetic_rejects_unknown_parameters():
    with pytest.raises(TypeError):
        synth_digraph("sparse", seed=0, frobs=3)
    with pytest.raises(ValueError):
        synth_digraph("mystery", seed=0)
