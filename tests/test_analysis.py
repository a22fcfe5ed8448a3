import math
from fractions import Fraction

import numpy as np
import pytest

from twintree.analysis import (FrequencySet, GridAnalysis, PartitionOfUnity,
                               axis_value_matrix, box_filter, build_grid,
                               MultiplierSequence, compute_omega,
                               default_multiplier, default_partition,
                               gram_orthonormalize, graded_lex_key,
                               shell_array, shell_index, variation_2d)
from twintree import analysis
from twintree.basis import TreeBasis
from twintree.cli import vertex_signal
from twintree.clustering import twt
from twintree.digraph import WeightedDigraph, synth_digraph
from twintree.filtration import build_filtration

from frozen_constants import FILTERED_RATIO, HEADROOM
from oracles import (dict_filtered_synthesis, exact_greedy_rank,
                     full_scan_gram, lp_degree_errors, minimax_distance,
                     shell_loop, variation_2d_brute)
from util import random_filtration


def make_analysis(graph_seed=1, tree_seed=9, K=(2, 6), **kw):
    G = synth_digraph("toy25", seed=graph_seed)
    es, os_ = twt(G, K=K, seed=tree_seed)
    fes, fos = build_filtration(es), build_filtration(os_)
    grid = build_grid(fes, fos)
    return GridAnalysis(grid, TreeBasis(fes), TreeBasis(fos), **kw)


@pytest.fixture(scope="module")
def toy():
    return make_analysis()


def random_grid_function(rng, an):
    return rng.standard_normal(len(an))


# -- the grid -----------------------------------------------------------------


def test_grid_pairs_leaf_intervals_per_vertex():
    rng = np.random.default_rng(0)
    f1 = random_filtration(rng, 10, [3], weights="integer")
    f2 = random_filtration(rng, 10, [2, 5], weights="integer")
    grid = build_grid(f1, f2)
    assert len(grid) == 10
    assert grid.total_mass() == 1
    assert grid.normalized
    for p in grid.points:
        x0, x1 = f1.leaf_interval(p.vertex)
        y0, y1 = f2.leaf_interval(p.vertex)
        assert p.rect == (x0, x1, y0, y1)
        px, py = p.point
        assert px == x0 + (x1 - x0) / 2 and py == y0 + (y1 - y0) / 2
        assert x0 <= px < x1 and y0 <= py < y1
        assert p.mass > 0


def test_uniform_twin_weights_give_equal_masses():
    rng = np.random.default_rng(1)
    f1 = random_filtration(rng, 8, [3], weights="uniform")
    f2 = random_filtration(rng, 8, [4], weights="uniform")
    raw = build_grid(f1, f2, normalize=False)
    assert all(p.mass == Fraction(1, 64) for p in raw.points)
    assert raw.total_mass() == Fraction(8, 64)
    grid = build_grid(f1, f2)
    assert all(p.mass == Fraction(1, 8) for p in grid.points)


def test_grid_rejects_mismatched_vertex_sets():
    rng = np.random.default_rng(2)
    f1 = random_filtration(rng, 6, [3])
    f2 = random_filtration(rng, 7, [3])
    with pytest.raises(ValueError, match="vertex sets"):
        build_grid(f1, f2)


def test_every_stripe_is_occupied(toy):
    grid = toy.grid
    for filt, axis in ((toy.basis_es.filtration, 0),
                       (toy.basis_os.filtration, 1)):
        for leaf in filt.leaves():
            hits = [p for p in grid.points
                    if p.rect[2 * axis] == leaf.a]
            assert hits, f"empty stripe at {leaf.interval} on axis {axis}"


# -- shells and frequency sets ---------------------------------------------------


def test_shell_index_values():
    assert shell_index((0, 0)) == 0
    assert shell_index((1, 0)) == 1
    assert shell_index((1, 1)) == 1
    assert shell_index((2, 3)) == 2
    assert shell_index((0, 4)) == 3
    assert shell_index((7, 8)) == 4
    # base 3: ranges {0}, {1,2}, {3..8}, ...
    assert shell_index((0, 0), base=3) == 0
    assert shell_index((2, 1), base=3) == 1
    assert shell_index((3, 0), base=3) == 2
    assert shell_index((8, 2), base=3) == 2
    assert shell_index((9, 0), base=3) == 3
    with pytest.raises(ValueError):
        shell_index((1, 1), base=1)


def test_frequency_sets_sort_graded_lex():
    fs = FrequencySet([(2, 0), (0, 0), (0, 1), (1, 1), (1, 0)], 3, 3)
    assert fs.omega == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    assert (1, 1) in fs
    assert (5, 5) not in fs
    assert fs.max_shell() == 2
    assert len(fs) == 5


def test_active_indices_match_bruteforce_tensor_scan():
    rng = np.random.default_rng(5)
    f1 = random_filtration(rng, 7, [3], weights="integer")
    f2 = random_filtration(rng, 7, [2, 4], weights="integer")
    b1, b2 = TreeBasis(f1), TreeBasis(f2)
    grid = build_grid(f1, f2)
    fs = compute_omega(axis_value_matrix(b1, grid),
                       axis_value_matrix(b2, grid))
    brute = set()
    for k1 in range(b1.size):
        for k2 in range(b2.size):
            for p in grid.points:
                if b1.psi(k1)(p.point[0]) * b2.psi(k2)(p.point[1]) != 0:
                    brute.add((k1, k2))
                    break
    assert set(fs.omega) == brute
    assert (0, 0) in fs
    assert len(fs) <= b1.size * b2.size


# -- orthonormalization -----------------------------------------------------------


def test_gram_schmidt_keeps_orthonormal_input():
    rng = np.random.default_rng(7)
    masses = rng.uniform(0.5, 1.5, 6)
    masses /= masses.sum()
    # build an exactly orthonormal family under the weighted product
    raw = rng.standard_normal((4, 6))
    q, _ = np.linalg.qr((raw * np.sqrt(masses)).T)
    rows = q.T / np.sqrt(masses)
    E, kept, dropped = gram_orthonormalize(rows, masses)
    assert kept == [0, 1, 2, 3] and dropped == []
    assert np.allclose(np.abs(E), np.abs(rows), atol=1e-12)
    G = (E * masses) @ E.T
    assert np.allclose(G, np.eye(4), atol=1e-12)


def test_gram_schmidt_reports_dependent_rows():
    masses = np.full(4, 0.25)
    rows = np.array([[1.0, 1.0, 1.0, 1.0],
                     [1.0, 1.0, -1.0, -1.0],
                     [2.0, 2.0, 0.0, 0.0],   # sum of the first two
                     [0.0, 1.0, 0.0, 0.0]])
    E, kept, dropped = gram_orthonormalize(rows, masses)
    assert kept == [0, 1, 3]
    assert dropped == [2]
    G = (E * masses) @ E.T
    assert np.allclose(G, np.eye(3), atol=1e-12)


def test_gram_schmidt_preserves_the_span():
    rng = np.random.default_rng(11)
    masses = rng.uniform(0.1, 1.0, 8)
    rows = rng.standard_normal((5, 8))
    rows[4] = rows[0] - 2 * rows[2]          # force rank deficiency
    E, kept, dropped = gram_orthonormalize(rows, masses)
    assert dropped == [4]
    f = rng.standard_normal(8)
    proj_new = E.T @ (E @ (masses * f))
    # raw-row projector through the weighted normal equations
    W = np.diag(masses)
    G = rows @ W @ rows.T
    c = np.linalg.lstsq(G, rows @ (masses * f), rcond=None)[0]
    proj_old = rows.T @ c
    assert np.allclose(proj_new, proj_old, atol=1e-10)


def gram_case(case, request):
    """(rows, masses) for one input of the full-rank exit property test."""
    if case == "toy_raw":
        toy = request.getfixturevalue("toy")
        return toy._raw, toy.nu
    rng = np.random.default_rng(list(case.encode()))
    if case == "empty":
        return np.zeros((0, 5)), rng.uniform(0.1, 1.0, 5)
    if case == "rank_deficient":
        rows = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 8))
        return rows, rng.uniform(0.1, 1.0, 8)
    ncols = int(rng.integers(3, 13))
    nrows = ncols * int(rng.integers(5, 12))
    rows = rng.standard_normal((nrows, ncols))
    # dependent rows, both before and after full rank is reached
    for i in rng.choice(np.arange(2, nrows), size=nrows // 3, replace=False):
        a, b = rng.choice(i, size=2, replace=False)
        rows[i] = rows[a] - 0.5 * rows[b]
    return rows, rng.uniform(0.01, 1.0, ncols)


@pytest.mark.parametrize("case", [f"tall_{i}" for i in range(6)]
                         + ["rank_deficient", "empty", "toy_raw"])
def test_full_rank_exit_matches_full_scan_oracle(case, request):
    rows, masses = gram_case(case, request)
    E, kept, dropped = gram_orthonormalize(rows, masses)
    E_ref, kept_ref, dropped_ref = full_scan_gram(rows, masses)
    assert kept == kept_ref
    assert dropped == dropped_ref
    assert np.array_equal(E, E_ref)
    assert sorted(kept + dropped) == list(range(len(rows)))
    if case.startswith("tall") or case == "toy_raw":
        # full rank is reached with rows still to scan, so the exit fires
        assert len(kept) == rows.shape[1] and kept[-1] < len(rows) - 1


# -- the analysis engine -----------------------------------------------------------


def kept_set_case(case):
    """(first filtration, second filtration) for the exact-rank oracle."""
    if case.startswith("random"):
        n, sizes1, sizes2 = {"random12": (12, [3], [2, 5]),
                             "random16": (16, [2, 6], [4]),
                             "random20": (20, [3, 8], [2, 5, 11]),
                             "random25": (25, [4, 10], [3, 9])}[case]
        rng = np.random.default_rng(list(case.encode()))
        return (random_filtration(rng, n, sizes1, weights="integer"),
                random_filtration(rng, n, sizes2, weights="integer"))
    if case == "toy25":
        G, K, seed = synth_digraph("toy25", seed=1), (2, 6), 9
    else:
        G = synth_digraph("planted", seed=3, sizes=[12, 12])
        K, seed = (2, 4), 5
    if case.endswith("_lognormal"):
        # heavy-tailed degrees make the volume masses span many decades
        W = G.weights.copy()
        W.data = np.random.default_rng(8).lognormal(0.0, 3.0, W.nnz)
        G = WeightedDigraph(W, labels=G.labels)
    scheme = case.split("_")[1] if "_" in case else "uniform"
    es, os_ = twt(G, K=K, seed=seed)
    return build_filtration(es, scheme, G), build_filtration(os_, scheme, G)


@pytest.mark.parametrize("case", ["random12", "random16", "random20",
                                  "random25", "toy25", "planted_uniform",
                                  "planted_volume",
                                  "planted_volume_lognormal"])
def test_kept_set_matches_exact_greedy_rank(case):
    f1, f2 = kept_set_case(case)
    grid = build_grid(f1, f2)
    b1, b2 = TreeBasis(f1), TreeBasis(f2)
    an = GridAnalysis(grid, b1, b2)
    exact = exact_greedy_rank(axis_value_matrix(b1, grid),
                              axis_value_matrix(b2, grid))
    assert an.active == exact
    assert len(an.active) == len(grid)


def test_exact_mode_is_orthonormal_and_complete(toy):
    assert toy.mode == "exact"
    assert toy.orthogonality_defect() <= 1e-10
    # 25 independent functions span everything on 25 points
    assert len(toy.active) == len(toy.grid) == 25
    assert toy.dropped == sorted(set(toy.freqs.omega) - set(toy.active),
                                 key=graded_lex_key)
    assert (0, 0) in toy.freqs


def degenerate_graph(case):
    """(digraph, twt keyword arguments) for one degenerate input."""
    if case == "one_vertex":
        return WeightedDigraph(np.zeros((1, 1))), {}
    if case == "two_vertices":
        return WeightedDigraph(np.array([[0.0, 1.0], [0.0, 0.0]])), {}
    if case == "fragmented_sparse":
        return synth_digraph("sparse", seed=3, n=40, density=0.02), {}
    if case == "out_star":
        W = np.zeros((12, 12))
        W[0, 1:] = 1.0
        return WeightedDigraph(W), {}
    G = synth_digraph("planted", seed=5, sizes=(20, 20))
    if case == "lognormal_weights":
        W = G.weights.copy()
        W.data = np.random.default_rng(6).lognormal(0.0, 6.0, W.nnz)
        return WeightedDigraph(W, labels=G.labels), {}
    return G, {"algo": "mll"}


@pytest.mark.parametrize("scheme", ["uniform", "volume"])
@pytest.mark.parametrize("case", ["one_vertex", "two_vertices",
                                  "fragmented_sparse", "out_star",
                                  "lognormal_weights", "mll_planted"])
def test_degenerate_graphs_give_complete_exact_systems(case, scheme):
    G, kw = degenerate_graph(case)
    es, os_ = twt(G, K=(2, 6), seed=7, **kw)
    fes = build_filtration(es, scheme, G)
    fos = build_filtration(os_, scheme, G)
    an = GridAnalysis(build_grid(fes, fos), TreeBasis(fes), TreeBasis(fos))
    assert len(an.active) == G.n
    assert an.orthogonality_defect() <= 1e-10
    f = G.out_degrees() + np.arange(G.n)
    err = an.sup_norm(f - an.synthesize(an.analyze(f)))
    assert err <= 1e-10 * max(1.0, an.sup_norm(f))


def test_idealized_mode_reports_its_defect():
    an = make_analysis(mode="idealized")
    assert an.active == an.freqs.omega
    assert an.dropped == []
    assert an.orthogonality_defect() > 1e-6  # genuinely non-orthonormal
    with pytest.raises(ValueError, match="mode"):
        make_analysis(mode="sloppy")


def test_constant_function_has_single_coefficient(toy):
    coeffs = toy.analyze(np.ones(len(toy)))
    assert coeffs[(0, 0)] == pytest.approx(1.0, abs=1e-12)
    rest = max(abs(v) for k, v in coeffs.items() if k != (0, 0))
    assert rest <= 1e-12


def test_parseval_and_reconstruction(toy):
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = random_grid_function(rng, toy)
        coeffs = toy.analyze(f)
        total = sum(c * c for c in coeffs.values())
        assert total == pytest.approx(toy.l2_norm(f) ** 2, abs=1e-10)
        back = toy.synthesize(coeffs)
        assert np.max(np.abs(back - f)) <= 1e-10


def test_working_functions_give_unit_coefficients(toy):
    k = toy.active[5]
    f = toy.row(k)
    coeffs = toy.analyze(f)
    assert coeffs[k] == pytest.approx(1.0, abs=1e-10)
    others = max(abs(v) for kk, v in coeffs.items() if kk != k)
    assert others <= 1e-10


def test_coefficients_match_dense_gram_oracle(toy):
    rng = np.random.default_rng(17)
    f = random_grid_function(rng, toy)
    proj = toy.synthesize(toy.analyze(f))
    raw = toy._raw
    W = toy.nu
    G = (raw * W) @ raw.T
    rhs = raw @ (W * f)
    c = np.linalg.lstsq(G, rhs, rcond=None)[0]
    assert np.allclose(proj, raw.T @ c, atol=1e-8)


def test_analyze_validates_length(toy):
    with pytest.raises(ValueError, match="one value per grid point"):
        toy.analyze(np.ones(7))


def test_rectangle_truncation(toy):
    rng = np.random.default_rng(19)
    f = random_grid_function(rng, toy)
    coeffs = toy.analyze(f)
    m = (2, 3)
    part = toy.rectangle_partial_sum(coeffs, m)
    manual = toy.synthesize({k: c for k, c in coeffs.items()
                             if k[0] <= 2 and k[1] <= 3})
    assert np.allclose(part, manual, atol=1e-12)
    top = (max(k[0] for k in toy.active), max(k[1] for k in toy.active))
    assert np.allclose(toy.rectangle_partial_sum(coeffs, top), f,
                       atol=1e-10)


# -- partitions of unity -----------------------------------------------------------


def test_default_partition_is_crisp_and_valid(toy):
    part = toy.partition
    part.validate(toy.freqs)
    assert part.m_star == 0
    assert part.g(0) == {(0, 0): 1.0}
    for j in range(part.n_shells()):
        for k, v in part.g(j).items():
            assert v == 1.0
            assert shell_index(k, part.base) == j
    head = part.head(part.n_shells() - 1)
    assert set(head) == set(toy.freqs.omega)
    assert part.g(99) == {}


def test_partition_validation_catches_bad_shapes():
    fs = FrequencySet([(0, 0), (0, 1), (1, 1)], 2, 2)
    with pytest.raises(ValueError, match="constant index"):
        PartitionOfUnity([{(0, 0): 0.5}]).validate(fs)
    with pytest.raises(ValueError, match="above its band"):
        PartitionOfUnity([{(0, 0): 1.0, (1, 1): 1.0},
                          {(0, 1): 1.0}]).validate(fs)
    with pytest.raises(ValueError, match="overlap"):
        PartitionOfUnity([{(0, 0): 1.0},
                          {(0, 1): 0.5, (1, 1): 1.0},
                          {(0, 1): 0.5}], m_star=0).validate(fs)
    with pytest.raises(ValueError, match="sum to 1"):
        PartitionOfUnity([{(0, 0): 1.0},
                          {(0, 1): 0.5, (1, 1): 1.0}]).validate(fs)
    with pytest.raises(ValueError, match="leaves"):
        PartitionOfUnity([{(0, 0): 1.0},
                          {(0, 1): 1.5, (1, 1): 1.0}]).validate(fs)


def test_box_filters_have_variation_four():
    for n in range(5):
        h = box_filter(n)
        assert variation_2d(h) == 4.0
        side = 2 ** n
        assert set(h) == {(a, b) for a in range(side) for b in range(side)}
    assert box_filter(-1) == {}
    assert len(box_filter(1, base=3)) == 9


def test_box_head_and_restricted_head_filter_identically(toy):
    rng = np.random.default_rng(23)
    f = random_grid_function(rng, toy)
    for n in range(toy.max_shell() + 1):
        via_box = toy.filtered_sum(box_filter(n), f)
        via_head = toy.filtered_sum(toy.partition.head(n), f)
        assert np.allclose(via_box, via_head, atol=1e-12)
        assert np.allclose(via_head, toy.sigma(f, n), atol=1e-12)


# -- variation ---------------------------------------------------------------------


def test_variation_matches_bruteforce():
    rng = np.random.default_rng(29)
    for _ in range(15):
        h = {}
        for _ in range(int(rng.integers(1, 12))):
            k = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            h[k] = float(rng.uniform(-2, 2))
        assert variation_2d(h) == pytest.approx(variation_2d_brute(h),
                                                abs=1e-12)
    assert variation_2d({}) == 0.0
    assert variation_2d({(1, 1): 0.0}) == 0.0


def test_variation_is_positively_homogeneous():
    h = {(0, 0): 1.0, (0, 1): -0.5, (2, 1): 2.0}
    assert variation_2d({k: -3.0 * v for k, v in h.items()}) \
        == pytest.approx(3.0 * variation_2d(h), abs=1e-12)


def test_variation_product_bound():
    rng = np.random.default_rng(31)
    for _ in range(20):
        def rand_filter():
            out = {}
            for _ in range(int(rng.integers(1, 10))):
                k = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
                out[k] = float(rng.uniform(-1, 1))
            return out
        h1, h2 = rand_filter(), rand_filter()
        prod = {k: h1[k] * h2[k] for k in set(h1) & set(h2)}
        assert variation_2d(prod) <= 4.0 * variation_2d(h1) \
            * variation_2d(h2) + 1e-12


def test_filtered_norm_bound_with_frozen_constant(toy):
    rng = np.random.default_rng(37)
    bound = FILTERED_RATIO * HEADROOM
    for _ in range(25):
        f = random_grid_function(rng, toy)
        h = {}
        for _ in range(int(rng.integers(1, 20))):
            k = (int(rng.integers(0, 8)), int(rng.integers(0, 8)))
            h[k] = float(rng.uniform(-1, 1))
        out = toy.sup_norm(toy.filtered_sum(h, f))
        assert out <= bound * variation_2d(h) * toy.sup_norm(f)
    assert np.allclose(toy.filtered_sum({}, f), 0.0)


# -- summation by parts --------------------------------------------------------------


def mixed_difference(h, m):
    def get(k):
        return h.get(k, 0.0)
    return (get(m) - get((m[0] + 1, m[1])) - get((m[0], m[1] + 1))
            + get((m[0] + 1, m[1] + 1)))


def by_parts_sum(an, h, f):
    coeffs = an.analyze(f)
    out = np.zeros(len(an))
    tops = (max(k[0] for k in h) + 1, max(k[1] for k in h) + 1)
    for m1 in range(tops[0] + 1):
        for m2 in range(tops[1] + 1):
            d = mixed_difference(h, (m1, m2))
            if d:
                out += d * an.rectangle_partial_sum(coeffs, (m1, m2))
    return out


def test_summation_by_parts_identity(toy):
    rng = np.random.default_rng(41)
    for _ in range(10):
        f = random_grid_function(rng, toy)
        h = {}
        for _ in range(int(rng.integers(1, 15))):
            k = (int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            h[k] = float(rng.uniform(-1, 1))
        direct = toy.filtered_sum(h, f)
        resummed = by_parts_sum(toy, h, f)
        assert np.max(np.abs(direct - resummed)) <= 1e-10


# -- graded approximation -------------------------------------------------------------


def test_sigma_exhausts_at_max_shell(toy):
    rng = np.random.default_rng(43)
    f = random_grid_function(rng, toy)
    top = toy.max_shell()
    assert np.max(np.abs(toy.sigma(f, top) - f)) <= 1e-10
    assert np.max(np.abs(toy.sigma(f, top + 3) - f)) <= 1e-10


def test_blocks_telescope_and_are_orthogonal(toy):
    rng = np.random.default_rng(47)
    f = random_grid_function(rng, toy)
    top = toy.max_shell()
    taus = [toy.tau(f, j) for j in range(top + 1)]
    assert np.max(np.abs(sum(taus) - f)) <= 1e-10
    for j in range(top + 1):
        step = toy.sigma(f, j) - (toy.sigma(f, j - 1) if j else 0.0)
        assert np.allclose(taus[j], step, atol=1e-10)
        for m in range(j + 1, top + 1):
            inner = float((taus[j] * taus[m] * toy.nu).sum())
            assert abs(inner) <= 1e-10
    total = sum(toy.l2_norm(t) ** 2 for t in taus)
    assert total == pytest.approx(toy.l2_norm(f) ** 2, abs=1e-10)


def test_single_shell_functions_sit_in_one_block(toy):
    k = next(k for k in toy.active if shell_index(k) == 2)
    f = toy.row(k)
    for j in range(toy.max_shell() + 1):
        t = toy.tau(f, j)
        if j == 2:
            assert np.allclose(t, f, atol=1e-10)
        else:
            assert np.max(np.abs(t)) <= 1e-10


def test_degree_error_is_monotone_with_extended_convention(toy):
    rng = np.random.default_rng(53)
    f = random_grid_function(rng, toy)
    errs = [toy.best_uniform_approx(f, n)[0]
            for n in range(-1, toy.max_shell() + 1)]
    assert errs[0] == pytest.approx(toy.sup_norm(f), abs=1e-12)
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-10
    assert errs[-1] <= 1e-10


def test_sigma_sandwich_lower_bound(toy):
    rng = np.random.default_rng(59)
    for _ in range(5):
        f = random_grid_function(rng, toy)
        for n in range(toy.max_shell() + 1):
            e_n = toy.best_uniform_approx(f, n)[0]
            assert e_n <= toy.sup_norm(f - toy.sigma(f, n)) + 1e-10


def test_members_of_degree_class_have_zero_error(toy):
    rng = np.random.default_rng(61)
    span = toy.degree_span(1)
    coeffs = {k: float(c) for k, c in zip(span,
                                          rng.standard_normal(len(span)))}
    P = toy.synthesize(coeffs)
    err, witness = toy.best_uniform_approx(P, 1)
    assert err <= 1e-10
    assert np.allclose(witness, P, atol=1e-8)


def test_degree_error_matches_smoothed_minimax_oracle(toy):
    rng = np.random.default_rng(67)
    f = random_grid_function(rng, toy)
    for n in (0, 1, 2):
        span = toy.degree_span(n)
        A = np.vstack([toy.row(k) for k in span]).T
        ref = minimax_distance(A, f)
        got = toy.best_uniform_approx(f, n)[0]
        assert got == pytest.approx(ref, abs=1e-6)


# -- multipliers and differentiation ---------------------------------------------------


def test_default_multiplier_covers_the_dilation(toy):
    mu = default_multiplier(toy.freqs, order=1.0)
    # the sup-ball of radius 2 around the index set, clipped to the quadrant
    dilation = {(a, b) for k1, k2 in toy.freqs.omega
                for a in range(max(0, k1 - 2), k1 + 3)
                for b in range(max(0, k2 - 2), k2 + 3)}
    for k in dilation:
        assert mu[k] == 2.0 ** shell_index(k)
    half = default_multiplier(toy.freqs, order=0.5)
    assert half[(0, 1)] == pytest.approx(math.sqrt(2.0))
    g = toy.partition.g(2)
    restr = mu.restricted(g)
    assert set(restr) == {k for k, v in g.items() if v > 0}
    inv = mu.inverse_restricted(g)
    for k in restr:
        assert inv[k] == pytest.approx(1.0 / restr[k])


def test_default_multiplier_must_be_positive_on_the_dilation():
    fs = FrequencySet([(0, 0), (1, 2)], 2, 3)
    # shell 2 is the top of the index set, shell 3 that of its dilation
    order = -1100.0 / 3
    assert 2.0 ** (order * fs.max_shell()) > 0.0
    with pytest.raises(ValueError, match="must be positive"):
        default_multiplier(fs, order=order)
    assert default_multiplier(fs, order=-1.0)[(3, 4)] == 0.125


def test_shell_restricted_multiplier_variation_scales(toy):
    mu = default_multiplier(toy.freqs, order=1.0)
    for j in range(toy.max_shell() + 1):
        g = toy.partition.g(j)
        if not g:
            continue
        v_shell = variation_2d(g)
        v_mu = variation_2d(mu.restricted(g))
        v_inv = variation_2d(mu.inverse_restricted(g))
        assert v_mu == pytest.approx(2.0 ** j * v_shell, rel=1e-12)
        assert v_inv == pytest.approx(2.0 ** -j * v_shell, rel=1e-12)


def test_derivative_acts_as_shell_eigenvalue(toy):
    mu = default_multiplier(toy.freqs, order=1.0)
    k = next(k for k in toy.active if shell_index(k) == 3)
    f = toy.row(k)
    assert np.allclose(toy.derivative(f, mu), 8.0 * f, atol=1e-9)
    const = np.ones(len(toy))
    assert np.allclose(toy.derivative(const, mu), const, atol=1e-10)


def test_k_functional_shape(toy):
    rng = np.random.default_rng(71)
    f = random_grid_function(rng, toy)
    mu = default_multiplier(toy.freqs, order=1.0)
    assert toy.k_functional(np.zeros(len(toy)), 0.5, mu) == 0.0
    deltas = [1e-9, 1e-3, 0.05, 0.2, 1.0, 5.0]
    vals = [toy.k_functional(f, d, mu) for d in deltas]
    for a, b in zip(vals, vals[1:]):
        assert a <= b + 1e-12
    assert vals[-1] <= toy.sup_norm(f) + 1e-12
    # sigma exhausts the index set, so tiny delta kills the K-functional
    assert vals[0] <= 1e-6 * toy.sup_norm(f) + 1e-12


# -- smoothness reports ----------------------------------------------------------------


def power_law_signal(an, rng, gamma):
    coeffs = {}
    for k in an.active:
        j = shell_index(k)
        coeffs[k] = 2.0 ** (-gamma * j) * float(rng.uniform(0.5, 1.0)
                                                * rng.choice([-1, 1]))
    return an.synthesize(coeffs)


def test_power_law_signals_fit_their_exponent(toy):
    rng = np.random.default_rng(73)
    f = power_law_signal(toy, rng, gamma=1.0)
    report = toy.smoothness_profile(f, order=1.0)
    assert not report.insufficient
    assert report.gamma["block_norm"] == pytest.approx(1.0, abs=0.35)
    spread = report.spread()
    assert spread is not None and spread <= 1.0
    data = report.to_json_dict()
    assert data["rho"] == "inf"
    assert set(data["gamma"]) == {"degree_error", "projection_error",
                                  "block_norm", "k_functional"}
    assert data["gamma_spread"] == pytest.approx(spread)
    # the profile's sequences are exactly the per-shell operators' values
    seqs = toy.smoothness_profile(f, order=1.5).sequences
    mu = default_multiplier(toy.freqs, order=1.5)
    for n in range(toy.max_shell() + 1):
        assert seqs["projection_error"][n] == toy.sup_norm(f - toy.sigma(f, n))
        assert seqs["block_norm"][n] == toy.sup_norm(toy.tau(f, n))
        assert seqs["k_functional"][n] == toy.k_functional(f, 2.0 ** -n, mu)


def test_single_shell_signal_is_flagged_insufficient(toy):
    k = next(k for k in toy.active if shell_index(k) == 1)
    report = toy.smoothness_profile(toy.row(k))
    # errors vanish beyond shell 1, leaving too few points to fit
    assert report.insufficient
    assert report.spread() is None
    assert report.to_json_dict()["insufficient_resolution"] is True


def test_report_roundtrips_to_json(tmp_path, toy):
    rng = np.random.default_rng(79)
    f = power_law_signal(toy, rng, gamma=0.7)
    report = toy.smoothness_profile(f)
    out = tmp_path / "report.json"
    report.save_json(out)
    import json
    data = json.loads(out.read_text())
    assert data["order"] == 1.0
    assert len(data["sequences"]["degree_error"]) == toy.max_shell() + 1


# -- the array index against the dict-keyed route ----------------------------------


def oracle_engine(case):
    """(engine, graph) for the oracle tests: the toy graph, or a planted
    one under volume masses, in base 2 or 3, exact or idealized."""
    if case.startswith("toy"):
        G = synth_digraph("toy25", seed=1)
        K, seed, scheme = (2, 6), 9, "uniform"
    else:
        G = synth_digraph("planted", seed=3, sizes=[30, 30])
        K, seed, scheme = (2, 8), 3, "volume"
    es, os_ = twt(G, K=K, seed=seed)
    fes = build_filtration(es, scheme, G)
    fos = build_filtration(os_, scheme, G)
    kw = {"partition_base": 3} if case.endswith("base3") else {}
    if case.endswith("idealized"):
        kw["mode"] = "idealized"
    return GridAnalysis(build_grid(fes, fos), TreeBasis(fes), TreeBasis(fos),
                        **kw), G


@pytest.mark.parametrize("case", ["toy", "planted_volume", "toy_base3"])
def test_graded_operators_match_the_dict_oracle_bit_for_bit(case):
    an, _ = oracle_engine(case)
    base, omega = an.base, an.freqs.omega
    shell = {k: shell_loop(k, base) for k in omega}
    assert an.omega_shell.tolist() == [shell[k] for k in omega]
    top = max(shell[k] for k in an.active)
    assert an.max_shell() == top
    # the dict-keyed heads and blocks, from the loop formula
    head = {n: {k: 1.0 for k in omega if shell[k] <= n}
            for n in range(-1, top + 2)}
    block = {j: {k: 1.0 for k in omega if shell[k] == j}
             for j in range(-1, top + 2)}
    everywhere = {k: 1.0 for k in an.active}
    part = an.partition
    rng = np.random.default_rng(list(case.encode()))
    for f in (rng.standard_normal(len(an)), np.arange(len(an)) % 3 - 1.0):
        coeffs = an.analyze(f)

        def oracle(h, mu=None):
            return dict_filtered_synthesis(an.row, len(an), coeffs, h, mu)

        for n in range(-1, top + 2):
            assert np.array_equal(an.sigma(f, n), oracle(head[n]))
            assert np.array_equal(an.tau(f, n), oracle(block[n]))
            assert np.array_equal(an.filtered_sum(head[n], f),
                                  oracle(head[n]))
            assert an.degree_span(n) == [k for k in an.active
                                         if shell[k] <= n]
            assert np.array_equal(an.filtered_sum(part.head(n), f),
                                  oracle(head[n]))
            if n >= 0:
                box = box_filter(n, base)
                assert np.array_equal(an.filtered_sum(box, f), oracle(box))
        for order, mu_base in ((1.0, base), (1.5, base), (0.5, 5)):
            mu = MultiplierSequence(order, mu_base)
            sym = {k: float(mu_base) ** (order * shell_loop(k, mu_base))
                   for k in an.active}
            assert np.array_equal(an.derivative(f, mu),
                                  oracle(everywhere, sym))
        order = 1.5
        sym = {k: float(base) ** (order * shell[k]) for k in an.active}
        seqs = an.smoothness_profile(f, order=order).sequences
        terms = [(an.sup_norm(f - oracle(head[n])),
                  an.sup_norm(oracle(head[n], sym))) for n in range(top + 1)]
        assert seqs["projection_error"] == [err for err, _ in terms]
        assert seqs["block_norm"] == [an.sup_norm(oracle(block[n]))
                                      for n in range(top + 1)]
        for n in range(top + 1):
            delta, best = float(base) ** (-n), an.sup_norm(f)
            for err, dnorm in terms:
                best = min(best, err + delta ** order * dnorm)
            assert seqs["k_functional"][n] == best
            assert seqs["degree_error"][n] == an.best_uniform_approx(f, n)[0]


@pytest.mark.parametrize("base", [2, 3, 5])
def test_shell_array_matches_the_integer_loop(base):
    rng = np.random.default_rng(base)
    edges = sorted({base ** j + d for j in range(21) for d in (-1, 0, 1)
                    if base ** j + d <= 2 ** 20} | {2 ** 20})
    k1 = np.concatenate([edges, rng.integers(0, 2 ** 20 + 1, 500), edges])
    k2 = np.concatenate([edges[::-1], rng.integers(0, 2 ** 20 + 1, 500),
                         np.zeros(len(edges), dtype=int)])
    got = shell_array(k1, k2, base)
    assert got.tolist() == [shell_loop(k, base) for k in zip(k1, k2)]
    assert [shell_index(k, base) for k in zip(k1[:50], k2[:50])] \
        == got[:50].tolist()


def test_graded_methods_use_no_per_key_lookups(toy, monkeypatch):
    calls = []
    for cls, name in ((PartitionOfUnity, "head"), (PartitionOfUnity, "g"),
                      (MultiplierSequence, "__getitem__")):
        def counted(self, *args, _orig=getattr(cls, name), _name=name):
            calls.append(_name)
            return _orig(self, *args)
        monkeypatch.setattr(cls, name, counted)
    mu = MultiplierSequence(1.0)
    f = np.random.default_rng(83).standard_normal(len(toy))
    for n in range(-1, toy.max_shell() + 2):
        toy.sigma(f, n)
        toy.tau(f, n)
        toy.degree_span(n)
        toy.best_uniform_approx(f, n)
    toy.derivative(f, mu)
    toy.k_functional(f, 0.5, mu)
    toy.filtered_sum({(0, 0): 1.0, (1, 2): -0.5}, f)
    assert calls == []
    # the profile's only lookups are default_multiplier's two bound checks
    default_multiplier(toy.freqs, 1.5)
    checks, calls[:] = list(calls), []
    toy.smoothness_profile(f, order=1.5)
    assert calls == checks == ["__getitem__"] * 2


# -- degree errors against the minimax LP at every shell ----------------------------


@pytest.mark.parametrize("case", ["toy", "toy_base3", "planted_volume",
                                  "planted_base3", "planted_idealized"])
def test_degree_errors_equal_the_lp_oracle_at_every_shell(case):
    an, G = oracle_engine(case)
    top = an.max_shell()
    signals = {"outdeg": vertex_signal(G, "outdeg"),
               "noise": np.random.default_rng(list(case.encode()))
               .standard_normal(len(an))}
    if G.labels:
        signals["label"] = vertex_signal(G, "label")
    for name, f in signals.items():
        want = lp_degree_errors(an, f)
        got = an.smoothness_profile(f).sequences["degree_error"]
        # bit for bit, the sign of a zero included
        assert [x.hex() for x in got] == [x.hex() for x in want], name
        if an.mode == "exact":
            assert an.best_uniform_approx(f, top)[0] == want[-1] == 0.0
    if G.labels:
        # the label signal reaches an exact zero below the top shell
        assert want.index(0.0) < top


@pytest.mark.parametrize("case", ["planted_volume", "planted_idealized"])
def test_profile_solves_no_lp_whose_answer_is_exactly_zero(case, monkeypatch):
    an, G = oracle_engine(case)
    calls = []

    def counted(*args, _real=analysis.linprog, **kw):
        calls.append(1)
        return _real(*args, **kw)

    monkeypatch.setattr(analysis, "linprog", counted)
    top = an.max_shell()
    exact = an.mode == "exact"
    noise = np.random.default_rng(89).standard_normal(len(an))
    generic = an.smoothness_profile(noise).sequences["degree_error"]
    assert 0.0 not in generic[:-1]
    # one LP per shell, but for the full-span top shell in exact mode
    assert len(calls) == (top if exact else top + 1)
    calls.clear()
    degree = an.smoothness_profile(vertex_signal(G, "label")).sequences[
        "degree_error"]
    first = degree.index(0.0)
    assert first < top and degree[first:] == [0.0] * (top + 1 - first)
    assert len(calls) == first + 1
    calls.clear()
    assert an.best_uniform_approx(noise, top)[0] == generic[-1]
    assert len(calls) == (0 if exact else 1)
