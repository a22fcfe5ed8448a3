from fractions import Fraction

import numpy as np
import pytest

from twintree.basis import (PiecewiseConstant, TreeBasis, linprog,
                            local_basis, minimax_answer, minimax_lp,
                            verify_local_identities)

from oracles import (expanded_value_table, minimax_distance,
                     weighted_lstsq_fit)
from util import (random_filtration, random_leaf_function,
                  value_table_filtration)

F = Fraction


def random_child_masses(rng, m, denom=64):
    """m strictly positive rationals with an exact sum of 1."""
    cuts = sorted(rng.choice(np.arange(1, denom), size=m - 1, replace=False))
    edges = [0] + [int(c) for c in cuts] + [denom]
    return [F(b - a, denom) for a, b in zip(edges, edges[1:])]


# -- step functions -----------------------------------------------------------


def test_step_function_validation():
    with pytest.raises(ValueError, match="one more breakpoint"):
        PiecewiseConstant([0, 1], [1, 2])
    with pytest.raises(ValueError, match="domain"):
        PiecewiseConstant([0, F(1, 2)], [1])
    with pytest.raises(ValueError, match="strictly increase"):
        PiecewiseConstant([0, F(1, 2), F(1, 2), 1], [1, 2, 3])


def test_step_function_is_right_continuous():
    f = PiecewiseConstant([0, F(1, 4), F(1, 2), 1], [0, 1, 0])
    assert f(F(1, 4)) == 1
    assert f(F(1, 2)) == 0
    assert f(0) == 0
    with pytest.raises(ValueError, match="outside"):
        f(1)
    with pytest.raises(ValueError, match="outside"):
        f(F(-1, 10))


def test_integral_and_inner_are_exact():
    f = PiecewiseConstant([0, F(1, 3), F(2, 3), 1], [0, 1, 0])
    g = PiecewiseConstant([0, F(1, 2), 1], [F(3), F(-1)])
    assert f.integral() == F(1, 3)
    # overlap [1/3, 1/2) at value 3, [1/2, 2/3) at value -1
    assert f.inner(g) == 3 * F(1, 6) - F(1, 6)
    assert g.inner(g) == 9 * F(1, 2) + F(1, 2)


def test_arithmetic_merges_breakpoints():
    f = PiecewiseConstant([0, F(1, 3), 1], [1, 0])
    g = PiecewiseConstant([0, F(1, 2), 1], [0, 2])
    h = f + g
    assert h.breakpoints == [0, F(1, 3), F(1, 2), 1]
    assert h.values == [1, 0, 2]
    assert (f - g).values == [1, 0, -2]
    assert f.product(g).values == [0, 0, 0]
    assert f.scale(F(5, 2)).values == [F(5, 2), 0]


def test_values_on_coarser_grid_and_rejection():
    f = PiecewiseConstant([0, F(1, 4), F(1, 2), 1], [1, 1, 5])
    assert f.values_on([0, F(1, 2), 1]) == [1, 5]
    g = PiecewiseConstant([0, F(1, 3), 1], [1, 2])
    with pytest.raises(ValueError, match="not constant"):
        g.values_on([0, F(1, 2), 1])


# -- local systems ------------------------------------------------------------


def test_local_basis_rejects_bad_masses():
    with pytest.raises(ValueError, match="two children"):
        local_basis([F(1)])
    with pytest.raises(ValueError, match="positive"):
        local_basis([F(1, 2), F(0), F(1, 2)])
    with pytest.raises(ValueError, match="inside"):
        local_basis([F(1, 2), F(3, 4)])


def test_local_identities_hold_exactly_on_unit_nodes():
    rng = np.random.default_rng(1)
    for _ in range(60):
        m = int(rng.integers(2, 9))
        basis = local_basis(random_child_masses(rng, m))
        report = verify_local_identities(basis)
        assert report["max"] == 0


def test_local_identities_hold_exactly_on_subintervals():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m = int(rng.integers(2, 7))
        masses = random_child_masses(rng, m, denom=48)
        # shrink into a strict subinterval [1/5, 1/5 + 3/5)
        masses = [w * F(3, 5) for w in masses]
        basis = local_basis(masses, a=F(1, 5))
        report = verify_local_identities(basis)
        assert report["max"] == 0


def test_local_norms_and_supports():
    masses = [F(1, 2), F(1, 3), F(1, 6)]
    basis = local_basis(masses)
    assert basis.norm_sq(0) == 1
    assert basis.norm_sq(1) == F(1, 3) * F(1, 2) * F(5, 6)
    assert basis.norm_sq(2) == F(1, 6) * F(5, 6) * 1
    phi1 = basis.phi(1)
    assert phi1.integral() == 0
    a, b = basis.nodes()[1:3]           # child 1 is [a, b)
    assert phi1(a) == -F(1, 2)          # -P_1 on its own child
    assert phi1(0) == F(1, 3)           # +p_1 left of the split
    assert phi1(b) == 0                 # vanishes to the right
    with pytest.raises(ValueError):
        basis.phi(3)


def test_auxiliary_splitters():
    masses = [F(1, 4), F(1, 4), F(1, 2)]
    basis = local_basis(masses)
    assert basis.phi_tilde(basis.m).sup_norm() == 0
    for k in range(1, basis.m + 1):
        aux = basis.phi_tilde(k)
        for i in range(k):
            assert basis.phi(i).inner(aux) == 0
    with pytest.raises(ValueError):
        basis.phi_tilde(0)


# -- the global system ---------------------------------------------------------


def tree_basis(seed, n=14, sizes=(3, 7), weights="integer"):
    rng = np.random.default_rng(seed)
    return TreeBasis(random_filtration(rng, n, list(sizes), weights=weights))


def test_global_system_is_exactly_orthogonal():
    for seed in range(12):
        basis = tree_basis(seed)
        assert basis.size == 14
        assert basis.psi(0).values == [F(1)]
        for i in range(basis.size):
            for j in range(i, basis.size):
                got = basis.psi(i).inner(basis.psi(j))
                expect = 1 / basis.aleph(i) if i == j else 0
                assert got == expect


def test_nonconstant_indices_have_mean_zero():
    basis = tree_basis(3)
    for n in range(1, basis.size):
        assert basis.psi(n).integral() == 0


def test_closed_form_norm_matches_intervals():
    basis = tree_basis(5)
    for n in range(1, basis.size):
        (a, b), (a2, b2) = basis.intervals_of(n)
        assert basis.aleph(n) == (b - a) ** 2 / ((b2 - a2) * (a2 - a)
                                                 * (b2 - a))
        fn = basis.psi(n)
        assert fn(a) == (b2 - a2) / (b - a)
        assert fn(a2) == -(a2 - a) / (b - a)
        if b2 < 1:
            assert fn(b2) == 0


@pytest.mark.parametrize("case", ["uniform", "volume", "chain", "one_leaf"])
def test_value_table_matches_pointwise_evaluation(case):
    filt = value_table_filtration(case)
    basis = TreeBasis(filt)
    mids = [(leaf.a + leaf.b) / 2 for leaf in filt.leaves()]
    table = expanded_value_table(basis)
    assert table == [[basis.psi(n)(x) for x in mids]
                     for n in range(basis.size)]
    assert all(isinstance(v, Fraction) for row in table for v in row)
    assert len(table) == len(mids) == filt.n_leaves()
    floats = np.array([[float(v) for v in row] for row in table])
    cells = basis.cell_table()
    assert cells.shape == floats.shape
    assert cells.tobytes() == floats.tobytes()


def test_analysis_synthesis_roundtrip_is_exact():
    for seed in range(8):
        rng = np.random.default_rng(300 + seed)
        basis = tree_basis(seed)
        f = random_leaf_function(rng, basis.filtration)
        coeffs = basis.analyze(f)
        back = basis.synthesize(coeffs)
        grid = basis.leaf_breakpoints()
        assert back.values_on(grid) == f.values_on(grid)


def test_analyze_rejects_functions_cutting_leaf_cells():
    basis = tree_basis(1)
    leaf = basis.filtration.leaves()[0]
    mid = (leaf.a + leaf.b) / 2
    f = PiecewiseConstant([0, mid, 1], [F(1), F(2)])
    with pytest.raises(ValueError, match="not constant"):
        basis.analyze(f)


def test_analysis_is_linear():
    rng = np.random.default_rng(9)
    basis = tree_basis(2)
    f = random_leaf_function(rng, basis.filtration)
    g = random_leaf_function(rng, basis.filtration)
    a, b = F(3, 7), F(-5, 2)
    lhs = basis.analyze(f.scale(a) + g.scale(b))
    fa, ga = basis.analyze(f), basis.analyze(g)
    assert lhs == [a * x + b * y for x, y in zip(fa, ga)]


def partial_sum(basis, f, n):
    """Projection of f onto the span of indices 0..n (inclusive)."""
    return basis.synthesize(basis.analyze(f)[:n + 1])


def test_partial_sums_are_projections():
    rng = np.random.default_rng(10)
    basis = tree_basis(4)
    f = random_leaf_function(rng, basis.filtration)
    grid = basis.leaf_breakpoints()
    for n in (0, 3, basis.size - 1):
        s = partial_sum(basis, f, n)
        again = partial_sum(basis, s, n)
        assert again.values_on(grid) == s.values_on(grid)
    full = partial_sum(basis, f, basis.size - 1)
    assert full.values_on(grid) == f.values_on(grid)


def test_partial_sum_matches_least_squares_oracle():
    rng = np.random.default_rng(11)
    basis = tree_basis(6)
    f = random_leaf_function(rng, basis.filtration)
    grid = basis.leaf_breakpoints()
    masses = np.array([float(hi - lo) for lo, hi in zip(grid, grid[1:])])
    table = expanded_value_table(basis)
    fvals = np.array([float(v) for v in f.values_on(grid)])
    for n in (0, 2, 5, 9):
        rows = np.array([[float(v) for v in table[k]]
                         for k in range(n + 1)])
        ref = weighted_lstsq_fit(rows, masses, fvals)
        got = np.array([float(v)
                        for v in partial_sum(basis, f, n).values_on(grid)])
        assert np.allclose(got, ref, atol=1e-9)


def test_partial_sum_norm_bound():
    for seed in range(20):
        rng = np.random.default_rng(500 + seed)
        basis = tree_basis(seed, n=12, sizes=(3, 6))
        f = random_leaf_function(rng, basis.filtration)
        sup = f.sup_norm()
        for n in range(basis.size):
            assert partial_sum(basis, f, n).sup_norm() <= 6 * sup


def test_degree_error_sandwich():
    for seed in range(6):
        rng = np.random.default_rng(700 + seed)
        basis = tree_basis(seed, n=10, sizes=(3,))
        f = random_leaf_function(rng, basis.filtration)
        for n in range(basis.size):
            err, _ = basis.best_uniform_approx(f, n)
            diff = float((f - partial_sum(basis, f, n)).sup_norm())
            assert err <= diff + 1e-10
            assert diff <= 7 * err + 1e-10


def test_best_uniform_approx_matches_smoothed_oracle():
    rng = np.random.default_rng(13)
    basis = tree_basis(7, n=9, sizes=(3,))
    f = random_leaf_function(rng, basis.filtration)
    grid = basis.leaf_breakpoints()
    fvals = np.array([float(v) for v in f.values_on(grid)])
    table = expanded_value_table(basis)
    for n in (0, 2, 4, 7):
        A = np.array([[float(table[k][cell]) for k in range(n + 1)]
                      for cell in range(len(grid) - 1)])
        ref = minimax_distance(A, fvals)
        got, witness = basis.best_uniform_approx(f, n)
        assert got == pytest.approx(ref, abs=1e-4)
        # the witness achieves the reported distance
        assert float((f - witness).sup_norm()) == pytest.approx(got,
                                                                abs=1e-9)


def test_minimax_lp_keeps_one_constraint_pair_per_distinct_row():
    half_up = np.nextafter(0.5, 1.0)
    A = np.array([[1.0, 0.5], [0.0, 2.0], [1.0, 0.5], [1.0, half_up],
                  [-0.0, 2.0], [1.0, 0.5], [0.0, 2.0]])
    f = np.array([3.0, 5.0, -1.0, 2.0, 7.0, 0.25, 4.0])
    lp = minimax_lp(A, f)
    rows, t = lp["A_ub"][:, :-1], lp["A_ub"][:, -1]
    # [1, 0.5] thrice and [0, 2] twice; the last-bit neighbour of
    # [1, 0.5] and [-0.0, 2] differ in bytes, so each is its own group
    assert rows.shape == (2 * 4, 2) and (t == -1.0).all()
    assert rows[4:].tobytes() == (-rows[:4]).tobytes()
    # (row, min f, max f) of each group, keyed by the row's bytes
    want = [([1.0, 0.5], -1.0, 3.0), ([0.0, 2.0], 4.0, 5.0),
            ([1.0, half_up], 2.0, 2.0), ([-0.0, 2.0], 7.0, 7.0)]
    got = {row.tobytes(): (lo, -neg_hi) for row, lo, neg_hi
           in zip(rows[:4], lp["b_ub"][:4], lp["b_ub"][4:])}
    assert got == {np.array(row).tobytes(): (lo, hi) for row, lo, hi in want}
    dist, c = minimax_answer(linprog(**lp))
    assert dist == pytest.approx(minimax_distance(A, f), abs=1e-4)
    assert np.abs(f - A @ c).max() <= dist * (1 + 1e-12) + 1e-15


def test_filtered_sum_respects_variation_bound():
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        basis = tree_basis(seed, n=12, sizes=(4,))
        f = random_leaf_function(rng, basis.filtration)
        sup = float(f.sup_norm())
        # a ramp filter and a random filter
        n = basis.size
        ramp = [1 - k / n for k in range(n)]
        rand = list(rng.uniform(-1, 1, size=n))
        for h in (ramp, rand):
            out = basis.synthesize([hk * c for hk, c
                                    in zip(h, basis.analyze(f))]).sup_norm()
            # sup plus total jump of h, read with a final drop to zero
            hs = [*h, 0.0]
            var = max(map(abs, hs)) + sum(abs(b - a)
                                          for a, b in zip(hs, hs[1:]))
            assert out <= 3 * var * sup + 1e-9


def test_index_bounds_are_checked():
    basis = tree_basis(0)
    with pytest.raises(ValueError, match="outside"):
        basis.psi(basis.size)
    with pytest.raises(ValueError, match="more coefficients"):
        basis.synthesize([F(1)] * (basis.size + 1))
    f = PiecewiseConstant([0, 1], [F(1)])
    with pytest.raises(ValueError, match="outside"):
        basis.best_uniform_approx(f, basis.size)
