"""Independent reference implementations for cross-checking.

Everything here computes the same quantities as the package by a
different route (different algorithm, different library call, or plain
brute force), so agreement is meaningful evidence and not tautology.
Only the tests import this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize
from scipy.special import logsumexp

from twintree.clustering import (ClusterNode, ClusterTree, _embedding_distance,
                                 _initial_centers, _label_seed_vertices,
                                 _path_distance, check_level_spec,
                                 coarse_grain, mbo_cluster)
from twintree.digraph import UndirectedGraph


def expanded_value_table(basis) -> list[list[Fraction]]:
    """values[n][cell]: psi_n on each leaf cell, as exact Fractions.

    Expands the records of ``TreeBasis.value_table`` cell by cell: up
    on cells lo..mid-1, -down on mid..hi-1 and Fraction(0) elsewhere.
    This is the dense N x N table that the package no longer builds.
    """
    return [[up if lo <= cell < mid else -down if mid <= cell < hi
             else Fraction(0) for cell in range(basis.size)]
            for lo, mid, hi, up, down, _ in basis.value_table()]


def grid_cells(basis, grid) -> list[int]:
    """The leaf cell of ``basis.filtration`` that holds each grid point."""
    filt = basis.filtration
    cells = {leaf.id: j for j, leaf in enumerate(filt.leaves())}
    return [cells[filt.leaf_of_vertex(p.vertex)] for p in grid.points]


def axis_value_matrix(basis, grid) -> list[list[Fraction]]:
    """Exact psi values at the grid points, along the basis's own axis.

    Row n, column i: the n-th function of ``basis`` on the leaf cell of
    ``basis.filtration`` that holds grid point i.
    """
    table = expanded_value_table(basis)
    cols = grid_cells(basis, grid)
    return [[table[n][c] for c in cols] for n in range(basis.size)]


def float_axis_table(basis, grid) -> np.ndarray:
    """The engine's float table of one axis, built as the package built
    it from the dense exact table: every entry converted by
    float(Fraction), then row n scaled by sqrt(float(aleph(n)))."""
    return (np.array(axis_value_matrix(basis, grid), dtype=float)
            * np.sqrt([float(basis.aleph(n))
                       for n in range(basis.size)])[:, None])


def float_sign_cells(v1: np.ndarray, v2: np.ndarray, top: int) -> np.ndarray:
    """Cell label per grid point from the signs of two float tables.

    A point's class on an axis is its column of np.sign over the first
    ``top`` rows; its cell is the pair of classes, labelled in
    ``np.unique`` order: the route the engine took before it kept exact
    sign tables.
    """
    axes = [np.unique(np.sign(v[:top]), axis=1,
                      return_inverse=True)[1].reshape(-1) for v in (v1, v2)]
    return np.unique(np.stack(axes), axis=1,
                     return_inverse=True)[1].reshape(-1)


def minimax_distance(A: np.ndarray, f: np.ndarray) -> float:
    """Best sup-norm distance from f to the column span of A.

    Smoothed-minimax oracle: minimize T * logsumexp(+-residual / T)
    with BFGS while annealing the temperature T down to 1e-7.  The
    smoothing bias at the final temperature is T*log(2*npoints), which
    stays below 1e-6 for any problem of the size used in tests, and the
    returned value is always achievable (it evaluates a feasible point).
    """
    f = np.asarray(f, dtype=float)
    A = np.asarray(A, dtype=float)
    if A.size == 0 or A.shape[1] == 0:
        return float(np.max(np.abs(f))) if f.size else 0.0
    x = np.linalg.lstsq(A, f, rcond=None)[0]
    for T in (1.0, 0.3, 0.1, 0.03, 0.01, 3e-3, 1e-3, 3e-4,
              1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7):
        def smoothed(c, T=T):
            r = A @ c - f
            z = np.concatenate([r, -r]) / T
            lse = logsumexp(z)
            w = np.exp(z - lse)
            grad = A.T @ (w[:len(r)] - w[len(r):])
            return T * lse, grad

        x = minimize(smoothed, x, jac=True, method="BFGS",
                     options={"maxiter": 400, "gtol": 1e-13}).x
    return float(np.max(np.abs(A @ x - f)))


def floyd_warshall(lengths: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths on a dense length matrix with inf."""
    D = np.array(lengths, dtype=float)
    n = D.shape[0]
    np.fill_diagonal(D, 0.0)
    for k in range(n):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


def lexsorted_edges(G) -> list[list]:
    """[u, v, weight] of every stored edge of G, from the COO triplets
    sorted by (row, column) with ``np.lexsort``: the listing that
    ``WeightedDigraph.to_json_dict`` once produced edge by edge."""
    coo = G.weights.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return [[int(coo.row[i]), int(coo.col[i]), float(coo.data[i])]
            for i in order]


def components_union_find(n: int, edges) -> list[frozenset[int]]:
    """Undirected connected components via union-find."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        ra, rb = find(int(u)), find(int(v))
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def modularity_brute(W: np.ndarray, assign) -> float:
    """Double-loop evaluation of the directed modularity formula."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    m = W.sum()
    k_out = W.sum(axis=1)
    k_in = W.sum(axis=0)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if assign[i] == assign[j]:
                total += W[i, j] - k_out[i] * k_in[j] / m
    return total / m


def modularity_sliced(G, partition) -> float:
    """Directed modularity summed cluster by cluster over sliced submatrices.

    Each cluster's internal weight is the sum of the sparse submatrix
    W[idx, :][:, idx] (idx the sorted members), the route the package
    took before it scored a label vector in one pass over the edges.
    """
    W = G.weights
    m = G.total_weight()
    k_out = G.out_degrees()
    k_in = G.in_degrees()
    score = 0.0
    for part in partition:
        idx = np.sort(np.fromiter((int(v) for v in part), dtype=int))
        internal = float(W[idx, :][:, idx].sum())
        score += internal - float(k_out[idx].sum()) * float(k_in[idx].sum()) / m
    return score / m


def modularity_sequential(G, labels) -> float:
    """Directed modularity of a label vector, summed one float at a time.

    A pure-Python loop over the CSR edges adds each internal edge's
    weight to its cluster in edge order, a loop over the vertices adds
    their out- and in-degrees in vertex order, and the nonempty clusters'
    terms are added up in label order, every sum starting at 0.0.
    """
    W = G.weights
    lab = [int(x) for x in labels]
    k = max(lab) + 1
    m = G.total_weight()
    inner, out_w, in_w, size = [0.0] * k, [0.0] * k, [0.0] * k, [0] * k
    indptr, indices, data = (W.indptr.tolist(), W.indices.tolist(),
                             W.data.tolist())
    for u in range(G.n):
        for e in range(indptr[u], indptr[u + 1]):
            if lab[u] == lab[indices[e]]:
                inner[lab[u]] += data[e]
    for v, (ko, ki) in enumerate(zip(G.out_degrees().tolist(),
                                     G.in_degrees().tolist())):
        out_w[lab[v]] += ko
        in_w[lab[v]] += ki
        size[lab[v]] += 1
    score = 0.0
    for j in range(k):
        if size[j]:
            score += inner[j] - out_w[j] * in_w[j] / m
    return score / m


def tree_by_subset_scan(vertices, partitions) -> ClusterTree:
    """ClusterTree from nested level partitions (coarsest first) by
    scanning, for every parent in id order, every part of the next level
    in its given order for subsets of the parent; single-vertex leaves in
    vertex order come last.  The scan the package ran before it assembled
    trees from label vectors; the tests build their trees from vertex
    sets with it (``util.random_tree``)."""
    vertices = sorted(vertices)
    levels = [[frozenset(p) for p in level] for level in partitions]
    levels.append([frozenset([v]) for v in vertices])
    nodes = {0: ClusterNode(id=0, level=0, parent=None,
                            members=frozenset(vertices))}
    prev = [nodes[0]]
    for depth, groups in enumerate(levels, start=1):
        this_level = []
        for parent in prev:
            for g in groups:
                if g <= parent.members:
                    node = ClusterNode(id=len(nodes), level=depth,
                                       parent=parent.id, members=g)
                    parent.children.append(node.id)
                    nodes[node.id] = node
                    this_level.append(node)
        prev = this_level
    tree = ClusterTree(nodes)
    tree.validate()
    return tree


def graft_by_offset(n: int, components) -> ClusterTree:
    """The twin tree over weak components, from (vertices, level
    partitions) per component: each component's tree by
    ``tree_by_subset_scan``; a single one is the whole tree, otherwise
    the trees become the root's children in component order, each with
    its node ids shifted past those of the trees before it and its
    levels one deeper.  How the package grafted component trees before
    it assembled twin trees from level-id matrices."""
    subtrees = [tree_by_subset_scan(v, parts) for v, parts in components]
    if len(subtrees) == 1:
        return subtrees[0]
    root = ClusterNode(id=0, level=0, parent=None,
                       members=frozenset(range(n)))
    nodes, offset = {0: root}, 1
    for sub in subtrees:
        root.children.append(offset)
        for node in sub.nodes.values():
            nodes[node.id + offset] = ClusterNode(
                id=node.id + offset, level=node.level + 1,
                parent=0 if node.parent is None else node.parent + offset,
                children=[c + offset for c in node.children],
                members=node.members)
        offset += len(sub.nodes)
    tree = ClusterTree(nodes)
    tree.validate()
    return tree


def product_partition_by_ancestors(tree_es, tree_os, level: int, n: int):
    """Common refinement of two trees' level partitions as frozensets,
    grouped by the pair of ``ancestor_at_level`` ids of every vertex and
    ordered by that pair: the route the package took before it worked on
    label vectors."""
    groups: dict[tuple[int, int], set[int]] = {}
    for v in range(n):
        key = (tree_es.ancestor_at_level(v, level),
               tree_os.ancestor_at_level(v, level))
        groups.setdefault(key, set()).add(v)
    return [frozenset(groups[k]) for k in sorted(groups)]


def f_measure_brute(pred, truth, n: int) -> float:
    total = 0.0
    for C in pred:
        best = 0.0
        for L in truth:
            overlap = len(set(C) & set(L))
            best = max(best, 2.0 * overlap / (len(C) + len(L)))
        total += len(C) * best
    return total / n


def confusion_brute(pred, truth) -> np.ndarray:
    ncls = len(truth)
    M = np.zeros((ncls, ncls))
    for C in pred:
        best_j, best_overlap = 0, -1
        for j, L in enumerate(truth):
            overlap = len(set(C) & set(L))
            if overlap > best_overlap:
                best_j, best_overlap = j, overlap
        for k, L in enumerate(truth):
            M[best_j, k] += len(set(C) & set(L)) / len(L)
    return M


def variation_2d_brute(h: dict) -> float:
    """Literal four-term variation with explicit loops."""
    if not h or not any(h.values()):
        return 0.0

    def val(k1, k2):
        return float(h.get((k1, k2), 0.0))

    k1max = max(k[0] for k in h)
    k2max = max(k[1] for k in h)
    sup = max(abs(val(a, b))
              for a in range(k1max + 2) for b in range(k2max + 2))
    col = max(sum(abs(val(a, b + 1) - val(a, b))
                  for b in range(k2max + 2))
              for a in range(k1max + 2))
    row = max(sum(abs(val(a + 1, b) - val(a, b))
                  for a in range(k1max + 2))
              for b in range(k2max + 2))
    mixed = sum(abs(val(a + 1, b + 1) - val(a + 1, b)
                    - val(a, b + 1) + val(a, b))
                for a in range(k1max + 2) for b in range(k2max + 2))
    return sup + col + row + mixed


def exhaustive_two_medoid(dist: np.ndarray) -> float:
    """Optimal 2-center objective by trying every center pair."""
    n = dist.shape[0]
    best = np.inf
    for a, b in itertools.combinations(range(n), 2):
        obj = np.minimum(dist[a], dist[b]).sum()
        best = min(best, obj)
    return float(best)


def random_walk_embedding(W: np.ndarray, n_eig: int, t: float = 1.0
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion coordinates via the nonsymmetric random-walk matrix.

    Returns (eigenvalues, coordinates); an independent route to the
    package's symmetric-matrix embedding (same subspace, same
    eigenvalues).
    """
    W = np.asarray(W, dtype=float)
    deg = W.sum(axis=1)
    P = W / deg[:, None]
    lam, vecs = np.linalg.eig(P)
    order = np.argsort(lam.real)[::-1]
    lam = lam[order].real[:n_eig]
    vecs = vecs[:, order].real[:, :n_eig]
    return lam, vecs * np.sign(lam)[None, :] * np.abs(lam)[None, :] ** t


def label_propagation(W: np.ndarray, labeled: dict[int, int],
                      n_classes: int, iters: int = 300) -> np.ndarray:
    """Clamped label spreading on the row-normalized adjacency."""
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    P = W / W.sum(axis=1)[:, None]
    F = np.zeros((n, n_classes))
    for v, c in labeled.items():
        F[int(v), int(c)] = 1.0
    clamp = F.copy()
    mask = F.sum(axis=1) > 0
    for _ in range(iters):
        F = P @ F
        F[mask] = clamp[mask]
    return np.argmax(F, axis=1)


def weighted_lstsq_fit(rows: np.ndarray, masses: np.ndarray,
                       f: np.ndarray) -> np.ndarray:
    """L2(nu)-best representation of f in the span of the given rows.

    Returns the fitted values (not the coefficients), computed by a
    dense weighted least-squares solve.
    """
    sq = np.sqrt(np.asarray(masses, dtype=float))
    A = (np.asarray(rows, dtype=float) * sq[None, :]).T
    c = np.linalg.lstsq(A, np.asarray(f, dtype=float) * sq, rcond=None)[0]
    return np.asarray(rows, dtype=float).T @ c


def coarse_grain_brute(W: np.ndarray, parts,
                       mirror: bool = False) -> np.ndarray:
    """Double-loop cluster-graph weights.

    Each sum runs over the members of both parts in ascending vertex
    order from 0, absent edges adding 0.0, so it adds the edges in the
    order of a CSR matrix.  With ``mirror`` every entry below the
    diagonal is copied from the one above it.
    """
    k = len(parts)
    out = np.zeros((k, k))
    for i, Pi in enumerate(parts):
        for j, Pj in enumerate(parts):
            out[i, j] = sum(W[u, v] for u in sorted(Pi) for v in sorted(Pj))
    if mirror:
        for i in range(k):
            for j in range(i):
                out[i, j] = out[j, i]
    return out


def full_scan_gram(rows: np.ndarray, masses: np.ndarray,
                   drop_tol: float = 1e-9
                   ) -> tuple[np.ndarray, list[int]]:
    """Weighted modified Gram-Schmidt that tests every row.

    The same drop rule and two projection passes as the package, but the
    basis is re-stacked for every row and the scan never stops early, so
    a row after full rank is dropped only because its residual is small.
    """
    kept: list[int] = []
    basis: list[np.ndarray] = []
    for i, row in enumerate(np.asarray(rows, dtype=float)):
        r = row.copy()
        own = np.sqrt(float((row * row * masses).sum()))
        for _ in range(2):
            if basis:
                E = np.vstack(basis)
                r = r - (E @ (r * masses)) @ E
        norm = np.sqrt(float((r * r * masses).sum()))
        if norm <= drop_tol * max(1.0, own):
            continue
        kept.append(i)
        basis.append(r / norm)
    E = np.vstack(basis) if basis else np.zeros((0, rows.shape[1]))
    return E, kept


def loop_synthesis(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w[i] rows[i] over the nonzero w[i], added one row at a time
    in row order."""
    out = np.zeros(rows.shape[1])
    for i in np.flatnonzero(w):
        out += w[i] * rows[i]
    return out


def exact_greedy_rank(v1, v2) -> list[tuple[int, int]]:
    """Index pairs kept by greedy exact elimination of tensor products.

    Scans every pair (k1, k2) in graded-lex order (k1 + k2, then k1)
    and keeps it iff the row v1[k1][i] * v2[k2][i] is independent of
    the rows kept before it, in Fraction arithmetic; stops once as many
    rows are kept as there are columns.  Positive row scalings and
    positive point masses do not change which rows are independent, so
    the unscaled products decide the same set as the weighted,
    normalized ones.
    """
    ncols = len(v1[0])
    pivots: dict[int, list[Fraction]] = {}  # column -> row with 1 there
    kept: list[tuple[int, int]] = []
    pairs = sorted(itertools.product(range(len(v1)), range(len(v2))),
                   key=lambda k: (k[0] + k[1], k[0]))
    for k1, k2 in pairs:
        if len(kept) == ncols:
            break
        r = [Fraction(a) * b for a, b in zip(v1[k1], v2[k2])]
        # later pivot rows vanish on earlier pivot columns, so one pass
        # in insertion order clears every pivot column of r
        for col, row in pivots.items():
            if r[col]:
                c = r[col]
                r = [a - c * b for a, b in zip(r, row)]
        lead = next((i for i, a in enumerate(r) if a), None)
        if lead is None:
            continue
        pivots[lead] = [a / r[lead] for a in r]
        kept.append((k1, k2))
    return kept


# Primes below 2**25, largest first.  A product of two residues is below
# 2**50, so an int64 sum of up to 2**13 of them cannot overflow.
PRIMES = (33_554_393, 33_554_383, 33_554_371, 33_554_347, 33_554_341)


def residue(x: Fraction, p: int) -> int:
    """x mod p; a ZeroDivisionError if p divides its denominator."""
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"{p} divides the denominator of {x}")
    return x.numerator * pow(x.denominator, -1, p) % p


def residue_axis_table(basis, grid, p: int) -> np.ndarray:
    """``axis_value_matrix`` mod p, as int64.  Each record of
    ``basis.value_table()`` gives its row two residues, of up and of
    -down, so a row costs two inverses whatever its support."""
    table = np.zeros((basis.size, basis.size), dtype=np.int64)
    for row, (lo, mid, hi, up, down, _) in zip(table, basis.value_table()):
        row[lo:mid], row[mid:hi] = residue(up, p), residue(-down, p)
    return table[:, grid_cells(basis, grid)]


def prime_field_greedy_rank(t1: np.ndarray, t2: np.ndarray, p: int,
                            block: int = 256) -> list[tuple[int, int]]:
    """Index pairs kept by greedy elimination of tensor products mod p.

    Takes one residue table per axis (``residue_axis_table``).  Scans
    every pair (k1, k2) in graded-lex order, as ``exact_greedy_rank``
    does, ``block`` rows t1[k1] * t2[k2] % p at a time, and keeps a row
    iff it is independent mod p of the rows kept before it; stops once
    as many rows are kept as there are columns.  The kept rows are held
    in reduced row-echelon form (each has a 1 in its pivot column, where
    every other kept row has 0), so one product with the sparse matrix
    of a block's pivot-column entries reduces the block, and its
    surviving rows are then decided in order.  A kept row costs one
    rank-1 update, on the kept rows nonzero in its pivot column.

    Kept rows of full rank mod p are independent over Q, whatever p.  A
    row dropped mod p is dependent over Q unless p divides a minor, so
    a disagreement with the rational rank calls for a second prime.
    """
    n = t1.shape[1]
    if n * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"int64 sums of {n} products mod {p} can overflow")
    k1, k2 = np.divmod(np.arange(len(t1) * len(t2)), len(t2))
    order = np.lexsort((k1, k1 + k2))
    basis = np.zeros((n, n), dtype=np.int64)  # kept rows, reduced
    pivots: list[int] = []
    kept: list[tuple[int, int]] = []
    for start in range(0, order.size, block):
        first = len(kept)  # the rows kept before this block
        if first == n:
            break
        at = order[start:start + block]
        R = t1[k1[at]] * t2[k2[at]] % p
        if first:
            R = (R - sparse.csr_array(R[:, pivots]) @ basis[:first]) % p
        for i in np.flatnonzero(R.any(axis=1)):
            m = len(kept)
            if m == n:
                break
            r = (R[i] - R[i, pivots[first:]] @ basis[first:m]) % p
            nonzero = np.flatnonzero(r)
            if not nonzero.size:
                continue
            q = int(nonzero[0])
            r = r * pow(int(r[q]), -1, p) % p
            col = basis[:m, q].copy()
            hit = np.flatnonzero(col)
            basis[hit] = (basis[hit] - col[hit, None] * r) % p
            basis[m] = r
            pivots.append(q)
            kept.append((int(k1[at[i]]), int(k2[at[i]])))
    return kept


def prime_field_kept_sets(basis1, basis2, grid, primes=PRIMES):
    """``prime_field_greedy_rank`` of two bases on a grid, mod each prime
    in turn that divides no denominator of their value tables."""
    for p in primes:
        try:
            tables = [residue_axis_table(b, grid, p) for b in (basis1, basis2)]
        except ZeroDivisionError:
            continue
        yield prime_field_greedy_rank(*tables, p)


def medoid_iterate_ix(dist: np.ndarray, k: int, centers: np.ndarray,
                      max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """The center/medoid iteration with one index scan and one np.ix_
    gather per cluster; same ties and re-seeding as the package."""
    n = dist.shape[0]
    centers = centers.copy()
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        to_centers = dist[centers]
        assign = np.argmin(to_centers, axis=0)
        counts = np.bincount(assign, minlength=k)
        reseeds = 0
        while counts.min() == 0 and reseeds < 2 * k:
            empty = int(np.flatnonzero(counts == 0)[0])
            own = to_centers[assign, np.arange(n)]
            centers[empty] = int(np.argmax(own))
            to_centers = dist[centers]
            assign = np.argmin(to_centers, axis=0)
            counts = np.bincount(assign, minlength=k)
            reseeds += 1
        new_centers = centers.copy()
        for j in range(k):
            member = np.flatnonzero(assign == j)
            if member.size == 0:
                continue
            within = dist[np.ix_(member, member)].sum(axis=1)
            new_centers[j] = member[int(np.argmin(within))]
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return assign, centers


def _labels_to_groups(assign: np.ndarray, units: list[frozenset[int]],
                      k: int) -> list[frozenset[int]]:
    groups = []
    for j in range(k):
        idx = np.flatnonzero(assign == j)
        if idx.size:
            merged: set[int] = set()
            for i in idx:
                merged |= units[int(i)]
            groups.append(frozenset(merged))
    return groups


def seeded_medoid_partition(dist: np.ndarray, k: int,
                            rng: np.random.Generator, seed_vertices=None,
                            n_init: int = 1, max_iter: int = 100
                            ) -> np.ndarray:
    """Best-of-n_init medoid clustering of one metric, one start after
    another, each run by ``medoid_iterate_ix``: the per-seed form of the
    package's batched ``medoid_partition``.  The first start of least
    objective wins."""
    if not np.all(np.isfinite(dist)):
        raise ValueError("distance matrix has infinite entries")
    best = None
    for trial in range(max(1, n_init)):
        seeds = seed_vertices if trial == 0 else None
        centers = _initial_centers(dist.shape[0], k, rng, seeds)
        assign, centers = medoid_iterate_ix(dist, k, centers, max_iter)
        obj = float(dist[centers[assign], np.arange(dist.shape[0])].sum())
        if best is None or obj < best[0]:
            best = (obj, assign)
    return best[1]


def seeded_hierarchy(G, K, seed: int, labeled, dist_of, n_init: int = 1,
                     finest=None) -> list[np.ndarray]:
    """The medoid hierarchy of one seed, level after level on graph
    objects: ``default_rng(seed)`` draws every start, the finest level
    clusters dist_of(G) (or takes the label vector ``finest``), and
    each coarser level clusters dist_of of the previous level's
    ``coarse_grain``.  Returns the label vectors coarsest first, each
    level's clusters renumbered 0, 1, ... by np.unique."""
    K = check_level_spec(K, G.n)
    rng = np.random.default_rng(seed)
    seed_vertices = _label_seed_vertices(labeled)
    current, labels, levels = G, np.arange(G.n), []
    for li in range(len(K), 0, -1):
        if li == len(K) and finest is not None:
            assign = finest
        else:
            assign = seeded_medoid_partition(
                dist_of(current), K[li - 1], rng,
                seed_vertices if li == len(K) else None, n_init)
        _, assign = np.unique(assign, return_inverse=True)
        if li > 1:
            current = coarse_grain(current, assign)
        labels = assign[labels]
        levels.append(labels)
    return levels[::-1]


def _seeded_component(comp, algo: str, edge_length: str, seed: int,
                      labeled, n_init: int) -> list[np.ndarray]:
    """One seed's levels of one prepared component (nhc distances fresh
    per graph, mll per seed, mbo from its diffusion classes)."""
    pos = {int(v): j for j, v in enumerate(comp.idx)}
    local = {pos[int(v)]: c for v, c in (labeled or {}).items()
             if int(v) in pos} or None
    if algo == "nhc":
        return seeded_hierarchy(comp.S, comp.K, seed, local,
                                lambda cur: _path_distance(cur, edge_length),
                                n_init)
    if algo == "mll":
        return seeded_hierarchy(comp.S, comp.K, seed, local,
                                _embedding_distance(seed), n_init)
    if not local:
        return []
    classes = sorted(set(local.values()))
    K = tuple(k for k in comp.K if k < len(classes)) + (len(classes),)
    if not 2 <= K[-1] < len(comp.idx):
        return []
    class_idx = {c: i for i, c in enumerate(classes)}
    assign = mbo_cluster(comp.S, {v: class_idx[c] for v, c in local.items()},
                         K[-1])
    return seeded_hierarchy(comp.S, K, seed, None,
                            lambda cur: _path_distance(cur, "reciprocal"),
                            finest=assign)


def trial_level_ids(levels, n: int) -> np.ndarray:
    """(len(levels) + 1, n) node ids of one trial's level label vectors,
    numbered level by level: below the root (node 0), each level's nodes
    are its distinct (parent node, label) pairs in lexicographic order,
    numbered on from the level above, and the leaves come last; a label
    that meets two parents raises.  The per-trial numbering that
    ``clustering._level_ids`` runs for a whole batch."""
    ids = np.empty((len(levels) + 1, n), dtype=np.intp)
    above = np.zeros(n, dtype=np.intp)  # node one level up
    first = 1
    for depth, lab in enumerate([*levels, np.arange(n)], start=1):
        width = int(lab.max()) + 1 if lab.size else 1
        pairs, node_of = np.unique(above * width + lab, return_inverse=True)
        labs = pairs % width
        if np.unique(labs).size < labs.size:
            raise ValueError(f"level {depth} does not nest in level {depth-1}")
        above = ids[depth - 1] = node_of + first
        first += pairs.size
    return ids


def trial_graft_ids(n: int, comps, blocks) -> np.ndarray:
    """One trial's level ids over weak components, from each component's
    ``trial_level_ids`` block, grafted component by component: row 0
    numbers the components 1, 2, ... past the ids of the components
    before, and a shallow component's leaves repeat down to the deepest
    level."""
    if len(blocks) == 1:
        return blocks[0]
    depth = 1 + max((len(block) for block in blocks), default=0)
    ids = np.empty((depth, n), dtype=np.intp)
    offset = 1
    for idx, block in zip(comps, blocks):
        ids[0, idx] = offset
        rows = np.minimum(np.arange(depth - 1), len(block) - 1)
        ids[1:, idx] = block[rows] + offset
        offset += int(block[-1].max()) + 1
    return ids


def seeded_level_ids(builder, seed: int, labeled=None):
    """The twin trees' level-id matrices of one seed, from a
    TwinTreeBuilder's preparation (components, companions, clipped
    level sizes) but with its clustering redone seed by seed: each
    side and component clusters with its own spawned seed through
    ``seeded_hierarchy``, and its ids come from ``trial_level_ids`` and
    ``trial_graft_ids``."""
    comp_seeds = [s.generate_state(1)[0] for s in
                  np.random.SeedSequence(seed).spawn(2 * len(builder.comps))]
    out = []
    for side_index, comps in enumerate(builder.sides):
        blocks = []
        for ci, (idx, comp) in enumerate(zip(builder.comps, comps)):
            levels = [] if comp is None else _seeded_component(
                comp, builder.algo, builder.edge_length,
                int(comp_seeds[2 * ci + side_index]), labeled, builder.n_init)
            blocks.append(trial_level_ids(levels, idx.size))
        out.append(trial_graft_ids(builder.G.n, builder.comps, blocks))
    return tuple(out)


def set_hierarchy(G, K, rng, dist_of, seed_vertices, n_init, max_iter,
                  finest=None) -> list[list[frozenset[int]]]:
    """Finest-to-coarsest medoid clustering on sets of original vertices.

    The frozenset form of the package's medoid hierarchy: every level is
    kept as a list of vertex sets, merged cluster by cluster through the
    units of the level below, and each coarse graph comes from
    ``coarse_grain_brute``.  G is undirected; ``finest`` is a list of
    sets.  Returns the level partitions coarsest first.
    """
    units = [frozenset([v]) for v in range(G.n)]
    current = G
    partitions: dict[int, list[frozenset[int]]] = {}
    for li in range(len(K), 0, -1):
        k = K[li - 1]
        if li == len(K) and finest is not None:
            coarse_groups = groups = finest
        else:
            dist = dist_of(current)
            seeds = seed_vertices if li == len(K) else None
            assign = seeded_medoid_partition(dist, k, rng, seeds, n_init,
                                             max_iter)
            coarse_units = [frozenset([u]) for u in range(current.n)]
            coarse_groups = _labels_to_groups(assign, coarse_units, k)
            groups = _labels_to_groups(assign, units, k)
        current = UndirectedGraph(coarse_grain_brute(
            current.to_dense(), coarse_groups, mirror=True))
        units = groups
        partitions[li] = groups
    return [partitions[li] for li in range(1, len(K) + 1)]


def shell_loop(k, base: int = 2) -> int:
    """Shell of an index pair: for each axis, multiply a cap by base
    until it exceeds ki, counting the steps; the larger count wins."""
    out = 0
    for ki in k:
        j, cap = 0, 1
        while cap < int(ki) + 1:
            cap *= base
            j += 1
        out = max(out, j)
    return out


def graded_lex_key(k) -> tuple[int, int]:
    """Sort key of graded lexicographic order: total degree, then k1."""
    return (k[0] + k[1], k[0])


def dict_filtered_synthesis(row, npts: int, coeffs: dict, h: dict,
                            mu=None) -> np.ndarray:
    """sum_k h(k) mu(k) c(k) (row k), accumulated key by key.

    The dict-keyed route: walk the coefficient dict in its own order,
    skip k outside supp h, form h[k] * mu[k] * c (mu = 1 if None), and
    add each nonzero product times ``row(k)`` to a zero vector.
    """
    out = np.zeros(npts)
    for k, c in coeffs.items():
        if h.get(k):
            w = h[k] * (1.0 if mu is None else mu[k]) * c
            if w:
                out += w * row(k)
    return out


def lp_degree_errors(engine, f) -> list[float]:
    """E_n(f) for every shell n = 0..max_shell, one minimax LP each.

    Solves min t subject to -t <= f - A c <= t over the kept rows of
    shells <= n (the 2N x (d + 1) inequality system, HiGHS), for every
    shell including the full-span top one and those after an exact
    zero: no shortcut, so it shows what each skipped LP would return.
    """
    f = np.asarray(f, dtype=float)
    return [float(_minimax_solve(A, f, f).fun) for A in span_tables(engine)]


def grouped_lp_degree_errors(engine, f) -> list[float]:
    """E_n(f) for every shell n = 0..max_shell, one minimax LP each,
    with one constraint pair per distinct grid row of the span
    (``grouped_minimax``).  Like ``lp_degree_errors``, it takes no
    shortcut at any shell.
    """
    f = np.asarray(f, dtype=float)
    return [grouped_minimax(A, f)[0] for A in span_tables(engine)]


def grouped_minimax(A: np.ndarray, f) -> tuple[float, np.ndarray]:
    """(min over c of max_i |f - A c|_i, the c found), by
    ``scipy.optimize.linprog(method="highs")`` with one constraint pair
    per distinct row of A.

    The points are grouped in a dict keyed by the bytes of their row of
    A; each group's pair is A_g c - t <= min f and -A_g c - t <= -max f
    over the group, and the groups go to HiGHS in the sorted order of
    their keys.
    """
    groups: dict[bytes, list[float]] = {}
    for row, value in zip(A, np.asarray(f, dtype=float)):
        groups.setdefault(row.tobytes(), []).append(float(value))
    keys = sorted(groups)
    rows = np.array([np.frombuffer(key) for key in keys])
    res = _minimax_solve(rows, [min(groups[key]) for key in keys],
                         [max(groups[key]) for key in keys])
    return float(res.fun), res.x[:-1]


def span_tables(engine) -> list[np.ndarray]:
    """A = the kept rows of shells <= n, one grid point a row, for every
    shell n = 0..max_shell."""
    return [np.vstack([engine.row(k) for k in engine.degree_span(n)]).T
            for n in range(engine.max_shell() + 1)]


def _minimax_solve(A, lows, highs):
    """min t subject to A c - t <= lows and -A c - t <= -highs, by HiGHS
    through ``scipy.optimize.linprog``; its result, (c, t) in ``x``."""
    npts, ncols = A.shape
    ones = np.ones((npts, 1))
    res = linprog(np.r_[np.zeros(ncols), 1.0],
                  A_ub=np.block([[A, -ones], [-A, -ones]]),
                  b_ub=np.concatenate([lows, np.negative(highs)]),
                  bounds=[(None, None)] * ncols + [(0, None)],
                  method="highs")
    assert res.success, res.message
    return res


def exact_cells(engine, n: int) -> list[tuple]:
    """Cell of each grid point at shell n, from exact values.

    A point's class on an axis is the tuple of its exact values of
    psi_k, k < base**n, read from the Fraction columns of
    ``axis_value_matrix``; its cell is the pair of its two classes.
    """
    top = engine.base ** n
    tables = [axis_value_matrix(b, engine.grid)[:top]
              for b in (engine.basis_es, engine.basis_os)]
    return [tuple(tuple(row[i] for row in t) for t in tables)
            for i in range(len(engine.grid))]


def cell_midrange_errors(engine, f) -> list[float]:
    """Largest cellwise (max f - min f) / 2 at every shell 0..max_shell.

    Cells come from ``exact_cells``; the extremes and their half
    difference are Fractions of the float signal, rounded to float once.
    On a shell whose degree span is the space of functions constant on
    cells this is E_n(f) (the best constant on a finite set is its
    midrange); on a span inside that space it is a lower bound, and on
    any other span it bounds nothing.
    """
    vals = [Fraction(float(x)) for x in f]
    out = []
    for n in range(engine.max_shell() + 1):
        extremes: dict[tuple, tuple[Fraction, Fraction]] = {}
        for cell, x in zip(exact_cells(engine, n), vals):
            lo, hi = extremes.get(cell, (x, x))
            extremes[cell] = (min(lo, x), max(hi, x))
        out.append(float(max((hi - lo) / 2 for lo, hi in extremes.values())))
    return out


def exact_rank(rows) -> int:
    """Rank over the rationals, by Fraction row reduction.

    Repeated columns are merged first and the scan stops at full column
    rank; neither changes the rank.
    """
    cols = list(dict.fromkeys(zip(*rows)))
    pivots: dict[int, list[Fraction]] = {}  # column -> row with 1 there
    for row in zip(*cols):
        if len(pivots) == len(cols):
            break
        r = [Fraction(a) for a in row]
        for col, piv in pivots.items():
            if r[col]:
                c = r[col]
                r = [a - c * b for a, b in zip(r, piv)]
        lead = next((i for i, a in enumerate(r) if a), None)
        if lead is not None:
            pivots[lead] = [a / r[lead] for a in r]
    return len(pivots)


def collapse_chains_fixpoint(tree) -> ClusterTree:
    """Single-child chains removed by merging parent and child until no
    merge applies, then levels recomputed as depth from the root: the
    repeat-until-stable route to ``filtration.collapse_chains``."""
    nodes = {nid: ClusterNode(n.id, n.level, n.parent, list(n.children),
                              n.members)
             for nid, n in tree.nodes.items()}
    changed = True
    while changed:
        changed = False
        for node in list(nodes.values()):
            if node.id not in nodes or len(node.children) != 1:
                continue
            child = nodes[node.children[0]]
            node.children = list(child.children)
            for gc in child.children:
                nodes[gc].parent = node.id
            del nodes[child.id]
            changed = True
    queue = [(tree.root, 0)]
    while queue:
        nid, depth = queue.pop()
        nodes[nid].level = depth
        queue.extend((c, depth + 1) for c in nodes[nid].children)
    return ClusterTree(nodes, tree.root)


def llo_by_depth_scan(filt) -> list[int]:
    """Root, then for each depth the non-leftmost children of that depth
    sorted by left endpoint, found by scanning every node once per depth:
    the per-depth route to ``filtration.llo_enumerate``."""
    order = [filt.root]
    for depth in range(1, filt.depth() + 1):
        level = [n for n in filt.nodes.values() if n.level == depth
                 and n.parent is not None
                 and filt.nodes[n.parent].children[0] != n.id]
        level.sort(key=lambda n: n.a)
        order.extend(n.id for n in level)
    return order
