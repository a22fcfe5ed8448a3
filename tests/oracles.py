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
from scipy.optimize import linprog, minimize
from scipy.special import logsumexp

from twintree.clustering import coarse_grain, medoid_partition


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


def coarse_grain_brute(W: np.ndarray, parts) -> np.ndarray:
    """Double-loop cluster-graph weights."""
    k = len(parts)
    out = np.zeros((k, k))
    for i, Pi in enumerate(parts):
        for j, Pj in enumerate(parts):
            out[i, j] = sum(W[u, v] for u in Pi for v in Pj)
    return out


def full_scan_gram(rows: np.ndarray, masses: np.ndarray,
                   drop_tol: float = 1e-9
                   ) -> tuple[np.ndarray, list[int], list[int]]:
    """Weighted modified Gram-Schmidt that tests every row.

    The same drop rule and two projection passes as the package, but the
    basis is re-stacked for every row and the scan never stops early, so
    a row after full rank is dropped only because its residual is small.
    """
    kept: list[int] = []
    dropped: list[int] = []
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
            dropped.append(i)
            continue
        kept.append(i)
        basis.append(r / norm)
    E = np.vstack(basis) if basis else np.zeros((0, rows.shape[1]))
    return E, kept, dropped


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


def set_hierarchy(G, K, rng, dist_of, seed_vertices, n_init, max_iter,
                  finest=None) -> list[list[frozenset[int]]]:
    """Finest-to-coarsest medoid clustering on sets of original vertices.

    The frozenset form of the package's medoid hierarchy: every level is
    kept as a list of vertex sets, merged cluster by cluster through the
    units of the level below.  ``finest`` is a list of sets.  Returns
    the level partitions coarsest first.
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
            assign = medoid_partition(dist, k, rng, seeds, n_init, max_iter)
            coarse_units = [frozenset([u]) for u in range(current.n)]
            coarse_groups = _labels_to_groups(assign, coarse_units, k)
            groups = _labels_to_groups(assign, units, k)
        current = coarse_grain(current, coarse_groups)
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
    out = []
    for n in range(engine.max_shell() + 1):
        A = np.vstack([engine.row(k) for k in engine.degree_span(n)]).T
        npts, ncols = A.shape
        ones = np.ones((npts, 1))
        res = linprog(np.r_[np.zeros(ncols), 1.0],
                      A_ub=np.block([[A, -ones], [-A, -ones]]),
                      b_ub=np.concatenate([f, -f]),
                      bounds=[(None, None)] * ncols + [(0, None)],
                      method="highs")
        assert res.success, res.message
        out.append(float(res.fun))
    return out
