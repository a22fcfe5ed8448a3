"""Bivariate analysis on the product of two filtrations.

Every vertex of the digraph owns one leaf interval in each of the twin
filtrations, hence one rectangle in the unit square; the set of those
rectangles (one per vertex, with mass = the product of the two leaf
masses, normalized to a probability measure by default) is the *grid*.
Functions on the digraph are functions on the grid's representative
points, and the products of the two univariate orthonormal systems,
restricted to those points, supply the analysis system.

The restriction is not automatically orthogonal — the grid occupies
only a sliver of the full product partition — so the module offers two
modes.  "exact" re-orthonormalizes the restricted products by modified
Gram-Schmidt in graded lexicographic order, dropping dependent rows
(the surviving index set is reported); every Parseval/projection
statement then holds to machine precision.  "idealized" keeps the raw
restricted products and reports their orthogonality defect instead.

Frequencies are pairs k = (k1, k2).  The dyadic shell of an index is
shell(k) = max over axes of ceil(log2(ki + 1)); the default partition
of unity is the crisp indicator split along shells (gap 0), and the
default differentiation multiplier is 2**(r * shell(k)).  Filtered
sums, mixed-difference variation (the four-term Hardy-Krause style
functional), best uniform approximation from shell spans, a discrete
K-functional, and the four-sequence smoothness profile complete the
toolbox.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .basis import TreeBasis
from .filtration import Filtration


# -- the grid ---------------------------------------------------------------


@dataclass
class GridPoint:
    vertex: int
    rect: tuple[Fraction, Fraction, Fraction, Fraction]  # x0, x1, y0, y1
    point: tuple[Fraction, Fraction]
    mass: Fraction


class GridSet:
    """One rectangle (and representative point) per vertex."""

    def __init__(self, points: list[GridPoint], normalized: bool,
                 raw_total: Fraction):
        self.points = points
        self.normalized = normalized
        self.raw_total = raw_total

    def __len__(self) -> int:
        return len(self.points)

    def masses(self) -> np.ndarray:
        return np.array([float(p.mass) for p in self.points])

    def total_mass(self) -> Fraction:
        return sum((p.mass for p in self.points), Fraction(0))


def build_grid(filt_es: Filtration, filt_os: Filtration,
               normalize: bool = True) -> GridSet:
    """Pair the leaf intervals of the twin filtrations vertex by vertex.

    The representative point of a rectangle is its center (lower-left
    corner plus half the cell size); the mass is the product of the two
    leaf masses, divided by the total when ``normalize`` is set so the
    grid carries a probability measure.
    """
    verts_es = set(filt_es.vertex_leaf)
    verts_os = set(filt_os.vertex_leaf)
    if verts_es != verts_os:
        raise ValueError("filtrations cover different vertex sets")
    points = []
    raw_total = Fraction(0)
    for v in sorted(verts_es):
        x0, x1 = filt_es.leaf_interval(v)
        y0, y1 = filt_os.leaf_interval(v)
        mass = (x1 - x0) * (y1 - y0)
        raw_total += mass
        points.append(GridPoint(
            vertex=v, rect=(x0, x1, y0, y1),
            point=(x0 + (x1 - x0) / 2, y0 + (y1 - y0) / 2),
            mass=mass))
    if normalize:
        for p in points:
            p.mass = p.mass / raw_total
    return GridSet(points, normalize, raw_total)


# -- frequencies --------------------------------------------------------------


def shell_array(k1, k2, base: int = 2) -> np.ndarray:
    """Shell of each index pair (k1[i], k2[i]): the number of powers
    base**j <= max(k1[i], k2[i]), i.e. max over axes of
    ceil(log_base(ki + 1)), counted in integer arithmetic."""
    if base < 2:
        raise ValueError("shell base must be at least 2")
    top = np.maximum(np.asarray(k1, dtype=np.int64),
                     np.asarray(k2, dtype=np.int64))
    out, cap = np.zeros(top.shape, dtype=np.int64), 1
    while (above := top >= cap).any():
        out += above
        cap *= base
    return out


def shell_index(k: tuple[int, int], base: int = 2) -> int:
    """Shell of an index pair: max over axes of ceil(log_base(ki + 1))."""
    return int(shell_array([int(k[0])], [int(k[1])], base)[0])


def graded_lex_key(k: tuple[int, int]) -> tuple[int, int]:
    return (k[0] + k[1], k[0])


class FrequencySet:
    """Nonvanishing tensor indices on a grid as graded-lex arrays k1, k2."""

    def __init__(self, omega, n1: int, n2: int):
        pairs = np.asarray(omega, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((pairs[:, 0], pairs[:, 0] + pairs[:, 1]))
        self.k1, self.k2 = pairs[order, 0], pairs[order, 1]
        self.n1, self.n2 = n1, n2

    @property
    def omega(self) -> list[tuple[int, int]]:
        return list(zip(self.k1.tolist(), self.k2.tolist()))

    def __len__(self) -> int:
        return len(self.k1)

    def __contains__(self, k) -> bool:
        return bool(np.any((self.k1 == k[0]) & (self.k2 == k[1])))

    def max_shell(self, base: int = 2) -> int:
        return int(shell_array(self.k1, self.k2, base).max())


def axis_value_matrix(basis: TreeBasis, grid: GridSet) -> list[list]:
    """Exact psi values at the grid points, along the basis's own axis.

    Row n, column i: the n-th function of ``basis`` on the leaf cell of
    ``basis.filtration`` that holds grid point i.
    """
    filt = basis.filtration
    cells = {leaf.id: j for j, leaf in enumerate(filt.leaves())}
    table = basis.value_table()
    cols = [cells[filt.vertex_leaf[p.vertex]] for p in grid.points]
    return [[table[n][c] for c in cols] for n in range(basis.size)]


def compute_omega(v1, v2) -> FrequencySet:
    """Indices whose tensor product survives restriction to the grid.

    Takes the two axis value matrices, exact or float; a product is kept
    iff some grid point carries a nonzero value of both factors.
    """
    b1, b2 = ((np.asarray(v) != 0).astype(float) for v in (v1, v2))
    return FrequencySet(np.argwhere(b1 @ b2.T > 0), len(v1), len(v2))


# -- orthonormalization --------------------------------------------------------


# Relative residual norm below which a row counts as dependent.
DROP_TOL = 1e-9


def gram_orthonormalize(rows: np.ndarray, masses: np.ndarray
                        ) -> tuple[np.ndarray, list[int], list[int]]:
    """Modified Gram-Schmidt under a weighted inner product.

    Rows are processed in order; a row whose residual norm falls below
    DROP_TOL * max(1, own norm) is dropped as dependent.  Two projection
    passes keep the result orthonormal to machine precision.  Returns
    (orthonormal rows, kept row indices, dropped row indices).

    The scan stops once as many rows are kept as there are columns and
    reports every later row as dropped.  That exit is exact: N rows
    orthonormal under the nu-weighted product force nu > 0 everywhere,
    so they span R^N, and every later residual is roundoff far below
    DROP_TOL.
    """
    rows = np.asarray(rows, dtype=float)
    ncols = rows.shape[1]
    E = np.empty((ncols, ncols))
    kept: list[int] = []
    dropped: list[int] = []
    for i, row in enumerate(rows):
        if len(kept) == ncols:
            dropped.extend(range(i, len(rows)))
            break
        basis = E[:len(kept)]
        r = row.copy()
        own = math.sqrt(float((row * row * masses).sum()))
        for _ in range(2):
            coef = basis @ (r * masses)
            r = r - coef @ basis
        norm = math.sqrt(float((r * r * masses).sum()))
        if norm <= DROP_TOL * max(1.0, own):
            dropped.append(i)
            continue
        E[len(kept)] = r / norm
        kept.append(i)
    return E[:len(kept)], kept, dropped


# -- partitions of unity --------------------------------------------------------


@dataclass
class PartitionOfUnity:
    """Finitely many nonnegative shell weights summing to 1 on the
    index set, with supports that overlap only within the gap m_star
    and reach no higher than shell j + m_star."""
    shells: list[dict[tuple[int, int], float]]
    m_star: int = 0
    base: int = 2

    def n_shells(self) -> int:
        return len(self.shells)

    def g(self, j: int) -> dict[tuple[int, int], float]:
        return self.shells[j] if 0 <= j < len(self.shells) else {}

    def head(self, n: int) -> dict[tuple[int, int], float]:
        """H_n = g_0 + ... + g_n."""
        out: dict[tuple[int, int], float] = {}
        for j in range(min(n, len(self.shells) - 1) + 1):
            for k, v in self.shells[j].items():
                out[k] = out.get(k, 0.0) + v
        return out

    def validate(self, freqs: FrequencySet) -> None:
        if self.shells and self.shells[0].get((0, 0), 0.0) != 1.0:
            raise ValueError("the first shell must fix the constant index")
        supports = [frozenset(k for k, v in g.items() if v > 0.0)
                    for g in self.shells]
        for j, supp in enumerate(supports):
            for k in supp:
                if not 0.0 <= self.shells[j][k] <= 1.0:
                    raise ValueError(f"shell {j} leaves [0, 1] at {k}")
                if shell_index(k, self.base) > j + self.m_star:
                    raise ValueError(
                        f"shell {j} reaches index {k} above its band")
            for j2 in range(j + self.m_star + 1, len(supports)):
                if supp & supports[j2]:
                    raise ValueError(
                        f"shells {j} and {j2} overlap beyond gap "
                        f"{self.m_star}")
        total = self.head(len(self.shells) - 1)
        for k in freqs.omega:
            if abs(total.get(k, 0.0) - 1.0) > 1e-12:
                raise ValueError(f"shells do not sum to 1 at {k}")


def default_partition(freqs: FrequencySet, base: int = 2
                      ) -> PartitionOfUnity:
    """Crisp split: shell j holds exactly the indices with shell j
    (valid by construction, so ``validate`` is not run)."""
    shell = shell_array(freqs.k1, freqs.k2, base)
    parts: list[dict] = [{} for _ in range(int(shell.max()) + 1)]
    for k, j in zip(freqs.omega, shell.tolist()):
        parts[j][k] = 1.0
    return PartitionOfUnity(parts, m_star=0, base=base)


def box_filter(n: int, base: int = 2) -> dict[tuple[int, int], float]:
    """Indicator of the full lower-left shell box {shell(k) <= n}.

    This is the canonical materialization of the head H_n as a filter
    sequence on the whole quadrant: its variation is exactly 4 for
    every n >= 0, and filtering with it equals filtering with the
    index-set-restricted head (the extra indices carry no
    coefficients).  n < 0 gives the empty filter.
    """
    if n < 0:
        return {}
    top = base ** n
    return {(a, b): 1.0 for a in range(top) for b in range(top)}


# -- multipliers -----------------------------------------------------------------


@dataclass
class MultiplierSequence:
    """The positive symbol base**(order * shell(k)), computed per index."""
    order: float
    base: int = 2

    def __getitem__(self, k) -> float:
        return float(self.base) ** (self.order * shell_index(k, self.base))

    def restricted(self, g: dict) -> dict:
        return {k: self[k] for k, v in g.items() if v > 0.0}

    def inverse_restricted(self, g: dict) -> dict:
        return {k: 1.0 / self[k] for k, v in g.items() if v > 0.0}


class MultiplierError(ValueError):
    """The symbol underflows to 0 or overflows somewhere it is needed."""


def default_multiplier(freqs: FrequencySet, order: float = 1.0,
                       base: int = 2) -> MultiplierSequence:
    """The shellwise symbol base**(order * shell(k)) of the index set.

    The symbol must be positive and finite on the dilation of the index
    set by the sup-ball of radius 2, which holds every +-1 neighbor that
    summation by parts shifts to.  It is monotone in the shell, and each
    axis shell grows with that axis's index, so shell 0 and the shell of
    (max k1 + 2, max k2 + 2) bound it there.
    """
    mu = MultiplierSequence(order, base)
    top = (int(freqs.k1.max()) + 2, int(freqs.k2.max()) + 2)
    for k in ((0, 0), top):
        try:
            value = mu[k]
        except OverflowError:
            value = math.inf
        if not 0.0 < value < math.inf:
            raise MultiplierError(
                f"multiplier must be positive and finite at {k}, got {value}")
    return mu


# -- mixed-difference variation ---------------------------------------------------


def variation_2d(h) -> float:
    """Four-term variation of a finitely supported bivariate sequence.

    sup |h|  +  sup over rows of the column-jump sum  +  sup over
    columns of the row-jump sum  +  the total mixed-difference mass.
    The sequence is zero outside its support, so drops at the far edges
    count.  The indicator of a full rectangle scores exactly 4.
    """
    arr = _to_padded_array(h)
    if arr.size == 0 or not np.any(arr):
        return 0.0
    sup = float(np.max(np.abs(arr)))
    d2 = np.abs(np.diff(arr, axis=1)).sum(axis=1)
    d1 = np.abs(np.diff(arr, axis=0)).sum(axis=0)
    mixed = np.abs(np.diff(np.diff(arr, axis=0), axis=1)).sum()
    return sup + float(d2.max()) + float(d1.max()) + float(mixed)


def _to_padded_array(h) -> np.ndarray:
    if isinstance(h, dict):
        if not h:
            return np.zeros((1, 1))
        arr = np.zeros((max(k[0] for k in h) + 2, max(k[1] for k in h) + 2))
        for (k1, k2), v in h.items():
            arr[k1, k2] = float(v)
        return arr
    arr = np.asarray(h, dtype=float)
    return np.pad(arr, ((0, 1), (0, 1)))


# -- the analysis engine ------------------------------------------------------------


class GridAnalysis:
    """Tensor system restricted to a grid, ready for expansion work.

    mode="exact" (default) re-orthonormalizes the restricted products
    and exposes a genuinely orthonormal discrete system (surviving
    indices in ``active``); mode="idealized" keeps the raw restricted
    products of the orthonormalized univariate functions and reports
    their orthogonality defect.

    The shells of Omega (``omega_shell``) and of the kept rows are
    computed once per build; heads, blocks, degree spans and multiplier
    symbols are masks or per-shell scales of one coefficient array.
    """

    def __init__(self, grid: GridSet, basis_es: TreeBasis,
                 basis_os: TreeBasis, mode: str = "exact",
                 partition_base: int = 2):
        if mode not in ("exact", "idealized"):
            raise ValueError(f"unknown mode {mode!r}")
        self.grid = grid
        self.basis_es = basis_es
        self.basis_os = basis_os
        self.mode = mode
        self.base = partition_base
        self.nu = grid.masses()
        if abs(self.nu.sum() - 1.0) > 1e-9 and grid.normalized:
            raise AssertionError("normalized grid mass must be 1")

        # float value tables, row n scaled by sqrt(aleph(n))
        self._v1, self._v2 = (
            np.array(axis_value_matrix(b, grid), dtype=float)
            * np.sqrt([float(b.aleph(n)) for n in range(b.size)])[:, None]
            for b in (basis_es, basis_os))
        self.freqs = compute_omega(self._v1, self._v2)
        k1, k2 = self.freqs.k1, self.freqs.k2
        self._raw = raw = self._v1[k1]
        for s in range(0, len(k1), 1024):  # no second |Omega| x N temporary
            raw[s:s + 1024] *= self._v2[k2[s:s + 1024]]
        if mode == "exact":
            self._rows, kept, dropped = gram_orthonormalize(raw, self.nu)
        else:
            self._rows, kept, dropped = raw, list(range(len(k1))), []
        omega = self.freqs.omega
        self.active = [omega[i] for i in kept]
        self.dropped = [omega[i] for i in dropped]
        self._index = {k: i for i, k in enumerate(self.active)}
        self.omega_shell = shell_array(k1, k2, self.base)
        self._shell = self.omega_shell[kept]

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def partition(self) -> PartitionOfUnity:
        """The crisp default partition of Omega, built afresh per access;
        sigma and tau apply it as masks of the shell array."""
        return default_partition(self.freqs, self.base)

    def row(self, k) -> np.ndarray:
        return self._rows[self._index[tuple(k)]]

    def max_shell(self) -> int:
        return int(self._shell.max())

    def orthogonality_defect(self) -> float:
        """Max deviation of the working system's Gram matrix from I."""
        G = (self._rows * self.nu) @ self._rows.T
        return float(np.max(np.abs(G - np.eye(len(G)))))

    # -- norms ------------------------------------------------------------

    def sup_norm(self, fvals: np.ndarray) -> float:
        return float(np.max(np.abs(fvals))) if len(fvals) else 0.0

    def l2_norm(self, fvals: np.ndarray) -> float:
        return math.sqrt(float((fvals * fvals * self.nu).sum()))

    # -- expansions ---------------------------------------------------------

    def _coef(self, fvals: np.ndarray) -> np.ndarray:
        """Coefficients against the working system, one per kept row."""
        fvals = np.asarray(fvals, dtype=float)
        if fvals.shape != (len(self.grid),):
            raise ValueError("need one value per grid point")
        return self._rows @ (fvals * self.nu)

    def _synth(self, w: np.ndarray) -> np.ndarray:
        """sum_i w[i] (kept row i) over the nonzero w[i], in kept-row order."""
        out = np.zeros(len(self.grid))
        for i in np.flatnonzero(w):
            out += w[i] * self._rows[i]
        return out

    def _symbol(self, mu: MultiplierSequence) -> np.ndarray:
        """mu on the kept rows, one power of mu.base per shell."""
        shell = (self._shell if mu.base == self.base
                 else shell_array(*np.array(self.active).T, mu.base))
        return np.array([float(mu.base) ** (mu.order * j)
                         for j in range(int(shell.max()) + 1)])[shell]

    def analyze(self, fvals: np.ndarray) -> dict[tuple[int, int], float]:
        """Coefficients of a grid function against the working system."""
        return dict(zip(self.active, self._coef(fvals).tolist()))

    def synthesize(self, coeffs: dict[tuple[int, int], float]) -> np.ndarray:
        out = np.zeros(len(self.grid))
        for k, c in coeffs.items():
            if c:
                out += c * self._rows[self._index[tuple(k)]]
        return out

    def filtered_sum(self, h: dict[tuple[int, int], float],
                     fvals: np.ndarray) -> np.ndarray:
        """sum_k h(k) f_hat(k) (working function at k), over supp h."""
        coef = self._coef(fvals)
        hk = np.array([h.get(k, 0.0) for k in self.active], dtype=float)
        return self._synth(np.multiply(hk, coef, out=np.zeros_like(coef),
                                       where=hk != 0))

    def rectangle_partial_sum(self, coeffs: dict, m: tuple[int, int]
                              ) -> np.ndarray:
        """Truncation to indices k <= m componentwise."""
        return self.synthesize({k: c for k, c in coeffs.items()
                                if k[0] <= m[0] and k[1] <= m[1]})

    # -- graded approximation ------------------------------------------------

    def sigma(self, fvals: np.ndarray, n: int) -> np.ndarray:
        """Filtered sum with the head H_n of the partition of unity."""
        return self._synth(np.where(self._shell <= n, self._coef(fvals), 0.0))

    def tau(self, fvals: np.ndarray, j: int) -> np.ndarray:
        """Block j of the graded decomposition (sigma_j - sigma_{j-1})."""
        return self._synth(np.where(self._shell == j, self._coef(fvals), 0.0))

    def degree_span(self, n: int) -> list[tuple[int, int]]:
        """Active indices reached by the head H_n."""
        return [k for k, j in zip(self.active, self._shell.tolist()) if j <= n]

    def best_uniform_approx(self, fvals: np.ndarray, n: int
                            ) -> tuple[float, np.ndarray]:
        """Sup-norm distance to the degree-n span, by linear program.

        Returns (distance, best approximant's grid values).  In exact
        mode a span of as many kept rows as there are grid points needs
        no LP: those rows are nu-orthonormal, so they span R^N and f
        itself is the best approximant, at distance exactly 0.
        """
        fvals = np.asarray(fvals, dtype=float)
        span = self._shell <= n
        if not span.any():
            return self.sup_norm(fvals), np.zeros(len(self.grid))
        if self.mode == "exact" and span.sum() == len(self.grid) == len(fvals):
            return 0.0, fvals.copy()
        A = self._rows[span].T
        npts, ncols = A.shape
        A_ub = np.block([[A, -np.ones((npts, 1))],
                         [-A, -np.ones((npts, 1))]])
        b_ub = np.concatenate([fvals, -fvals])
        cost = np.zeros(ncols + 1)
        cost[-1] = 1.0
        bounds = [(None, None)] * ncols + [(0, None)]
        res = linprog(cost, A_ub=A_ub, b_ub=b_ub, bounds=bounds,
                      method="highs")
        if not res.success:
            raise RuntimeError(f"minimax LP failed: {res.message}")
        return float(res.fun), A @ res.x[:ncols]

    # -- differentiation -------------------------------------------------------

    def derivative(self, fvals: np.ndarray, mu: MultiplierSequence
                   ) -> np.ndarray:
        """Coefficientwise action of a multiplier symbol."""
        return self._synth(self._symbol(mu) * self._coef(fvals))

    def k_functional(self, fvals: np.ndarray, delta: float,
                     mu: MultiplierSequence) -> float:
        """Best trade-off ||f - g|| + delta^r ||Dg|| over graded candidates.

        Candidates are g = 0 and the graded projections sigma_n; this is
        an upper bound for the true infimum and the standard computable
        surrogate.  Nondecreasing in delta by construction.
        """
        fvals = np.asarray(fvals, dtype=float)
        terms = self._graded_terms(fvals, self._coef(fvals), mu)
        return self._k_best(fvals, terms, delta, mu.order)

    def _graded_terms(self, fvals: np.ndarray, coef: np.ndarray,
                      mu: MultiplierSequence) -> list[tuple[float, float]]:
        """(||f - sigma_n||, ||D sigma_n||) in the sup norm, shell by shell."""
        scaled = self._symbol(mu) * coef
        out = []
        for n in range(self.max_shell() + 1):
            head = self._shell <= n
            out.append(
                (self.sup_norm(fvals - self._synth(np.where(head, coef, 0.0))),
                 self.sup_norm(self._synth(np.where(head, scaled, 0.0)))))
        return out

    def _k_best(self, fvals: np.ndarray, terms: list[tuple[float, float]],
                delta: float, r: float) -> float:
        return min([self.sup_norm(fvals)]
                   + [err + delta ** r * dnorm for err, dnorm in terms])

    # -- smoothness --------------------------------------------------------------

    def smoothness_profile(self, fvals: np.ndarray, order: float = 1.0
                           ) -> "SmoothnessReport":
        """Fit the decay exponent of the four graded error sequences.

        Every sequence is measured in the sup norm, which the report
        records as rho = inf.  The degree spans are nested and E_n >= 0,
        so once one shell's degree error is exactly 0 every later one is
        0 as well and gets no LP (nor does the full-span top shell in
        exact mode, see best_uniform_approx).
        """
        fvals = np.asarray(fvals, dtype=float)
        mu = default_multiplier(self.freqs, order, self.base)
        coef = self._coef(fvals)
        terms = self._graded_terms(fvals, coef, mu)
        top = range(len(terms))
        degree: list[float] = []
        for n in top:
            degree.append(0.0 if degree and degree[-1] == 0.0
                          else self.best_uniform_approx(fvals, n)[0])
        seqs: dict[str, list[float]] = {
            "degree_error": degree,
            "projection_error": [err for err, _ in terms],
            "block_norm": [self.sup_norm(self._synth(
                               np.where(self._shell == n, coef, 0.0)))
                           for n in top],
            "k_functional": [self._k_best(fvals, terms,
                                          float(self.base) ** (-n), order)
                             for n in top]}
        gamma: dict[str, Optional[float]] = {}
        fit_points: dict[str, list[int]] = {}
        for name, ys in seqs.items():
            xs = fit_points[name] = [j for j, y in enumerate(ys) if y > 1e-13]
            gamma[name] = None
            if len(xs) >= 3:
                ly = np.log([ys[j] for j in xs]) / math.log(self.base)
                gamma[name] = float(-np.polyfit(np.array(xs, dtype=float),
                                                ly, 1)[0])
        insufficient = any(v is None for v in gamma.values())
        return SmoothnessReport(gamma=gamma, sequences=seqs,
                                fit_points=fit_points,
                                order=order, insufficient=insufficient)


@dataclass
class SmoothnessReport:
    """Fitted decay exponents of the four graded sequences."""
    gamma: dict[str, Optional[float]]
    sequences: dict[str, list[float]]
    fit_points: dict[str, list[int]]
    order: float
    insufficient: bool

    def spread(self) -> Optional[float]:
        """Max minus min of the fitted exponents; None if any is missing."""
        vals = [v for v in self.gamma.values() if v is not None]
        if len(vals) < len(self.gamma):
            return None
        return max(vals) - min(vals)

    def to_json_dict(self) -> dict:
        spread = self.spread()
        return {
            "gamma": {k: (None if v is None else float(v))
                      for k, v in self.gamma.items()},
            "gamma_spread": None if spread is None else float(spread),
            "sequences": {k: [float(x) for x in v]
                          for k, v in self.sequences.items()},
            "fit_points": self.fit_points,
            "rho": "inf",
            "order": float(self.order),
            "insufficient_resolution": bool(self.insufficient),
        }

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")
