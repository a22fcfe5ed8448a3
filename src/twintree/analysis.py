"""Bivariate analysis on the product of two filtrations.

Every vertex of the digraph owns one leaf interval in each of the twin
filtrations, hence one rectangle in the unit square; the set of those
rectangles (one per vertex, with mass = the product of the two leaf
masses, normalized to a probability measure by default) is the *grid*.
Functions on the digraph are functions on the grid's representative
points, and the products of the two univariate orthonormal systems,
restricted to those points, supply the analysis system.

The restriction is not automatically orthogonal — the grid occupies
only a sliver of the full product partition — so the engine
re-orthonormalizes the restricted products by modified Gram-Schmidt in
graded lexicographic order, dropping dependent rows (the surviving
index set is reported); every Parseval/projection statement then holds
to machine precision.

Frequencies are pairs k = (k1, k2).  The dyadic shell of an index is
shell(k) = max over axes of ceil(log2(ki + 1)).  The graded
operators split Omega crisply along shells: the head of degree n keeps
the indices of shell <= n and block j those of shell exactly j, each
applied as a mask of the shell array.  The default differentiation
multiplier is 2**(r * shell(k)).  Filtered sums, mixed-difference
variation (the four-term Hardy-Krause style functional), best uniform
approximation from shell spans, and the four-sequence smoothness
profile (whose last sequence is a discrete K-functional) complete the
toolbox.  Each axis's functions are held on the grid points as one
float table, whose signs decide Omega and the cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .basis import TreeBasis, linprog, minimax_answer, minimax_lp
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


def build_grid(filt_es: Filtration, filt_os: Filtration,
               normalize: bool = True) -> GridSet:
    """Pair the leaf intervals of the twin filtrations vertex by vertex.

    The representative point of a rectangle is its center (lower-left
    corner plus half the cell size); the mass is the product of the two
    leaf masses, divided by the total when ``normalize`` is set so the
    grid carries a probability measure.
    """
    if filt_es.vertices() != filt_os.vertices():
        raise ValueError("filtrations cover different vertex sets")
    points = []
    raw_total = Fraction(0)
    for v in sorted(filt_es.vertices()):
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


class FrequencySet:
    """Nonvanishing tensor indices on a grid as graded-lex arrays k1, k2."""

    def __init__(self, omega):
        pairs = np.asarray(omega, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((pairs[:, 0], pairs[:, 0] + pairs[:, 1]))
        self.k1, self.k2 = pairs[order, 0], pairs[order, 1]

    @property
    def omega(self) -> list[tuple[int, int]]:
        return list(zip(self.k1.tolist(), self.k2.tolist()))

    def __len__(self) -> int:
        return len(self.k1)

    def __contains__(self, k) -> bool:
        return bool(np.any((self.k1 == k[0]) & (self.k2 == k[1])))


def _axis_tables(basis: TreeBasis, grid: GridSet) -> np.ndarray:
    """Float values of every psi_n at the grid points.

    Row n, column i: psi_n of ``basis`` on the leaf cell of
    ``basis.filtration`` that holds grid point i, scaled by
    sqrt(aleph(n)).  The values come from ``basis.cell_table()``, the
    float of every exact value with +0.0 for the zeros.  The scale is
    positive and finite and up and down are always > 0, so the sign of
    each entry is the sign of its exact value: Omega and the cell
    classes read the signs off this one table.
    """
    table = basis.cell_table()
    table *= np.sqrt([float(r[5]) for r in basis.value_table()])[:, None]
    filt = basis.filtration
    cells = {leaf.id: j for j, leaf in enumerate(filt.leaves())}
    cols = [cells[filt.leaf_of_vertex(p.vertex)] for p in grid.points]
    return table[:, cols]


def compute_omega(v1, v2) -> FrequencySet:
    """Indices whose tensor product survives restriction to the grid.

    Takes one table per axis whose nonzero entries are the supports of
    its functions on the grid points (the engine passes its float
    tables; exact value tables serve too); a product is kept iff some
    grid point carries a nonzero value of both factors.
    """
    b1, b2 = ((np.asarray(v) != 0).astype(float) for v in (v1, v2))
    return FrequencySet(np.argwhere(b1 @ b2.T > 0))


# -- orthonormalization --------------------------------------------------------


# Relative residual norm below which a row counts as dependent.
DROP_TOL = 1e-9

# Rows per block of the rank scan's GEMM prefilter.
SCAN_BLOCK = 256


class TensorRows:
    """The restricted tensor products of Omega, made per request.

    ``rows[idx]``, for an int, a slice or an index array, is
    ``v1[k1[idx]] * v2[k2[idx]]``: the same elementwise products, bit
    for bit, as the rows of one |Omega| x N matrix of them, without
    ever storing that matrix.  ``gram_orthonormalize`` reads its scan
    blocks by slice and each row it decides alone by int; a float
    matrix serves the same indexing, so it takes either.
    """

    def __init__(self, v1: np.ndarray, v2: np.ndarray, k1: np.ndarray,
                 k2: np.ndarray):
        self._v1, self._v2, self._k1, self._k2 = v1, v2, k1, k2
        self.shape = (len(k1), v1.shape[1])

    def __getitem__(self, idx) -> np.ndarray:
        return self._v1[self._k1[idx]] * self._v2[self._k2[idx]]


def gram_orthonormalize(rows, masses: np.ndarray
                        ) -> tuple[np.ndarray, list[int]]:
    """Modified Gram-Schmidt under a weighted inner product.

    ``rows`` is a float matrix or a ``TensorRows``; it is only read by
    index, so a ``TensorRows`` is never formed whole.  Rows are
    processed in order; a row whose residual norm falls below
    DROP_TOL * max(1, own norm) is dropped as dependent.  This rule
    projects each row it decides twice, which keeps the result
    orthonormal to machine precision.  Returns (orthonormal rows, kept
    row indices); every other row is dropped.

    The scan stops once as many rows are kept as there are columns, so
    every later row is dropped.  That exit is exact: N rows
    orthonormal under the nu-weighted product force nu > 0 everywhere,
    so they span R^N, and every later residual is roundoff far below
    DROP_TOL.

    One loop takes the rows SCAN_BLOCK at a time, reading each block
    only when the scan reaches it.  Two filters, in sqrt(masses)-scaled
    coordinates where the weighted products are plain dot products,
    skip most dependent rows cheaply: the block is projected once onto
    the complement of the rows kept so far (a scaled copy of E), with two
    GEMMs, and each remaining candidate onto the rows its block has kept.
    Projecting out more rows can only shrink a residual, so, up to
    roundoff, the filters drop only rows the rule above drops.  A
    candidate that passes both is read again, alone, and decided by the
    rule itself with its two passes against E, so E is bit for bit the
    E of one per-row loop over every row.
    """
    nrows, ncols = rows.shape
    w = np.sqrt(masses)
    E, scaled = np.empty((ncols, ncols)), np.empty((ncols, ncols))
    kept: list[int] = []
    for s in range(0, nrows, SCAN_BLOCK):
        start = len(kept)
        if start == ncols:
            break
        R = rows[s:s + SCAN_BLOCK] * w
        tol = DROP_TOL * np.maximum(1.0, np.sqrt(np.einsum("ij,ij->i", R, R)))
        basis = scaled[:start]
        R -= (R @ basis.T) @ basis
        live = np.sqrt(np.einsum("ij,ij->i", R, R)) > tol
        R, tol, place = R[live], tol[live], s + np.flatnonzero(live)
        for r, t, i in zip(R, tol.tolist(), place.tolist()):
            new = scaled[start:len(kept)]
            for _ in range(2):
                r = r - (new @ r) @ new
            if math.sqrt(r @ r) <= t:
                continue
            n, row = len(kept), rows[i]
            basis, r = E[:n], row
            own = math.sqrt(float((row * row * masses).sum()))
            for _ in range(2):
                coef = basis @ (r * masses)
                r = r - coef @ basis
            norm = math.sqrt(float((r * r * masses).sum()))
            if norm <= DROP_TOL * max(1.0, own):
                continue
            E[n] = r / norm
            scaled[n] = E[n] * w
            kept.append(i)
            if len(kept) == ncols:
                break
    return E[:len(kept)], kept


def box_filter(n: int, base: int = 2) -> dict[tuple[int, int], float]:
    """Indicator of the full lower-left shell box {shell(k) <= n}.

    This is the head of degree n (the indices of shell <= n) as a
    filter sequence on the whole quadrant: its variation is exactly 4
    for every n >= 0, and filtering with it equals ``sigma`` (the extra
    indices carry no coefficients).  n < 0 gives the empty filter.
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
    """Orthonormal tensor system restricted to a grid, ready for
    expansion work.

    The restricted products are re-orthonormalized into a genuinely
    orthonormal discrete system: surviving indices in ``active``, and as
    a mask over Omega in ``is_active``.

    Each axis's functions are held on the grid points as one float
    table, made from ``TreeBasis.cell_table``, the floats of the exact
    records of ``TreeBasis.value_table``, and scaled by sqrt(aleph) (see
    ``_axis_tables``).  Its products are the raw rows, and its signs,
    which are the exact values' signs, decide Omega and the cell classes
    below.  No N x N table of Fractions is built.

    The raw rows are never stored: ``TensorRows`` forms each scan block
    of them, and each row the scan decides on its own, from the two
    float tables when they are read, so the build needs O(N^2) memory
    plus O(|Omega|) index arrays.

    The shells of Omega (``omega_shell``) and of the kept rows are
    computed once per build; heads, blocks, degree spans and multiplier
    symbols are masks or per-shell scales of one coefficient array.

    The build keeps exactly N = len(grid) rows.  Every grid point owns
    a singleton leaf of each tree (``build_grid`` pairs only those, and
    loaded trees end in singleton leaves), and each basis spans its
    tree's leaf-measurable functions, so each axis value table has rank
    N on the grid.  psi_0 is a nonzero constant, so every nonzero row
    k1 of the first table puts (k1, 0) in Omega, and those rows alone
    span R^N.  The build raises AssertionError, naming both counts, if
    the float rank scan ever keeps fewer.

    E_n is answered without an LP on a *cell shell*.  An axis class at
    level n is a sign pattern of the prefix {psi_k : k < base**n} on the
    grid points, read from the float table's signs (each psi_k, k > 0,
    takes one positive value, one negative value and 0, so its signs
    decide its values); a cell is the set of grid points that share
    their classes on both axes.  Shell n is a cell shell when, in integers,
      - the kept rows of shell <= n are the first d kept rows.
        Gram-Schmidt keeps the span of every prefix, so those rows span
        the same space as d raw products with k1, k2 < base**n, and each
        such product is constant on cells;
      - d equals the number of occupied cells, the dimension of the
        functions constant on cells.
    The degree-n span is then exactly that space, and E_n(f) is the
    largest cellwise (max f - min f) / 2; it, and what is derived from
    it (the degree error, its ratio and the smoothness sequences), may
    differ from the LP's value in the last bits.  Each shell is decided
    on first use and kept, so the build does no extra work.

    Every other shell below the top solves ``basis.minimax_lp``, which
    gives HiGHS one pair of constraints per distinct grid row of the
    span (grid points whose rows are bitwise equal share it), not one
    per grid point.  The feasible set and optimum are those of the
    2N-row LP, but HiGHS may reach it by another path, so an LP shell's
    E_n may differ from the 2N-row LP's in the last bits, as a cell
    shell's may.
    """

    def __init__(self, grid: GridSet, basis_es: TreeBasis,
                 basis_os: TreeBasis, partition_base: int = 2):
        self.grid = grid
        self.basis_es = basis_es
        self.basis_os = basis_os
        self.base = partition_base
        self.nu = grid.masses()
        if abs(self.nu.sum() - 1.0) > 1e-9 and grid.normalized:
            raise AssertionError("normalized grid mass must be 1")

        # float tables scaled by sqrt(aleph(n)), with the exact signs
        self._v1, self._v2 = (_axis_tables(b, grid)
                              for b in (basis_es, basis_os))
        self.freqs = compute_omega(self._v1, self._v2)
        k1, k2 = self.freqs.k1, self.freqs.k2
        self._rows, kept = gram_orthonormalize(
            TensorRows(self._v1, self._v2, k1, k2), self.nu)
        if len(kept) < len(grid):
            raise AssertionError(
                f"the rank scan kept {len(kept)} rows for {len(grid)} grid "
                "points; their span must be all of R^N")
        self.is_active = np.zeros(len(k1), dtype=bool)
        self.is_active[kept] = True
        self.active = list(zip(k1[kept].tolist(), k2[kept].tolist()))
        self._index = {k: i for i, k in enumerate(self.active)}
        self.omega_shell = shell_array(k1, k2, self.base)
        self._shell = self.omega_shell[kept]
        self._cell_memo: dict[int, Optional[np.ndarray]] = {}

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def dropped(self) -> list[tuple[int, int]]:
        """The indices of Omega outside ``active``, in Omega order, made
        on each access from ``is_active`` rather than kept."""
        gone = ~self.is_active
        return list(zip(self.freqs.k1[gone].tolist(),
                        self.freqs.k2[gone].tolist()))

    def row(self, k) -> np.ndarray:
        return self._rows[self._index[tuple(k)]]

    def max_shell(self) -> int:
        return int(self._shell.max())

    def orthogonality_defect(self) -> float:
        """Max deviation of the system's N x N Gram matrix from I."""
        G = (self._rows * self.nu) @ self._rows.T
        G[np.diag_indices_from(G)] -= 1.0
        return max(float(G.max()), -float(G.min()))

    # -- norms ------------------------------------------------------------

    def sup_norm(self, fvals: np.ndarray) -> float:
        return float(np.max(np.abs(fvals))) if len(fvals) else 0.0

    def l2_norm(self, fvals: np.ndarray) -> float:
        return math.sqrt(float((fvals * fvals * self.nu).sum()))

    # -- expansions ---------------------------------------------------------

    def _coef(self, fvals: np.ndarray) -> np.ndarray:
        """Coefficients against the working system, one per kept row.
        Every method that takes a signal reads it through here or
        ``_finite``, so a non-finite value is a ValueError naming its
        grid point."""
        return self._rows @ (self._finite(fvals) * self.nu)

    def _synth(self, w: np.ndarray) -> np.ndarray:
        """sum_i w[i] (kept row i), added one row after another in kept-row
        order onto +0.0: np.add.reduce along axis 0 adds the rows of the
        terms array in order.  A zero w[i] adds only zeros, so the sum is
        bit for bit that over the nonzero w[i]."""
        terms = np.zeros((len(w) + 1, self._rows.shape[1]))
        np.multiply(w[:, None], self._rows, out=terms[1:])
        return np.add.reduce(terms, axis=0)

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
        """sum_k c(k) (working function at k), added in kept-row order
        (see ``_synth``), so for a dict in that order, such as
        ``analyze``'s, the same bits as adding key by key.  A key that is
        not an active index is a KeyError."""
        w = np.zeros(len(self.active))
        w[[self._index[tuple(k)] for k in coeffs]] = list(coeffs.values())
        return self._synth(w)

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
        """Filtered sum with the head of degree n: the coefficients of
        shell <= n."""
        return self._synth(np.where(self._shell <= n, self._coef(fvals), 0.0))

    def tau(self, fvals: np.ndarray, j: int) -> np.ndarray:
        """Block j of the graded decomposition (sigma_j - sigma_{j-1})."""
        return self._synth(np.where(self._shell == j, self._coef(fvals), 0.0))

    def degree_span(self, n: int) -> list[tuple[int, int]]:
        """Active indices of shell <= n, the head of degree n."""
        return [k for k, j in zip(self.active, self._shell.tolist()) if j <= n]

    def _finite(self, fvals: np.ndarray) -> np.ndarray:
        """One finite float per grid point, else a ValueError naming the
        first grid point whose value is not finite."""
        fvals = np.asarray(fvals, dtype=float)
        if fvals.shape != (len(self.grid),):
            raise ValueError("need one value per grid point")
        bad = np.flatnonzero(~np.isfinite(fvals))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"signal value {fvals[i]} at grid point {i} "
                             f"(vertex {self.grid.points[i].vertex}) is "
                             "not finite")
        return fvals

    def _cells(self, n: int) -> Optional[np.ndarray]:
        """Cell index per grid point if shell n is a cell shell, else None.

        Decided on the first call for each shell and kept.  See the class
        docstring for the two integer tests.
        """
        if n not in self._cell_memo:
            span = self._shell <= n
            d = int(span.sum())
            cells = None
            if span[:d].all():
                top = self.base ** n
                # a point's class on an axis is its column of signs,
                # one byte each, coded 0, 1, 2 so that bytewise order is
                # numeric order: the numbering of np.unique(axis=1),
                # whose sort of a structured view costs several times
                # as much
                axes = []
                for v in (self._v1, self._v2):
                    codes = np.ascontiguousarray((np.sign(v[:top]) + 1).T,
                                                 dtype=np.uint8)
                    keys = codes.view(np.dtype((np.void, codes.shape[1])))
                    axes.append(np.unique(keys.reshape(-1),
                                          return_inverse=True)[1])
                a1, a2 = axes
                occupied, labels = np.unique(a1 * (a2.max() + 1) + a2,
                                             return_inverse=True)
                if len(occupied) == d:
                    cells = labels
            self._cell_memo[n] = cells
        return self._cell_memo[n]

    def best_uniform_approx(self, fvals: np.ndarray, n: int
                            ) -> tuple[float, np.ndarray]:
        """Sup-norm distance to the degree-n span.

        Returns (distance, best approximant's grid values).  The top
        shell's span needs no LP: it holds every row, and those span R^N
        (see the class docstring), so f itself is the best approximant,
        at distance exactly 0.  A cell shell (class docstring) needs
        none either: its span is the functions constant on cells, so the
        distance is the largest cellwise (max f - min f) / 2 and the
        cellwise midrange is a best approximant (Chebyshev).  That value
        may differ from the LP's in the last bits.  Every other shell
        solves the minimax LP over the distinct grid rows of its span
        (``basis.minimax_lp``); its value may differ from the 2N-row
        LP's in the last bits too.  A non-finite value of f is a
        ValueError naming its grid point.
        """
        fvals = self._finite(fvals)
        span = self._shell <= n
        if not span.any():
            return self.sup_norm(fvals), np.zeros(len(self.grid))
        if n >= self.max_shell():
            return 0.0, fvals.copy()
        cells = self._cells(n)
        if cells is not None:
            hi = np.full(int(span.sum()), -np.inf)
            lo = np.full(len(hi), np.inf)
            np.maximum.at(hi, cells, fvals)
            np.minimum.at(lo, cells, fvals)
            half = (hi - lo) / 2
            return float(half.max()), (lo + half)[cells]
        A = self._rows[span].T
        dist, coef = minimax_answer(linprog(**minimax_lp(A, fvals)))
        return dist, A @ coef

    # -- differentiation -------------------------------------------------------

    def derivative(self, fvals: np.ndarray, mu: MultiplierSequence
                   ) -> np.ndarray:
        """Coefficientwise action of a multiplier symbol."""
        return self._synth(self._symbol(mu) * self._coef(fvals))

    # -- smoothness --------------------------------------------------------------

    def smoothness_profile(self, fvals: np.ndarray, order: float = 1.0
                           ) -> "SmoothnessReport":
        """Fit the decay exponent of the four graded error sequences.

        Every sequence is measured in the sup norm, which the report
        records as rho = inf.  One loop over the shells n measures the
        degree error E_n, the projection error ||f - sigma_n||, the
        block norm ||tau_n|| and the D-norm ||D sigma_n||, D being the
        default multiplier of ``order``.  The K-functional at delta =
        base**-n is the best trade-off ||f - g|| + delta**order ||D g||
        over g = 0 and the graded projections sigma_m: an upper bound
        for the true infimum and the standard computable surrogate,
        nondecreasing in delta, so nonincreasing in n.  The degree spans
        are nested and E_n >= 0, so once one shell's degree error is
        exactly 0 every later one is 0 as well and gets no LP (nor does
        the full-span top shell, nor a cell shell: see
        best_uniform_approx and the class docstring).
        The degree error, and the exponent fitted from it, may differ in
        the last bits from the one-pair-per-point LP's: on cell shells,
        and on LP shells, whose LP has one pair per distinct grid row.
        An LP answer below HiGHS's absolute tolerance reads as exactly
        0.0 and so ends the sequence: on toy25 with f = sigma_2(g) +
        1e-11 h, shell 3's LP returns 0.0, and shell 4, a cell shell
        whose closed form is 6.7e-12, is then reported as 0.  A
        non-finite value of f is a ValueError naming its grid point.
        """
        fvals = self._finite(fvals)
        mu = default_multiplier(self.freqs, order, self.base)
        coef = self._coef(fvals)
        scaled = self._symbol(mu) * coef
        degree, proj, block, dnorm = [], [], [], []
        for n in range(self.max_shell() + 1):
            head = self._shell <= n
            degree.append(0.0 if degree and degree[-1] == 0.0
                          else self.best_uniform_approx(fvals, n)[0])
            proj.append(self.sup_norm(
                fvals - self._synth(np.where(head, coef, 0.0))))
            block.append(self.sup_norm(self._synth(
                np.where(self._shell == n, coef, 0.0))))
            dnorm.append(self.sup_norm(self._synth(
                np.where(head, scaled, 0.0))))
        sup, base = self.sup_norm(fvals), float(self.base)
        seqs: dict[str, list[float]] = {
            "degree_error": degree, "projection_error": proj,
            "block_norm": block,
            "k_functional": [min([sup] + [e + (base ** -n) ** order * d
                                          for e, d in zip(proj, dnorm)])
                             for n in range(len(proj))]}
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
            fh.write(json.dumps(self.to_json_dict(), sort_keys=True,
                                indent=1) + "\n")
