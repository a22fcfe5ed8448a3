"""Piecewise-constant orthogonal systems built from a filtration.

Conventions used throughout this module:

* Functions on [0, 1) are piecewise constant and right-continuous:
  a function is a list of breakpoints 0 = x_0 < ... < x_M = 1 and one
  value per cell [x_i, x_{i+1}).  All arithmetic is generic, so exact
  rational inputs stay exact end to end.

* Local system at a node.  A node of mass w with children of masses
  p_0..p_{m-1} splits its interval at the prefix sums P_k = p_0+..+p_{k-1}.
  The local functions are phi_0 = the node's indicator and, for
  1 <= k <= m-1,

      phi_k = p_k * 1_{[left of split k]} - P_k * 1_{[child k]},

  which are mutually orthogonal with squared norms w (k = 0) and
  p_k * P_k * P_{k+1} (k >= 1).  Because the functions are constant on
  the child cells, integrating against them equals the finite quadrature
  over the child left-endpoints weighted by child mass, and the kernel
  sum_k phi_k(x_i) phi_k(x_j) / ||phi_k||^2 collapses to delta_ij / p_j.
  (The k = 0 term contributes 1/w; for a unit-mass node that is the
  familiar leading 1.)  The auxiliary step functions

      aux_k = (w - P_k) * 1_{[left of split k]} - P_k * 1_{[rest of node]}

  are orthogonal to phi_0..phi_{k-1}, which is what makes the system
  triangular in the splits.

* Global system.  Index 0 is the constant function.  Every other index
  names a non-leftmost child u = [a', b') of some node v = [a, b) via
  the level-by-level enumeration, and the function is the local phi of
  that child built from *conditional* masses (child mass over parent
  mass):

      psi_n = (b'-a')/(b-a)  on [a, a'),
             -(a'-a)/(b-a)   on [a', b'),
              0              elsewhere,

  with 1/||psi_n||^2 given in closed form by
  (b-a)^2 / ((b'-a')(a'-a)(b'-a)).  The system is orthogonal, constant
  on leaf cells, and spans exactly the leaf-measurable functions.

Expansions and best uniform approximation from leading spans live at
the bottom of the module; the latter's minimax linear program is
encoded once, by ``minimax_lp`` at the top, which ``analysis`` shares.
It gives the solver one pair of constraints per distinct row of the
span's grid table, not one per grid point: the same feasible set and
optimum, though the answer may differ in the last bits from that of
the one-pair-per-point LP.  ``linprog`` hands it to HiGHS through
``scipy.optimize.milp`` with no integer variables: the same LP solve,
to the bit, as ``scipy.optimize.linprog(method="highs")``, without
that front end's per-call option checks, a fifth to a third of each
call on the engine's small LPs.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .filtration import Filtration, llo_enumerate


def linprog(c: np.ndarray, A_ub: np.ndarray, b_ub: np.ndarray,
            bounds: tuple):
    """Minimize c x subject to A_ub x <= b_ub and lb <= x <= ub, with
    ``bounds`` = (lb, ub) and infinite entries for free sides.

    HiGHS solves it through ``scipy.optimize.milp`` with no integer
    variables, imported on the first call, so that only the commands
    that solve an LP pay for importing the solver.  That is the same
    dual simplex solve as ``scipy.optimize.linprog(method="highs")``,
    with the same ``fun`` and ``x`` to the bit, but ``linprog``'s front
    end checks each of its HiGHS options against a freshly built
    options manager on every call, which on the engine's LPs (tens of
    rows) is a fifth to a third of the call.  The result has ``success``,
    ``message``, ``fun`` and ``x``.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    return milp(c, constraints=LinearConstraint(A_ub, -np.inf, b_ub),
                bounds=Bounds(*bounds))


def minimax_lp(A: np.ndarray, fvals: np.ndarray) -> dict:
    """``linprog``'s arguments for min over c of max_i |fvals - A c|_i:
    minimize t subject to +-(A c - fvals) <= t, c free and t >= 0.
    There is no solver method to choose: ``linprog`` always hands the
    LP to HiGHS through ``scipy.optimize.milp``, with every variable
    continuous, and ``bounds`` is the (lower, upper) pair it passes to
    ``scipy.optimize.Bounds``.

    Rows of A that are bitwise equal share one pair of constraints:
    A_g c - t <= lo and -A_g c - t <= -hi, with lo and hi the least and
    greatest fvals over the group.  Every other point of the group has
    the same left-hand side and a looser right-hand side, so the
    feasible set, and the optimum, are those of the one-pair-per-point
    LP; HiGHS may reach that optimum by another path, so the distance
    can differ from that LP's in the last bits.  Groups are in the
    bytewise order of their rows; -0.0 and +0.0 differ in bytes, so
    rows that differ only there are two groups.
    """
    A = np.ascontiguousarray(A)
    npts, ncols = A.shape
    keys = A.view(np.dtype((np.void, A.itemsize * ncols))).reshape(npts)
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    lo = np.full(len(first), np.inf)
    hi = np.full(len(first), -np.inf)
    np.minimum.at(lo, group, fvals)
    np.maximum.at(hi, group, fvals)
    rows = A[first]
    ones = np.ones((len(rows), 1))
    cost = np.zeros(ncols + 1)
    cost[-1] = 1.0
    lower = np.full(ncols + 1, -np.inf)
    lower[-1] = 0.0
    return {"c": cost,
            "A_ub": np.block([[rows, -ones], [-rows, -ones]]),
            "b_ub": np.concatenate([lo, -hi]),
            "bounds": (lower, np.inf)}


def minimax_answer(res) -> tuple[float, np.ndarray]:
    """(distance, c) from ``linprog``'s result for a ``minimax_lp``;
    a RuntimeError with the solver's message if it found no optimum."""
    if not res.success:
        raise RuntimeError(f"minimax LP failed: {res.message}")
    return float(res.fun), res.x[:-1]


# -- piecewise-constant functions -------------------------------------------


class PiecewiseConstant:
    """Right-continuous step function on [0, 1)."""

    __slots__ = ("breakpoints", "values")

    def __init__(self, breakpoints: Sequence, values: Sequence,
                 validate: bool = True):
        self.breakpoints = list(breakpoints)
        self.values = list(values)
        if validate:
            if len(self.breakpoints) != len(self.values) + 1:
                raise ValueError("need one more breakpoint than values")
            if self.breakpoints[0] != 0 or self.breakpoints[-1] != 1:
                raise ValueError("domain must be exactly [0, 1)")
            for lo, hi in zip(self.breakpoints, self.breakpoints[1:]):
                if not lo < hi:
                    raise ValueError("breakpoints must strictly increase")

    def __repr__(self) -> str:
        return f"PiecewiseConstant({len(self.values)} pieces)"

    def evaluate(self, x):
        if not 0 <= x < 1:
            raise ValueError(f"point {x} outside [0, 1)")
        return self.values[bisect_right(self.breakpoints, x) - 1]

    __call__ = evaluate

    def integral(self):
        total = 0
        for v, lo, hi in zip(self.values, self.breakpoints,
                             self.breakpoints[1:]):
            total += v * (hi - lo)
        return total

    def inner(self, other: "PiecewiseConstant"):
        """Integral of the pointwise product over [0, 1)."""
        return self.product(other).integral()

    def _zip_with(self, other: "PiecewiseConstant", op) -> "PiecewiseConstant":
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        vals = []
        i = j = 0
        for lo in cuts[:-1]:
            while self.breakpoints[i + 1] <= lo:
                i += 1
            while other.breakpoints[j + 1] <= lo:
                j += 1
            vals.append(op(self.values[i], other.values[j]))
        return PiecewiseConstant(cuts, vals, validate=False)

    def __add__(self, other):
        return self._zip_with(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip_with(other, lambda a, b: a - b)

    def product(self, other):
        return self._zip_with(other, lambda a, b: a * b)

    def scale(self, c) -> "PiecewiseConstant":
        return PiecewiseConstant(self.breakpoints,
                                 [c * v for v in self.values],
                                 validate=False)

    def sup_norm(self):
        return max(abs(v) for v in self.values)

    def values_on(self, grid: Sequence) -> list:
        """Values per cell of a coarser-or-equal grid.

        Raises if this function is not constant on some grid cell, i.e.
        when its own breakpoints cut through the grid's cells.
        """
        out = []
        for lo, hi in zip(grid, grid[1:]):
            i = bisect_right(self.breakpoints, lo) - 1
            v = self.values[i]
            j = i + 1
            while j < len(self.values) and self.breakpoints[j] < hi:
                if self.values[j] != v:
                    raise ValueError(
                        "function is not constant on a grid cell "
                        f"[{lo}, {hi})")
                j += 1
            out.append(v)
        return out


# -- the local system at a single node ---------------------------------------


class LocalBasis:
    """Orthogonal step functions refining one node into its children.

    Parameters: the node's left endpoint ``a`` and the child masses
    ``weights`` (p_0..p_{m-1}); the node occupies [a, a + sum(weights)).
    Exact inputs (ints/Fractions) give exact functions.
    """

    def __init__(self, weights: Sequence, a=0):
        if len(weights) < 2:
            raise ValueError("a node needs at least two children")
        if any(w <= 0 for w in weights):
            raise ValueError("child masses must be positive")
        self.a = a
        self.weights = list(weights)
        self.m = len(weights)
        self.prefix = [weights[0] * 0]
        for w in weights:
            self.prefix.append(self.prefix[-1] + w)
        self.total = self.prefix[-1]
        if not (0 <= a and (a + self.total) <= 1):
            raise ValueError("node interval must sit inside [0, 1)")

    def nodes(self) -> list:
        """Quadrature nodes: left endpoint of every child."""
        return [self.a + P for P in self.prefix[:-1]]

    def norm_sq(self, k: int):
        if k == 0:
            return self.total
        return self.weights[k] * self.prefix[k] * self.prefix[k + 1]

    def phi(self, k: int) -> PiecewiseConstant:
        if not 0 <= k < self.m:
            raise ValueError(f"index {k} outside 0..{self.m - 1}")
        if k == 0:
            return _support_function(self.a, self.a + self.total,
                                     [(self.a, self.a + self.total,
                                       1 + self.total * 0)])
        p_k = self.weights[k]
        P_k = self.prefix[k]
        left = self.a
        mid = self.a + P_k
        right = self.a + self.prefix[k + 1]
        return _support_function(left, right,
                                 [(left, mid, p_k), (mid, right, -P_k)])

    def phi_tilde(self, k: int) -> PiecewiseConstant:
        """Auxiliary splitter: orthogonal to phi_0..phi_{k-1}; zero at k=m."""
        if not 1 <= k <= self.m:
            raise ValueError(f"index {k} outside 1..{self.m}")
        if k == self.m:
            return PiecewiseConstant([0, 1], [0 * self.total])
        P_k = self.prefix[k]
        left, mid = self.a, self.a + P_k
        right = self.a + self.total
        return _support_function(left, right,
                                 [(left, mid, self.total - P_k),
                                  (mid, right, -P_k)])


def _support_function(lo, hi, pieces) -> PiecewiseConstant:
    """Assemble a function from (a, b, value) pieces, zero outside them."""
    zero = 0 * pieces[0][2]
    bps, vals = [0], []
    if lo > 0:
        bps.append(lo)
        vals.append(zero)
    for _, b, v in pieces:
        bps.append(b)
        vals.append(v)
    if hi < 1:
        bps.append(1)
        vals.append(zero)
    return PiecewiseConstant(bps, vals)


def local_basis(weights: Sequence, a=0) -> LocalBasis:
    """Convenience constructor for the local system at one node."""
    return LocalBasis(weights, a)


def verify_local_identities(basis: LocalBasis) -> dict:
    """Max violation of each structural identity of a local system.

    Returns a dict with keys "orthogonality" (pairwise integrals against
    the closed-form norms), "quadrature" (mass-weighted point sums equal
    integrals), "dual_kernel" (the inverse quadrature identity), and
    "aux_orthogonality" (auxiliary functions against earlier phis),
    plus "max".  Exact inputs make every entry exactly zero.
    """
    m = basis.m
    phis = [basis.phi(k) for k in range(m)]
    xs = basis.nodes()
    zero = basis.total * 0

    worst = {"orthogonality": zero, "quadrature": zero,
             "dual_kernel": zero, "aux_orthogonality": zero}

    for k in range(m):
        for ell in range(k, m):
            val = phis[k].inner(phis[ell])
            expect = basis.norm_sq(k) if k == ell else zero
            worst["orthogonality"] = max(worst["orthogonality"],
                                         abs(val - expect))
            quad = sum(p * phis[k](x) * phis[ell](x)
                       for p, x in zip(basis.weights, xs))
            worst["quadrature"] = max(worst["quadrature"], abs(quad - val))

    point_vals = [[phi(x) for x in xs] for phi in phis]
    for j in range(m):
        for ell in range(m):
            kern = sum(point_vals[k][j] * point_vals[k][ell]
                       / basis.norm_sq(k) for k in range(m))
            expect = 1 / basis.weights[j] if j == ell else zero
            worst["dual_kernel"] = max(worst["dual_kernel"],
                                       abs(kern - expect))

    for k in range(1, m + 1):
        aux = basis.phi_tilde(k)
        for i in range(k):
            worst["aux_orthogonality"] = max(worst["aux_orthogonality"],
                                             abs(phis[i].inner(aux)))

    worst["max"] = max(worst.values())
    return worst


# -- the global system --------------------------------------------------------


def _leaf_spans(filt: Filtration) -> dict[int, tuple[int, int]]:
    """Node id -> (first, end): the node covers leaf cells first..end-1.

    One depth-first walk in child order, counting the leaves passed.
    """
    first: dict[int, int] = {}
    spans: dict[int, tuple[int, int]] = {}
    pos, stack = 0, [(filt.root, True)]
    while stack:
        nid, entering = stack.pop()
        if not entering:
            spans[nid] = (first[nid], pos)
            continue
        first[nid] = pos
        children = filt.nodes[nid].children
        stack.append((nid, False))
        stack.extend((c, True) for c in reversed(children))
        pos += not children
    return spans


class TreeBasis:
    """The orthogonal system of a filtration, one function per leaf."""

    def __init__(self, filt: Filtration):
        self.filtration = filt
        self.enum = llo_enumerate(filt)
        self._cache: dict[int, PiecewiseConstant] = {}
        self._leaf_bps: Optional[list] = None
        self._values: Optional[list[tuple]] = None

    @property
    def size(self) -> int:
        return len(self.enum)

    def intervals_of(self, n: int):
        """((a, b), (a', b')): parent and own interval of index n >= 1."""
        node = self.filtration.node(self.enum[n])
        parent = self.filtration.node(node.parent)
        return (parent.a, parent.b), (node.a, node.b)

    def psi(self, n: int) -> PiecewiseConstant:
        if n in self._cache:
            return self._cache[n]
        if not 0 <= n < self.size:
            raise ValueError(f"index {n} outside 0..{self.size - 1}")
        if n == 0:
            fn = PiecewiseConstant([Fraction(0), Fraction(1)], [Fraction(1)])
        else:
            (a, b), (a2, b2) = self.intervals_of(n)
            up = (b2 - a2) / (b - a)
            down = (a2 - a) / (b - a)
            fn = _support_function(a, b2, [(a, a2, up), (a2, b2, -down)])
        self._cache[n] = fn
        return fn

    def aleph(self, n: int) -> Fraction:
        """Inverse squared norm of psi_n, read from its value record."""
        return self.value_table()[n][5]

    # -- evaluation on the leaf grid ------------------------------------

    def leaf_breakpoints(self) -> list:
        if self._leaf_bps is None:
            bps = [Fraction(0)]
            for leaf in self.filtration.leaves():
                bps.append(leaf.b)
            self._leaf_bps = bps
        return self._leaf_bps

    def value_table(self) -> list[tuple]:
        """One exact record (lo, mid, hi, up, down, aleph) per index n.

        psi_n is ``up`` on the leaf cells lo..mid-1, ``-down`` on
        mid..hi-1 and 0 elsewhere; ``aleph`` is 1/||psi_n||^2.  Row 0
        is (0, N, N, 1, 0, 1), the constant 1 on all N cells.  Row
        n >= 1, with parent [a, b) and own interval [a', b'), has
        up = (b'-a')/(b-a), down = (a'-a)/(b-a) and aleph =
        (b-a)^2 / ((b'-a')(a'-a)(b'-a)), all > 0; its cells are the
        parent's first leaf (lo) and its own first and end leaves (mid,
        hi), integer leaf positions from one walk of the filtration.
        """
        if self._values is None:
            filt, size = self.filtration, self.size
            spans = _leaf_spans(filt)
            table = [(0, size, size, Fraction(1), Fraction(0), Fraction(1))]
            for nid in self.enum[1:]:
                node = filt.nodes[nid]
                parent = filt.nodes[node.parent]
                w, p, q = parent.weight, node.weight, node.a - parent.a
                table.append((spans[parent.id][0], *spans[nid], p / w, q / w,
                              w * w / (p * q * (p + q))))
            self._values = table
        return self._values

    def cell_table(self) -> np.ndarray:
        """psi_n on leaf cell j at [n, j], the float of its exact value in
        ``value_table``: float(up), float(-down) or +0.0 (see there)."""
        table = np.zeros((self.size, self.size))
        for row, (lo, mid, hi, up, down, _) in zip(table, self.value_table()):
            row[lo:mid], row[mid:hi] = float(up), float(-down)
        return table

    # -- expansions ------------------------------------------------------

    def analyze(self, f: PiecewiseConstant) -> list:
        """Coefficients of a leaf-measurable function, all indices."""
        grid = self.leaf_breakpoints()
        f.values_on(grid)  # rejects functions that cut inside a leaf cell
        return [self.aleph(n) * f.inner(self.psi(n))
                for n in range(self.size)]

    def synthesize(self, coeffs: Sequence) -> PiecewiseConstant:
        """Finite expansion sum_k coeffs[k] psi_k as a function."""
        if len(coeffs) > self.size:
            raise ValueError("more coefficients than basis functions")
        vals = [0] * self.size
        for c, (lo, mid, hi, up, down, _) in zip(coeffs, self.value_table()):
            if c:
                for cell in range(lo, mid):
                    vals[cell] = vals[cell] + c * up
                for cell in range(mid, hi):
                    vals[cell] = vals[cell] - c * down
        return PiecewiseConstant(self.leaf_breakpoints(), vals, validate=False)

    def best_uniform_approx(self, f: PiecewiseConstant, n: int
                            ) -> tuple[float, PiecewiseConstant]:
        """Distance from f to the span of indices 0..n in the sup norm.

        Since every function involved is constant on leaf cells, this is
        a finite minimax problem, solved exactly as a linear program.
        Returns (distance, best approximant).
        """
        if not 0 <= n < self.size:
            raise ValueError(f"index {n} outside 0..{self.size - 1}")
        grid = self.leaf_breakpoints()
        fvals = np.array([float(v) for v in f.values_on(grid)])
        dist, coef = minimax_answer(
            linprog(**minimax_lp(self.cell_table()[:n + 1].T, fvals)))
        return dist, self.synthesize(list(coef))
