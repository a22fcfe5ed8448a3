"""Calibrate the hidden operator-norm constants on a fixed seed corpus.

Run from the repository root:

    python3 tools/calibrate_constants.py

Prints the observed maxima of the three calibrated ratios; the frozen
values in tests/frozen_constants.py are these observations (the test
suite asserts with 2x headroom on top of them).  Rerunning must
reproduce the same numbers — everything is seeded.
"""

from __future__ import annotations

import numpy as np

from twintree.analysis import (GridAnalysis, box_filter, build_grid,
                               default_multiplier, variation_2d)
from twintree.basis import TreeBasis
from twintree.clustering import twt
from twintree.digraph import synth_digraph
from twintree.filtration import build_filtration


def corpus():
    specs = [("toy25", 1, (2, 6), 9), ("toy25", 2, (2, 6), 10),
             ("toy25", 3, (2, 6), 11), ("sparse", 4, (2, 5), 12),
             ("sparse", 5, (3, 7), 13)]
    for kind, gseed, K, tseed in specs:
        params = {"n": 18, "density": 0.3} if kind == "sparse" else {}
        G = synth_digraph(kind, seed=gseed, **params)
        es, os_ = twt(G, K=K, seed=tseed)
        fes, fos = build_filtration(es), build_filtration(os_)
        grid = build_grid(fes, fos)
        yield (f"{kind}-{gseed}",
               GridAnalysis(grid, TreeBasis(fes), TreeBasis(fos)))


def random_filter(rng, top):
    """A random finitely supported bivariate sequence on a box."""
    a = int(rng.integers(1, top + 1))
    b = int(rng.integers(1, top + 1))
    h = {}
    for k1 in range(a):
        for k2 in range(b):
            if rng.random() < 0.7:
                h[(k1, k2)] = float(rng.uniform(-1.0, 1.0))
    if not h:
        h[(0, 0)] = 1.0
    return h


def calibrate() -> tuple[float, float, float]:
    """Observed (Bernstein, Favard, filtered) maxima over the corpus.

    Prints the running maxima after each corpus graph.
    """
    rng = np.random.default_rng(20240824)
    bern = 0.0
    fav = 0.0
    filt = 0.0
    for name, an in corpus():
        top = an.max_shell()
        mu = default_multiplier(an.freqs, order=1.0, base=an.base)
        npts = len(an)
        for n in range(top + 1):
            span = an.degree_span(n)
            if not span:
                continue
            for _ in range(20):
                coeffs = {k: float(rng.standard_normal()) for k in span}
                P = an.synthesize(coeffs)
                nP = an.sup_norm(P)
                if nP <= 0:
                    continue
                dP = an.sup_norm(an.derivative(P, mu))
                bern = max(bern, dP / (2.0 ** n * nP))
        for _ in range(20):
            f = rng.standard_normal(npts)
            ndf = an.sup_norm(an.derivative(f, mu))
            for n in range(top + 1):
                e_n = an.best_uniform_approx(f, n)[0]
                if ndf > 0:
                    fav = max(fav, e_n * 2.0 ** n / ndf)
        for _ in range(40):
            f = rng.standard_normal(npts)
            h = random_filter(rng, 2 ** top)
            v = variation_2d(h)
            nf = an.sup_norm(f)
            out = an.sup_norm(an.filtered_sum(h, f))
            if v > 0 and nf > 0:
                filt = max(filt, out / (v * nf))
        # the box heads are the bound's intended use; include them
        for n in range(top + 1):
            for _ in range(10):
                f = rng.standard_normal(npts)
                h = box_filter(n)
                out = an.sup_norm(an.filtered_sum(h, f))
                filt = max(filt, out / (variation_2d(h) * an.sup_norm(f)))
        print(f"{name}: running maxima  bernstein={bern:.6f}  "
              f"favard={fav:.6f}  filtered={filt:.6f}")
    return bern, fav, filt


def main():
    bern, fav, filt = calibrate()
    print()
    print(f"observed BERNSTEIN_RATIO = {bern:.6f}")
    print(f"observed FAVARD_RATIO    = {fav:.6f}")
    print(f"observed FILTERED_RATIO  = {filt:.6f}")


if __name__ == "__main__":
    main()
