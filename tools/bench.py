"""Time the L(N) ladder of exact engines for one or more checkouts.

Usage:
    python3 tools/bench.py OUT.json --src LABEL=SRC [--src LABEL=SRC ...]
                           [--sizes 25 100 200 400 [800 [1600]]]
                           [--repeats R]

L(N) is the reference graph of ROADMAP.md: ``synth_digraph("planted",
seed=3, sizes=[N/2, N/2])``, ``twt(G, K=(2, 8), seed=3)``, uniform
filtrations, a normalized grid and an exact-mode engine.  Every run of
every ladder point is its own subprocess, whose PYTHONPATH is the SRC
directory of one checkout, so that each run imports that checkout's
twintree and its peak RSS is its own.  The runs alternate between the
checkouts, point by point and repeat by repeat.  The default sizes stop
at 400; L(800) and L(1600) run only when --sizes names them (one
L(1600) run of an exact engine takes about 3 minutes and 0.55 GB on a
2-core machine).

Each run records, in seconds: ``twt``, and inside it the inclusive time
of ``symmetrize`` and ``graph_distance``; filtration + grid; the engine
(both bases and ``GridAnalysis``), and inside it the inclusive time of
``TreeBasis.value_table``, ``compute_omega`` and ``gram_orthonormalize``;
one ``smoothness_profile`` of the out-degree signal, and inside it the
minimax LPs (``lp_s``, ``lp_calls``, and ``lp_rows``, the constraint
rows of ``A_ub`` they hand to HiGHS in all; ``scipy.optimize`` is
imported before the clock starts, so ``lp_s`` is solver time); a second
profile of the same signal on the same engine (``profile_warm_s``, and
its LPs' ``lp_warm_s``), which finds the cell shells already decided,
so that the first profile's once-per-engine cost shows apart; and two
metrics trials, each ``TwinTreeBuilder.level_ids_batch`` of seed 3
alone then ``align_and_score`` against the planted labels.  The builder's
preparation is not timed, as ``twintree metrics`` prepares it once for
all its trials; but nhc computes its finest-level distances on the
first ``level_ids_batch`` call, so the first trial
(``metrics_first_trial_s``) pays for them once and the second
(``metrics_steady_trial_s``) is what every later trial costs.
``metrics_batch_trial_s`` is the time per trial of a batch of 30 seeds,
clustered and scored as ``twintree metrics`` does it (one
``level_ids_batch`` call, then one ``align_and_score`` call on its two
level-id stacks), and ``metrics_score_trial_s`` the scoring part of it
alone, per trial.  The inner times, and the call counts next to them
(``*_calls``), come from wrappers this script installs on the imported
modules; the library has no hook of its own.  A run also records the peak ``ru_maxrss`` in MB,
|Omega|, and the full-rank row: the 0-based Omega row at which the
rank scan keeps its N-th row.  OUT.json holds, per size, checkout and
quantity, every run's value with their median, minimum and maximum.
Children run with OMP_NUM_THREADS=1 unless the caller sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

# seeds in the batch of metrics trials
BATCH = 30


def install_timers() -> dict:
    """Rebind the six names timed inside ``twt``, the engine and the
    profile to wrappers that add their wall time to ``NAME_s`` and their
    calls to ``NAME_calls`` of the returned dict; the library looks each
    one up at call time, on the class or in the module (``twt`` through
    ``twintree.clustering``'s own copies of the two graph functions, the
    engine through ``twintree.analysis``'s copy of ``linprog``).  The
    LPs' constraint rows are added up in ``lp_rows``."""
    from twintree import analysis, basis, clustering

    totals: dict = {}
    for name, owner, attr in (
            ("symmetrize", clustering, "symmetrize"),
            ("graph_distance", clustering, "graph_distance"),
            ("value_table", basis.TreeBasis, "value_table"),
            ("compute_omega", analysis, "compute_omega"),
            ("gram_orthonormalize", analysis, "gram_orthonormalize"),
            ("lp", analysis, "linprog")):
        totals[f"{name}_s"], totals[f"{name}_calls"] = 0.0, 0

        def timed(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
            start = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                totals[f"{_name}_s"] += time.perf_counter() - start
                totals[f"{_name}_calls"] += 1

        setattr(owner, attr, timed)

    totals["lp_rows"] = 0

    def counted(*args, _solve=analysis.linprog, **kwargs):
        totals["lp_rows"] += len(kwargs["A_ub"])
        return _solve(*args, **kwargs)

    analysis.linprog = counted
    return totals


def run_point(n: int) -> dict:
    """One run of L(n) in this process; returns its measurements."""
    import scipy.optimize  # noqa: F401  (keeps its import out of lp_s)

    from twintree.analysis import GridAnalysis, build_grid
    from twintree.basis import TreeBasis
    from twintree.cli import vertex_signal
    from twintree.clustering import TwinTreeBuilder, twt
    from twintree.digraph import synth_digraph
    from twintree.filtration import build_filtration
    from twintree.metrics import align_and_score

    out: dict = {}
    totals = install_timers()
    G = synth_digraph("planted", seed=3, sizes=[n // 2] * 2)
    start = time.perf_counter()
    es, os_ = twt(G, K=(2, 8), seed=3)
    out["twt_s"] = time.perf_counter() - start
    start = time.perf_counter()
    fes, fos = build_filtration(es), build_filtration(os_)
    grid = build_grid(fes, fos)
    out["filtration_grid_s"] = time.perf_counter() - start
    start = time.perf_counter()
    engine = GridAnalysis(grid, TreeBasis(fes), TreeBasis(fos))
    out["engine_s"] = time.perf_counter() - start
    out.update(totals)  # each timer so far ran inside twt or the engine
    outdeg = vertex_signal(G, "outdeg")
    start = time.perf_counter()
    engine.smoothness_profile(outdeg)
    out["profile_s"] = time.perf_counter() - start
    out["lp_s"], out["lp_calls"] = totals["lp_s"], totals["lp_calls"]
    out["lp_rows"] = totals["lp_rows"]
    start = time.perf_counter()
    engine.smoothness_profile(outdeg)
    out["profile_warm_s"] = time.perf_counter() - start
    out["lp_warm_s"] = totals["lp_s"] - out["lp_s"]
    builder = TwinTreeBuilder(G, (2, 8))
    for trial in ("first", "steady"):
        start = time.perf_counter()
        align_and_score(G, *builder.level_ids_batch([3]), labels=G.labels)
        out[f"metrics_{trial}_trial_s"] = time.perf_counter() - start
    start = time.perf_counter()
    ids = builder.level_ids_batch(list(range(BATCH)))
    scoring = time.perf_counter()
    align_and_score(G, *ids, labels=G.labels)
    end = time.perf_counter()
    out["metrics_batch_trial_s"] = (end - start) / BATCH
    out["metrics_score_trial_s"] = (end - scoring) / BATCH
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    out["omega"] = len(engine.freqs)
    out["full_rank_row"] = int(np.flatnonzero(engine.is_active)[-1])
    return out


def summary(values: list) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "runs": values}


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", action="append", required=True,
                        metavar="LABEL=SRC",
                        help="a checkout's src directory, under a label")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[25, 100, 200, 400])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 3:
        parser.error("take at least 3 repeats")
    sources = dict(s.split("=", 1) for s in args.src)
    env = {**os.environ, "OMP_NUM_THREADS":
           os.environ.get("OMP_NUM_THREADS", "1")}
    runs: dict[int, dict[str, list[dict]]] = {
        n: {label: [] for label in sources} for n in args.sizes}
    for n in args.sizes:
        for r in range(args.repeats):
            order = list(sources.items())
            for label, src in order if r % 2 == 0 else order[::-1]:
                res = subprocess.run(
                    [sys.executable, __file__, "--child", str(n)],
                    env={**env, "PYTHONPATH": str(Path(src).resolve())},
                    capture_output=True, text=True)
                if res.returncode:
                    sys.exit(f"L({n}) {label} failed:\n{res.stderr}")
                runs[n][label].append(json.loads(res.stdout))
                print(f"L({n}) {label} run {r}: "
                      f"engine {runs[n][label][-1]['engine_s']:.3f} s",
                      file=sys.stderr)
    report = {
        "graph": "L(N): planted digraph, seed 3, sizes N/2 and N/2; "
                 "twt K=(2, 8), seed 3; uniform filtrations; normalized "
                 "grid; exact mode",
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "cpus": os.cpu_count(),
                    "OMP_NUM_THREADS": env["OMP_NUM_THREADS"]},
        "repeats": args.repeats,
        "ladder": {str(n): {label: {key: summary([run[key] for run in rs])
                                    for key in rs[0]}
                            for label, rs in by_label.items()}
                   for n, by_label in runs.items()},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(run_point(int(sys.argv[2]))))
    else:
        main()
