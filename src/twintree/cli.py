"""Command-line pipeline: digraph -> twin trees -> grid -> expansion.

Each subcommand reads and writes artifacts in a workspace directory
(--out), so stages can be rerun independently:

    digraph.json     the ingested or synthesized graph
    tree_es.json     hierarchy from the even symmetrization
    tree_os.json     hierarchy from the odd symmetrization
    trees.json       per-level summary of both hierarchies
    grid.csv         one rectangle + mass per vertex
    omega.csv        surviving tensor indices (and dropped ones)
    coefficients.csv expansion coefficients of the chosen signal
    approx.csv       graded error sequences by shell
    metrics.csv      per-level modularity / F scores with a random
                     baseline
    smoothness.json  fitted decay exponents
    config.json      the parameters each stage ran with

Artifacts contain no timestamps and are written with fixed formatting,
so rerunning a stage with unchanged inputs reproduces them byte for
byte.  Exact rational coordinates are serialized as "p/q" strings.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, metrics as metrics_mod
from .analysis import (GridAnalysis, MultiplierError, SmoothnessReport,
                       build_grid)
from .basis import TreeBasis
from .clustering import ClusterTree, TwinTreeBuilder, check_level_spec, twt
from .digraph import (WeightedDigraph, label_index, load_edge_list,
                      synth_digraph)
from .filtration import build_filtration


# -- workspace helpers -------------------------------------------------------


def _load_config(ws: Path) -> dict:
    path = ws / "config.json"
    if path.exists():
        return json.loads(path.read_text())
    return {}


def _update_config(ws: Path, stage: str, params: dict) -> dict:
    cfg = _load_config(ws)
    cfg[stage] = params
    _write_json(ws / "config.json", cfg)
    return cfg


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_rows(path: Path, header: list[str], rows) -> None:
    """Rows of ints and strings, written as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv(path: Path, header: list[str], rows) -> None:
    _write_rows(path, header, ([_fmt(x) for x in row] for row in rows))


def _load(ws: Path, name: str, load):
    """load(path); a missing or malformed artifact exits naming the file."""
    path = ws / name
    if not path.exists():
        raise SystemExit(
            f"missing artifact {path}; run the producing stage first")
    try:
        return load(path)
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"malformed artifact {path}: {exc}") from None


def _shared(args, key: tuple, make):
    """make(), computed once per key in a pipeline run.

    A pipeline run holds in memory, in ``args.held``, the graph that
    ingest or synth saved and the trees that cluster saved (never parsed
    back from their artifacts), one twin-tree builder for cluster and
    metrics, and one grid, engine and smoothness profile.  The key names
    what the result is built from; config.json is never held, because
    every stage rewrites it.  Nothing outlives the run; a stage run on
    its own rebuilds from artifacts."""
    held = getattr(args, "held", None)
    if held is None:
        return make()
    if key not in held:
        held[key] = make()
    return held[key]


def _pass_on(args, key: tuple, value) -> None:
    """Hold what a stage just saved under key for the later stages of a
    pipeline run, which then need not parse it back."""
    if hasattr(args, "held"):
        args.held[key] = value


def _load_graph(args) -> WeightedDigraph:
    def load(path: Path) -> WeightedDigraph:
        G = WeightedDigraph.load_json(path)
        if G.n == 0:
            raise ValueError("the graph has no vertices")
        return G
    return _shared(args, ("graph",),
                   lambda: _load(Path(args.out), "digraph.json", load))


def _load_trees(args, G: WeightedDigraph) -> tuple[ClusterTree, ClusterTree]:
    """The twin trees: in a pipeline run those that cluster made, else
    parsed from their artifacts, each checked to be a hierarchy over G's
    vertices."""
    def load(path: Path) -> ClusterTree:
        tree = ClusterTree.load_json(path)
        tree.validate()
        if tree.vertices() != frozenset(range(G.n)):
            raise ValueError(
                f"the tree does not cover the graph's {G.n} vertices")
        return tree
    return _shared(args, ("trees",), lambda: tuple(
        _load(Path(args.out), f"tree_{side}.json", load)
        for side in ("es", "os")))


def _builder(args, G: WeightedDigraph, levels, algo: str, edge_length: str,
             n_init: int) -> TwinTreeBuilder:
    """The twin-tree preparation of G, made once per pipeline run for
    these parameters, so cluster and metrics share it."""
    K = tuple(int(k) for k in levels)
    return _shared(args, ("builder", K, algo, edge_length, n_init),
                   lambda: TwinTreeBuilder(G, K, algo=algo,
                                           edge_length=edge_length,
                                           n_init=n_init))


def _grid(args, G: WeightedDigraph, scheme: str, normalize: bool):
    """(es filtration, os filtration, product grid) of the twin trees."""
    def make():
        filts = [build_filtration(t, scheme, G) for t in _load_trees(args, G)]
        return (*filts, build_grid(*filts, normalize=normalize))
    return _shared(args, ("grid", scheme, normalize), make)


def _build_analysis(args, G: WeightedDigraph, base: int) -> GridAnalysis:
    """The analysis engine on the grid that the grid stage configured."""
    grid_cfg = _load_config(Path(args.out)).get("grid", {})
    scheme = grid_cfg.get("scheme", "uniform")
    normalize = grid_cfg.get("normalize", True)

    def make() -> GridAnalysis:
        filt_es, filt_os, grid = _grid(args, G, scheme, normalize)
        return GridAnalysis(grid, TreeBasis(filt_es), TreeBasis(filt_os),
                            partition_base=base)
    return _shared(args, ("engine", scheme, normalize, base), make)


def _analyzed(cfg: dict) -> dict:
    """The analyze stage's settings in a workspace config.  The engine is
    exact, so a workspace that an older version analyzed in another mode
    is a SystemExit naming that mode."""
    analyzed = cfg.get("analyze", {})
    mode = analyzed.get("mode", "exact")
    if mode != "exact":
        raise SystemExit(f"the workspace was analyzed in mode {mode!r}, "
                         "which this version no longer has; rerun analyze")
    return analyzed


def _smoothness_profile(args, engine: GridAnalysis, f: np.ndarray,
                        order: float) -> SmoothnessReport:
    return _shared(args, ("profile", engine, f.tobytes(), order),
                   lambda: engine.smoothness_profile(f, order=order))


def _check_labels_cover(G: WeightedDigraph, use: str) -> None:
    """Exit unless every vertex of a labeled graph carries a label."""
    missing = sum(1 for v in range(G.n) if v not in G.labels)
    if missing:
        raise SystemExit(f"{use} needs a label on every vertex: {missing} "
                         f"of {G.n} vertices carry none")


def _check_has_edges(G: WeightedDigraph) -> None:
    """Exit unless G has an edge, which the modularity of metrics needs."""
    if G.total_weight() <= 0:
        raise SystemExit("metrics scores modularity, which needs at least "
                         "one edge; the graph has none")


def vertex_signal(G: WeightedDigraph, kind: str) -> np.ndarray:
    """Grid function to analyze: per-vertex values in vertex-id order."""
    if kind == "outdeg":
        return G.out_degrees().astype(float)
    if kind == "label":
        if not G.labels:
            raise SystemExit("graph carries no labels; use another signal")
        _check_labels_cover(G, "--signal label")
        index = label_index(G.labels)
        return np.array([float(index[v]) for v in range(G.n)])
    if kind.startswith("file:"):
        path = Path(kind[5:])
        try:
            tokens = path.read_text().split()
        except OSError as exc:
            raise SystemExit(f"cannot read signal file {path}: "
                             f"{exc.strerror or exc}") from None
        try:
            vals = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise SystemExit(f"signal file {path}: {exc}") from None
        if len(vals) != G.n:
            raise SystemExit(
                f"signal file has {len(vals)} values for {G.n} vertices")
        bad = [v for v, x in enumerate(vals) if not math.isfinite(x)]
        if bad:
            raise SystemExit(f"signal file {path}: value {tokens[bad[0]]!r} "
                             f"of vertex {bad[0]} is not finite")
        return np.array(vals)
    raise SystemExit(f"unknown signal {kind!r}")


# -- stages ------------------------------------------------------------------


def cmd_ingest(args) -> int:
    G = load_edge_list(args.edges, labels_source=args.labels)
    if G.n == 0:
        raise SystemExit(f"edge list {args.edges} has no vertices")
    ws = Path(args.out)
    ws.mkdir(parents=True, exist_ok=True)
    G.save_json(ws / "digraph.json")
    _pass_on(args, ("graph",), G)
    _update_config(ws, "ingest",
                   {"edges": str(args.edges),
                    "labels": (str(args.labels) if args.labels else None)})
    print(f"ingested {G.n} vertices, {G.edge_count()} edges")
    return 0


def _parse_params(items) -> dict:
    """--param KEY=JSON items as keyword arguments."""
    params = {}
    for item in items or []:
        key, sep, val = item.partition("=")
        try:
            if not (key and sep):
                raise ValueError
            params[key] = json.loads(val)
        except ValueError:
            raise SystemExit(f"bad --param {item!r}: expected KEY=JSON, "
                             "e.g. sizes=[20,20]") from None
    return params


def cmd_synth(args) -> int:
    params = _parse_params(args.param)
    try:
        G = synth_digraph(args.kind, seed=args.seed, **params)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"bad --param for {args.kind!r}: {exc}") from None
    if G.n == 0:
        raise SystemExit(f"synth {args.kind!r} with --param {params} "
                         "has no vertices")
    ws = Path(args.out)
    ws.mkdir(parents=True, exist_ok=True)
    G.save_json(ws / "digraph.json")
    _pass_on(args, ("graph",), G)
    _update_config(ws, "synth",
                   {"kind": args.kind, "seed": args.seed, "params": params})
    print(f"synthesized {args.kind}: {G.n} vertices, "
          f"{G.edge_count()} edges")
    return 0


def cmd_cluster(args) -> int:
    ws = Path(args.out)
    G = _load_graph(args)
    K = args.levels
    labeled = None
    if args.labeled:
        if not G.labels:
            raise SystemExit("--labeled needs a graph with labels")
        labeled = label_index(G.labels)
    builder = _builder(args, G, K, args.algo, args.edge_length, args.n_init)
    tree_es, tree_os = twt(G, K, algo=args.algo, seed=args.seed,
                           labeled=labeled,
                           edge_length=args.edge_length,
                           n_init=args.n_init, builder=builder)
    tree_es.save_json(ws / "tree_es.json")
    tree_os.save_json(ws / "tree_os.json")
    _pass_on(args, ("trees",), (tree_es, tree_os))
    _update_config(ws, "cluster",
                   {"algo": args.algo, "levels": list(K),
                    "seed": args.seed, "labeled": bool(args.labeled),
                    "edge_length": args.edge_length,
                    "n_init": args.n_init})
    print(f"built twin trees: depths {tree_es.depth()} / {tree_os.depth()}")
    return 0


def cmd_trees(args) -> int:
    ws = Path(args.out)
    tree_es, tree_os = _load_trees(args, _load_graph(args))
    summary = {}
    for side, tree in (("es", tree_es), ("os", tree_os)):
        levels = []
        for lv in range(tree.depth() + 1):
            sizes = sorted((len(n.members) for n in tree.level_nodes(lv)),
                           reverse=True)
            levels.append({"level": lv, "clusters": len(sizes),
                           "sizes": sizes})
        summary[side] = {"depth": tree.depth(), "levels": levels}
    _write_json(ws / "trees.json", summary)
    for side in ("es", "os"):
        info = summary[side]
        counts = "/".join(str(lv["clusters"]) for lv in info["levels"])
        print(f"{side}: depth {info['depth']}, clusters per level {counts}")
    return 0


def cmd_grid(args) -> int:
    ws = Path(args.out)
    G = _load_graph(args)
    _, _, grid = _grid(args, G, args.scheme, not args.no_normalize)
    rows = []
    for p in grid.points:
        x0, x1, y0, y1 = p.rect
        rows.append([p.vertex, G.names[p.vertex], x0, x1, y0, y1,
                     p.point[0], p.point[1], p.mass])
    _write_csv(ws / "grid.csv",
               ["vertex", "name", "x0", "x1", "y0", "y1",
                "px", "py", "mass"], rows)
    _update_config(ws, "grid",
                   {"scheme": args.scheme,
                    "normalize": not args.no_normalize})
    print(f"grid: {len(grid)} rectangles, raw mass {grid.raw_total}")
    return 0


def cmd_analyze(args) -> int:
    ws = Path(args.out)
    G = _load_graph(args)
    f = vertex_signal(G, args.signal)
    engine = _build_analysis(args, G, args.partition_base)
    status = np.where(engine.is_active, "active", "dropped")
    _write_rows(ws / "omega.csv", ["k1", "k2", "shell", "status"],
                zip(engine.freqs.k1.tolist(), engine.freqs.k2.tolist(),
                    engine.omega_shell.tolist(), status.tolist()))
    coeffs = engine.analyze(f)
    _write_csv(ws / "coefficients.csv", ["k1", "k2", "coefficient"],
               [[k[0], k[1], float(c)] for k, c in coeffs.items()])
    defect = engine.orthogonality_defect()
    resid = engine.l2_norm(f - engine.synthesize(coeffs))
    summary = {
        "mode": "exact",
        "signal": args.signal,
        "grid_points": len(engine.grid),
        "omega_size": len(engine.freqs),
        "active": len(engine.active),
        "dropped": len(engine.freqs) - len(engine.active),
        "max_shell": engine.max_shell(),
        "orthogonality_defect": defect,
        "reconstruction_residual": resid,
    }
    _write_json(ws / "analysis.json", summary)
    _update_config(ws, "analyze",
                   {"mode": "exact", "signal": args.signal,
                    "partition_base": args.partition_base})
    print(f"mode exact: {len(engine.active)} active of "
          f"{len(engine.freqs)} indices, defect {defect:.2e}")
    return 0


def cmd_approx(args) -> int:
    """Graded error sequences, one row per shell.

    When the analyzed signal encodes class labels, each low-pass
    reconstruction is rounded back to the nearest class index and the
    per-shell agreement fraction is recorded alongside the errors.
    """
    ws = Path(args.out)
    analyzed = _analyzed(_load_config(ws))
    signal = analyzed.get("signal", args.signal)
    G = _load_graph(args)
    f = vertex_signal(G, signal)
    engine = _build_analysis(args, G, analyzed.get("partition_base", 2))
    try:
        report = _smoothness_profile(args, engine, f, args.order)
    except MultiplierError as exc:
        raise SystemExit(f"--order {args.order}: {exc}") from None
    rows = []
    for n in range(len(report.sequences["degree_error"])):
        deg = report.sequences["degree_error"][n]
        proj = report.sequences["projection_error"][n]
        ratio = proj / deg if deg > 0 else ""
        agree = (float(np.mean(np.round(engine.sigma(f, n)) == f))
                 if signal == "label" else "")
        rows.append([n, deg, proj, ratio,
                     report.sequences["block_norm"][n],
                     report.sequences["k_functional"][n], agree])
    _write_csv(ws / "approx.csv",
               ["shell", "degree_error", "projection_error", "ratio",
                "block_norm", "k_functional", "label_agreement"], rows)
    _update_config(ws, "approx", {"order": args.order, "signal": signal})
    top = rows[-1][0] if rows else -1
    print(f"graded errors up to shell {top} written")
    return 0


def _sample_training_labels(index: dict[int, int], pct: float,
                            seed: int) -> dict[int, int]:
    """Pick pct% of each label class of ``label_index`` as training
    vertices, seeded."""
    classes: dict[int, list[int]] = {}
    for v, c in sorted(index.items()):
        classes.setdefault(c, []).append(v)
    rng = np.random.default_rng([seed, 13])
    train: dict[int, int] = {}
    for c in sorted(classes):
        members = classes[c]
        take = max(1, int(round(pct / 100.0 * len(members))))
        picked = rng.choice(members, size=min(take, len(members)),
                            replace=False)
        for v in picked:
            train[int(v)] = c
    return train


def cmd_metrics(args) -> int:
    """Seeded-trial scoring protocol.

    Takes the cluster stage's twin-tree construction, prepared once
    (weak components, symmetrizations, and for nhc the finest-level
    distances): in a pipeline run the very builder that cluster built
    from, on its own a new one with the parameters config.json records.
    It then clusters ``--trials`` times with child seeds (sampling
    --train-pct percent of each label class as training data when
    positive), all trials as one batch (``level_ids_batch``, two
    (trials, depth, n) level-id stacks), scores every level of the
    trials' twin trees' common refinements in one ``align_and_score``
    call, and writes mean/std rows per (level, metric), each taken
    straight from that level's array of scores over the trials that
    reach it, in trial order.  A trial builds no tree: the builder's
    level-id stacks number the nodes as the cluster stage's trees do,
    and the graph's degree totals are computed once for every score.  A
    random-coloring modularity baseline is appended per level when
    --baseline-trials is positive.
    """
    ws = Path(args.out)
    cfg = _load_config(ws)
    G = _load_graph(args)
    cl = cfg.get("cluster")
    if cl is None:
        raise SystemExit("run the cluster stage first (its parameters "
                         "define the trial protocol)")
    if args.train_pct > 0 and not G.labels:
        raise SystemExit("--train-pct needs a labeled graph")
    if G.labels:  # the F scores and --train-pct read every vertex's label
        _check_labels_cover(G, "metrics")
    _check_has_edges(G)
    index = label_index(G.labels)
    builder = _builder(args, G, cl["levels"], cl["algo"], cl["edge_length"],
                       cl["n_init"])
    child = np.random.SeedSequence([args.seed, 4242]).spawn(args.trials)
    seeds = [int(c.generate_state(1)[0]) for c in child]
    labeled = [None] * args.trials
    if args.train_pct > 0:
        labeled = [_sample_training_labels(index, args.train_pct, tseed)
                   for tseed in seeds]
    elif cl.get("labeled") and G.labels:
        labeled = [index] * args.trials
    rows = []
    for rec in metrics_mod.align_and_score(
            G, *builder.level_ids_batch(seeds, labeled),
            labels=G.labels or None):
        lv = rec["level"]
        k_mean = float(rec["n_clusters"].mean())
        for metric in ("modularity", "f_measure"):
            if metric in rec:
                vals = rec[metric]
                rows.append([lv, k_mean, metric, float(vals.mean()),
                             float(vals.std()), len(vals)])
        if args.baseline_trials > 0:
            base_seed = int(np.random.SeedSequence(
                [args.seed, 77, lv]).generate_state(1)[0])
            mean, std, _ = metrics_mod.random_coloring_baseline(
                G, max(int(round(k_mean)), 2), args.baseline_trials,
                base_seed)
            rows.append([lv, k_mean, "modularity_random", mean, std,
                         args.baseline_trials])
    _write_csv(ws / "metrics.csv",
               ["level", "k", "metric", "mean", "std", "trials"], rows)
    _update_config(ws, "metrics",
                   {"seed": args.seed, "trials": args.trials,
                    "train_pct": args.train_pct,
                    "baseline_trials": args.baseline_trials})
    for row in rows:
        print(f"level {row[0]} ({row[1]:.1f} clusters): {row[2]} "
              f"= {row[3]:.4f} +- {row[4]:.4f} over {row[5]} trials")
    return 0


def cmd_report(args) -> int:
    ws = Path(args.out)
    cfg = _load_config(ws)
    analyzed = _analyzed(cfg)
    order = cfg.get("approx", {}).get("order", 1.0)
    G = _load_graph(args)
    f = vertex_signal(G, analyzed.get("signal", "outdeg"))
    engine = _build_analysis(args, G, analyzed.get("partition_base", 2))
    report = _smoothness_profile(args, engine, f, order)
    report.save_json(ws / "smoothness.json")
    shown = {k: (f"{v:.3f}" if v is not None else "n/a")
             for k, v in report.gamma.items()}
    print("fitted exponents: " +
          ", ".join(f"{k}={v}" for k, v in sorted(shown.items())))
    return 0


def cmd_pipeline(args) -> int:
    args.held = {}
    (cmd_ingest if args.edges else cmd_synth)(args)
    # a bad --signal or an edgeless graph exits here, before any stage
    # past the graph's runs
    G = _load_graph(args)
    vertex_signal(G, args.signal)
    _check_has_edges(G)
    for stage in (cmd_cluster, cmd_trees, cmd_grid, cmd_analyze, cmd_approx,
                  cmd_metrics, cmd_report):
        stage(args)
    print(f"pipeline complete in {args.out}")
    return 0


# -- argument wiring -----------------------------------------------------------


def _partition_base(text: str) -> int:
    base = int(text)
    if base < 2:
        raise argparse.ArgumentTypeError(
            f"partition base must be at least 2, got {base}")
    return base


def _order(text: str) -> float:
    order = float(text)
    if not math.isfinite(order):
        raise argparse.ArgumentTypeError(
            f"differentiation order must be finite, got {text}")
    return order


def _levels(text: str) -> tuple[int, ...]:
    try:
        K = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated cluster counts such as 2,6, "
            f"got {text!r}") from None
    try:
        # counts at or above a component's size are clipped by twt
        return check_level_spec(K, math.inf)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _non_negative(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"count must not be negative, got {count}")
    return count


def _at_least_one(unit: str):
    """Parser of an integer count of at least one ``unit``."""
    def count(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"need at least one {unit}, got {value}")
        return value
    return count


def _train_pct(text: str) -> float:
    pct = float(text)
    if not 0 <= pct < 100:
        raise argparse.ArgumentTypeError(
            f"training percentage must lie in [0, 100), got {text}")
    return pct


def build_parser() -> argparse.ArgumentParser:
    """The twintree CLI.  Each option is declared once, in a parent parser
    that every stage taking it shares; pipeline takes them all."""
    parser = argparse.ArgumentParser(
        prog="twintree",
        description="twin hierarchies and harmonic analysis on digraphs")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    out = group()
    out.add_argument("--out", default="twintree_out",
                     help="workspace directory (default: %(default)s)")
    seed = group()
    seed.add_argument("--seed", type=int, default=0, help="random seed")
    signal = group()
    signal.add_argument("--signal", default="outdeg",
                        help="outdeg | label | file:PATH")
    ingest = group()
    ingest.add_argument("--labels", default=None, help="optional label file")
    synth = group()
    synth.add_argument("--kind", default="toy25",
                       choices=["toy25", "planted", "sparse"],
                       help="graph generator")
    synth.add_argument("--param", action="append", metavar="KEY=JSON",
                       help="extra generator parameter, repeatable")
    cluster = group()
    cluster.add_argument("--levels", type=_levels, default="2,6",
                         help="cluster counts per level, coarse to fine")
    cluster.add_argument("--algo", default="nhc",
                         choices=["nhc", "mll", "mbo"],
                         help="medoids on path (nhc) or diffusion (mll) "
                              "distance, or threshold dynamics (mbo)")
    cluster.add_argument("--labeled", action="store_true",
                         help="seed/anchor clustering with the graph's labels")
    cluster.add_argument("--edge-length", default="reciprocal",
                         choices=["reciprocal", "raw"], dest="edge_length",
                         help="path length of an edge of weight w: 1/w or "
                              "w (nhc only)")
    cluster.add_argument("--n-init", type=_at_least_one("start"), default=1,
                         dest="n_init",
                         help="best of this many medoid runs (nhc and mll; "
                              "mbo's coarse levels take one start)")
    grid = group()
    grid.add_argument("--scheme", default="uniform",
                      choices=["uniform", "volume"],
                      help="leaf masses: equal, or by weighted out-degree")
    analyze = group()
    analyze.add_argument("--mode", default="exact", choices=["exact"],
                         help="re-orthonormalized tensor products, the "
                              "only mode")
    analyze.add_argument("--partition-base", type=_partition_base, default=2,
                         dest="partition_base", help="shell base, at least 2")
    approx = group()
    approx.add_argument("--order", type=_order, default=1.0,
                        help="differentiation order for the K-functional")
    metrics = group()
    metrics.add_argument("--trials", type=_at_least_one("trial"), default=30,
                         help="seeded tree builds to score")
    metrics.add_argument("--train-pct", type=_train_pct, default=0.0,
                         dest="train_pct",
                         help="percent of each label class used as training "
                              "data per trial (0 = unsupervised)")
    metrics.add_argument("--baseline-trials", type=_non_negative,
                         default=100, dest="baseline_trials",
                         help="random colorings per level (0 = no baseline)")

    def stage(name, func, summary, *groups) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, description=summary,
                           parents=[out, *groups])
        p.set_defaults(func=func)
        return p

    edges_help = "edge list file"
    stage("ingest", cmd_ingest, "load an edge list", ingest).add_argument(
        "--edges", required=True, help=edges_help)
    stage("synth", cmd_synth, "synthesize a benchmark digraph", synth, seed)
    stage("cluster", cmd_cluster, "build the twin hierarchies", cluster, seed)
    stage("trees", cmd_trees, "summarize the twin hierarchies")
    stage("grid", cmd_grid, "build the product grid", grid).add_argument(
        "--no-normalize", action="store_true", dest="no_normalize",
        help="keep raw product masses, not a probability measure")
    stage("analyze", cmd_analyze, "expand a signal on the grid",
          analyze, signal)
    stage("approx", cmd_approx, "graded error sequences", approx, signal)
    stage("metrics", cmd_metrics, "seeded-trial scoring protocol",
          metrics, seed)
    stage("report", cmd_report, "fit smoothness exponents")
    p = stage("pipeline", cmd_pipeline, "run every stage in order; --edges "
              "ingests an edge list instead of synthesizing a graph", ingest,
              synth, seed, cluster, grid, analyze, signal, approx, metrics)
    p.add_argument("--edges", default=None, help=edges_help)
    p.set_defaults(no_normalize=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
