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
from .digraph import (WeightedDigraph, load_edge_list, load_labels,
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
    with open(ws / "config.json", "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return cfg


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _need(ws: Path, name: str) -> Path:
    path = ws / name
    if not path.exists():
        raise SystemExit(
            f"missing artifact {path}; run the producing stage first")
    return path


def _load_graph(ws: Path) -> WeightedDigraph:
    return WeightedDigraph.load_json(_need(ws, "digraph.json"))


def _load_trees(ws: Path) -> tuple[ClusterTree, ClusterTree]:
    return (ClusterTree.load_json(_need(ws, "tree_es.json")),
            ClusterTree.load_json(_need(ws, "tree_os.json")))


class PipelineRun:
    """What the stages of one ``pipeline`` run share in memory.

    cmd_pipeline makes one per run and hands it to analyze, approx and
    report, so the run builds one engine and fits one smoothness
    profile.  Nothing outlives the run: the next run builds its own,
    and a stage run on its own gets none and rebuilds from artifacts.
    """

    def __init__(self):
        self.engine_key: tuple | None = None
        self.engine: GridAnalysis | None = None
        self.profile_key: tuple | None = None
        self.profile: SmoothnessReport | None = None


def _build_analysis(ws: Path, G: WeightedDigraph,
                    run: PipelineRun | None = None) -> GridAnalysis:
    """Reconstruct the exact grid and analysis engine from artifacts.

    With a run, the engine is built once and returned again while the
    configured grid scheme and normalization, analyze mode and
    partition base stay the same.
    """
    cfg = _load_config(ws)
    key = (cfg.get("grid", {}).get("scheme", "uniform"),
           cfg.get("grid", {}).get("normalize", True),
           cfg.get("analyze", {}).get("mode", "exact"),
           cfg.get("analyze", {}).get("partition_base", 2))
    if run is not None and run.engine_key == key:
        return run.engine
    scheme, normalize, mode, base = key
    tree_es, tree_os = _load_trees(ws)
    filt_es = build_filtration(tree_es, scheme, G)
    filt_os = build_filtration(tree_os, scheme, G)
    grid = build_grid(filt_es, filt_os, normalize=normalize)
    engine = GridAnalysis(grid, TreeBasis(filt_es), TreeBasis(filt_os),
                          mode=mode, partition_base=base)
    if run is not None:
        run.engine_key, run.engine = key, engine
    return engine


def _smoothness_profile(engine: GridAnalysis, f: np.ndarray, order: float,
                        run: PipelineRun | None = None) -> SmoothnessReport:
    """The engine's smoothness profile of f, fitted once per run for one
    engine, signal and order."""
    key = (engine, f.tobytes(), order)
    if run is not None and run.profile_key == key:
        return run.profile
    report = engine.smoothness_profile(f, order=order)
    if run is not None:
        run.profile_key, run.profile = key, report
    return report


def _label_index(G: WeightedDigraph) -> dict[int, int]:
    """Vertex -> index of its top-level label class, classes sorted by name."""
    classes = sorted({path[0] for path in G.labels.values()})
    index = {c: i for i, c in enumerate(classes)}
    return {v: index[path[0]] for v, path in G.labels.items()}


def _check_labels_cover(G: WeightedDigraph, use: str) -> None:
    """Exit unless every vertex of a labeled graph carries a label."""
    missing = sum(1 for v in range(G.n) if v not in G.labels)
    if missing:
        raise SystemExit(f"{use} needs a label on every vertex: {missing} "
                         f"of {G.n} vertices carry none")


def vertex_signal(G: WeightedDigraph, kind: str) -> np.ndarray:
    """Grid function to analyze: per-vertex values in vertex-id order."""
    if kind == "outdeg":
        return G.out_degrees().astype(float)
    if kind == "label":
        if not G.labels:
            raise SystemExit("graph carries no labels; use another signal")
        _check_labels_cover(G, "--signal label")
        index = _label_index(G)
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
    ws = Path(args.out)
    ws.mkdir(parents=True, exist_ok=True)
    G.save_json(ws / "digraph.json")
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
    ws = Path(args.out)
    ws.mkdir(parents=True, exist_ok=True)
    G.save_json(ws / "digraph.json")
    _update_config(ws, "synth",
                   {"kind": args.kind, "seed": args.seed, "params": params})
    print(f"synthesized {args.kind}: {G.n} vertices, "
          f"{G.edge_count()} edges")
    return 0


def cmd_cluster(args) -> int:
    ws = Path(args.out)
    G = _load_graph(ws)
    K = args.levels
    labeled = None
    if args.labeled:
        if not G.labels:
            raise SystemExit("--labeled needs a graph with labels")
        labeled = _label_index(G)
    tree_es, tree_os = twt(G, K, algo=args.algo, seed=args.seed,
                           labeled=labeled,
                           edge_length=args.edge_length,
                           n_init=args.n_init)
    tree_es.save_json(ws / "tree_es.json")
    tree_os.save_json(ws / "tree_os.json")
    _update_config(ws, "cluster",
                   {"algo": args.algo, "levels": list(K),
                    "seed": args.seed, "labeled": bool(args.labeled),
                    "edge_length": args.edge_length,
                    "n_init": args.n_init})
    print(f"built twin trees: depths {tree_es.depth()} / {tree_os.depth()}")
    return 0


def cmd_trees(args) -> int:
    ws = Path(args.out)
    tree_es, tree_os = _load_trees(ws)
    summary = {}
    for side, tree in (("es", tree_es), ("os", tree_os)):
        levels = []
        for lv in range(tree.depth() + 1):
            sizes = sorted((len(n.members) for n in tree.level_nodes(lv)),
                           reverse=True)
            levels.append({"level": lv, "clusters": len(sizes),
                           "sizes": sizes})
        summary[side] = {"depth": tree.depth(), "levels": levels}
    with open(ws / "trees.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    for side in ("es", "os"):
        info = summary[side]
        counts = "/".join(str(lv["clusters"]) for lv in info["levels"])
        print(f"{side}: depth {info['depth']}, clusters per level {counts}")
    return 0


def cmd_grid(args) -> int:
    ws = Path(args.out)
    G = _load_graph(ws)
    tree_es, tree_os = _load_trees(ws)
    filt_es = build_filtration(tree_es, args.scheme, G)
    filt_os = build_filtration(tree_os, args.scheme, G)
    grid = build_grid(filt_es, filt_os, normalize=not args.no_normalize)
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
    G = _load_graph(ws)
    f = vertex_signal(G, args.signal)
    _need(ws, "tree_es.json")
    _need(ws, "tree_os.json")
    _update_config(ws, "analyze",
                   {"mode": args.mode, "signal": args.signal,
                    "partition_base": args.partition_base})
    engine = _build_analysis(ws, G, getattr(args, "run", None))
    active = set(engine.active)
    rows = []
    for k, shell in zip(engine.freqs.omega, engine.omega_shell.tolist()):
        status = "active" if k in active else "dropped"
        rows.append([k[0], k[1], shell, status])
    _write_csv(ws / "omega.csv", ["k1", "k2", "shell", "status"], rows)
    coeffs = engine.analyze(f)
    _write_csv(ws / "coefficients.csv", ["k1", "k2", "coefficient"],
               [[k[0], k[1], float(c)] for k, c in coeffs.items()])
    defect = engine.orthogonality_defect()
    resid = engine.l2_norm(f - engine.synthesize(coeffs))
    summary = {
        "mode": engine.mode,
        "signal": args.signal,
        "grid_points": len(engine.grid),
        "omega_size": len(engine.freqs),
        "active": len(engine.active),
        "dropped": len(engine.dropped),
        "max_shell": engine.max_shell(),
        "orthogonality_defect": defect,
        "reconstruction_residual": resid,
    }
    with open(ws / "analysis.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"mode {engine.mode}: {len(engine.active)} active of "
          f"{len(engine.freqs)} indices, defect {defect:.2e}")
    return 0


def cmd_approx(args) -> int:
    """Graded error sequences, one row per shell.

    When the analyzed signal encodes class labels, each low-pass
    reconstruction is rounded back to the nearest class index and the
    per-shell agreement fraction is recorded alongside the errors.
    """
    ws = Path(args.out)
    cfg = _load_config(ws)
    signal = cfg.get("analyze", {}).get("signal", args.signal)
    G = _load_graph(ws)
    f = vertex_signal(G, signal)
    run = getattr(args, "run", None)
    engine = _build_analysis(ws, G, run)
    try:
        report = _smoothness_profile(engine, f, args.order, run)
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


def _sample_training_labels(G: WeightedDigraph, pct: float,
                            seed: int) -> dict[int, int]:
    """Pick pct% of each label class as training vertices, seeded."""
    index = _label_index(G)
    classes: dict[int, list[int]] = {}
    for v in range(G.n):
        classes.setdefault(index[v], []).append(v)
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

    Prepares the cluster stage's twin-tree construction once (weak
    components, symmetrizations, and for nhc the finest-level
    distances), then builds the trees ``--trials`` times with child
    seeds (sampling --train-pct percent of each label class as training
    data when positive), scores every level of the twin trees' common
    refinement, and writes mean/std rows per (level, metric).  A
    random-coloring modularity baseline is appended per level when
    --baseline-trials is positive.
    """
    ws = Path(args.out)
    cfg = _load_config(ws)
    G = _load_graph(ws)
    cl = cfg.get("cluster")
    if cl is None:
        raise SystemExit("run the cluster stage first (its parameters "
                         "define the trial protocol)")
    if args.train_pct > 0 and not G.labels:
        raise SystemExit("--train-pct needs a labeled graph")
    if G.labels:  # the F scores and --train-pct read every vertex's label
        _check_labels_cover(G, "metrics")
    builder = TwinTreeBuilder(G, cl["levels"], algo=cl["algo"],
                              edge_length=cl["edge_length"],
                              n_init=cl["n_init"])
    child = np.random.SeedSequence([args.seed, 4242]).spawn(args.trials)
    by_level: dict[int, dict[str, list[float]]] = {}
    counts: dict[int, list[float]] = {}
    for t in range(args.trials):
        tseed = int(child[t].generate_state(1)[0])
        labeled = None
        if args.train_pct > 0:
            labeled = _sample_training_labels(G, args.train_pct, tseed)
        elif cl.get("labeled") and G.labels:
            labeled = _label_index(G)
        tree_es, tree_os = builder.build(tseed, labeled)
        for rec in metrics_mod.align_and_score(G, tree_es, tree_os,
                                               labels=G.labels or None):
            lv = rec["level"]
            slot = by_level.setdefault(lv, {})
            counts.setdefault(lv, []).append(float(rec["n_clusters"]))
            slot.setdefault("modularity", []).append(rec["modularity"])
            if "f_measure" in rec:
                slot.setdefault("f_measure", []).append(rec["f_measure"])
    rows = []
    for lv in sorted(by_level):
        k_mean = float(np.mean(counts[lv]))
        for metric in ("modularity", "f_measure"):
            vals = by_level[lv].get(metric)
            if not vals:
                continue
            arr = np.array(vals)
            rows.append([lv, k_mean, metric, float(arr.mean()),
                         float(arr.std()), len(vals)])
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
    signal = cfg.get("analyze", {}).get("signal", "outdeg")
    order = cfg.get("approx", {}).get("order", 1.0)
    G = _load_graph(ws)
    f = vertex_signal(G, signal)
    run = getattr(args, "run", None)
    engine = _build_analysis(ws, G, run)
    report = _smoothness_profile(engine, f, order, run)
    report.save_json(ws / "smoothness.json")
    shown = {k: (f"{v:.3f}" if v is not None else "n/a")
             for k, v in report.gamma.items()}
    print("fitted exponents: " +
          ", ".join(f"{k}={v}" for k, v in sorted(shown.items())))
    return 0


def cmd_pipeline(args) -> int:
    run = PipelineRun()
    if args.edges:
        cmd_ingest(argparse.Namespace(out=args.out, edges=args.edges,
                                      labels=args.labels))
    else:
        cmd_synth(argparse.Namespace(out=args.out, kind=args.kind,
                                     seed=args.seed, param=args.param))
    # a bad --signal exits here, before any stage past the graph's runs
    vertex_signal(_load_graph(Path(args.out)), args.signal)
    cmd_cluster(argparse.Namespace(
        out=args.out, levels=args.levels, algo=args.algo, seed=args.seed,
        labeled=args.labeled, edge_length=args.edge_length,
        n_init=args.n_init))
    cmd_trees(argparse.Namespace(out=args.out))
    cmd_grid(argparse.Namespace(out=args.out, scheme=args.scheme,
                                no_normalize=False))
    cmd_analyze(argparse.Namespace(out=args.out, mode=args.mode,
                                   signal=args.signal,
                                   partition_base=args.partition_base,
                                   run=run))
    cmd_approx(argparse.Namespace(out=args.out, order=args.order,
                                  signal=args.signal, run=run))
    cmd_metrics(argparse.Namespace(out=args.out, seed=args.seed,
                                   trials=args.trials,
                                   train_pct=args.train_pct,
                                   baseline_trials=args.baseline_trials))
    cmd_report(argparse.Namespace(out=args.out, run=run))
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
    parser = argparse.ArgumentParser(
        prog="twintree",
        description="twin hierarchies and harmonic analysis on digraphs")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p):
        p.add_argument("--out", default="twintree_out",
                       help="workspace directory (default: %(default)s)")

    p = sub.add_parser("ingest", help="load an edge list")
    add_out(p)
    p.add_argument("--edges", required=True, help="edge list file")
    p.add_argument("--labels", default=None, help="optional label file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="synthesize a benchmark digraph")
    add_out(p)
    p.add_argument("--kind", default="toy25",
                   choices=["toy25", "planted", "sparse"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", metavar="KEY=JSON",
                   help="extra generator parameter, repeatable")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("cluster", help="build the twin hierarchies")
    add_out(p)
    p.add_argument("--levels", type=_levels, default="2,6",
                   help="cluster counts per level, coarse to fine")
    p.add_argument("--algo", default="nhc", choices=["nhc", "mll", "mbo"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--labeled", action="store_true",
                   help="seed/anchor clustering with the graph's labels")
    p.add_argument("--edge-length", default="reciprocal",
                   choices=["reciprocal", "raw"], dest="edge_length")
    p.add_argument("--n-init", type=_at_least_one("start"), default=1,
                   dest="n_init")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("trees", help="summarize the twin hierarchies")
    add_out(p)
    p.set_defaults(func=cmd_trees)

    p = sub.add_parser("grid", help="build the product grid")
    add_out(p)
    p.add_argument("--scheme", default="uniform",
                   choices=["uniform", "volume"])
    p.add_argument("--no-normalize", action="store_true",
                   dest="no_normalize")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("analyze", help="expand a signal on the grid")
    add_out(p)
    p.add_argument("--mode", default="exact",
                   choices=["exact", "idealized"])
    p.add_argument("--signal", default="outdeg",
                   help="outdeg | label | file:PATH")
    p.add_argument("--partition-base", type=_partition_base, default=2,
                   dest="partition_base")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("approx", help="graded error sequences")
    add_out(p)
    p.add_argument("--order", type=_order, default=1.0,
                   help="differentiation order for the K-functional")
    p.add_argument("--signal", default="outdeg")
    p.set_defaults(func=cmd_approx)

    p = sub.add_parser("metrics", help="seeded-trial scoring protocol")
    add_out(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_at_least_one("trial"), default=30)
    p.add_argument("--train-pct", type=_train_pct, default=0.0,
                   dest="train_pct",
                   help="percent of each label class used as training "
                        "data per trial (0 = unsupervised)")
    p.add_argument("--baseline-trials", type=_non_negative, default=100,
                   dest="baseline_trials")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("report", help="fit smoothness exponents")
    add_out(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("pipeline", help="run every stage in order")
    add_out(p)
    p.add_argument("--edges", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--kind", default="toy25",
                   choices=["toy25", "planted", "sparse"])
    p.add_argument("--param", action="append", metavar="KEY=JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--levels", type=_levels, default="2,6")
    p.add_argument("--algo", default="nhc", choices=["nhc", "mll", "mbo"])
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--edge-length", default="reciprocal",
                   choices=["reciprocal", "raw"], dest="edge_length")
    p.add_argument("--n-init", type=_at_least_one("start"), default=1,
                   dest="n_init")
    p.add_argument("--scheme", default="uniform",
                   choices=["uniform", "volume"])
    p.add_argument("--mode", default="exact",
                   choices=["exact", "idealized"])
    p.add_argument("--signal", default="outdeg")
    p.add_argument("--partition-base", type=_partition_base, default=2,
                   dest="partition_base")
    p.add_argument("--order", type=_order, default=1.0)
    p.add_argument("--trials", type=_at_least_one("trial"), default=30)
    p.add_argument("--train-pct", type=_train_pct, default=0.0,
                   dest="train_pct")
    p.add_argument("--baseline-trials", type=_non_negative, default=100,
                   dest="baseline_trials")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
