"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

A workload is driven as ``setup()`` (timed as set-up, repeatable), then
for i = 0, 1, ...: ``prepare(i)`` (untimed), ``op(i)`` (timed) and
``check(i)`` (untimed), which returns the failed checks of that
operation.  Operations cycle over ``cycle`` inputs (graphs, or signal
kinds).  ``facts()`` describes the inputs after the measurement.

Every check compares an operation's outputs in three ways:
  * byte for byte against the run's first operation on the same input
    (artifacts are deterministic for a fixed input);
  * against reference.jsonl (written by capture_reference.py) when it
    holds the run's seed: structural outputs (trees, grid, Omega's
    kept/dropped sets, metrics levels / cluster counts / trial counts)
    exactly, floats within FLOAT_RTOL / FLOAT_ATOL;
  * against invariants that hold for any seed (orthogonality defect and
    reconstruction residual, round trips, minimax <= projection error).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
from scipy import sparse

from twintree import analysis, basis, cli, clustering, digraph, filtration

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.jsonl"

# Floats may move by reordered arithmetic (and LP tolerance, ~1e-7 in
# HiGHS) but not by more.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
# Exact mode promises an orthonormal system and exact reconstruction.
EXACT_TOL = 1e-10


def load_reference() -> dict:
    """{workload: {key: value}} from lines ``[workload, key, value]``."""
    ref: dict = {}
    if REFERENCE_PATH.is_file():
        for line in REFERENCE_PATH.read_text().splitlines():
            workload, key, value = json.loads(line)
            ref.setdefault(workload, {})[key] = value
    return ref


def save_reference(ref: dict) -> None:
    REFERENCE_PATH.write_text("".join(
        json.dumps([w, k, ref[w][k]], sort_keys=True) + "\n"
        for w in sorted(ref) for k in sorted(ref[w])))


def planted_graph(rng: np.random.Generator, sizes, p_in: float,
                  p_out: float) -> tuple[np.ndarray, np.ndarray]:
    """Planted block digraph: (edge array (m, 2) row-major, block of each vertex)."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    prob = np.where(block[:, None] == block[None, :], p_in, p_out)
    mask = rng.random(prob.shape) < prob
    np.fill_diagonal(mask, False)
    return np.argwhere(mask), block


def write_graph(directory: Path, edges: np.ndarray,
                block: np.ndarray) -> tuple[Path, Path]:
    """Write edges.tsv (``src dst weight``) and labels.tsv (``id block``)."""
    directory.mkdir(parents=True, exist_ok=True)
    edge_path = directory / "edges.tsv"
    label_path = directory / "labels.tsv"
    edge_path.write_text("".join(f"v{u}\tv{v}\t1.0\n" for u, v in edges))
    label_path.write_text("".join(f"v{v}\t{b}\n" for v, b in enumerate(block)))
    return edge_path, label_path


def graph_facts(G: digraph.WeightedDigraph) -> dict:
    return {"N": G.n, "nnz": int(G.weights.nnz),
            "sym_nnz_es": int(digraph.symmetrize(G, "es").weights.nnz),
            "sym_nnz_os": int(digraph.symmetrize(G, "os").weights.nnz)}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _num(text: str):
    return None if text == "" else float(text)


def close(a, b, where: str = "") -> list[str]:
    """Differences between two JSON-like values; floats within tolerance."""
    if isinstance(a, float) or isinstance(b, float):
        if a is None or b is None:
            return [] if a is b else [f"{where}: {a!r} != {b!r}"]
        if math.isnan(a) and math.isnan(b):
            return []
        if abs(a - b) <= FLOAT_ATOL + FLOAT_RTOL * abs(b):
            return []
        return [f"{where}: {a!r} != {b!r}"]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{where}: keys {sorted(a)} != {sorted(b)}"]
        return [d for k in a for d in close(a[k], b[k], f"{where}.{k}")]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{where}: length {len(a)} != {len(b)}"]
        return [d for j, (x, y) in enumerate(zip(a, b))
                for d in close(x, y, f"{where}[{j}]")]
    return [] if a == b else [f"{where}: {a!r} != {b!r}"]


def _metrics_outputs(ws: Path, trials: int, baseline_trials: int,
                     problems: list[str]) -> tuple[str, list]:
    """(digest of the level/k/metric/trials columns, [mean, std] rows)."""
    rows = _csv(ws / "metrics.csv")
    if not rows:
        problems.append("metrics.csv is empty")
    for r in rows:
        want = baseline_trials if r["metric"] == "modularity_random" else trials
        if int(r["trials"]) != want:
            problems.append(f"metrics.csv {r['metric']} level {r['level']}: "
                            f"{r['trials']} trials, expected {want}")
        if r["metric"].startswith("modularity") and not -1.0 <= float(r["mean"]) <= 1.0:
            problems.append(f"modularity {r['mean']} outside [-1, 1]")
    exact = _sha(json.dumps([[r["level"], r["k"], r["metric"], r["trials"]]
                             for r in rows]).encode())
    return exact, [[float(r["mean"]), float(r["std"])] for r in rows]


def _graded_errors_ok(deg: list, proj: list, where: str) -> list[str]:
    """The minimax error of a span is at most the error of any member of
    it (sigma_n included) and does not grow as the spans grow."""
    out = []
    for n, (d, p) in enumerate(zip(deg, proj)):
        if not (math.isfinite(d) and math.isfinite(p) and d >= -FLOAT_ATOL):
            out.append(f"{where}: non-finite or negative error at shell {n}")
        elif d > p + 1e-6 * max(1.0, p):
            out.append(f"{where}: minimax error {d} above projection "
                       f"error {p} at shell {n}")
    for n in range(1, len(deg)):
        if deg[n] > deg[n - 1] + 1e-6 * max(1.0, deg[n - 1]):
            out.append(f"{where}: minimax error grows at shell {n}")
    return out


def vector_digest(v) -> list[float]:
    """Norms and an order-sensitive sum: what the reference keeps of a vector."""
    v = np.asarray(v, dtype=float)
    return [float(np.sqrt(v @ v)), float(np.max(np.abs(v))),
            float(np.arange(1, len(v) + 1) @ v)]


class CliWorkload:
    """The command line on ``cycle`` generated digraphs, each in its workspace.

    Operation i uses graph i % cycle, so a run covers several inputs:
    |Omega|, and with it the cost of an engine build, varies by about
    15 % between planted graphs of one size.
    """

    name = ""
    sizes: tuple[int, ...] = ()
    p_in, p_out = 0.2, 0.01
    cycle = 4   # graphs per run

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        self.dir = workdir
        self.reference = reference.get(self.name, {}).get(str(seed))
        self.has_reference = self.reference is not None
        self.first_digests: dict[int, dict] = {}

    def _generate(self) -> None:
        rng = np.random.default_rng([self.seed, len(self.sizes)])
        self.inputs = [write_graph(self.dir / f"g{g}",
                                   *planted_graph(rng, self.sizes,
                                                  self.p_in, self.p_out))
                       for g in range(self.cycle)]

    def ws(self, i: int) -> Path:
        return self.dir / f"g{i % self.cycle}" / "ws"

    def _cli(self, i: int, *argv: str) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main([argv[0], "--out", str(self.ws(i)), *argv[1:]])

    def check_setup(self) -> list[str]:
        return []

    def outputs(self, ws: Path, problems: list[str]) -> tuple[dict, dict]:
        raise NotImplementedError

    def check(self, i: int) -> list[str]:
        g, ws = i % self.cycle, self.ws(i)
        problems: list[str] = []
        digests = {p.name: _sha(p.read_bytes()) for p in sorted(ws.iterdir())}
        first = self.first_digests.setdefault(g, digests)
        if digests != first:
            changed = sorted(k for k in digests.keys() | first
                             if digests.get(k) != first.get(k))
            problems.append(f"graph {g}: artifacts differ from the run's "
                            f"first operation on it: {changed}")
        exact, floats = self.outputs(ws, problems)
        if self.reference is not None:
            ref = self.reference[g]
            problems += close(exact, ref["exact"], f"graph {g} exact")
            problems += close(floats, ref["float"], f"graph {g} float")
        return problems

    def facts(self, ops: int) -> list[dict]:
        """Facts of the inputs that the first ``ops`` operations used."""
        return [self.graph_facts(g) for g in range(min(ops, self.cycle))]

    def graph_facts(self, g: int) -> dict:
        ws = self.ws(g)
        return {**graph_facts(digraph.load_edge_list(*self.inputs[g])),
                "artifact_bytes": sum(p.stat().st_size
                                      for p in ws.iterdir())}


class Pipeline(CliWorkload):
    """``twintree pipeline`` end to end on 2-block planted digraphs."""

    name = "pipeline"
    sizes = (50, 50)
    levels, trials, baseline_trials = "2,8", 5, 40

    def setup(self) -> None:
        self._generate()

    def prepare(self, i: int) -> None:
        shutil.rmtree(self.ws(i), ignore_errors=True)

    def op(self, i: int) -> None:
        edges, labels = self.inputs[i % self.cycle]
        self._cli(i, "pipeline", "--edges", str(edges),
                  "--labels", str(labels), "--levels", self.levels,
                  "--mode", "exact", "--signal", "outdeg",
                  "--trials", str(self.trials),
                  "--baseline-trials", str(self.baseline_trials),
                  "--seed", str(self.seed))

    def outputs(self, ws: Path, problems: list[str]) -> tuple[dict, dict]:
        summary = json.loads((ws / "analysis.json").read_text())
        for key in ("orthogonality_defect", "reconstruction_residual"):
            if not summary[key] <= EXACT_TOL:
                problems.append(f"{key} {summary[key]} above {EXACT_TOL}")
        omega = _csv(ws / "omega.csv")
        if sum(r["status"] == "active" for r in omega) != summary["active"]:
            problems.append("omega.csv and analysis.json disagree on |active|")
        approx = _csv(ws / "approx.csv")
        deg = [float(r["degree_error"]) for r in approx]
        proj = [float(r["projection_error"]) for r in approx]
        problems += _graded_errors_ok(deg, proj, "approx.csv")
        smooth = json.loads((ws / "smoothness.json").read_text())
        m_exact, m_float = _metrics_outputs(ws, self.trials,
                                            self.baseline_trials, problems)
        exact = {name: _sha((ws / name).read_bytes())
                 for name in ("digraph.json", "tree_es.json", "tree_os.json",
                              "trees.json", "grid.csv", "omega.csv")}
        exact.update({
            "metrics_columns": m_exact,
            "analysis": {k: summary[k] for k in ("grid_points", "omega_size",
                                                 "active", "dropped",
                                                 "max_shell")},
            "fit_points": smooth["fit_points"],
        })
        floats = {
            "coefficients": vector_digest(
                [float(r["coefficient"]) for r in _csv(ws / "coefficients.csv")]),
            "approx": [[_num(r[c]) for c in ("degree_error",
                                             "projection_error", "ratio",
                                             "block_norm", "k_functional")]
                       for r in approx],
            "gamma": smooth["gamma"],
            "sequences": smooth["sequences"],
            "metrics": m_float,
        }
        return exact, floats

    def graph_facts(self, g: int) -> dict:
        ws = self.ws(g)
        summary = json.loads((ws / "analysis.json").read_text())
        omega = _csv(ws / "omega.csv")
        last = max(j for j, r in enumerate(omega) if r["status"] == "active")
        return {**super().graph_facts(g),
                "omega_size": summary["omega_size"],
                "active": summary["active"], "full_rank_row": last + 1,
                "max_shell": summary["max_shell"], "levels": self.levels,
                "trials": self.trials,
                "baseline_trials": self.baseline_trials}


class Protocol(CliWorkload):
    """``twintree cluster`` then ``twintree metrics`` on 4-block digraphs."""

    name = "protocol"
    sizes = (30, 30, 30, 30)
    levels, trials, baseline_trials = "4,16", 30, 100

    def setup(self) -> None:
        self._generate()
        for g, (edges, labels) in enumerate(self.inputs):
            shutil.rmtree(self.ws(g), ignore_errors=True)
            self._cli(g, "ingest", "--edges", str(edges),
                      "--labels", str(labels))

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int) -> None:
        self._cli(i, "cluster", "--levels", self.levels,
                  "--seed", str(self.seed))
        self._cli(i, "metrics", "--trials", str(self.trials),
                  "--baseline-trials", str(self.baseline_trials),
                  "--seed", str(self.seed))

    def outputs(self, ws: Path, problems: list[str]) -> tuple[dict, dict]:
        m_exact, m_float = _metrics_outputs(ws, self.trials,
                                            self.baseline_trials, problems)
        exact = {name: _sha((ws / name).read_bytes())
                 for name in ("digraph.json", "tree_es.json", "tree_os.json")}
        exact["metrics_columns"] = m_exact
        return exact, {"metrics": m_float}

    def graph_facts(self, g: int) -> dict:
        return {**super().graph_facts(g), "levels": self.levels,
                "trials": self.trials,
                "baseline_trials": self.baseline_trials}


class Signals:
    """Many signals through one exact engine built at set-up.

    The graph is fixed (GRAPH_SEED) and the seed drives the signal
    stream: per-signal cost is set by the engine's |Omega| and shell
    count, which differ by up to 2x between planted graphs of the same
    size, and would bury a change in between-seed noise.  The graph
    side is varied by the pipeline and protocol workloads.
    """

    name = "signals"
    sizes = (60, 60)
    GRAPH_SEED = 1
    levels = (2, 8)
    kinds = ("outdeg", "indeg", "label", "noise")
    cycle = len(kinds)
    reference_noise = 2   # noise signals per seed kept in the reference

    def __init__(self, seed: int, workdir: Path, reference: dict):
        self.seed = seed
        ref = reference.get(self.name, {})
        self.ref_engine = ref.get("engine")
        self.ref_kinds = ref.get("kinds", {})
        self.ref_noise = ref.get(str(seed), [])
        self.has_reference = bool(self.ref_noise)
        self.first: dict[str, dict] = {}
        self.noise_seen = 0

    def setup(self) -> None:
        rng = np.random.default_rng([self.GRAPH_SEED, len(self.sizes)])
        edges, block = planted_graph(rng, self.sizes, 0.2, 0.01)
        n = len(block)
        W = sparse.csr_array((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                             shape=(n, n))
        G = digraph.WeightedDigraph(
            W, labels={v: (str(b),) for v, b in enumerate(block)})
        tree_es, tree_os = clustering.twt(G, self.levels, seed=self.GRAPH_SEED)
        filt_es = filtration.build_filtration(tree_es, "volume", G)
        filt_os = filtration.build_filtration(tree_os, "volume", G)
        self.engine = analysis.GridAnalysis(
            analysis.build_grid(filt_es, filt_os),
            basis.TreeBasis(filt_es), basis.TreeBasis(filt_os))
        self.mu = analysis.default_multiplier(self.engine.freqs)
        self.G, self.block = G, block
        self.restart_stream()

    def restart_stream(self) -> None:
        """Start the seeded stream of noise signals from its beginning."""
        self.rng = np.random.default_rng([self.seed, 2])

    def engine_facts(self) -> dict:
        e = self.engine
        return {"omega_size": len(e.freqs), "active": len(e.active),
                "full_rank_row": e.freqs.omega.index(e.active[-1]) + 1,
                "max_shell": e.max_shell(),
                "dropped": _sha(json.dumps(e.dropped).encode())}

    def check_setup(self) -> list[str]:
        problems = []
        defect = self.engine.orthogonality_defect()
        if not defect <= EXACT_TOL:
            problems.append(f"engine orthogonality defect {defect}")
        if self.ref_engine is not None:
            problems += close(self.engine_facts(), self.ref_engine, "engine")
        return problems

    def prepare(self, i: int) -> None:
        kind = self.kinds[i % self.cycle]
        if kind == "outdeg":
            f = self.G.out_degrees()
        elif kind == "indeg":
            f = self.G.in_degrees()
        elif kind == "label":
            f = self.block.astype(float)
        else:
            f = self.rng.standard_normal(self.G.n)
        self.kind, self.f = kind, np.asarray(f, dtype=float)

    def op(self, i: int) -> None:
        e = self.engine
        coeffs = e.analyze(self.f)
        back = e.synthesize(coeffs)
        deriv = e.derivative(self.f, self.mu)
        report = e.smoothness_profile(self.f)
        self.result = (coeffs, back, deriv, report)

    def record(self) -> dict:
        """The last operation's outputs as a JSON-like value."""
        coeffs, _, deriv, report = self.result
        return {"coefficients": [float(c) for c in coeffs.values()],
                "derivative": [float(x) for x in deriv],
                "gamma": report.gamma, "sequences": report.sequences}

    def check(self, i: int) -> list[str]:
        _, back, deriv, report = self.result
        f = self.f
        problems = []
        err = float(np.max(np.abs(f - back)))
        if not err <= EXACT_TOL * max(1.0, float(np.max(np.abs(f)))):
            problems.append(f"{self.kind}: round trip error {err}")
        if not np.all(np.isfinite(deriv)):
            problems.append(f"{self.kind}: non-finite derivative")
        seqs = report.sequences
        problems += _graded_errors_ok(seqs["degree_error"],
                                      seqs["projection_error"], self.kind)
        out = self.record()
        if self.kind == "noise":
            j = self.noise_seen
            self.noise_seen += 1
            if j < len(self.ref_noise):
                problems += close(reference_record(out), self.ref_noise[j],
                                  f"noise[{j}]")
        else:
            if self.kind not in self.first:
                self.first[self.kind] = out
            elif out != self.first[self.kind]:
                problems.append(f"{self.kind}: differs from its first run")
            if self.kind in self.ref_kinds:
                problems += close(reference_record(out),
                                  self.ref_kinds[self.kind], self.kind)
        return problems

    def facts(self, ops: int) -> list[dict]:
        e = self.engine_facts()
        del e["dropped"]
        return [{**graph_facts(self.G), **e, "levels": list(self.levels),
                 "scheme": "volume", "kinds": "/".join(self.kinds)}]


def reference_record(out: dict) -> dict:
    """What the reference keeps of a signal's outputs: vectors as digests."""
    return {**out, "coefficients": vector_digest(out["coefficients"]),
            "derivative": vector_digest(out["derivative"])}


WORKLOADS = {w.name: w for w in (Pipeline, Protocol, Signals)}
