"""Run a fixed corpus of `twintree pipeline` configurations into OUT.

Usage:  PYTHONPATH=<checkout>/src python3 tools/same_bytes.py OUT

Every configuration runs `twintree pipeline --trials 3
--baseline-trials 10` into the workspace OUT/<name> and saves its
stdout as OUT/<name>.stdout; paths are given relative to OUT, so
neither depends on where OUT is.
Besides twelve synthesized graphs, the corpus ingests six edge lists
that the script writes to OUT/inputs from fixed numpy seeds: a labeled
planted 20/20 digraph, four degenerate ones (fragmented, out-star,
self-loops, heavy-tailed weights) and a planted 20/20/6 one with no
edges between blocks, labeled v % 3.  Two configurations (`*_deep`) ask
for three levels, so that a coarse graph is coarse-grained again.  One
(`planted_volume_blocks`, planted 60/60) is large enough
that the rank scan runs over several blocks: |Omega| = 7 058 and full
rank is reached at Omega row 3 035, both past the 256 rows of
`analysis.SCAN_BLOCK`.  One (`planted_components`, planted 20/20/6
with no edges between blocks) has three weak components of unequal
depth: the 6-vertex one clips the levels 2,4,8 to (2, 4), so its
leaves stand in for it at the deepest level.  The 20/20/6 edge list
runs mbo (`ingest_components_mbo_train`, levels 2,4,8, --train-pct 5,
12 trials), whose trials draw so few labeled vertices that their twin
trees differ in depth: its metrics.csv has levels that fewer than 12
trials reach.  Run it once per checkout; then

    diff -r OUT_PARENT OUT_CHANGE

is empty exactly when the change keeps every artifact byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import twintree

PLANTED = ["--kind", "planted"]
# three levels: a coarse graph is coarse-grained again
DEEP = ["--levels", "2,4,8"]
SYNTH = {
    "toy25": ["--kind", "toy25"],
    "planted_volume_label": PLANTED + ["--scheme", "volume", "--signal",
                                       "label", "--labeled"],
    "planted_base3": PLANTED + ["--partition-base", "3", "--order", "2.5"],
    "planted_mll": PLANTED + ["--algo", "mll"],
    "planted_mll_labeled": PLANTED + ["--algo", "mll", "--labeled",
                                      "--n-init", "3"],
    "planted_mbo": PLANTED + ["--param", "sizes=[20,20,20]", "--algo", "mbo",
                              "--labeled", "--levels", "2",
                              "--edge-length", "raw"],
    "planted_train": PLANTED + ["--train-pct", "20", "--labeled"],
    "planted_raw_n_init": PLANTED + ["--edge-length", "raw", "--n-init", "2"],
    "sparse_volume": ["--kind", "sparse", "--param", "n=40", "--scheme",
                      "volume"],
    "planted_mll_deep": PLANTED + ["--algo", "mll", *DEEP],
    # |Omega| and the full-rank row both exceed analysis.SCAN_BLOCK
    "planted_volume_blocks": PLANTED + ["--param", "sizes=[60,60]",
                                        "--scheme", "volume"],
    # three weak components; the smallest is one level shallower
    "planted_components": PLANTED + ["--param", "sizes=[20,20,6]",
                                     "--param", "p_out=0.0", *DEEP],
}


def planted(rng, sizes, p_in=0.2, p_out=0.01):
    """Block digraph weights and block labels."""
    block = np.repeat(np.arange(len(sizes)), sizes)
    p = np.where(block[:, None] == block[None, :], p_in, p_out)
    W = np.where(rng.random(p.shape) < p, rng.uniform(0.5, 1.5, p.shape), 0.0)
    np.fill_diagonal(W, 0.0)
    return W, block


def edge_lists() -> dict[str, tuple[np.ndarray, np.ndarray | None]]:
    """name -> (weight matrix, labels or None) of each ingested graph."""
    W, block = planted(np.random.default_rng(1), [20, 20])
    rng = np.random.default_rng(2)
    fragmented = (rng.random((40, 40)) < 0.03) * 1.0
    np.fill_diagonal(fragmented, 0.0)
    star = np.zeros((12, 12))
    star[0, 1:] = 1.0
    loops = planted(np.random.default_rng(3), [10, 10])[0] + np.eye(20)
    heavy = planted(np.random.default_rng(4), [20, 20])[0]
    heavy[heavy > 0] = np.random.default_rng(5).lognormal(
        0.0, 6.0, int((heavy > 0).sum()))
    components = planted(np.random.default_rng(6), [20, 20, 6], p_out=0.0)[0]
    return {"ingest_planted": (W, block),
            "ingest_fragmented": (fragmented, None),
            "ingest_out_star": (star, None),
            "ingest_self_loops": (loops, None),
            "ingest_heavy_tailed": (heavy, None),
            "ingest_components": (components, np.arange(46) % 3)}


def main(out: Path) -> None:
    """Runs from OUT with relative paths, so that the workspace and input
    paths recorded in config.json and printed to stdout do not depend
    on where OUT is; every run imports the twintree this script imports."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(twintree.__file__).resolve().parents[1])}
    (out / "inputs").mkdir(parents=True)
    runs = dict(SYNTH)
    for name, (W, labels) in edge_lists().items():
        edges = f"inputs/{name}.tsv"
        (out / edges).write_text("".join(f"{u} {v} {float(W[u, v])!r}\n"
                                         for u, v in np.argwhere(W > 0)))
        runs[name] = ["--edges", edges]
        if labels is not None:
            path = f"inputs/{name}.labels.tsv"
            (out / path).write_text("".join(f"{v} {b}\n"
                                            for v, b in enumerate(labels)))
            runs[name] += ["--labels", path, "--labeled"]
    runs["ingest_heavy_tailed_deep"] = runs["ingest_heavy_tailed"] + DEEP
    # per-trial training labels: trials of unequal depth
    runs["ingest_components_mbo_train"] = runs.pop("ingest_components") + [
        "--algo", "mbo", *DEEP, "--train-pct", "5", "--trials", "12"]
    for name, args in runs.items():
        cmd = [sys.executable, "-m", "twintree.cli", "pipeline", "--out",
               name, "--trials", "3", "--baseline-trials", "10", *args]
        res = subprocess.run(cmd, cwd=out, env=env, capture_output=True,
                             text=True)
        if res.returncode:
            sys.exit(f"{name} failed:\n{res.stderr}")
        (out / f"{name}.stdout").write_text(res.stdout)
        print(f"{name}: ok")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(Path(sys.argv[1]))
