"""Tests of the benchmark itself:  python3 -m pytest perfbench

They run each workload for a few operations in this process (about a
minute in all) and run.py twice as a subprocess.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

assert run.import_checkout() is None

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

GRAPH_SIDE = {"digraph.symmetrize", "digraph.graph_distance",
              "clustering.twt", "clustering.medoid_partition",
              "clustering.coarse_grain"}
# Span names each workload is meant to exercise.
EXPECTED = {
    "pipeline": set(spans.SITES),
    "protocol": GRAPH_SIDE | {"cli.ingest", "cli.cluster", "cli.metrics",
                              "digraph.load_edge_list", "metrics.modularity",
                              "metrics.align_and_score",
                              "metrics.random_coloring_baseline"},
    "signals": GRAPH_SIDE | {"filtration.build_filtration", "basis.value_table",
                             "analysis.engine_build",
                             "analysis.gram_orthonormalize", "analysis.lp",
                             "analysis.analyze", "analysis.synthesize",
                             "analysis.smoothness_profile",
                             "analysis.default_multiplier"},
}
OPS = {"pipeline": 1, "protocol": 1, "signals": 4}


def traced_run(name: str, workdir: Path) -> spans.Tracer:
    """Traced set-up and operations of one workload at seed 0; checks must pass."""
    wl = workloads.WORKLOADS[name](0, workdir, workloads.load_reference())
    assert wl.has_reference
    tracer = spans.Tracer()
    tracer.install()
    try:
        wl.setup()
        assert wl.check_setup() == []
        for i in range(OPS[name]):
            tracer.run = i
            wl.prepare(i)
            wl.op(i)
            assert wl.check(i) == []
    finally:
        tracer.uninstall()
    return tracer


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict:
    return {name: [traced_run(name, tmp_path_factory.mktemp(f"{name}{k}"))
                   for k in range(2)]
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_every_wrapper_fires_on_its_workload(traces, name):
    seen = set(traces[name][0].totals())
    assert EXPECTED[name] <= seen, sorted(EXPECTED[name] - seen)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_call_counts_repeat_between_traced_runs(traces, name):
    first, second = (t.totals() for t in traces[name])
    assert {k: c for k, (c, _) in first.items()} == \
        {k: c for k, (c, _) in second.items()}


def test_every_lookup_of_a_traced_function_is_wrapped():
    originals = {}
    for sites in spans.SITES.values():
        for module, path in sites:
            owner, attr = spans._owner(module, path)
            originals[id(vars(owner)[attr])] = f"{module}.{path}"
    tracer = spans.Tracer()
    tracer.install()
    try:
        left = []
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("twintree"):
                continue
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type)
                              and v.__module__ == modname]
            for owner in owners:
                for attr, value in vars(owner).items():
                    if id(value) in originals:
                        left.append(f"{modname}.{attr}")
        # basis.linprog solves the univariate problem, not the engine's.
        assert left == ["twintree.basis.linprog"]
    finally:
        tracer.uninstall()
    for sites in spans.SITES.values():
        for module, path in sites:
            owner, attr = spans._owner(module, path)
            assert id(vars(owner)[attr]) in originals


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [["cli.grid", 0.0, 10.0, -1, 0],
                    ["analysis.analyze", 1.0, 4.0, 0, 0],
                    ["analysis.lp", 2.0, 3.0, 1, 0],
                    ["analysis.analyze", 5.0, 6.0, 0, 0],
                    ["analysis.lp", 0.0, 2.0, -1, "setup"]]
    assert tracer.totals({0}) == {"cli.grid": (1, 10.0),
                                  "analysis.analyze": (2, 3.0),
                                  "analysis.lp": (1, 1.0)}
    assert tracer.totals({"setup"}) == {"analysis.lp": (1, 2.0)}


def test_close_uses_the_stated_tolerance():
    ref = {"a": [1.0, None], "b": "x"}
    assert workloads.close({"a": [1.0 + 1e-9, None], "b": "x"}, ref) == []
    assert workloads.close({"a": [1.0 + 1e-5, None], "b": "x"}, ref)
    assert workloads.close({"a": [1.0, 0.0], "b": "x"}, ref)
    assert workloads.close({"a": [1.0, None], "b": "y"}, ref)


def test_check_catches_a_changed_output(tmp_path):
    wl = workloads.Protocol(0, tmp_path, workloads.load_reference())
    wl.setup()
    wl.op(0)
    assert wl.check(0) == []
    path = wl.ws(0) / "metrics.csv"
    rows = path.read_text().splitlines()
    fields = rows[1].split(",")
    fields[3] = repr(float(fields[3]) + 1e-3)
    path.write_text("\n".join([rows[0], ",".join(fields), *rows[2:]]) + "\n")
    problems = wl.check(wl.cycle)
    assert any("differ from the run's first" in p for p in problems)
    assert any(p.startswith("graph 0 float.metrics") for p in problems)


def _last_json(cmd: list[str], cwd: Path) -> dict:
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                         timeout=170, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,workload,key", [
    (0, "pipeline", "end_to_end"), (1, "signals", "per_layer")])
def test_run_prints_the_benchmark_metrics(trace, workload, key):
    result = _last_json([sys.executable, *BENCHMARK["command"][1:],
                         "--workload", workload, "--seed", "0",
                         "--seconds", "0.1", "--trace", str(trace)], run.ROOT)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                           "--workload", "pipeline", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
