import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import twintree
from twintree import cli, clustering
from twintree.analysis import GridAnalysis
from twintree.cli import build_parser, main
from twintree.clustering import ClusterTree, TwinTreeBuilder
from twintree.digraph import WeightedDigraph, synth_digraph

from util import caterpillar, degenerate_digraphs


ARTIFACTS = ["digraph.json", "tree_es.json", "tree_os.json", "trees.json",
             "grid.csv", "omega.csv", "coefficients.csv", "analysis.json",
             "approx.csv", "metrics.csv", "smoothness.json", "config.json"]


def run_pipeline(out: Path, **overrides) -> None:
    argv = ["pipeline", "--out", str(out), "--kind", "toy25", "--seed", "1",
            "--levels", "2,6", "--trials", "5", "--baseline-trials", "40"]
    for key, val in overrides.items():
        argv += [f"--{key.replace('_', '-')}", str(val)]
    assert main(argv) == 0


def snapshot(ws: Path) -> dict[str, bytes]:
    return {name: (ws / name).read_bytes() for name in ARTIFACTS}


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("run")
    run_pipeline(ws)
    return ws


def test_pipeline_writes_every_artifact(workspace):
    for name in ARTIFACTS:
        assert (workspace / name).exists(), name
    rows = read_csv(workspace / "grid.csv")
    assert len(rows) == 25
    for row in rows:
        assert "/" in row["x0"]  # exact rational endpoints


def test_mll_pipeline_writes_every_artifact(tmp_path):
    # --edge-length does not reach mll (it measures diffusion distance)
    run_pipeline(tmp_path, algo="mll", edge_length="raw")
    for name in ARTIFACTS:
        assert (tmp_path / name).exists(), name
    config = json.loads((tmp_path / "config.json").read_text())
    assert config["cluster"]["algo"] == "mll"
    assert config["cluster"]["edge_length"] == "raw"


def count_calls(monkeypatch, owner, name) -> list:
    """Replace owner.name by a wrapper that appends to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_pipeline_builds_one_engine_and_one_profile(tmp_path, monkeypatch,
                                                    capsys):
    calls = [count_calls(monkeypatch, owner, name) for owner, name in (
        (GridAnalysis, "__init__"), (GridAnalysis, "smoothness_profile"),
        (TwinTreeBuilder, "__init__"), (clustering, "symmetrize"),
        (WeightedDigraph, "load_json"), (ClusterTree, "load_json"),
        (cli, "build_filtration"), (cli, "build_grid"))]
    # cluster and metrics share one builder and so its two
    # symmetrizations (cli itself calls no symmetrize), and the graph and
    # the trees pass from stage to stage without being parsed back
    per_run = [1, 1, 1, 2, 0, 0, 2, 1]
    run_pipeline(tmp_path / "first")
    assert [len(c) for c in calls] == per_run
    # nothing is kept across runs: the next run builds its own
    run_pipeline(tmp_path / "second")
    assert [len(c) for c in calls] == [2 * n for n in per_run]
    assert snapshot(tmp_path / "second") == snapshot(tmp_path / "first")
    capsys.readouterr()


def write_edge_list(path: Path, G: WeightedDigraph) -> None:
    """G's edges as 'u v weight' lines, vertex ids as names."""
    path.write_text("".join(f"{u} {v} {w!r}\n"
                            for u, v, w in G.to_json_dict()["edges"]))


def handed_on_cases(tmp_path: Path) -> dict[str, list[str]]:
    """Pipeline arguments per case: the degenerate digraphs as edge lists,
    and a labeled planted graph, synthesized and ingested with labels."""
    cases = {}
    for name, G in degenerate_digraphs().items():
        write_edge_list(tmp_path / f"{name}.edges", G)
        cases[name] = ["--edges", str(tmp_path / f"{name}.edges")]
    cases["planted_labeled"] = ["--kind", "planted", "--param",
                                "sizes=[12,12]", "--labeled",
                                "--signal", "label"]
    G = synth_digraph("planted", seed=4, sizes=(9, 11))
    write_edge_list(tmp_path / "planted.edges", G)
    (tmp_path / "planted.labels").write_text("".join(
        f"{v}\tblock{path[0]}/part{v % 2}\n" for v, path in G.labels.items()))
    cases["planted_ingested"] = ["--edges", str(tmp_path / "planted.edges"),
                                 "--labels", str(tmp_path / "planted.labels"),
                                 "--algo", "mbo", "--labeled"]
    return cases


def test_pipeline_hands_on_what_its_artifacts_hold(tmp_path, monkeypatch,
                                                   capsys):
    runs, report = [], cli.cmd_report

    def recording_report(args):  # the last stage sees all a run held
        runs.append(args.held)
        return report(args)
    monkeypatch.setattr(cli, "cmd_report", recording_report)
    for name, argv in handed_on_cases(tmp_path).items():
        ws = tmp_path / name
        assert main(["pipeline", "--out", str(ws), "--trials", "2",
                     "--baseline-trials", "5", *argv]) == 0
        held = runs[-1]
        G, loaded = held[("graph",)], WeightedDigraph.load_json(
            ws / "digraph.json")
        assert type(G) is type(loaded), name
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(G.weights, part),
                                  getattr(loaded.weights, part)), name
        assert G.weights.shape == loaded.weights.shape, name
        assert G.names == loaded.names, name
        assert G.labels == loaded.labels, name  # key order may differ
        assert G.labels or not name.startswith("planted"), name
        for tree, side in zip(held[("trees",)], ("es", "os")):
            want = ClusterTree.load_json(ws / f"tree_{side}.json")
            assert tree.root == want.root and tree.nodes == want.nodes, name
    assert len(runs) == 6
    capsys.readouterr()


# pipeline flags of each case, and the stages that take each flag
STAGE_CASES = {
    "toy25": {"kind": "toy25", "seed": "1", "levels": "2,6"},
    "planted_volume_label": {"kind": "planted", "seed": "2",
                             "param": "sizes=[15,15]", "scheme": "volume",
                             "signal": "label", "mode": "exact",
                             "levels": "2,6"},
}
STAGE_FLAGS = {"synth": ("kind", "seed", "param"),
               "cluster": ("levels", "seed"), "trees": (),
               "grid": ("scheme",), "analyze": ("mode", "signal"),
               "approx": (), "metrics": ("seed", "trials", "baseline_trials"),
               "report": ()}


@pytest.mark.parametrize("case", sorted(STAGE_CASES))
def test_pipeline_matches_stages_run_one_by_one(tmp_path, case, capsys):
    flags = {**STAGE_CASES[case], "trials": "5", "baseline_trials": "40"}

    def argv(command, names, out):
        args = [command, "--out", str(out)]
        for name in names:
            if name in flags:
                args += [f"--{name.replace('_', '-')}", flags[name]]
        return args
    assert main(argv("pipeline", flags, tmp_path / "pipeline")) == 0
    for stage, names in STAGE_FLAGS.items():
        assert main(argv(stage, names, tmp_path / "stages")) == 0
    assert (snapshot(tmp_path / "stages")
            == snapshot(tmp_path / "pipeline"))
    capsys.readouterr()


def test_pipeline_takes_every_stage_option_unchanged():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]

    def options(command: str) -> dict[str, argparse.Action]:
        return {a.option_strings[0]: a for a in sub.choices[command]._actions
                if a.option_strings and a.dest != "help"}
    pipeline = options("pipeline")
    taken = set()
    for stage in ("ingest", "synth", "cluster", "trees", "grid", "analyze",
                  "approx", "metrics", "report"):
        for flag, action in options(stage).items():
            if flag == "--no-normalize":  # pipeline always normalizes
                continue
            taken.add(flag)
            fields = ["dest", "default", "type", "choices", "help"]
            if flag != "--edges":  # required by ingest, picks it in pipeline
                fields.append("required")
            for field in fields:
                assert (getattr(pipeline[flag], field)
                        == getattr(action, field)), (stage, flag, field)
    assert set(pipeline) == taken
    assert not pipeline["--edges"].required
    for command in sub.choices:
        for flag, action in options(command).items():
            assert action.help, (command, flag)


def test_identical_runs_are_byte_identical(workspace, tmp_path):
    twin = tmp_path / "again"
    run_pipeline(twin)
    assert snapshot(twin) == snapshot(workspace)


def test_stages_are_reentrant(workspace):
    before = snapshot(workspace)
    assert main(["analyze", "--out", str(workspace)]) == 0
    assert main(["approx", "--out", str(workspace)]) == 0
    assert main(["report", "--out", str(workspace)]) == 0
    assert snapshot(workspace) == before


def test_omega_and_coefficient_schemas(workspace):
    omega = read_csv(workspace / "omega.csv")
    assert {r["status"] for r in omega} <= {"active", "dropped"}
    for r in omega:
        assert int(r["shell"]) >= 0
    active = [r for r in omega if r["status"] == "active"]
    assert len(active) == 25
    coeffs = read_csv(workspace / "coefficients.csv")
    assert len(coeffs) == len(active)
    summary = json.loads((workspace / "analysis.json").read_text())
    assert summary["grid_points"] == 25
    assert summary["orthogonality_defect"] <= 1e-10
    assert summary["reconstruction_residual"] <= 1e-10


def test_approx_ratios_bound_below_by_one(workspace):
    rows = read_csv(workspace / "approx.csv")
    assert rows, "no shells reported"
    for row in rows:
        if row["ratio"]:
            assert float(row["ratio"]) >= 1.0 - 1e-9
        assert row["label_agreement"] == ""
    assert float(rows[-1]["degree_error"]) <= 1e-10


def test_metrics_protocol_schema(workspace):
    rows = read_csv(workspace / "metrics.csv")
    assert rows
    for row in rows:
        assert row["metric"] in {"modularity", "modularity_random"}
        assert int(row["trials"]) in {5, 40}
    levels = {int(r["level"]) for r in rows}
    assert levels == {1, 2, 3}  # root's children down to the leaf level
    assert any(r["metric"] == "modularity_random" for r in rows)


def test_trees_summary_counts(workspace):
    summary = json.loads((workspace / "trees.json").read_text())
    for side in ("es", "os"):
        info = summary[side]
        sizes0 = info["levels"][0]["sizes"]
        assert sizes0 == [25]
        leaf_level = info["levels"][info["depth"]]
        assert sum(leaf_level["sizes"]) == 25


def test_labeled_training_protocol(tmp_path, capsys):
    ws = tmp_path / "labeled"
    assert main(["synth", "--out", str(ws), "--kind", "planted",
                 "--seed", "3", "--param", "sizes=[10, 10]",
                 "--param", "p_in=0.6", "--param", "p_out=0.02"]) == 0
    assert main(["cluster", "--out", str(ws), "--levels", "2,4",
                 "--algo", "mbo", "--labeled", "--seed", "5"]) == 0
    assert main(["metrics", "--out", str(ws), "--train-pct", "40",
                 "--trials", "3", "--baseline-trials", "20",
                 "--seed", "7"]) == 0
    rows = read_csv(ws / "metrics.csv")
    by_metric = {}
    for row in rows:
        by_metric.setdefault(row["metric"], []).append(row)
    assert {int(r["level"]) for r in by_metric["f_measure"]} == {1, 2}
    assert {int(r["level"]) for r in by_metric["modularity"]} == {1, 2}
    for row in by_metric["f_measure"]:
        assert 0.0 < float(row["mean"]) <= 1.0
        assert int(row["trials"]) == 3
    capsys.readouterr()


def test_label_signal_rounds_back_to_classes(tmp_path):
    ws = tmp_path / "labelsig"
    assert main(["synth", "--out", str(ws), "--kind", "planted",
                 "--seed", "3", "--param", "sizes=[8, 9]"]) == 0
    assert main(["cluster", "--out", str(ws), "--levels", "2,4",
                 "--seed", "5"]) == 0
    assert main(["grid", "--out", str(ws)]) == 0
    assert main(["analyze", "--out", str(ws), "--signal", "label"]) == 0
    assert main(["approx", "--out", str(ws)]) == 0
    rows = read_csv(ws / "approx.csv")
    agreements = [float(r["label_agreement"]) for r in rows]
    assert all(0.0 <= a <= 1.0 for a in agreements)
    assert agreements[-1] == 1.0


def test_ingest_reads_edges_and_labels(tmp_path, capsys):
    edges = tmp_path / "toy.edges"
    edges.write_text("# comment\na b 2.0\nb c 1.0\nc a 1.0\na c 0.5\n")
    labfile = tmp_path / "toy.labels"
    labfile.write_text("a red\nb red\nc blue\n")
    ws = tmp_path / "ingested"
    assert main(["ingest", "--out", str(ws), "--edges", str(edges),
                 "--labels", str(labfile)]) == 0
    out = capsys.readouterr().out
    assert "3 vertices" in out
    cfg = json.loads((ws / "config.json").read_text())
    assert cfg["ingest"]["edges"] == str(edges)
    from twintree.digraph import WeightedDigraph
    G = WeightedDigraph.load_json(ws / "digraph.json")
    assert G.n == 3 and G.labels[0] == ("red",)


def test_signal_from_file(tmp_path):
    ws = tmp_path / "filesig"
    assert main(["synth", "--out", str(ws), "--seed", "1"]) == 0
    assert main(["cluster", "--out", str(ws), "--seed", "9"]) == 0
    assert main(["grid", "--out", str(ws)]) == 0
    sig = tmp_path / "values.txt"
    sig.write_text("\n".join(str(v % 7) for v in range(25)))
    assert main(["analyze", "--out", str(ws),
                 "--signal", f"file:{sig}"]) == 0
    short = tmp_path / "short.txt"
    short.write_text("1 2 3")
    with pytest.raises(SystemExit, match="25 vertices"):
        main(["analyze", "--out", str(ws), "--signal", f"file:{short}"])
    with pytest.raises(SystemExit, match="unknown signal"):
        main(["analyze", "--out", str(ws), "--signal", "indeg"])
    config = (ws / "config.json").read_bytes()
    bad = {"word": " ".join(["1"] * 24 + ["x1"]),
           "nan": " ".join(["1"] * 24 + ["nan"]),
           "inf": " ".join(["-inf"] + ["1"] * 24)}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    for name, message in (("missing", "cannot read signal file .*missing"),
                          ("word", "float: 'x1'"),
                          ("nan", "'nan' of vertex 24 is not finite"),
                          ("inf", "'-inf' of vertex 0 is not finite")):
        with pytest.raises(SystemExit, match=message):
            main(["analyze", "--out", str(ws),
                  "--signal", f"file:{tmp_path / name}"])
        assert (ws / "config.json").read_bytes() == config


@pytest.mark.parametrize("signal, message", [
    ("file:{tmp}/missing.txt", "cannot read signal file"),
    ("file:{tmp}/short.txt", "3 values for 25 vertices"),
    ("label", "no labels"),
    ("indeg", "unknown signal")])
def test_bad_pipeline_signal_exits_after_the_graph_stage(tmp_path, signal,
                                                         message):
    (tmp_path / "short.txt").write_text("1 2 3")
    ws = tmp_path / "ws"
    with pytest.raises(SystemExit, match=message):
        run_pipeline(ws, signal=signal.format(tmp=tmp_path))
    assert sorted(p.name for p in ws.iterdir()) == ["config.json",
                                                    "digraph.json"]
    assert list(json.loads((ws / "config.json").read_text())) == ["synth"]


def partly_labeled_workspace(ws: Path) -> None:
    """A planted 17-vertex workspace, clustered and gridded, whose
    digraph.json has lost vertex 3's label."""
    from twintree.digraph import WeightedDigraph
    assert main(["synth", "--out", str(ws), "--kind", "planted",
                 "--seed", "3", "--param", "sizes=[8, 9]"]) == 0
    G = WeightedDigraph.load_json(ws / "digraph.json")
    labels = {v: path for v, path in G.labels.items() if v != 3}
    WeightedDigraph(G.weights, G.names, labels).save_json(ws / "digraph.json")
    assert main(["cluster", "--out", str(ws), "--levels", "2,4",
                 "--seed", "5"]) == 0
    assert main(["grid", "--out", str(ws)]) == 0


def test_label_signal_needs_labels(tmp_path):
    ws = tmp_path / "nolabels"
    assert main(["synth", "--out", str(ws), "--seed", "1"]) == 0
    assert main(["cluster", "--out", str(ws), "--seed", "9"]) == 0
    assert main(["grid", "--out", str(ws)]) == 0
    with pytest.raises(SystemExit, match="no labels"):
        main(["analyze", "--out", str(ws), "--signal", "label"])
    partial = tmp_path / "partial"
    partly_labeled_workspace(partial)
    config = (partial / "config.json").read_bytes()
    with pytest.raises(SystemExit, match="1 of 17 vertices carry none"):
        main(["analyze", "--out", str(partial), "--signal", "label"])
    assert (partial / "config.json").read_bytes() == config


def test_metrics_needs_a_label_on_every_vertex(tmp_path, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    ws = tmp_path / "partial"
    partly_labeled_workspace(ws)
    monkeypatch.setattr("twintree.cli.TwinTreeBuilder.build", no_trial)
    for extra in ([], ["--train-pct", "40"]):
        with pytest.raises(SystemExit, match="1 of 17 vertices carry none"):
            main(["metrics", "--out", str(ws), "--trials", "2",
                  "--baseline-trials", "5"] + extra)
    assert not (ws / "metrics.csv").exists()


def test_rejected_analyze_leaves_the_workspace_usable(tmp_path, capsys):
    ws = tmp_path / "rejected"
    for argv in (["synth", "--seed", "1"], ["cluster", "--seed", "9"],
                 ["grid"], ["analyze"], ["approx"]):
        assert main(argv + ["--out", str(ws)]) == 0
    config = (ws / "config.json").read_bytes()
    for flags in (["--partition-base", "1"], ["--partition-base", "0"]):
        with pytest.raises(SystemExit):
            main(["analyze", "--out", str(ws)] + flags)
        assert "at least 2" in capsys.readouterr().err
    with pytest.raises(SystemExit, match="unknown signal"):
        main(["analyze", "--out", str(ws), "--signal", "label2"])
    with pytest.raises(SystemExit, match="no labels"):
        main(["analyze", "--out", str(ws), "--signal", "label"])
    with pytest.raises(SystemExit):
        main(["pipeline", "--out", str(tmp_path / "never"),
              "--partition-base", "1"])
    assert "at least 2" in capsys.readouterr().err
    assert not (tmp_path / "never").exists()
    assert (ws / "config.json").read_bytes() == config
    assert main(["approx", "--out", str(ws)]) == 0
    assert main(["report", "--out", str(ws)]) == 0


def test_approx_and_report_refuse_a_workspace_of_another_mode(
        gridded, tmp_path, capsys):
    ws = tmp_path / "older"
    shutil.copytree(gridded, ws)
    assert main(["analyze", "--out", str(ws)]) == 0
    config = json.loads((ws / "config.json").read_text())
    assert config["analyze"]["mode"] == "exact"
    # the raw-product mode that older versions could record
    config["analyze"]["mode"] = "idealized"
    (ws / "config.json").write_text(json.dumps(config))
    for command in ("approx", "report"):
        with pytest.raises(SystemExit, match="analyzed in mode 'idealized'"):
            main([command, "--out", str(ws)])
    assert not (ws / "approx.csv").exists()
    assert not (ws / "smoothness.json").exists()
    with pytest.raises(SystemExit):
        main(["analyze", "--out", str(ws), "--mode", "idealized"])
    assert "invalid choice: 'idealized'" in capsys.readouterr().err


@pytest.mark.parametrize("item", ["sizes", "sizes=[20,", "=[20, 20]"])
def test_malformed_generator_params_name_the_item(tmp_path, item):
    for command in ("synth", "pipeline"):
        ws = tmp_path / command
        with pytest.raises(SystemExit, match=r"KEY=JSON") as exc:
            main([command, "--out", str(ws), "--kind", "planted",
                  "--param", item])
        assert repr(item) in str(exc.value)
        assert not (ws / "digraph.json").exists()


def test_unknown_generator_params_name_the_key(tmp_path):
    for command in ("synth", "pipeline"):
        ws = tmp_path / command
        with pytest.raises(SystemExit, match="foo"):
            main([command, "--out", str(ws), "--kind", "planted",
                  "--param", "foo=1", "--param", "sizes=[20,20]"])
        assert not ws.exists()


def test_unusable_orders_and_counts_are_rejected(tmp_path, capsys):
    ws = tmp_path / "order"
    for argv in (["synth", "--seed", "1"], ["cluster", "--seed", "9"],
                 ["grid"], ["analyze"]):
        assert main(argv + ["--out", str(ws)]) == 0
    config = (ws / "config.json").read_bytes()
    for order in ("nan", "inf", "-inf"):
        for command in ("approx", "pipeline"):
            with pytest.raises(SystemExit):
                main([command, "--out", str(ws), "--order", order])
            assert "--order" in capsys.readouterr().err
    for order in ("3000", "-3000"):
        with pytest.raises(SystemExit, match="--order") as exc:
            main(["approx", "--out", str(ws), "--order", order])
        assert "finite" in str(exc.value)
    for command in ("metrics", "pipeline"):
        with pytest.raises(SystemExit):
            main([command, "--out", str(ws), "--baseline-trials", "-1"])
        assert "--baseline-trials" in capsys.readouterr().err
    assert (ws / "config.json").read_bytes() == config
    assert not (ws / "approx.csv").exists()
    assert main(["approx", "--out", str(ws), "--order", "2.5"]) == 0


def test_missing_artifacts_fail_loudly(tmp_path):
    ws = tmp_path / "empty"
    with pytest.raises(SystemExit, match="missing artifact"):
        main(["trees", "--out", str(ws)])
    with pytest.raises(SystemExit, match="missing artifact"):
        main(["cluster", "--out", str(ws)])


@pytest.mark.parametrize("command", ["cluster", "trees", "grid", "analyze",
                                     "approx", "metrics", "report"])
def test_stages_that_read_artifacts_create_no_workspace(tmp_path, command):
    ws = tmp_path / "fresh"
    with pytest.raises(SystemExit, match="missing artifact|stage first"):
        main([command, "--out", str(ws)])
    assert not ws.exists()


def test_bad_levels_exit_before_touching_the_workspace(tmp_path, capsys):
    ws = tmp_path / "levels"
    assert main(["synth", "--out", str(ws), "--seed", "1"]) == 0
    assert main(["cluster", "--out", str(ws), "--seed", "9"]) == 0
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    capsys.readouterr()
    for levels, reason in (("6,2", "strictly increase"),
                           ("2,x", "comma-separated"),
                           ("1,4", "outside")):
        for command, out in (("cluster", ws),
                             ("pipeline", tmp_path / "never")):
            with pytest.raises(SystemExit):
                main([command, "--out", str(out), "--levels", levels])
            err = capsys.readouterr().err
            assert "--levels" in err and reason in err
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before
    assert not (tmp_path / "never").exists()


def test_metrics_validates_its_protocol(tmp_path, capsys):
    ws = tmp_path / "proto"
    assert main(["synth", "--out", str(ws), "--seed", "1"]) == 0
    with pytest.raises(SystemExit, match="cluster stage"):
        main(["metrics", "--out", str(ws)])
    assert main(["cluster", "--out", str(ws), "--seed", "9"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["metrics", "--out", str(ws), "--trials", "0"])
    assert "one trial" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["metrics", "--out", str(ws), "--train-pct", "100"])
    assert "[0, 100)" in capsys.readouterr().err
    with pytest.raises(SystemExit, match="labeled graph"):
        main(["metrics", "--out", str(ws), "--train-pct", "10",
              "--trials", "2"])


def test_bad_protocol_counts_exit_before_any_stage(tmp_path, capsys):
    ws = tmp_path / "proto"
    assert main(["synth", "--out", str(ws), "--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in ws.iterdir()}
    capsys.readouterr()
    for flag, value, stage, reason in (
            ("--trials", "0", "metrics", "one trial"),
            ("--train-pct", "150", "metrics", "[0, 100)"),
            ("--train-pct", "nan", "metrics", "[0, 100)"),
            ("--n-init", "-3", "cluster", "one start")):
        for command, out in ((stage, ws), ("pipeline", tmp_path / "fresh")):
            with pytest.raises(SystemExit):
                main([command, "--out", str(out), flag, value])
            err = capsys.readouterr().err
            assert flag in err and reason in err
    assert {p.name: p.read_bytes() for p in ws.iterdir()} == before
    assert not (tmp_path / "fresh").exists()


def test_analyze_without_trees_leaves_the_config_alone(tmp_path):
    ws = tmp_path / "untreed"
    assert main(["synth", "--out", str(ws), "--seed", "1"]) == 0
    config = (ws / "config.json").read_bytes()
    with pytest.raises(SystemExit, match="missing artifact"):
        main(["analyze", "--out", str(ws)])
    assert (ws / "config.json").read_bytes() == config


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "twintree" in capsys.readouterr().out


def test_metrics_on_a_graph_without_edges_exits_before_any_tree(
        tmp_path, monkeypatch, capsys):
    def no_tree(*args, **kwargs):
        raise AssertionError("a tree was built")

    edgeless = ["--kind", "sparse", "--param", "n=30",
                "--param", "density=0"]
    ws = tmp_path / "stages"
    assert main(["synth", "--out", str(ws), *edgeless]) == 0
    assert main(["cluster", "--out", str(ws)]) == 0
    config = (ws / "config.json").read_bytes()
    monkeypatch.setattr("twintree.cli.TwinTreeBuilder.build", no_tree)
    monkeypatch.setattr("twintree.cli.twt", no_tree)
    with pytest.raises(SystemExit, match="needs at least one edge"):
        main(["metrics", "--out", str(ws), "--trials", "2"])
    assert (ws / "config.json").read_bytes() == config
    assert not (ws / "metrics.csv").exists()
    with pytest.raises(SystemExit, match="needs at least one edge"):
        main(["pipeline", "--out", str(tmp_path / "pipeline"), *edgeless])
    assert sorted(p.name for p in (tmp_path / "pipeline").iterdir()) == [
        "config.json", "digraph.json"]
    capsys.readouterr()


def test_metrics_trials_build_no_tree(tmp_path, monkeypatch, capsys):
    def no_tree(*args, **kwargs):
        raise AssertionError("a tree was built")

    ws = tmp_path / "ws"
    assert main(["synth", "--out", str(ws), "--kind", "planted",
                 "--param", "sizes=[10,10,10]"]) == 0
    assert main(["cluster", "--out", str(ws), "--levels", "2,4"]) == 0
    monkeypatch.setattr(ClusterTree, "__init__", no_tree)
    assert main(["metrics", "--out", str(ws), "--trials", "3",
                 "--baseline-trials", "5", "--train-pct", "20"]) == 0
    assert {r["metric"] for r in read_csv(ws / "metrics.csv")} == {
        "modularity", "f_measure", "modularity_random"}
    capsys.readouterr()


SOLVER_PROBE = """
import sys
from twintree.cli import main
ws = sys.argv[1]
assert "scipy.optimize" not in sys.modules
for argv in (["synth", "--kind", "toy25"], ["cluster"], ["trees"], ["grid"],
             ["analyze"], ["metrics", "--trials", "2"]):
    assert main([argv[0], "--out", ws, *argv[1:]]) == 0
assert "scipy.optimize" not in sys.modules
assert main(["approx", "--out", ws]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_only_commands_that_solve_an_lp_import_the_solver(tmp_path):
    src = str(Path(twintree.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-c", SOLVER_PROBE, str(tmp_path / "ws")],
                   env=env, check=True, capture_output=True, timeout=120)
    assert read_csv(tmp_path / "ws" / "approx.csv")


@pytest.mark.parametrize("argv, source", [
    (["synth", "--kind", "sparse", "--param", "n=0"], "'sparse'"),
    (["synth", "--kind", "planted", "--param", "sizes=[]"], "'planted'"),
    (["pipeline", "--kind", "sparse", "--param", "n=0"], "'sparse'"),
    (["ingest", "--edges", "{edges}"], "{edges}"),
    (["pipeline", "--edges", "{edges}"], "{edges}")])
def test_graphs_without_vertices_exit_before_the_workspace(tmp_path, argv,
                                                           source):
    edges = tmp_path / "empty.edges"
    edges.write_text("# no edges\n")
    ws = tmp_path / "ws"
    with pytest.raises(SystemExit, match="no vertices") as exc:
        main([a.format(edges=edges) for a in argv] + ["--out", str(ws)])
    assert source.format(edges=edges) in str(exc.value)
    assert not ws.exists()


@pytest.fixture(scope="module")
def gridded(tmp_path_factory):
    """A toy25 workspace, clustered and gridded."""
    ws = tmp_path_factory.mktemp("gridded")
    for argv in (["synth", "--seed", "1"], ["cluster", "--seed", "9"],
                 ["grid"]):
        assert main(argv + ["--out", str(ws)]) == 0
    return ws


def edit_tree(edit):
    """Corruption of a tree artifact by edit(tree dict)."""
    def corrupt(text: str) -> str:
        tree = json.loads(text)
        edit(tree, [n for n in tree["nodes"] if not n["children"]])
        return json.dumps(tree)
    return corrupt


def drop_leaf(tree, leaves):
    tree["nodes"].remove(leaves[-1])
    for node in tree["nodes"]:
        if leaves[-1]["id"] in node["children"]:
            node["children"].remove(leaves[-1]["id"])


CORRUPTIONS = {
    "two-vertex leaf": (
        "tree_es.json", "exactly one vertex",
        edit_tree(lambda t, leaves: leaves[0]["members"].extend(
            leaves[1]["members"]))),
    "no nodes": ("tree_os.json", "no root", lambda text: '{"nodes": []}'),
    "tree not JSON": ("tree_es.json", "Expecting value",
                      lambda text: "not JSON"),
    "dropped leaf": ("tree_os.json", "do not cover its members",
                     edit_tree(drop_leaf)),
    "dangling child": ("tree_es.json", "missing child",
                       edit_tree(lambda t, leaves: t["nodes"].remove(
                           leaves[0]))),
    "graph not JSON": ("digraph.json", "Expecting value",
                       lambda text: "not JSON"),
    "graph without vertices": ("digraph.json", "the graph has no vertices",
                               lambda text: '{"vertices": [], "edges": []}'),
}


@pytest.mark.parametrize("stage", ["trees", "grid", "analyze"])
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_malformed_artifacts_exit_naming_the_file(gridded, tmp_path, stage,
                                                  corruption):
    name, message, corrupt = CORRUPTIONS[corruption]
    ws = tmp_path / "ws"
    shutil.copytree(gridded, ws)
    path = ws / name
    path.write_text(corrupt(path.read_text()))
    config = (ws / "config.json").read_bytes()
    with pytest.raises(SystemExit, match=message) as exc:
        main([stage, "--out", str(ws)])
    assert f"malformed artifact {path}" in str(exc.value)
    assert (ws / "config.json").read_bytes() == config


def test_cluster_on_a_graph_without_vertices_names_the_file(tmp_path):
    path = tmp_path / "digraph.json"
    path.write_text('{"vertices": [], "edges": []}')
    with pytest.raises(SystemExit, match="the graph has no vertices") as exc:
        main(["cluster", "--out", str(tmp_path)])
    assert f"malformed artifact {path}" in str(exc.value)


def test_trees_must_cover_the_graph(gridded, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(gridded, ws)
    for name in ("tree_es.json", "tree_os.json"):
        tree = json.loads((ws / name).read_text())
        leaf = [n for n in tree["nodes"] if not n["children"]][-1]
        vertex = leaf["members"][0]
        drop_leaf(tree, [leaf])
        for node in tree["nodes"]:
            if vertex in node["members"]:
                node["members"].remove(vertex)
        (ws / name).write_text(json.dumps(tree))
    with pytest.raises(SystemExit, match="cover the graph's 25 vertices"):
        main(["grid", "--out", str(ws)])


def test_grid_takes_trees_deeper_than_the_recursion_limit(tmp_path):
    n = 1201
    path = sparse.csr_array((np.ones(n - 1), (np.arange(n - 1),
                                              np.arange(1, n))), shape=(n, n))
    WeightedDigraph(path).save_json(tmp_path / "digraph.json")
    for side in ("es", "os"):
        caterpillar(n).save_json(tmp_path / f"tree_{side}.json")
    assert main(["grid", "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "grid.csv")
    assert [(r["x0"], r["x1"]) for r in rows[:2]] == [
        ("0/1", f"1/{n}"), (f"1/{n}", f"2/{n}")]
