import csv
import json
from pathlib import Path

import pytest

from twintree.analysis import GridAnalysis
from twintree.cli import main


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
    builds = count_calls(monkeypatch, GridAnalysis, "__init__")
    profiles = count_calls(monkeypatch, GridAnalysis, "smoothness_profile")
    run_pipeline(tmp_path / "first")
    assert (len(builds), len(profiles)) == (1, 1)
    # nothing is kept across runs: the next run builds its own engine
    run_pipeline(tmp_path / "second")
    assert (len(builds), len(profiles)) == (2, 2)
    assert snapshot(tmp_path / "second") == snapshot(tmp_path / "first")
    capsys.readouterr()


# pipeline flags of each case, and the stages that take each flag
STAGE_CASES = {
    "toy25": {"kind": "toy25", "seed": "1", "levels": "2,6"},
    "planted_volume_label": {"kind": "planted", "seed": "2",
                             "param": "sizes=[15,15]", "scheme": "volume",
                             "signal": "label", "mode": "idealized",
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
