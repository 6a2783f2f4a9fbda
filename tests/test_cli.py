import ctypes
import json
import math

import pytest

from hinrec import cli, evaluation
from hinrec import metapath as mp
from hinrec.checkpoint import load_arrays, save_arrays
from hinrec.config import RunConfig
from hinrec.hin import HinSchema
from hinrec.util import read_json, read_jsonl, strip_volatile


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    assert cli.main(["synth", "--profile", "planted-mam-small", "--seed", "1", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def dense_dataset(tmp_path_factory):
    """8 users x 12 movies, user i watching movie j iff (i + j) % 3 != 0, one actor and one
    director on every movie: UMU and MUM both exceed the density threshold."""
    out = tmp_path_factory.mktemp("dense-data")
    (out / "schema.txt").write_text(
        "node_types: User, Movie, Actor, Director\nwatch: User -> Movie ~ watched\n"
        "act: Actor -> Movie ~ acted\ndirect: Director -> Movie ~ directed\ninteraction_relation: watch\n"
    )
    nodes = [f"u{i}\tUser" for i in range(8)] + [f"m{j}\tMovie" for j in range(12)] + ["a0\tActor", "d0\tDirector"]
    edges = [f"u{i}\twatch\tm{j}" for i in range(8) for j in range(12) if (i + j) % 3]
    edges += [f"{who}0\t{rel}\tm{j}" for j in range(12) for who, rel in (("a", "act"), ("d", "direct"))]
    (out / "nodes.tsv").write_text("\n".join(nodes) + "\n")
    (out / "edges.tsv").write_text("\n".join(edges) + "\n")
    return out


# The initial sets {UMU} and {MUM}, as a sets JSON stores them.
UMU = {"paths": [{"relations": [1, 2]}]}
MUM = {"paths": [{"relations": [2, 1]}]}


def base_sets(path):
    """A sets JSON holding the initial pair {UMU} x {MUM}."""
    path.write_text(json.dumps({"user_set": UMU, "item_set": MUM}))
    return path


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def search(dataset, out, strategy, *extra):
    return run("search", "--dataset", dataset, "--strategy", strategy, "--iter-limit", 8,
               "--seed", 0, "--out", out, *extra)


def stripped_outputs(out):
    """sets.json and the search trace without their wall-clock fields."""
    trace = out / "trace.jsonl"
    steps = [strip_volatile(r) for r in read_jsonl(trace)] if trace.exists() else []
    return strip_volatile(read_json(out / "sets.json")), steps


@pytest.mark.parametrize("strategy", ["rms", "greedy", "random"])
def test_search_writes_valid_sets_deterministically(dataset, tmp_path, strategy):
    schema = HinSchema.from_file(dataset / "schema.txt")
    assert search(dataset, tmp_path / "a", strategy) == 0
    assert search(dataset, tmp_path / "b", strategy) == 0
    doc = read_json(tmp_path / "a" / "sets.json")
    assert doc["strategy"] == strategy
    assert 1 <= doc["probe_evaluations"] <= doc["probe_calls"]
    graph = cli._load_dataset(dataset)
    cfg = RunConfig(seed=0)
    probe = evaluation.PerformanceProbe(graph, cli._split_for(graph, cfg), cfg)
    for key, form in (("user_set", mp.USER_SYMMETRIC), ("item_set", mp.ITEM_SYMMETRIC)):
        payload = doc[key]
        assert payload["form"] == form
        paths = tuple(mp.MetaPath.from_relations(schema, p["relations"]) for p in payload["paths"])
        assert len(mp.MetaPathSet(paths, form, schema)) >= 1  # raises on a form violation
        assert all(probe.subgraph(path) is not None for path in paths)  # density-accepted only
    assert stripped_outputs(tmp_path / "a") == stripped_outputs(tmp_path / "b")


@pytest.mark.parametrize("strategy", ["greedy", "random"])
def test_baseline_search_traces_every_probe(dataset, tmp_path, strategy):
    assert search(dataset, tmp_path, strategy) == 0
    doc = read_json(tmp_path / "sets.json")
    lines = list(read_jsonl(tmp_path / "trace.jsonl"))
    assert len(lines) == doc["probe_calls"]
    for line in lines:
        assert set(line) == {"set", "probe_metric", "reward", "wall_ms", "agent"}
        assert line["agent"] in ("user", "item")
        assert line["wall_ms"] >= 0.0
        assert 0.0 <= line["probe_metric"] <= 1.0
        assert line["reward"] == line["probe_metric"]
    for agent in ("user", "item"):
        probed = [l for l in lines if l["agent"] == agent]
        assert probed, agent
        found = [p["label"] for p in doc[f"{agent}_set"]["paths"]]
        best = max(l["probe_metric"] for l in probed)
        assert any(l["set"] == found and l["probe_metric"] == best for l in probed)


def test_search_replaces_an_earlier_trace(dataset, tmp_path):
    assert search(dataset, tmp_path, "greedy") == 0
    assert search(dataset, tmp_path, "greedy") == 0
    lines = list(read_jsonl(tmp_path / "trace.jsonl"))
    assert len(lines) == read_json(tmp_path / "sets.json")["probe_calls"]


@pytest.mark.parametrize("flag", [("--time-limit", 5), ("--jobs", 2)], ids=["time-limit", "jobs-2"])
def test_search_parser_rejects_removed_settings(dataset, tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        search(dataset, tmp_path, "random", *flag)
    assert exc.value.code != 0
    assert flag[0] in capsys.readouterr().err
    assert not (tmp_path / "sets.json").exists()


def test_search_accepts_jobs_1(dataset, tmp_path):
    assert search(dataset, tmp_path, "random", "--jobs", 1) == 0
    assert (tmp_path / "sets.json").exists()


def test_ingested_bundle_searches_like_the_tsvs(dataset, tmp_path):
    """TSVs ingested into a bundle give the same random search as the TSV dataset."""
    bundle = tmp_path / "bundle"
    assert run("ingest", "--schema", dataset / "schema.txt", "--nodes", dataset / "nodes.tsv",
               "--edges", dataset / "edges.tsv", "--out", bundle) == 0
    assert (bundle / "bundle.bin").exists() and not (bundle / "nodes.tsv").exists()
    for source, out in ((bundle, tmp_path / "from-bundle"), (dataset, tmp_path / "from-tsv")):
        assert run("search", "--dataset", source, "--strategy", "random", "--iter-limit", 6,
                   "--seed", 0, "--out", out) == 0
    sets, steps = stripped_outputs(tmp_path / "from-bundle")
    assert steps and (sets, steps) == stripped_outputs(tmp_path / "from-tsv")


def test_train_then_eval_writes_finite_metrics(dataset, tmp_path):
    sets = base_sets(tmp_path / "sets.json")
    config = tmp_path / "run.cfg"
    config.write_text("rec_epochs = 2\n")
    common = ("--dataset", dataset, "--config", config, "--seed", 0, "--out", tmp_path / "run")
    assert run("train", "--sets", sets, *common) == 0
    history = list(read_jsonl(tmp_path / "run" / "history.jsonl"))
    assert [r["epoch"] for r in history] == [0, 1]
    assert all(math.isfinite(r["train_loss"]) for r in history)

    assert run("eval", "--checkpoint", tmp_path / "run" / "model.ckpt", "--split", "test", *common) == 0
    metrics = list(read_jsonl(tmp_path / "run" / "metrics.jsonl"))
    assert {(r["metric"], r["k"]) for r in metrics} == {(m, k) for m in ("hr", "ndcg") for k in (1, 3, 10, 20)}
    assert all(math.isfinite(r["value"]) and 0.0 <= r["value"] <= 1.0 for r in metrics)

    checkpoint = tmp_path / "run" / "model.ckpt"
    header, arrays = load_arrays(checkpoint)
    save_arrays(checkpoint, {**header, "format": 3}, arrays)
    assert run("eval", "--checkpoint", checkpoint, "--split", "test", *common) == 1


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"user_set": UMU}, "item_set: missing key 'item_set'"),
        ({"item_set": MUM}, "user_set: missing key 'user_set'"),
        ({"user_set": {"form": "user"}, "item_set": MUM}, "user_set: missing key 'paths'"),
        ({"user_set": UMU, "item_set": {"paths": [{"label": "MUM"}]}}, "item_set: missing key 'relations'"),
        ({"user_set": {"paths": []}, "item_set": MUM}, "user_set: empty 'paths' list"),
        ({"user_set": {"paths": [[1, 2]]}, "item_set": MUM}, "user_set: a 'paths' entry is not an object"),
        ([UMU, MUM], "expected a JSON object, not list"),
        ({"user_set": {"paths": [{"relations": "UMU"}]}, "item_set": MUM},
         "user_set: 'relations' is not a non-empty list of integers"),
    ],
    ids=["no-item-set", "no-user-set", "no-paths", "no-relations", "empty-paths", "path-not-object",
         "top-level-list", "relations-string"],
)
def test_train_reports_a_malformed_sets_file(tmp_path, capsys, monkeypatch, doc, message):
    """Reported before the dataset is loaded, so the data set-up is not paid for a bad file."""
    monkeypatch.setattr(cli, "_load_dataset", lambda *a: pytest.fail("the dataset was loaded"))
    sets = tmp_path / "broken-sets.json"
    sets.write_text(json.dumps(doc))
    assert run("train", "--sets", sets, "--dataset", tmp_path / "data", "--seed", 0, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert f"error: {sets}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"user_set": {"paths": [{"relations": [99]}]}, "item_set": MUM},
         "user_set: relation id 99 out of range 1..6"),
        ({"user_set": UMU, "item_set": {"paths": [{"relations": [1, 1]}]}}, "item_set: relations do not chain: "),
        ({"user_set": MUM, "item_set": MUM}, "user_set: path MUM violates form 'user-symmetric'"),
    ],
    ids=["relation-out-of-range", "relations-do-not-chain", "wrong-form"],
)
def test_train_reports_a_set_the_schema_rejects(dataset, tmp_path, capsys, doc, message):
    """Faults only the dataset's schema can find still name the file and the key."""
    sets = tmp_path / "bad-sets.json"
    sets.write_text(json.dumps(doc))
    assert run("train", "--sets", sets, "--dataset", dataset, "--seed", 0, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert f"error: {sets}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "rms", "greedy", "random"])
def test_all_paths_rejected_is_an_error_not_a_crash(dense_dataset, tmp_path, capsys, monkeypatch, command):
    """Every strategy checks both initial sets before it searches, so it probes nothing."""
    out = tmp_path / "run"
    if command == "train":
        rc = run("train", "--sets", base_sets(tmp_path / "sets.json"), "--dataset", dense_dataset,
                 "--seed", 0, "--out", out)
    else:
        probed = []
        pair = evaluation.PerformanceProbe.pair
        monkeypatch.setattr(evaluation.PerformanceProbe, "pair", lambda *a: probed.append(a) or pair(*a))
        rc = search(dense_dataset, out, command)
        assert not probed
        assert not (out / "sets.json").exists()
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: all paths rejected by density filter: ['UMU']" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "setting, strategy, iter_limit",
    [("strategy = bogus", None, 8), ("max_steps = 0", "random", 8), ("target_sync = 0", "rms", 400)],
    ids=["strategy", "max-steps", "target-sync"],
)
def test_search_rejects_a_config_value_it_cannot_run(dataset, tmp_path, capsys, setting, strategy, iter_limit):
    """Reported with the file, the line and the key, before the dataset is read."""
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting}\n")
    out = tmp_path / "run"
    argv = ["search", "--dataset", dataset, "--config", config, "--iter-limit", iter_limit, "--seed", 0, "--out", out]
    assert run(*argv, *(("--strategy", strategy) if strategy else ())) == 1
    err = capsys.readouterr().err
    assert f"error: {config}:1: config key '{setting.split()[0]}'" in err
    assert "Traceback" not in err
    assert not (out / "sets.json").exists()


def test_main_sets_the_allocator_policy(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "keep_freed_memory", lambda: calls.append(1))
    assert run("report", "--run-dir", tmp_path, "--out", tmp_path / "report") == 1  # no runs to aggregate
    assert calls == [1]


def test_allocator_policy_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    assert cli.keep_freed_memory() is False


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "mallopt") or ctypes.sizeof(ctypes.c_void_p) != 8,
    reason="needs glibc's mallopt on a 64-bit host",
)
def test_glibc_accepts_both_thresholds():
    assert cli.keep_freed_memory() is True
