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

from conftest import SCHEMA_FAULTS


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


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    """The ``model.ckpt`` of one training epoch on the module's dataset at {UMU} x {MUM}."""
    out = tmp_path_factory.mktemp("cli-model")
    (out / "run.cfg").write_text("rec_epochs = 1\n")
    assert run("train", "--sets", base_sets(out / "sets.json"), "--dataset", dataset, "--config", out / "run.cfg",
               "--seed", 0, "--out", out / "run") == 0
    return out / "run" / "model.ckpt"


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


def budget_outputs(dataset, out, strategy, *extra):
    """sets.json and, per agent, the distinct episode numbers of the search's trace."""
    assert run("search", "--dataset", dataset, "--strategy", strategy, "--seed", 0, "--out", out, *extra) == 0
    episodes = {}
    for line in read_jsonl(out / "trace.jsonl"):
        episodes.setdefault(line["agent"], set()).add(line.get("episode"))
    return read_json(out / "sets.json"), episodes


@pytest.mark.parametrize("extra, calls, episodes", [(("--iter-limit", 16), 16, 2), ((), 480, 60)],
                         ids=["iter-limit-16", "default"])
def test_one_budget_sizes_random_and_rms(dataset, tmp_path, extra, calls, episodes):
    """Half the budget per side: random probes that many sets, rms trains half // max_steps episodes."""
    doc, _ = budget_outputs(dataset, tmp_path / "random", "random", *extra)
    assert doc["probe_calls"] == calls
    _, seen = budget_outputs(dataset, tmp_path / "rms", "rms", *extra)
    assert seen == {agent: set(range(episodes + 1)) for agent in ("user", "item")}  # and the inference episode


def rerun_search(dataset, checkpoint, out):
    """``hinrec search`` into ``out``; its trace holds one record per probe call."""
    assert search(dataset, out, "greedy") == 0
    return read_json(out / "sets.json")["probe_calls"]


def rerun_train(dataset, checkpoint, out):
    """Two epochs of ``hinrec train`` into ``out``; its history holds one record per epoch."""
    (out / "run.cfg").write_text("rec_epochs = 2\n")
    assert run("train", "--sets", base_sets(out / "sets.json"), "--dataset", dataset, "--config", out / "run.cfg",
               "--seed", 0, "--out", out) == 0
    return 2


def rerun_eval(dataset, checkpoint, out):
    """``hinrec eval`` into ``out``; its metrics hold HR and NDCG at each of ``EVAL_KS``."""
    assert run("eval", "--dataset", dataset, "--checkpoint", checkpoint, "--seed", 0, "--out", out) == 0
    return 2 * len(cli.EVAL_KS)


@pytest.mark.parametrize("command, name", [(rerun_search, "trace.jsonl"), (rerun_train, "history.jsonl"),
                                           (rerun_eval, "metrics.jsonl")], ids=["search", "train", "eval"])
def test_a_rerun_replaces_an_earlier_jsonl_file(dataset, checkpoint, tmp_path, command, name):
    """Two runs into one ``--out`` leave exactly the second run's records."""
    command(dataset, checkpoint, tmp_path)
    assert len(list(read_jsonl(tmp_path / name))) == command(dataset, checkpoint, tmp_path)


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
    "setting, strategy, iter_limit, message",
    [("strategy = bogus", None, 8, "config key 'strategy': unknown strategy 'bogus'"),
     ("max_steps = 0", "random", 8, "unknown config key 'max_steps'"),
     ("rec_batch = 0", "rms", 400, "unknown config key 'rec_batch'"),
     ("fanout = 0", "random", 8, "unknown config key 'fanout'"),
     ("dropout = 1.0", "rms", 40, "unknown config key 'dropout'")],
    ids=["strategy", "max-steps", "rec-batch", "fanout", "dropout"],
)
def test_search_rejects_a_config_value_it_cannot_run(dataset, tmp_path, capsys, setting, strategy, iter_limit, message):
    """Reported with the file, the line and the key, before the dataset is read. The step
    limit, batch size, fanout and dropout are module constants, so their keys are unknown."""
    config = tmp_path / "run.cfg"
    config.write_text(f"{setting}\n")
    out = tmp_path / "run"
    argv = ["search", "--dataset", dataset, "--config", config, "--iter-limit", iter_limit, "--seed", 0, "--out", out]
    assert run(*argv, *(("--strategy", strategy) if strategy else ())) == 1
    err = capsys.readouterr().err
    assert f"error: {config}:1: {message}" in err
    assert "Traceback" not in err
    assert not (out / "sets.json").exists()


def test_train_rejects_zero_epochs(dataset, tmp_path, capsys):
    """Zero epochs would leave no best validation value to report; the config names the fault."""
    config = tmp_path / "run.cfg"
    config.write_text("rec_epochs = 0\n")
    out = tmp_path / "run"
    rc = run("train", "--sets", base_sets(tmp_path / "sets.json"), "--dataset", dataset, "--config", config,
             "--seed", 0, "--out", out)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {config}:1: config key 'rec_epochs': must be at least 1, got 0" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_train_rejects_a_dropout_of_one(dataset, tmp_path, capsys):
    """Dropout is the constant ``recommender.DROPOUT``, so a config that sets it, to 1 or to
    anything else, is refused by file, line and key."""
    config = tmp_path / "run.cfg"
    config.write_text("dropout = 1.0\n")
    out = tmp_path / "run"
    rc = run("train", "--sets", base_sets(tmp_path / "sets.json"), "--dataset", dataset, "--config", config,
             "--seed", 0, "--out", out)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: {config}:1: unknown config key 'dropout'" in err
    assert "Traceback" not in err
    assert not (out / "manifest.json").exists()


def test_train_names_a_user_who_watched_every_movie(tmp_path, capsys, monkeypatch):
    """4 users x 4 movies, u0 (user 0) having watched all four: no negative can be drawn
    for it, and the CLI reports that as an error naming u0, rather than a traceback."""
    monkeypatch.setattr(evaluation, "DENSITY_THRESHOLD", 1.0)  # keep the dense UMU and MUM
    (tmp_path / "schema.txt").write_text(
        "node_types: User, Movie\nwatch: User -> Movie ~ watched\ninteraction_relation: watch\n"
    )
    watched = {0: range(4), 1: (0, 1), 2: (1, 2), 3: (2, 3)}
    (tmp_path / "nodes.tsv").write_text("".join(f"{t}{i}\t{n}\n" for t, n in (("u", "User"), ("m", "Movie")) for i in range(4)))
    (tmp_path / "edges.tsv").write_text("".join(f"u{u}\twatch\tm{m}\n" for u, ms in watched.items() for m in ms))
    config = tmp_path / "run.cfg"
    config.write_text("mf_epochs = 1\nrec_epochs = 1\n")
    rc = run("train", "--sets", base_sets(tmp_path / "sets.json"), "--dataset", tmp_path, "--config", config,
             "--seed", 0, "--out", tmp_path / "run")
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: user u0 has interacted with all 4 items" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["search", "train", "eval"])
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, command):
    """A dataset that cannot be read fails the command before any output is written."""
    extra = {"search": (), "train": ("--sets", base_sets(tmp_path / "sets.json")),
             "eval": ("--checkpoint", tmp_path / "model.ckpt")}[command]
    out = tmp_path / "run"
    assert run(command, "--dataset", tmp_path / "nonexistent", "--seed", 0, "--out", out, *extra) == 1
    assert "error: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["search", "train", "eval"])
@pytest.mark.parametrize(
    "text, line_no, message",
    [*SCHEMA_FAULTS,
     pytest.param("node_types: User, Movie\nwatch: User -> Movie ~ watched\n", None,
                  "missing interaction_relation line", id="no-interaction-relation")],
)
def test_a_schema_fault_is_named_before_the_tsvs_load(tmp_path, capsys, command, text, line_no, message):
    """Every command stops at the schema's first fault and names the file and line. The dataset
    has no TSVs, so a command that read past the schema would report a missing file instead."""
    schema = tmp_path / "schema.txt"
    schema.write_text(text)
    extra = {"search": (), "train": ("--sets", base_sets(tmp_path / "sets.json")),
             "eval": ("--checkpoint", tmp_path / "model.ckpt")}[command]
    out = tmp_path / "run"
    err = failure(capsys, command, "--dataset", tmp_path, "--seed", 0, "--out", out, *extra)
    where = schema if line_no is None else f"{schema}:{line_no}"
    assert f"error: {where}: {message}" in err
    assert not out.exists()


def eval_command(dataset, checkpoint, tmp_path):
    """The argv of an ``eval`` of ``checkpoint`` on ``dataset``."""
    return ("eval", "--dataset", dataset, "--checkpoint", checkpoint, "--split", "test", "--seed", 0,
            "--out", tmp_path / "run")


def failure(capsys, *argv):
    """The stderr of a command that must exit 1 without a traceback."""
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


CUTS = [10, 2000, 0.5, -1]  # byte counts; a fraction of the file; one byte short


def cut(src, dst, at):
    """``src``'s first bytes, written to ``dst``: ``at`` of them, or that fraction, or all but ``-at``."""
    data = src.read_bytes()
    n = int(len(data) * at) if isinstance(at, float) else at % len(data)
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_bytes(data[:n])
    return dst


@pytest.mark.parametrize("at", CUTS)
def test_a_truncated_checkpoint_is_named(dataset, checkpoint, tmp_path, capsys, at):
    path = cut(checkpoint, tmp_path / "model.ckpt", at)
    err = failure(capsys, *eval_command(dataset, path, tmp_path))
    assert f"error: {path}: truncated: " in err


def edited(src, dst, edit):
    """``src``'s header and arrays after ``edit(header, arrays)``, written to ``dst``."""
    header, arrays = load_arrays(src)
    edit(header, arrays)
    dst.parent.mkdir(parents=True, exist_ok=True)
    save_arrays(dst, header, arrays)
    return dst


def test_a_checkpoint_without_its_sets_is_named(dataset, checkpoint, tmp_path, capsys):
    path = edited(checkpoint, tmp_path / "model.ckpt", lambda header, arrays: header.pop("user_set"))
    err = failure(capsys, *eval_command(dataset, path, tmp_path))
    assert f"error: {path}: header lacks ['user_set']" in err


def corrupt_delimiter(data):
    """The header's first ``:``, after its first key, made ``!``."""
    at = data.index(b":", 12)  # past the 8-byte magic and the 4-byte header length
    return data[:at] + b"!" + data[at + 1:]


def corrupt_encoding(data):
    """The header's first byte made 0xff, which no UTF-8 text starts with."""
    return data[:12] + b"\xff" + data[13:]


@pytest.mark.parametrize(
    "corrupt, message",
    [(corrupt_delimiter, "corrupt header: Expecting ':' delimiter"), (corrupt_encoding, "corrupt header: 'utf-8'")],
    ids=["eval-delimiter", "eval-encoding"],
)
def test_a_corrupt_container_header_is_named(dataset, checkpoint, tmp_path, capsys, corrupt, message):
    path = tmp_path / "model.ckpt"
    path.write_bytes(corrupt(checkpoint.read_bytes()))
    err = failure(capsys, *eval_command(dataset, path, tmp_path))
    assert f"error: {path}: {message}" in err


def flip_a_bit(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


@pytest.mark.parametrize(
    "damage, message",
    [(lambda data: data.replace(b'"config_hash"', b'"config!hash"'), "checksum mismatch"),
     (lambda data: flip_a_bit(data, len(data) - 12), "checksum mismatch"),  # the last float's low byte
     (lambda data: data + b"\0", "checksum mismatch"),
     (lambda data: b"HINREC01" + data[8:-4], "not a hinrec checkpoint (bad magic)")],
    ids=["header-key", "array-bit", "trailing-byte", "old-format"],
)
def test_a_damaged_checkpoint_is_named(dataset, checkpoint, tmp_path, capsys, damage, message):
    """Damage that leaves the file parseable is caught by its CRC-32; a file without one by its magic."""
    path = tmp_path / "model.ckpt"
    path.write_bytes(damage(checkpoint.read_bytes()))
    err = failure(capsys, *eval_command(dataset, path, tmp_path))
    assert f"error: {path}: {message}" in err


METRICS_RECORD = {"config_hash": "h", "strategy": "rms", "split": "test", "k": 10, "metric": "ndcg", "value": 0.5}


@pytest.mark.parametrize(
    "case, where, message",
    [("sets", "sets.json", "Expecting value: line 1 column 1"),
     ("manifest", "manifest.json", "Expecting value: line 1 column 1"),
     ("metrics-line", "runs/metrics.jsonl:2", "Expecting value: line 1 column 1"),
     ("metrics-key", "runs/metrics.jsonl:2", "record lacks ['config_hash']")],
    ids=["sets", "manifest", "metrics-line", "metrics-key"],
)
def test_a_json_input_that_cannot_be_read_is_named(dataset, checkpoint, tmp_path, capsys, case, where, message):
    """The file, and for a JSON-lines file the line, of the first record that cannot be read."""
    out = ("--seed", 0, "--out", tmp_path / "run")
    if case == "sets":
        (tmp_path / "sets.json").write_text("user_set: UMU\n")
        argv = ("train", "--sets", tmp_path / "sets.json", "--dataset", dataset, *out)
    elif case == "manifest":  # eval reads the manifest beside its checkpoint
        (tmp_path / "model.ckpt").write_bytes(checkpoint.read_bytes())
        (tmp_path / "manifest.json").write_text("")
        argv = eval_command(dataset, tmp_path / "model.ckpt", tmp_path)
    else:
        second = "?" if case == "metrics-line" else json.dumps({k: v for k, v in METRICS_RECORD.items() if k != "config_hash"})
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / "metrics.jsonl").write_text(json.dumps(METRICS_RECORD) + "\n" + second + "\n")
        argv = ("report", "--run-dir", tmp_path / "runs", *out)
    err = failure(capsys, *argv)
    assert f"error: {tmp_path}/{where}: {message}" in err


def test_eval_names_a_manifest_that_is_not_an_object(dataset, checkpoint, tmp_path, capsys):
    """The manifest beside the checkpoint is checked as ``train`` checks its sets file."""
    (tmp_path / "model.ckpt").write_bytes(checkpoint.read_bytes())
    (tmp_path / "manifest.json").write_text("[1, 2]")
    err = failure(capsys, *eval_command(dataset, tmp_path / "model.ckpt", tmp_path))
    assert f"error: {tmp_path}/manifest.json: expected a JSON object, not list" in err


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
