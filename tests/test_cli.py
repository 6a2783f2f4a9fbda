import json
import math

import pytest

from hinrec import cli
from hinrec import metapath as mp
from hinrec.hin import HinSchema
from hinrec.util import read_json, read_jsonl, strip_volatile


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    assert cli.main(["synth", "--profile", "planted-mam-small", "--seed", "1", "--out", str(out)]) == 0
    return out


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def search(dataset, out, strategy, *extra):
    return run("search", "--dataset", dataset, "--strategy", strategy, "--iter-limit", 8,
               "--seed", 0, "--out", out, *extra)


def stripped_outputs(out):
    """sets.json and the step trace (rms only) without their wall-clock fields."""
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
    assert doc["probe_calls"] >= 1
    for key, form in (("user_set", mp.USER_SYMMETRIC), ("item_set", mp.ITEM_SYMMETRIC)):
        payload = doc[key]
        assert payload["form"] == form
        paths = tuple(mp.MetaPath.from_relations(schema, p["relations"]) for p in payload["paths"])
        assert len(mp.MetaPathSet(paths, form, schema)) >= 1  # raises on a form violation
    assert stripped_outputs(tmp_path / "a") == stripped_outputs(tmp_path / "b")


def test_rms_rejects_time_limit(dataset, tmp_path, capsys):
    assert search(dataset, tmp_path, "rms", "--time-limit", 5) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "sets.json").exists()


def test_train_then_eval_writes_finite_metrics(dataset, tmp_path):
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({
        "user_set": {"paths": [{"relations": [1, 2]}]},
        "item_set": {"paths": [{"relations": [2, 1]}]},
    }))
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
