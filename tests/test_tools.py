"""``tools/same_outputs.py``, the byte-identity check between two source trees, and
``tools/bench_pairs.py``, their alternating bench runs."""
from __future__ import annotations

import importlib.util
import json
import re
import struct
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_outputs = load_tool("same_outputs")
bench_pairs = load_tool("bench_pairs")


def test_one_tree_against_itself_writes_the_same_artifacts(capsys):
    rc = same_outputs.main([str(ROOT), str(ROOT), "--profile", "planted-mam-small", "--synth-seeds", "1",
                            "--run-seeds", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 13 artifacts differ"]


def test_one_changed_byte_is_reported(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        for name in ("model.ckpt", "sets.json", "manifest.json"):
            (root / "run" / name).parent.mkdir(parents=True, exist_ok=True)
            (root / "run" / name).write_bytes(bytes(range(256)))
    assert same_outputs.compare(a, b) == (2, [])
    data = bytearray(range(256))
    data[200] ^= 1
    (b / "run" / "model.ckpt").write_bytes(bytes(data))
    (b / "run" / "manifest.json").write_text("not an artifact")
    (a / "run" / "trace.jsonl").write_text("{}\n")
    assert same_outputs.compare(a, b) == (3, ["run/model.ckpt", "run/trace.jsonl"])


def test_artifacts_that_differ_only_in_config_hash_are_named(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, config_hash in ((a, "old"), (b, "new")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "sets.json").write_text(json.dumps({"config_hash": config_hash, "seed": 0}))
        (root / "run" / "history.jsonl").write_text("".join(
            json.dumps({"epoch": k, "config_hash": config_hash}) + "\n" for k in range(2)))
        head = json.dumps({"config": {"embed_dim": 4}, "config_hash": config_hash}).encode()
        (root / "run" / "model.ckpt").write_bytes(b"HINREC01" + struct.pack("<I", len(head)) + head + bytes(range(9)))
        (root / "run" / "metrics.jsonl").write_text(json.dumps({"value": 0.5, "config_hash": config_hash}) + "\n")
    (b / "run" / "metrics.jsonl").write_text(json.dumps({"value": 0.25, "config_hash": "new"}) + "\n")
    total, diff = same_outputs.compare(a, b)
    assert (total, diff) == (4, ["run/history.jsonl", "run/metrics.jsonl", "run/model.ckpt", "run/sets.json"])
    assert [same_outputs.describe(a, b, name) for name in diff] == [
        "differs only in config_hash: run/history.jsonl (old -> new)",
        "differs: run/metrics.jsonl",
        "differs only in config_hash: run/model.ckpt (old -> new)",
        "differs only in config_hash: run/sets.json (old -> new)",
    ]


def test_bench_pairs_runs_one_pair_of_a_tree_against_itself(capsys):
    rc = bench_pairs.main([str(ROOT), str(ROOT), "--pairs", "1", "--", "--workload", "search-random",
                           "--profile", "planted-mam-small", "--seconds", "1", "--iter-limit", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[0].startswith("pair 1: parent {") and ", change {" in lines[0]
    rows = {line.split()[0]: line for line in lines[2:-1]}
    assert set(rows) == {"wall_s", "setup_s", "peak_rss_mb", "mf_val_ndcg"}
    assert all(row.endswith("of 1") for row in rows.values())
    assert rows["mf_val_ndcg"].endswith("0 of 1")  # the same tree never beats itself on quality
    assert re.fullmatch(r"failed operations: parent 0 of \d+, change 0 of \d+", lines[-1])


def test_bench_pairs_counts_wins_in_each_metrics_direction():
    def result(wall, ndcg):
        return {"attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": wall}, "mf_val_ndcg": {"value": ndcg}}}

    runs = [{"parent": result(p_wall, p_ndcg), "change": result(c_wall, c_ndcg)}
            for p_wall, c_wall, p_ndcg, c_ndcg in [(2.0, 1.0, 0.5, 0.6), (1.0, 2.0, 0.5, 0.5), (3.0, 1.5, 0.5, 0.4)]]
    end_to_end = [{"name": "wall_s", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"},
                  {"name": "mf_val_ndcg", "better": "higher"}]
    lines = bench_pairs.summarize(runs, end_to_end)
    assert [line.split()[0] for line in lines[1:-1]] == ["wall_s", "mf_val_ndcg"]  # undeclared by the runs: skipped
    assert lines[1].split()[1:] == ["2", "[1.5,", "2.5]", "1.5", "[1.25,", "1.75]", "2", "of", "3"]
    assert lines[2].endswith("1 of 3")
    assert lines[-1] == "failed operations: parent 0 of 9, change 0 of 9"


def test_a_differing_checkpoint_reports_its_arrays_and_header_keys(tmp_path):
    """Checkpoints that differ beyond ``config_hash`` are loaded: are their arrays byte-equal,
    and which header keys differ?"""
    from hinrec.checkpoint import save_arrays

    arrays = {"user_emb": np.arange(6.0).reshape(2, 3), "q.user.UMU": np.ones(4)}
    a, b = tmp_path / "a", tmp_path / "b"
    save_arrays(a / "run" / "model.ckpt", {"format": 5, "config": {"fanout": 20}, "config_hash": "old", "seed": 0}, arrays)
    save_arrays(b / "run" / "model.ckpt", {"format": 6, "config_hash": "new", "seed": 0}, arrays)
    arrays["q.user.UMU"] = np.ones(4) * np.nextafter(1.0, 2.0)
    save_arrays(b / "run" / "other" / "model.ckpt", {"format": 5, "config": {"fanout": 20}, "seed": 0}, arrays)
    save_arrays(a / "run" / "other" / "model.ckpt", {"format": 5, "config": {"fanout": 20}, "seed": 0},
                {**arrays, "q.user.UMU": np.ones(4)})
    assert same_outputs.compare(a, b) == (2, ["run/model.ckpt", "run/other/model.ckpt"])
    assert same_outputs.describe(a, b, "run/model.ckpt") == (
        "differs: run/model.ckpt (arrays byte-equal; header keys differ: config, config_hash, format)")
    assert same_outputs.describe(a, b, "run/other/model.ckpt") == (
        "differs: run/other/model.ckpt (arrays differ; header keys differ: none)")


def test_checkpoints_that_differ_only_in_config_hash_are_named(tmp_path):
    """The CRC-32 trailer covers the header, so it is left out with the hash."""
    from hinrec.checkpoint import save_arrays

    arrays = {"user_emb": np.arange(6.0).reshape(2, 3)}
    for side, config_hash in (("a", "old"), ("b", "new")):
        save_arrays(tmp_path / side / "run" / "model.ckpt", {"config_hash": config_hash, "seed": 0}, arrays)
    assert same_outputs.compare(tmp_path / "a", tmp_path / "b") == (1, ["run/model.ckpt"])
    assert same_outputs.describe(tmp_path / "a", tmp_path / "b", "run/model.ckpt") == (
        "differs only in config_hash: run/model.ckpt (old -> new)")


def test_each_checkpoint_is_read_by_its_own_trees_loader(tmp_path):
    """Two trees whose containers differ only in their magic tag write checkpoints that compare equal."""
    from hinrec import checkpoint

    source = (ROOT / "src" / "hinrec" / "checkpoint.py").read_text()
    other_source = source.replace(checkpoint.MAGIC.decode(), "HINREC99")
    assert other_source != source
    other = tmp_path / "other-tree"
    (other / "src" / "hinrec").mkdir(parents=True)
    (other / "src" / "hinrec" / "checkpoint.py").write_text(other_source)
    header, arrays = {"format": 6, "seed": 0}, {"user_emb": np.arange(6.0).reshape(2, 3)}
    checkpoint.save_arrays(tmp_path / "a" / "run" / "model.ckpt", header, arrays)
    same_outputs.checkpoint_module(other).save_arrays(tmp_path / "b" / "run" / "model.ckpt", header, arrays)
    assert same_outputs.compare(tmp_path / "a", tmp_path / "b") == (1, ["run/model.ckpt"])
    assert same_outputs.describe(tmp_path / "a", tmp_path / "b", "run/model.ckpt", (ROOT, other)) == (
        "differs: run/model.ckpt (arrays byte-equal; header keys differ: none)")
