"""``tools/same_outputs.py``: the byte-identity check between two source trees."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_one_tree_against_itself_writes_the_same_artifacts(capsys):
    rc = same_outputs.main([str(ROOT), str(ROOT), "--profile", "planted-mam-small", "--synth-seeds", "1",
                            "--run-seeds", "0"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 11 artifacts differ"]


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
