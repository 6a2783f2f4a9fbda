#!/usr/bin/env python3
"""Whether two source trees write the same outputs, byte for byte.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT [--profile P] [--synth-seeds 1 2] [--run-seeds 0 1]

Each tree runs once, in a subprocess with its own ``src`` on ``PYTHONPATH``.
Per synth seed and run seed: ``train`` on the planted pair (5 epochs,
patience 5) and ``eval --split test``, whose ``model.ckpt``,
``history.jsonl`` and ``metrics.jsonl`` are compared as written; ``search``
rms ``--iter-limit 40``, random ``--iter-limit 16``, greedy ``--iter-limit 16``,
default rms and default greedy, whose ``sets.json`` and ``trace.jsonl`` are
compared after ``strip_volatile``. Only default greedy's budget lets it
reach ``max_steps`` moves; ``--iter-limit 16`` ends it after two rounds.
Prints each differing file, and names those that differ only in
``config_hash`` (a JSON field, or a key of ``model.ckpt``'s header) with
both hashes. For any other differing ``model.ckpt`` it loads both copies
with ``hinrec.checkpoint.load_arrays`` and says whether their arrays are
byte-equal and which header keys differ. Exits 1 when any file differs.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ARTIFACTS = ("model.ckpt", "history.jsonl", "metrics.jsonl", "sets.json", "trace.jsonl")
SEARCHES = {"rms-40": ("rms", "--iter-limit", 40), "random-16": ("random", "--iter-limit", 16),
            "greedy-16": ("greedy", "--iter-limit", 16), "rms": ("rms",), "greedy": ("greedy",)}


def produce(out: Path, profile: str, synth_seeds: list[int], run_seeds: list[int]) -> None:
    """Write every artifact under ``out`` with the ``hinrec`` on ``sys.path``."""
    from hinrec import cli, synth
    from hinrec.util import read_json, read_jsonl, strip_volatile

    def run(*argv):
        if cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"hinrec {' '.join(map(str, argv))} failed")

    planted, config = out / "planted-sets.json", out / "train.cfg"
    sides = {"user_set": [(synth.WATCH, synth.WATCHED), synth.PLANTED_USER_PATH],
             "item_set": [(synth.WATCHED, synth.WATCH), synth.PLANTED_ITEM_PATH]}
    planted.write_text(json.dumps({k: {"paths": [{"relations": list(p)} for p in v]} for k, v in sides.items()}))
    config.write_text("rec_epochs = 5\npatience = 5\n")
    for s in synth_seeds:
        run("synth", "--profile", profile, "--seed", s, "--out", out / f"data-{s}")
        for r in run_seeds:
            common, train = ("--dataset", out / f"data-{s}", "--seed", r), out / f"synth{s}-run{r}" / "train"
            run("train", "--sets", planted, "--config", config, "--out", train, *common)
            run("eval", "--checkpoint", train / "model.ckpt", "--split", "test", "--config", config, "--out", train, *common)
            for name, search in SEARCHES.items():
                found = out / f"synth{s}-run{r}" / name
                run("search", "--strategy", *search, "--out", found, *common)
                (found / "sets.json").write_text(json.dumps(strip_volatile(read_json(found / "sets.json"))))
                trace = "".join(json.dumps(strip_volatile(rec)) + "\n" for rec in read_jsonl(found / "trace.jsonl"))
                (found / "trace.jsonl").write_text(trace)


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """How many artifacts ``a`` and ``b`` hold between them, and those that differ or exist on one side only."""
    names = {p.relative_to(root) for root in (a, b) for p in root.rglob("*") if p.name in ARTIFACTS}
    same = [n for n in names if (a / n).exists() and (b / n).exists() and filecmp.cmp(a / n, b / n, shallow=False)]
    return len(names), sorted(str(n) for n in names.difference(same))


def split_hash(path: Path) -> tuple[str, tuple[str, bytes]] | None:
    """An artifact's ``config_hash`` values, joined, and its content without them; None if it does not parse."""
    data = path.read_bytes()
    try:
        if path.suffix == ".ckpt":  # an 8-byte magic tag, then a length-prefixed JSON header
            (n,) = struct.unpack_from("<I", data, 8)
            docs, rest = [json.loads(data[12 : 12 + n])], data[:8] + data[12 + n :]
        elif path.suffix == ".jsonl":
            docs, rest = [json.loads(line) for line in data.decode("utf-8").splitlines()], b""
        else:
            docs, rest = [json.loads(data)], b""
    except (ValueError, struct.error):
        return None
    hashes = sorted({str(doc.pop("config_hash", None)) for doc in docs if isinstance(doc, dict)})
    return ", ".join(hashes), (json.dumps(docs, sort_keys=True), rest)


def describe(a: Path, b: Path, name: str) -> str:
    """How the artifact ``name`` differs between the trees ``a`` and ``b``."""
    old, new = (split_hash(root / name) if (root / name).exists() else None for root in (a, b))
    if old and new and old[0] != new[0] and old[1] == new[1]:
        return f"differs only in config_hash: {name} ({old[0]} -> {new[0]})"
    if Path(name).suffix == ".ckpt" and (a / name).exists() and (b / name).exists():
        return f"differs: {name} ({checkpoint_diff(a / name, b / name)})"
    return f"differs: {name}"


def checkpoint_diff(a: Path, b: Path) -> str:
    """Whether two checkpoints' arrays are byte-equal, and which header keys differ."""
    from hinrec.checkpoint import CheckpointError, load_arrays

    try:
        (head_a, arrays_a), (head_b, arrays_b) = load_arrays(a), load_arrays(b)
    except CheckpointError as exc:
        return f"unreadable: {exc}"
    same = arrays_a.keys() == arrays_b.keys() and all(
        (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        for x, y in ((arrays_a[k], arrays_b[k]) for k in arrays_a)
    )
    absent = object()
    keys = sorted(k for k in head_a.keys() | head_b.keys() if head_a.get(k, absent) != head_b.get(k, absent))
    return f"arrays {'byte-equal' if same else 'differ'}; header keys differ: {', '.join(keys) or 'none'}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", type=Path, help="PARENT_ROOT CHANGE_ROOT")
    parser.add_argument("--profile", default="planted-mam")
    parser.add_argument("--synth-seeds", nargs="+", type=int, default=[1, 2])
    parser.add_argument("--run-seeds", nargs="+", type=int, default=[0, 1])
    parser.add_argument("--produce", type=Path, help=argparse.SUPPRESS)  # the per-tree subprocess
    args = parser.parse_args(argv)
    if args.produce:
        produce(args.produce, args.profile, args.synth_seeds, args.run_seeds)
        return 0
    if len(args.roots) != 2:
        parser.error("give PARENT_ROOT and CHANGE_ROOT")
    seeds = ["--profile", args.profile, "--synth-seeds", *map(str, args.synth_seeds), "--run-seeds", *map(str, args.run_seeds)]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        outs = [Path(tmp, side) for side in ("parent", "change")]
        for root, out in zip(args.roots, outs):
            out.mkdir()
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--produce", str(out), *seeds],
                                  env={**os.environ, "PYTHONPATH": str(root.resolve() / "src")}, capture_output=True, text=True)
            if proc.returncode:
                sys.exit(f"{root}: outputs not written\n{proc.stderr[-2000:]}")
        total, diff = compare(*outs)
        sys.path.append(str(ROOT / "src"))  # for checkpoint_diff, unless a hinrec is already importable
        for name in diff:
            print(describe(*outs, name))
    print(f"{len(diff)} of {total} artifacts differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
