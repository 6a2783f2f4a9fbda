"""Shared helpers: deterministic RNG derivation, canonical JSON, stable hashing."""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Iterator

import numpy as np

# Fields excluded when comparing artifacts for reproducibility (wall-clock data).
VOLATILE_FIELDS = ("created_at", "wall_ms", "elapsed_s")


def derive_seed(*parts: Any) -> int:
    """Collapse (seed, tag, ...) into a 64-bit seed, stable across runs and platforms."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(*parts: Any) -> np.random.Generator:
    """Independent RNG stream keyed by an arbitrary tag tuple."""
    return np.random.default_rng(derive_seed(*parts))


def to_jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def canonical_json(obj: Any) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """Short content hash of a JSON-serializable object."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def write_json(path: str | Path, obj: dict, timestamp: bool = True) -> None:
    record = dict(obj)
    if timestamp:
        record["created_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(canonical_json(record) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> dict:
    """The JSON document in ``path``; text that is not UTF-8 JSON raises a ValueError naming ``path``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: {exc}") from None


def append_jsonl(path: str | Path, record: dict) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(canonical_json(record) + "\n")


def read_jsonl(path: str | Path, required: tuple[str, ...] = ()) -> Iterator[dict]:
    """The records of a JSON-lines file, skipping blank lines.

    A line that is not JSON, or not an object holding every key in
    ``required``, raises a ValueError naming ``path`` and the line.
    """
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            lacking = [key for key in required if not isinstance(record, dict) or key not in record]
            if lacking:
                raise ValueError(f"{path}:{line_no}: record lacks {lacking}")
            yield record


def strip_volatile(obj: Any) -> Any:
    """Drop wall-clock fields so artifacts can be compared bit-for-bit."""
    if isinstance(obj, dict):
        return {k: strip_volatile(v) for k, v in obj.items() if k not in VOLATILE_FIELDS}
    if isinstance(obj, list):
        return [strip_volatile(v) for v in obj]
    return obj
