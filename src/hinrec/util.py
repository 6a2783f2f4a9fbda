"""Shared helpers: deterministic RNG derivation, canonical JSON, stable hashing.

The commands write their JSON files here: :func:`write_json` for a document,
:func:`write_jsonl`, the one JSON-lines writer, for a run's records.
"""
from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

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


def write_json(path: str | Path, obj: dict) -> None:
    """``obj`` as one canonical JSON line, stamped with ``created_at``."""
    record = {**obj, "created_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(canonical_json(record) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> dict:
    """The JSON object in ``path``.

    Text that is not UTF-8 JSON, or JSON that is not an object, raises a
    ValueError naming ``path``.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, not {type(doc).__name__}")
    return doc


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """The one JSON-lines writer: ``records`` as canonical JSON, one per line.

    It replaces any earlier file at ``path``, so a rerun into the same
    directory leaves one run's records.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("".join(canonical_json(record) + "\n" for record in records), encoding="utf-8")


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
