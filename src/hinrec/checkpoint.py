"""Versioned binary container for named arrays.

One format serves model checkpoints and ingested dataset bundles: a
magic tag, a JSON header, then shape-tagged little-endian arrays. The
writer sorts array names so identical content produces byte-identical
files.
"""
from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"HINREC01"

_DTYPE_CODES = {np.dtype("<f8"): 0, np.dtype("<i8"): 1, np.dtype("|u1"): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(RuntimeError):
    pass


def _coerce(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype == np.bool_:
        return arr.astype("|u1")
    if np.issubdtype(arr.dtype, np.floating):
        return np.ascontiguousarray(arr, dtype="<f8")
    if np.issubdtype(arr.dtype, np.integer):
        return np.ascontiguousarray(arr, dtype="<i8")
    raise CheckpointError(f"unsupported array dtype {arr.dtype}")


def save_arrays(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(head)))
        fh.write(head)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = _coerce(arrays[name])
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.tobytes(order="C"))


def load_arrays(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    data = Path(path).read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a hinrec checkpoint (bad magic)")
    off = len(MAGIC)

    def take(n: int, what: str) -> bytes:
        nonlocal off
        if off + n > len(data):
            raise CheckpointError(f"{path}: truncated: {len(data)} bytes end inside {what}")
        off += n
        return data[off - n : off]

    (head_len,) = struct.unpack("<I", take(4, "the header length"))
    try:
        header = json.loads(take(head_len, "the header").decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{path}: corrupt header: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt header: a JSON {type(header).__name__}, not an object")
    (count,) = struct.unpack("<I", take(4, "the array count"))
    arrays: dict[str, np.ndarray] = {}
    for k in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"array {k}'s name length"))
        name = take(name_len, f"array {k}'s name").decode("utf-8")
        code, ndim = struct.unpack("<BB", take(2, f"{name!r}'s dtype"))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim, f"{name!r}'s shape"))
        dtype = _CODE_DTYPES.get(code)
        if dtype is None:
            raise CheckpointError(f"{path}: unknown dtype code {code} for {name!r}")
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        arrays[name] = np.frombuffer(take(nbytes, f"{name!r}'s data"), dtype=dtype).reshape(shape).copy()
    return header, arrays


def check_arrays(path: str | Path, arrays: dict[str, np.ndarray], expected: dict[str, np.ndarray]) -> None:
    """Raise :class:`CheckpointError`, naming ``path``, unless ``arrays`` match ``expected`` in name and shape."""
    stored = {k: a.shape for k, a in arrays.items()}
    wanted = {k: a.shape for k, a in expected.items()}
    if stored != wanted:
        missing = sorted(wanted.keys() - stored.keys())
        unexpected = sorted(stored.keys() - wanted.keys())
        reshaped = sorted(k for k in wanted.keys() & stored.keys() if stored[k] != wanted[k])
        raise CheckpointError(
            f"{path}: arrays do not match the rebuilt parameters "
            f"(missing {missing}, unexpected {unexpected}, wrong shape {reshaped})"
        )
