"""Versioned binary container for named float64 arrays: HRec's checkpoints.

A file is, in order:

1. the magic tag :data:`MAGIC`;
2. a JSON header object, after its length as a little-endian uint32;
3. the array count, then per array its UTF-8 name, dtype code, rank,
   shape and little-endian float64 data;
4. a little-endian uint32 CRC-32 (``zlib.crc32``) of every byte before it.

The writer sorts array names so identical content produces byte-identical
files. The reader checks the CRC once the arrays have parsed: a file cut
short is still reported as truncated and a header that is not JSON as
corrupt, while damage that leaves the file parseable, or bytes after the
CRC, are a checksum mismatch.
"""
from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"HINREC02"

_DTYPE_CODES = {np.dtype("<f8"): 0}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointError(RuntimeError):
    pass


def _coerce(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.dtype != np.float64:
        raise CheckpointError(f"unsupported array dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype="<f8")


def save_arrays(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``header`` and ``arrays`` to ``path``; a non-float64 array raises before the file is opened."""
    arrays = {name: _coerce(arrays[name]) for name in sorted(arrays)}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    crc = 0
    with open(path, "wb") as fh:

        def write(data: bytes) -> None:
            nonlocal crc
            crc = zlib.crc32(data, crc)
            fh.write(data)

        write(MAGIC)
        write(struct.pack("<I", len(head)))
        write(head)
        write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            enc = name.encode("utf-8")
            write(struct.pack("<H", len(enc)))
            write(enc)
            write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
            write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            write(arr.tobytes(order="C"))
        fh.write(struct.pack("<I", crc))


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
    (crc,) = struct.unpack("<I", take(4, "the checksum"))
    if off != len(data) or crc != zlib.crc32(memoryview(data)[: off - 4]):
        raise CheckpointError(f"{path}: checksum mismatch")
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
