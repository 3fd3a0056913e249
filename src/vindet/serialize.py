"""Raw tensor snapshots and the checkpoint container.

Snapshot layout: magic ``MPTN``, u8 dtype code (0=f32, 1=f64), u8 rank,
rank little-endian u32 dims, then the row-major little-endian payload.
A checkpoint is a single indexed container of named snapshots.
"""

from __future__ import annotations

import math
import struct
from typing import Dict

import numpy as np

MAGIC = b"MPTN"
CONTAINER_MAGIC = b"MPCI"

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def encode_tensor(arr: np.ndarray) -> bytes:
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(f"unsupported dtype {arr.dtype}")
    if arr.ndim > 255:
        raise ValueError("rank too large")
    head = MAGIC + struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim)
    dims = struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    return head + dims + payload


def _unpack(fmt: str, buf: bytes, offset: int, what: str) -> tuple:
    if offset + struct.calcsize(fmt) > len(buf):
        raise ValueError(f"truncated {what}")
    return struct.unpack_from(fmt, buf, offset)


def decode_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one snapshot; returns (array, bytes consumed). A bad magic, an
    unknown dtype or a snapshot running past the end of ``buf`` raise ValueError."""
    magic, code, rank = _unpack("<4sBB", buf, offset, "tensor header")
    if magic != MAGIC:
        raise ValueError("bad tensor magic")
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown tensor dtype code {code}")
    dims = _unpack(f"<{rank}I", buf, offset + 6, "tensor dims")
    dtype = _CODE_DTYPES[code]
    start = offset + 6 + 4 * rank
    end = start + math.prod(dims) * dtype.itemsize
    if end > len(buf):
        raise ValueError(f"truncated tensor payload of {end - start} bytes")
    arr = np.frombuffer(buf[start:end], dtype=dtype).reshape(dims).copy()
    return arr, end - offset


def save_container(path, tensors: Dict[str, np.ndarray]):
    """Write named tensors sorted by name so output bytes are reproducible."""
    names = sorted(tensors)
    with open(path, "wb") as fh:
        fh.write(CONTAINER_MAGIC + struct.pack("<I", len(names)))
        for name in names:
            nb = name.encode("utf-8")
            blob = encode_tensor(tensors[name])
            fh.write(struct.pack("<H", len(nb)) + nb + struct.pack("<I", len(blob)))
            fh.write(blob)


def load_container(path) -> Dict[str, np.ndarray]:
    """Read a container; any malformed or truncated part raises ValueError
    naming ``path`` and the entry."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != CONTAINER_MAGIC:
        raise ValueError(f"{path}: not a checkpoint container")
    (count,) = _unpack("<I", buf, 4, f"{path}: container header")
    view = memoryview(buf)  # bounds each blob without copying
    off = 8
    out: Dict[str, np.ndarray] = {}
    for i in range(count):
        name = None
        try:
            (nlen,) = _unpack("<H", buf, off, "name length")
            name = _unpack(f"<{nlen}s", buf, off + 2, "name")[0].decode("utf-8")
            (blen,) = _unpack("<I", buf, off + 2 + nlen, "blob length")
            off += 6 + nlen
            arr, used = decode_tensor(view[:off + blen], off)
            if used != blen:
                raise ValueError(f"blob holds {blen} bytes, its tensor {used}")
        except ValueError as err:
            entry = f"entry {i}" if name is None else f"entry {i} ({name})"
            raise ValueError(f"{path}: {entry}: {err}") from None
        off += blen
        out[name] = arr
    return out
