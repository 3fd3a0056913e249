"""Raw tensor snapshots and the checkpoint container.

Snapshot layout: magic ``MPTN``, u8 dtype code (0=f32, 1=f64), u8 rank,
rank little-endian u32 dims, then the row-major little-endian payload.
A checkpoint is a single indexed container of named snapshots.
"""

from __future__ import annotations

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


def decode_tensor(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode one snapshot; returns (array, bytes consumed)."""
    if buf[offset:offset + 4] != MAGIC:
        raise ValueError("bad tensor magic")
    code, rank = struct.unpack_from("<BB", buf, offset + 4)
    if code not in _CODE_DTYPES:
        raise ValueError(f"unknown tensor dtype code {code}")
    dims = struct.unpack_from(f"<{rank}I", buf, offset + 6)
    dtype = _CODE_DTYPES[code]
    n = int(np.prod(dims)) if rank else 1
    start = offset + 6 + 4 * rank
    end = start + n * dtype.itemsize
    arr = np.frombuffer(buf[start:end], dtype=dtype).reshape(dims).copy()
    return arr, end - offset


def save_tensor(path, arr: np.ndarray):
    with open(path, "wb") as fh:
        fh.write(encode_tensor(arr))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        arr, _ = decode_tensor(fh.read())
    return arr


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
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != CONTAINER_MAGIC:
        raise ValueError(f"{path}: not a checkpoint container")
    (count,) = struct.unpack_from("<I", buf, 4)
    off = 8
    out: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", buf, off)
        off += 2
        name = buf[off:off + nlen].decode("utf-8")
        off += nlen
        (blen,) = struct.unpack_from("<I", buf, off)
        off += 4
        arr, used = decode_tensor(buf, off)
        if used != blen:
            raise ValueError(f"{path}: corrupt entry {name}")
        off += blen
        out[name] = arr
    return out
