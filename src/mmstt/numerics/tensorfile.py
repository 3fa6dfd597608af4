"""Binary tensor file format shared across the pipeline.

Layout: magic "MMST", u8 version=1, u8 dtype (0=f32, 1=f64), u8 rank,
little-endian u32 extents, then the row-major little-endian payload.
Semantic metadata travels in a JSON sidecar owned by the caller.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .tensor import Tensor

MAGIC = b"MMST"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class TensorFileError(ValueError):
    pass


def save_tensor(path, t: Tensor) -> None:
    arr = np.ascontiguousarray(t.data)
    code = _DTYPE_CODES[arr.dtype]
    header = MAGIC + struct.pack("<BBB", VERSION, code, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(_CODE_DTYPES[code], copy=False).tobytes(order="C")
    Path(path).write_bytes(header + payload)


def load_tensor(path) -> Tensor:
    raw = Path(path).read_bytes()
    if len(raw) < 7 or len(raw) < 7 + 4 * raw[6]:
        raise TensorFileError(f"{path}: {len(raw)} bytes, shorter than its header")
    if raw[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic {raw[:4]!r}")
    version, code, rank = struct.unpack_from("<BBB", raw, 4)
    if version != VERSION:
        raise TensorFileError(f"{path}: unsupported version {version}")
    if code not in _CODE_DTYPES:
        raise TensorFileError(f"{path}: unknown dtype code {code}")
    shape = struct.unpack_from(f"<{rank}I", raw, 7)
    offset = 7 + 4 * rank
    dt = _CODE_DTYPES[code]
    n = int(np.prod(shape)) if rank else 1
    expected = offset + n * dt.itemsize
    if len(raw) != expected:
        raise TensorFileError(f"{path}: payload size {len(raw) - offset}, expected {n * dt.itemsize}")
    arr = np.frombuffer(raw, dtype=dt, count=n, offset=offset).reshape(shape)
    return Tensor._wrap(arr.astype(dt.newbyteorder("="), copy=True))
