"""Binary tensor file format shared across the pipeline.

Layout: magic "MMST", u8 version=1, u8 dtype (0=f32, 1=f64), u8 rank,
little-endian u32 extents, then the row-major little-endian payload.
A read maps the payload read-only, so a caller pages in only the slices it
touches; a write goes to `<path>.tmp` and is renamed over `path`, so a file
that a live map covers is replaced, never truncated under it.
Semantic metadata travels in a JSON sidecar owned by the caller; every JSON
artifact is written by `save_json` and read by `load_json`, and every CSV
table is written by `save_csv`.
"""

from __future__ import annotations

import csv
import json
import math
import os
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
    """Write `<path>.tmp` from the array's own buffer, then rename it over
    `path`. A save that raises removes the partial file and leaves the old
    `path` as it was; a live map of the old file keeps its own inode."""
    code = _DTYPE_CODES[t.data.dtype]
    arr = np.ascontiguousarray(t.data, dtype=_CODE_DTYPES[code])  # no copy when already LE and C-ordered
    header = MAGIC + struct.pack(f"<BBB{arr.ndim}I", VERSION, code, arr.ndim, *arr.shape)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(memoryview(arr))
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_tensor(path) -> Tensor:
    """Map a tensor file's payload read-only, refusing any file whose size
    disagrees with its header before mapping. The data is a plain ndarray
    view of the map: nothing is read until it is touched, and a write into
    it raises."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(7)
        if len(head) < 7 or size < 7 + 4 * head[6]:
            raise TensorFileError(f"{path}: {size} bytes, shorter than its header")
        if head[:4] != MAGIC:
            raise TensorFileError(f"{path}: bad magic {head[:4]!r}")
        version, code, rank = struct.unpack_from("<BBB", head, 4)
        if version != VERSION:
            raise TensorFileError(f"{path}: unsupported version {version}")
        if code not in _CODE_DTYPES:
            raise TensorFileError(f"{path}: unknown dtype code {code}")
        shape = struct.unpack(f"<{rank}I", fh.read(4 * rank))
        dt = _CODE_DTYPES[code]
        nbytes = math.prod(shape) * dt.itemsize
        offset = 7 + 4 * rank
        if size - offset != nbytes:
            raise TensorFileError(f"{path}: payload size {size - offset}, expected {nbytes}")
        # mapped through the handle whose size was checked, so checks and map see one
        # inode; viewed as a plain ndarray, since every slice of an np.memmap subclass
        # pays for its __getitem__ and __array_finalize__
        arr = np.memmap(fh, dtype=dt, mode="r", offset=offset, shape=shape).view(np.ndarray)
    return Tensor._wrap(arr if dt.isnative else arr.astype(dt.newbyteorder("=")))


def _strict(obj):
    """`obj` with every non-finite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def save_json(path, obj) -> None:
    """Write strict JSON, indented and key-sorted, with a final newline; NaN
    and infinities become null."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def save_csv(path, header, rows) -> None:
    """Write a CSV table: the `header` row, then every row of `rows`. A float
    is written as its repr, so it reads back to the same value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_json(path, what: str) -> dict:
    """Read a JSON object. Every failure names `what` and the file; a missing
    file raises FileNotFoundError."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    return obj
