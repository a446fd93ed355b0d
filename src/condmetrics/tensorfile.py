"""Binary tensor files and CSV ingestion.

Binary layout (authoritative format, byte-exact round trips):

    magic 'CFM1' | u32 LE version=1 | u8 dtype (1=float64, 2=int64)
    | u8 rank (1 or 2) | 2 zero bytes | rank x u64 LE dims
    | row-major little-endian payload

Files ending in ``.csv`` are parsed as comma-separated text instead (optional
header row, '.' decimals); every other path is read as binary.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, TensorFileError
from .metrics import as_label_vector, as_probability_matrix

MAGIC = b"CFM1"
VERSION = 1
_HEADER = struct.Struct("<4sIBBxx")
_DTYPE_BY_CODE = {1: np.dtype("<f8"), 2: np.dtype("<i8")}
_CODE_BY_KIND = {"f": 1, "i": 2}


def save_tensor(path, array) -> None:
    """Write a float64 or int64 tensor of rank 1 or 2."""
    a = np.ascontiguousarray(array)
    code = _CODE_BY_KIND.get(a.dtype.kind)
    if code is None:
        raise TensorFileError(f"unsupported dtype {a.dtype}", code="bad-dtype")
    a = a.astype(_DTYPE_BY_CODE[code], copy=False)
    if a.ndim not in (1, 2):
        raise TensorFileError(f"unsupported rank {a.ndim}", code="bad-rank")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, code, a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        fh.write(a.tobytes(order="C"))


def save_csv(path, array) -> None:
    """Write a tensor as CSV with full float precision (17 significant digits).

    Rank-1 tensors become one value per line so labels round-trip as columns.
    """
    a = np.asarray(array)
    a = a.reshape(-1, 1) if a.ndim == 1 else a
    integral = a.dtype.kind == "i"
    with open(path, "w", newline="\n") as fh:
        for row in a:
            fh.write(",".join(str(int(v)) if integral else format(v, ".17g") for v in row))
            fh.write("\n")


def _find_bad_row(a: np.ndarray) -> int:
    flat = int(np.argmax(~np.isfinite(a), axis=None))
    return flat // a.shape[1] if a.ndim == 2 else flat


def _load_binary(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        # rank is at most 2, so this is the longest header a valid file has
        head = fh.read(_HEADER.size + 16)
        if len(head) < 4 or head[:4] != MAGIC:
            raise TensorFileError(
                f"{path}: bad magic at byte 0, expected {MAGIC!r}", code="bad-magic")
        if size < _HEADER.size:
            raise TensorFileError(
                f"{path}: header truncated at byte {size}, expected {_HEADER.size}",
                code="truncated")
        _, version, code, rank = _HEADER.unpack_from(head)
        if version != VERSION:
            raise TensorFileError(f"{path}: unsupported version {version}", code="bad-version")
        if code not in _DTYPE_BY_CODE:
            raise TensorFileError(f"{path}: unknown dtype code {code}", code="bad-dtype")
        if rank not in (1, 2):
            raise TensorFileError(f"{path}: unsupported rank {rank}", code="bad-rank")
        if head[10:12] != b"\x00\x00":
            raise TensorFileError(f"{path}: non-zero padding at byte 10", code="bad-padding")
        dims_end = _HEADER.size + 8 * rank
        if size < dims_end:
            raise TensorFileError(
                f"{path}: dims truncated at byte {size}, expected {dims_end}",
                code="truncated")
        dims = struct.unpack_from(f"<{rank}Q", head, _HEADER.size)
        dtype = _DTYPE_BY_CODE[code]
        _check_payload(path, dims_end, size - dims_end, math.prod(dims) * dtype.itemsize)
        arr = np.empty(dims, dtype=dtype)
        fh.seek(dims_end)
        # the file may shrink between the size check and the read
        _check_payload(path, dims_end, fh.readinto(arr.reshape(-1).view(np.uint8)), arr.nbytes)
    return arr


def _check_payload(path: Path, start: int, actual: int, expected: int) -> None:
    if actual != expected:
        raise TensorFileError(
            f"{path}: payload starting at byte {start} has {actual} bytes, "
            f"expected {expected}",
            code="truncated")


def _load_csv(path: Path) -> np.ndarray:
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise TensorFileError(f"{path}: empty CSV file", code="truncated")
    start = 0
    try:
        [float(tok) for tok in lines[0].split(",")]
    except ValueError:
        start = 1  # header row
    rows = []
    width = None
    for i, line in enumerate(lines[start:]):
        toks = line.split(",")
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise TensorFileError(
                f"{path}: row {i} has {len(toks)} columns, expected {width}",
                code="bad-value")
        try:
            rows.append([float(tok) for tok in toks])
        except ValueError:
            raise TensorFileError(
                f"{path}: unparseable number at row {i}", code="bad-value") from None
    return np.asarray(rows, dtype=np.float64)


def load_tensor(path) -> np.ndarray:
    """Load a tensor; '.csv' paths are parsed as text, all others as binary."""
    p = Path(path)
    arr = _load_csv(p) if p.suffix.lower() == ".csv" else _load_binary(p)
    # min and max propagate NaN and +-inf, and allocate nothing of the array's size
    if arr.dtype.kind == "f" and arr.size and not (
            np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise TensorFileError(
            f"{p}: non-finite value at row {_find_bad_row(arr)}", code="non-finite")
    return arr


def load_features(path) -> np.ndarray:
    """Load a rank-2 float feature (or probability) matrix."""
    arr = load_tensor(path)
    if arr.ndim != 2:
        raise TensorFileError(f"{path}: features must be rank 2", code="bad-rank")
    if arr.dtype.kind != "f":
        raise TensorFileError(f"{path}: features must be float64", code="bad-dtype")
    return arr


def load_probabilities(path) -> np.ndarray:
    """Load a probability matrix, enforcing row sums and the [0, 1] range."""
    arr = load_features(path)
    try:
        return as_probability_matrix(arr)
    except InvalidInputError as exc:
        # only the row-sum check words its failure "sums to"
        code = "row-sum" if "sums to" in str(exc) else "bad-value"
        raise TensorFileError(f"{path}: {exc}", code=code) from None


def load_labels(path, k: int | None = None) -> np.ndarray:
    """Load a rank-1 integer label vector; CSV labels must be integral."""
    arr = load_tensor(path)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    try:
        return as_label_vector(arr, k)
    except InvalidInputError as exc:
        code = "bad-rank" if "1-D" in str(exc) else "bad-value"
        raise TensorFileError(f"{path}: {exc}", code=code) from None
