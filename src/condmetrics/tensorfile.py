"""Binary tensor files and CSV ingestion.

Binary layout (authoritative format, byte-exact round trips):

    magic 'CFM1' | u32 LE version=1 | u8 dtype (1=float64, 2=int64)
    | u8 rank (1 or 2) | 2 zero bytes | rank x u64 LE dims
    | row-major little-endian payload

Paths ending in ``.csv`` are read by ``numpy.loadtxt`` in about one array of memory,
skipping blank lines and a header (a first row with no number in it); others are binary.
A malformed CSV row is reported by its 1-based line in the file.

A binary payload is read in row blocks of about ``metrics._IS_BLOCK`` entries,
each checked while it is in cache.  ``load_tensor`` reads them into one array;
a ``ProbabilityFile`` reads them into one reused buffer at each pass, so a
probability matrix is never held whole.
"""

from __future__ import annotations

import math
import os
import re
import struct
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, TensorFileError
from .metrics import (
    ProbabilityRows,
    _block_rows,
    _check_probability_shape,
    _checked_probability_rows,
    as_label_vector,
)

MAGIC = b"CFM1"
VERSION = 1
_HEADER = struct.Struct("<4sIBBxx")
_DTYPE_BY_CODE = {1: np.dtype("<f8"), 2: np.dtype("<i8")}
_CODE_BY_KIND = {"f": 1, "i": 2}


def _writable(array) -> np.ndarray:
    a = np.asarray(array)
    if a.dtype.kind not in _CODE_BY_KIND:
        raise TensorFileError(f"unsupported dtype {a.dtype}", code="bad-dtype")
    if a.ndim not in (1, 2):
        raise TensorFileError(f"unsupported rank {a.ndim}", code="bad-rank")
    return a.astype(_DTYPE_BY_CODE[_CODE_BY_KIND[a.dtype.kind]], copy=False)


def save_tensor(path, array) -> None:
    """Write a float64 or int64 tensor of rank 1 or 2."""
    a = _writable(array)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, _CODE_BY_KIND[a.dtype.kind], a.ndim))
        fh.write(struct.pack(f"<{a.ndim}Q", *a.shape))
        a.tofile(fh)  # row-major whatever the array's memory order


def save_csv(path, array) -> None:
    """Write a tensor as CSV with full float precision (17 significant digits).

    Rank-1 tensors become one value per line so labels round-trip as columns.
    """
    a = _writable(array)
    np.savetxt(path, a, fmt="%d" if a.dtype.kind == "i" else "%.17g", delimiter=",")


def _find_bad_row(a: np.ndarray) -> int:
    flat = int(np.argmax(~np.isfinite(a), axis=None))
    return flat // a.shape[1] if a.ndim == 2 else flat


def _finite_range(path: Path, start: int, block: np.ndarray) -> tuple[float, float]:
    """The min and max of the rows of a float tensor from its row ``start``
    on; raises naming the tensor's first row with a NaN or an infinity.  min
    and max propagate both, and allocate nothing of the block's size."""
    lo, hi = (float(block.min()), float(block.max())) if block.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise TensorFileError(
            f"{path}: non-finite value at row {start + _find_bad_row(block)}", code="non-finite")
    return lo, hi


def _read_header(fh, path: Path) -> tuple[tuple[int, ...], np.dtype, int]:
    """The dims, dtype and payload offset of the open binary file fh, whose
    payload has the size they give; fh is left at the payload."""
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
    fh.seek(dims_end)
    return dims, dtype, dims_end


def _read_blocks(fh, path: Path, offset: int, shape, rows: int, into):
    """Read the payload at ``offset`` of a tensor of ``shape`` in blocks of
    ``rows`` rows, each by one ``readinto`` into ``into(start, stop)`` (a
    C-contiguous array for rows [start, stop)), and yield (start, block).

    The file may shrink while it is read: a short read is ``truncated``.
    """
    n, done = shape[0], 0
    for start in range(0, n, rows):
        block = into(start, min(n, start + rows))
        got = fh.readinto(block.reshape(-1).view(np.uint8))
        done += got
        if got != block.nbytes:
            _check_payload(path, offset, done, math.prod(shape) * block.itemsize)
        yield start, block


def _check_payload(path: Path, start: int, actual: int, expected: int) -> None:
    if actual != expected:
        raise TensorFileError(
            f"{path}: payload starting at byte {start} has {actual} bytes, "
            f"expected {expected}",
            code="truncated")


def _load_binary(path: Path) -> np.ndarray:
    with open(path, "rb") as fh:
        dims, dtype, offset = _read_header(fh, path)
        arr = np.empty(dims, dtype=dtype)
        rows = _block_rows(math.prod(dims[1:]))
        for start, block in _read_blocks(fh, path, offset, dims, rows, lambda a, b: arr[a:b]):
            if dtype.kind == "f":
                _finite_range(path, start, block)
    return arr


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _load_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        lines = (line for line in fh if line.strip())
        first = next(lines, None)
        header = first is not None and not any(map(_is_number, first.split(",")))
        if header:
            first = next(lines, None)
        if first is None:
            raise TensorFileError(f"{path}: CSV file has no data rows", code="truncated")
        try:
            return np.loadtxt(chain([first], lines), delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            message = _at_file_line(path, str(exc), header)
            raise TensorFileError(f"{path}: {message}", code="bad-value") from None


def _at_file_line(path: Path, message: str, header: bool) -> str:
    """numpy's loadtxt message with its row number replaced by the file's line.

    numpy counts only the lines it was given (no blank lines, no header), from
    0 for a bad cell and from 1 for a change in the column count.
    """
    found = re.search(r"at row (\d+)", message)
    if found is None:
        return message
    row = int(found[1]) - message.startswith("the number of columns changed")
    with open(path) as fh:
        nonblank = (number for number, line in enumerate(fh, 1) if line.strip())
        line = next(islice(nonblank, row + header, None))
    return f"{message[:found.start()]}at line {line}{message[found.end():]}"


def load_tensor(path) -> np.ndarray:
    """Load a tensor; '.csv' paths are parsed as text, all others as binary.

    Float values must be finite: a binary file is checked block by block as it
    is read, a CSV file once it is parsed."""
    p = Path(path)
    if p.suffix.lower() != ".csv":
        return _load_binary(p)
    arr = _load_csv(p)
    _finite_range(p, 0, arr)
    return arr


def _check_matrix(path, dims, dtype, what: str) -> None:
    if len(dims) != 2:
        raise TensorFileError(f"{path}: {what} must be rank 2", code="bad-rank")
    if dtype.kind != "f":
        raise TensorFileError(f"{path}: {what} must be float64", code="bad-dtype")


def load_features(path) -> np.ndarray:
    """Load a rank-2 float feature (or probability) matrix."""
    arr = load_tensor(path)
    _check_matrix(path, arr.shape, arr.dtype, "features")
    return arr


class ProbabilityFile(ProbabilityRows):
    """The rows of a binary N x K probability file, for the IS family,
    accuracy and the class averages, which read them in row blocks: never the
    whole matrix.

    Opening reads the header: the shape, the dtype and the payload size are
    checked here.  Each pass opens the file again and reads its blocks by
    ``readinto`` into one reused buffer, and checks each block as
    ``metrics._probability_rows`` checks a matrix: finite, in [0, 1], rows summing
    to 1, clipped to [0, 1].  An error names the file's row.  So no unchecked
    row reaches a score, even if the file changes between passes.
    """

    def __init__(self, path):
        self.path = Path(path)
        with open(self.path, "rb") as fh:
            dims, dtype, _ = _read_header(fh, self.path)
        _check_matrix(self.path, dims, dtype, "probabilities")
        _check_probability_shape(dims)
        self.shape = dims

    def blocks(self, rows: int):
        buf = np.empty((min(rows, self.shape[0]), self.shape[1]))
        with open(self.path, "rb") as fh:
            dims, dtype, offset = _read_header(fh, self.path)
            if (dims, dtype) != (self.shape, _DTYPE_BY_CODE[1]):
                raise TensorFileError(
                    f"{self.path}: header changed since the file was opened", code="bad-value")
            for start, block in _read_blocks(fh, self.path, offset, dims, rows,
                                             lambda a, b: buf[:b - a]):
                lo, hi = _finite_range(self.path, start, block)
                yield start, _checked_probability_rows(block, lo, hi, start, out=block)


def open_probabilities(path):
    """A probability matrix file for any function that takes probabilities:
    a binary file as a ``ProbabilityFile``, which they read in checked row
    blocks; a CSV file loaded whole, for them to check."""
    p = Path(path)
    return load_features(p) if p.suffix.lower() == ".csv" else ProbabilityFile(p)


def load_labels(path) -> np.ndarray:
    """Load a rank-1 integer label vector; CSV labels must be integral."""
    arr = load_tensor(path)
    if arr.ndim == 2 and arr.shape[1] == 1:
        arr = arr[:, 0]
    try:
        return as_label_vector(arr, None)
    except InvalidInputError as exc:
        # a vector fails on its values; any other rank fails as not 1-D
        code = "bad-value" if arr.ndim == 1 else "bad-rank"
        raise TensorFileError(f"{path}: {exc}", code=code) from None
