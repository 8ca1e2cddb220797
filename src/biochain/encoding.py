"""Byte-level encoding shared by hashing, the ledger, and snapshot files.

Conventions: integers are big-endian, floats are IEEE-754 binary64
big-endian in row-major order, and variable-length fields carry a 4-byte
length prefix. Keeping one canonical encoding makes every hash in the
system reproducible across platforms.

Every state file that is rewritten whole reaches the disk through
:func:`write_atomic`, so a crash leaves the old file or the new one,
never a torn mix.
"""

from __future__ import annotations

import os
import secrets
import struct
from pathlib import Path
from typing import Sequence

import numpy as np


def encode_u32(value: int) -> bytes:
    return struct.pack(">I", value)


def encode_u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def lp(data: bytes) -> bytes:
    """Length-prefix a byte string (4-byte big-endian length)."""
    return struct.pack(">I", len(data)) + data


def encode_f64_array(array: np.ndarray) -> bytes:
    """Canonical bytes for a float array: ndim, dims, then raw values."""
    a = np.asarray(array, dtype=np.float64)
    out = [encode_u32(a.ndim)]
    for dim in a.shape:
        out.append(encode_u32(dim))
    out.append(a.astype(">f8").tobytes(order="C"))
    return b"".join(out)


def encode_vector(vector: np.ndarray) -> bytes:
    """Canonical bytes for a 1-D float vector: length then raw values."""
    v = np.asarray(vector, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return encode_u32(v.shape[0]) + v.astype(">f8").tobytes()


def decode_vector(data: bytes) -> np.ndarray:
    """Invert :func:`encode_vector`.

    Raises:
        ValueError: the length header disagrees with the record's size.
    """
    return decode_vectors([data])[0]


def decode_vectors(records: Sequence[bytes]) -> np.ndarray:
    """Decode equal-size :func:`encode_vector` records as one (n, d)
    matrix whose row i is parsed from ``records[i]`` alone.

    Raises:
        ValueError: no records, records of different sizes, or a length
            header that disagrees with its record's size (a short record
            or trailing bytes).
    """
    sizes = set(map(len, records))
    if len(sizes) != 1:
        raise ValueError(f"expected records of one size, got sizes {sorted(sizes)}")
    return decode_joined(b"".join(records), sizes.pop())


def decode_joined(data: bytes, size: int) -> np.ndarray:
    """Decode the :func:`encode_vector` records of ``size`` bytes each laid
    end to end in ``data`` as one (n, d) matrix, as :func:`decode_vectors`
    decodes them one by one.

    Raises:
        ValueError: ``data`` is not a whole number of records, or as
            :func:`decode_vectors`.
    """
    dim, rest = divmod(size - 4, 8)
    if size < 4 or rest:
        raise ValueError(f"a {size}-byte record is not a vector record")
    rows = np.frombuffer(data, dtype=np.uint8).reshape(-1, size)
    if (rows[:, :4].view(">u4") != dim).any():
        raise ValueError(f"length header disagrees with a {dim}-entry record")
    return rows[:, 4:].view(">f8").astype(np.float64)


def write_atomic(path: Path, data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` in one step: the bytes
    go to a temporary file in the same directory, are flushed to disk,
    and the temporary file is then renamed over ``path``. A failure
    before the rename removes the temporary file and leaves ``path`` as
    it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class ByteReader:
    """Sequential reader over an immutable byte buffer."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise ValueError("truncated record")
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def read_u32(self) -> int:
        return struct.unpack(">I", self.read(4))[0]

    def read_lp(self) -> bytes:
        return self.read(self.read_u32())

    def read_f64_array(self) -> np.ndarray:
        ndim = self.read_u32()
        shape = tuple(self.read_u32() for _ in range(ndim))
        count = 1
        for dim in shape:
            count *= dim
        raw = self.read(8 * count)
        return np.frombuffer(raw, dtype=">f8").astype(np.float64).reshape(shape)

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)
