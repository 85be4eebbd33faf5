"""Binary feature-vector (``.fvec``) files.

Layout: one ASCII header line ``FVEC 1 <dim> <count>\\n`` followed by
``count`` records. Each record is a little-endian uint16 giving the byte
length of the UTF-8 image id, the id bytes themselves, then ``dim``
float32 components (little endian). ``_write_records`` and ``_read_records``
are the only code that writes or reads them; saved indexes (``index.py``)
have their own layout, with the same id length limit.

``_replacing`` is the one way the package writes an output file, text
or binary: a failed write leaves whatever was at the path before.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import FormatError

MAGIC = "FVEC"
VERSION = 1

_MAX_ID_BYTES = 0xFFFF
_ID_LEN = struct.Struct("<H")


def _check_id(image_id: str) -> bytes:
    if not image_id:
        raise ValueError("image id must be non-empty")
    raw = image_id.encode("utf-8")
    if len(raw) > _MAX_ID_BYTES:
        raise ValueError(f"image id too long ({len(raw)} bytes, limit {_MAX_ID_BYTES})")
    return raw


@contextmanager
def _replacing(path: str, binary: bool = True):
    """Open a new file beside ``path`` for writing; on success rename it over ``path``.

    The temp file has a unique name in the target's directory and the
    umask's permissions, as ``open`` would give. If the body or the
    rename fails, the temp file is removed and ``path`` is untouched.
    """
    directory, name = os.path.split(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_records(path: str, header: bytes, ids: list[str], matrix: np.ndarray) -> None:
    """Write ``header``, then one record per (id, row), to ``path``.

    Every id is checked before the file is opened, and the file replaces
    ``path`` only once it is whole.
    """
    raw_ids = [_check_id(image_id) for image_id in ids]
    data = np.ascontiguousarray(matrix, dtype="<f4")
    with _replacing(path) as fh:
        fh.write(header)
        for raw, row in zip(raw_ids, data):
            fh.write(_ID_LEN.pack(len(raw)))
            fh.write(raw)
            fh.write(row.tobytes())


def _read_records(fh, path: str, count: int, dim: int) -> tuple[list[str], np.ndarray]:
    """Read ``count`` records from ``fh``: (ids, float32 matrix of shape (count, dim)).

    Truncation, empty or non-UTF-8 ids and non-finite components raise
    FormatError naming ``path``. A count or dim the rest of the file
    cannot hold is refused before anything is allocated.
    """
    # An id length and the values, the least a record can hold; an empty
    # id is then reported as such below, not as a short file.
    need = count * (_ID_LEN.size + 4 * dim)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if need > left:
        raise FormatError(f"truncated file: {count} records of dim {dim} need at least {need} bytes, "
                          f"{left} remain", path=path)
    ids: list[str] = []
    matrix = np.empty((count, dim), dtype="<f4")
    rec_bytes = dim * 4
    for i in range(count):
        head = fh.read(2)
        if len(head) != 2:
            raise FormatError(f"truncated file in record {i}", path=path)
        (id_len,) = _ID_LEN.unpack(head)
        if id_len == 0:
            raise FormatError(f"record {i} has an empty id", path=path)
        raw = fh.read(id_len)
        if len(raw) != id_len or fh.readinto(matrix[i]) != rec_bytes:  # values land in place
            raise FormatError(f"truncated file in record {i}", path=path)
        try:
            ids.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"record {i} id is not valid UTF-8", path=path) from None
    if count and not np.isfinite(matrix).all():
        raise FormatError("feature vectors must be finite (found nan or inf)", path=path)
    return ids, matrix


def write_vectors(path: str, ids: list[str], matrix: np.ndarray) -> None:
    """Write ids and a (count, dim) array to ``path``.

    Values are stored as float32; the write fails on non-finite
    components rather than persisting a corrupt file.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d array of vectors, got shape {matrix.shape}")
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} vectors")
    if not np.isfinite(matrix).all():
        raise ValueError("feature vectors must be finite (found nan or inf)")
    count, dim = matrix.shape
    if dim < 1:
        raise ValueError("vector dimensionality must be at least 1")
    _write_records(path, f"{MAGIC} {VERSION} {dim} {count}\n".encode("ascii"), ids, matrix)


def read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """Read a feature file, returning (ids, float32 matrix of shape (count, dim))."""
    with open(path, "rb") as fh:
        header = fh.readline(128)
        if not header.endswith(b"\n"):
            raise FormatError("missing or overlong header line", path=path)
        fields = header[:-1].split(b" ")
        if len(fields) != 4 or fields[0] != MAGIC.encode("ascii"):
            raise FormatError(f"bad header {header!r}, expected '{MAGIC} {VERSION} <dim> <count>'", path=path)
        try:
            version, dim, count = (int(f) for f in fields[1:])
        except ValueError:
            raise FormatError(f"non-numeric header fields in {header!r}", path=path) from None
        if version != VERSION:
            raise FormatError(f"unsupported format version {version} (expected {VERSION})", path=path)
        if dim < 1 or count < 0:
            raise FormatError(f"invalid header values dim={dim} count={count}", path=path)
        ids, matrix = _read_records(fh, path, count, dim)
        if fh.read(1):
            raise FormatError(f"trailing data after {count} records", path=path)
    return ids, matrix
