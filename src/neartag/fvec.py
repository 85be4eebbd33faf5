"""Binary feature-vector (``.fvec``) files.

Layout: one ASCII header line ``FVEC 1 <dim> <count>\\n`` followed by
``count`` records. Each record is a little-endian uint16 giving the byte
length of the UTF-8 image id, the id bytes themselves, then ``dim``
float32 components (little endian). ``write_vectors`` and ``read_vectors``
are the only code that writes or reads them; saved indexes (``index.py``)
have their own layout, with the same id length limit and the same id
codec (``_encode_ids``, ``_decode_ids``).

Both work on blocks of about ``_BLOCK`` bytes of whole records. A write
scatters a block's length bytes, ids and values to their record offsets,
whatever the id lengths; a read takes one run of equal id lengths at a
time, checks its length fields with one comparison and moves its ids and
values as two strided copies.

``_replacing`` is the one way the package writes an output file, text
or binary: a failed write leaves whatever was at the path before.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import pairwise

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FormatError

MAGIC = "FVEC"
VERSION = 1

_MAX_ID_BYTES = 0xFFFF
_BLOCK = 1 << 22  # bytes of records read or written at a time


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
        except OSError as exc:  # named by the output path, not the temp name
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "wb") if binary else open(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _all_finite(matrix: np.ndarray) -> bool:
    """Whether every component of a 2-d array is finite, checked in row blocks
    of about ``_BLOCK`` bytes, so that no bool array of the whole is made."""
    rows = max(1, _BLOCK // max(1, matrix.itemsize * matrix.shape[1]))
    return all(np.isfinite(matrix[i : i + rows]).all() for i in range(0, len(matrix), rows))


def _encode_ids(ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The ids' UTF-8 bytes as one uint8 blob, and the int64 byte offsets
    where each id starts, then the blob's size."""
    blob = np.frombuffer("".join(ids).encode("utf-8"), dtype=np.uint8)
    chars = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, ids), np.int64, len(ids)), out=chars[1:])
    starts = np.append(np.flatnonzero((blob & 0xC0) != 0x80), blob.size)  # where each character starts
    return starts[chars], blob


def _decode_ids(ends: np.ndarray, blob: np.ndarray, path: str) -> list[str]:
    """The ids between byte offsets ``ends`` of the UTF-8 ``blob``, which must
    rise strictly from 0 to its size; an id that is not UTF-8 on its own,
    a character split across two ids included, is named by its record."""
    ends = np.asarray(ends, dtype=np.int64)
    if ends[0] != 0 or ends[-1] != blob.size or (np.diff(ends) <= 0).any():
        raise FormatError("empty id, or id offsets that do not rise from 0 to the ids' size", path=path)
    inner = (blob & 0xC0) == 0x80  # UTF-8 continuation bytes
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError:
        text = None
    if text is None or inner[ends[:-1]].any():
        for record, (a, b) in enumerate(pairwise(ends.tolist())):
            try:
                str(blob[a:b], "utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"record {record} id is not valid UTF-8", path=path) from None
    chars = ends - np.searchsorted(np.flatnonzero(inner), ends)  # offsets in ``text``
    return [text[a:b] for a, b in pairwise(memoryview(chars))]  # Python ints, with no list of them


def write_vectors(path: str, ids: list[str], matrix: np.ndarray) -> None:
    """Write ids and a (count, dim) array to ``path``.

    Values are stored as float32; the write fails on components that are
    not finite in float32 or on a bad id rather than persisting a corrupt
    file, and the file replaces ``path`` only once it is whole.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d array of vectors, got shape {matrix.shape}")
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} vectors")
    with np.errstate(over="ignore"):
        data = np.ascontiguousarray(matrix, dtype="<f4")
    if not _all_finite(data):
        raise ValueError("feature vectors must be finite (found nan or inf)")
    count, dim = data.shape
    if dim < 1:
        raise ValueError("vector dimensionality must be at least 1")
    ends, blob = _encode_ids(ids)
    sizes = np.diff(ends)
    if (bad := np.flatnonzero((sizes == 0) | (sizes > _MAX_ID_BYTES))).size:
        size = sizes[bad[0]]
        raise ValueError(f"image id too long ({size} bytes, limit {_MAX_ID_BYTES})" if size
                         else "image id must be non-empty")
    values = data.view(np.uint8).reshape(count, 4 * dim)
    at = np.concatenate(([0], np.cumsum(2 + sizes + 4 * dim)))  # where each record starts, then the end
    buf = np.empty(max(_BLOCK, 2 + int(sizes.max(initial=0)) + 4 * dim), dtype=np.uint8)
    record = 0
    with _replacing(path) as fh:
        fh.write(f"{MAGIC} {VERSION} {dim} {count}\n".encode("ascii"))
        while record < count:  # whole records, about _BLOCK bytes of them and at least one
            stop = max(record + 1, int(np.searchsorted(at, at[record] + _BLOCK, side="right")) - 1)
            out, pos, size = buf[: at[stop] - at[record]], at[record:stop] - at[record], sizes[record:stop]
            out[pos], out[pos + 1] = size & 0xFF, size >> 8
            first = np.repeat(pos + 2 - (ends[record:stop] - ends[record]), size)  # id byte j goes to first[j] + j
            out[first + np.arange(len(first))] = blob[ends[record] : ends[stop]]
            sliding_window_view(out, 4 * dim, writeable=True)[pos + 2 + size] = values[record:stop]
            fh.write(out)
            record = stop


def read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """Read a feature file, returning (ids, float32 matrix of shape (count, dim)).

    Truncation, empty or non-UTF-8 ids and non-finite components raise
    FormatError naming ``path``: the first faulty record's fault, then
    non-finite values, then trailing data. A count or dim the rest of the
    file cannot hold is refused before anything is allocated.

    Besides the matrix and the ids, the read holds one block of records.
    From each record on it guesses that the records after it in the block,
    up to ``window`` of them, have its id length, checks the guess with one
    comparison and copies the run of records that keeps it. The check runs
    only when the next record keeps the guess, and the window, twice the
    last run and at least 256 records, keeps a file whose id lengths often
    change from rechecking whole blocks.
    """
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
        # An id length and the values, the least a record can hold; an empty
        # id is then reported as such below, not as a short file.
        need = count * (2 + 4 * dim)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise FormatError(f"truncated file: {count} records of dim {dim} need at least {need} bytes, "
                              f"{left} remain", path=path)
        matrix = np.empty((count, dim), dtype="<f4")
        values = matrix.view(np.uint8).reshape(count, 4 * dim)
        ends = np.zeros(count + 1, dtype=np.int64)  # id sizes after the leading 0, summed at the end
        pieces: list[np.ndarray] = []  # each block's id bytes
        buf = np.empty(min(left, _BLOCK), dtype=np.uint8)
        record = have = at = 0
        want = 2  # the bytes the next record needs: its length field, then the record
        window, finite, fault = count, True, None
        while record < count and fault is None:
            tail = buf[at:have]  # the start of a record the last block cut
            if want > buf.size:  # a record longer than a block
                buf = np.empty(want, dtype=np.uint8)
            buf[: tail.size] = tail
            have, at = tail.size, 0
            got = fh.readinto(buf[have:])
            have += got
            first, head, runs = record, memoryview(buf), []  # runs: (ids, id size, records)
            while record < count and have - at >= 2:
                size = head[at] | head[at + 1] << 8
                if not size:
                    fault = f"record {record} has an empty id"
                    break
                want = 2 + size + 4 * dim
                fit = min(count - record, window, (have - at) // want)
                if not fit:
                    break
                rows = buf[at : at + fit * want].reshape(fit, want)
                run = 1
                if fit > 1 and (head[at + want] | head[at + want + 1] << 8) == size:
                    # The first record that breaks the guess; argmin gives 0 if none does.
                    run = int((rows[:, :2].view("<u2")[:, 0] == size).argmin()) or fit
                values[record : record + run] = rows[:run, 2 + size :]
                runs.append((rows[:run, 2 : 2 + size], size, run))
                window = max(2 * run, 256)
                record += run
                at += run * want
            if runs:
                blocks, sizes, lengths = zip(*runs)
                pieces.append(np.concatenate(blocks, axis=None))
                ends[first + 1 : record + 1] = np.repeat(sizes, lengths)
            finite = finite and _all_finite(matrix[first:record])
            if fault is None and record < count and not got:
                fault = f"truncated file in record {record}"
        ends = np.cumsum(ends[: record + 1], out=ends[: record + 1])
        ids = _decode_ids(ends, np.concatenate(pieces) if pieces else np.empty(0, np.uint8), path)
        if fault is not None:
            raise FormatError(fault, path=path)
        if not finite:
            raise FormatError("feature vectors must be finite (found nan or inf)", path=path)
        if at < have or fh.read(1):
            raise FormatError(f"trailing data after {count} records", path=path)
    return ids, matrix
