import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neartag import fvec
from neartag.errors import FormatError

from oracles import read_vectors_by_record, write_vectors_by_record


def test_round_trip(tmp_path):
    path = str(tmp_path / "v.fvec")
    ids = ["a", "img_2", "uniçode-üid"]
    matrix = np.array([[1.5, -2.25, 0.0], [3.0, 4.0, 5.0], [-1e-7, 1e7, 0.125]], dtype=np.float32)
    fvec.write_vectors(path, ids, matrix)
    got_ids, got = fvec.read_vectors(path)
    assert got_ids == ids
    assert got.dtype == np.float32
    assert np.array_equal(got, matrix)


def test_round_trip_is_bit_exact_for_awkward_floats(tmp_path):
    path = str(tmp_path / "v.fvec")
    rng = np.random.default_rng(0)
    matrix = (rng.standard_normal((50, 7)) * 1e3).astype(np.float32)
    ids = [f"id{i}" for i in range(50)]
    fvec.write_vectors(path, ids, matrix)
    _, got = fvec.read_vectors(path)
    assert got.tobytes() == matrix.tobytes()


def test_write_is_deterministic(tmp_path):
    a, b = str(tmp_path / "a.fvec"), str(tmp_path / "b.fvec")
    matrix = np.arange(12, dtype=np.float32).reshape(4, 3)
    ids = list("wxyz")
    fvec.write_vectors(a, ids, matrix)
    fvec.write_vectors(b, ids, matrix)
    assert Path(a).read_bytes() == Path(b).read_bytes()


def test_header_contents(tmp_path):
    path = str(tmp_path / "v.fvec")
    fvec.write_vectors(path, ["x"], np.zeros((1, 4), dtype=np.float32))
    with open(path, "rb") as fh:
        assert fh.readline() == b"FVEC 1 4 1\n"


def test_empty_file_round_trip(tmp_path):
    path = str(tmp_path / "v.fvec")
    fvec.write_vectors(path, [], np.zeros((0, 3), dtype=np.float32))
    ids, matrix = fvec.read_vectors(path)
    assert ids == []
    assert matrix.shape == (0, 3)


def test_rejects_nan_on_write(tmp_path):
    path = str(tmp_path / "v.fvec")
    bad = np.array([[1.0, float("nan")]], dtype=np.float32)
    with pytest.raises(ValueError, match="finite"):
        fvec.write_vectors(path, ["a"], bad)
    assert not (tmp_path / "v.fvec").exists()


def test_rejects_values_past_the_float32_range_on_write(tmp_path):
    # Stored as float32 they would be inf, which the reader refuses.
    path = tmp_path / "v.fvec"
    with pytest.raises(ValueError, match="finite"):
        fvec.write_vectors(str(path), ["a"], np.array([[1.0, 1e39]]))
    assert not path.exists()


def test_read_holds_one_block_beside_what_it_returns(tmp_path, monkeypatch):
    # Beyond the ids and the matrix it returns, a read holds one block of records, the id
    # bytes and the offsets the decode uses: 47.1 bytes a record over the block for ids of
    # four to eight bytes since the decode walks its offsets without a list of them (79.0
    # with one).
    monkeypatch.setattr(fvec, "_BLOCK", 1 << 20)
    count, path = 40000, str(tmp_path / "v.fvec")
    fvec.write_vectors(path, [f"img{i}" for i in range(1, count + 1)],
                       np.random.default_rng(1).standard_normal((count, 64)).astype(np.float32))
    tracemalloc.start()
    try:
        ids, matrix = fvec.read_vectors(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ids) == count and held >= matrix.nbytes
    assert peak - held <= fvec._BLOCK + 48 * count


def test_rejects_nan_on_read(tmp_path):
    path = str(tmp_path / "v.fvec")
    fvec.write_vectors(path, ["a"], np.ones((1, 2), dtype=np.float32))
    raw = bytearray(Path(path).read_bytes())
    raw[-8:] = np.array([np.nan, 1.0], dtype="<f4").tobytes()
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="finite"):
        fvec.read_vectors(path)


def test_truncated_file(tmp_path):
    path = str(tmp_path / "v.fvec")
    fvec.write_vectors(path, ["a", "b"], np.ones((2, 3), dtype=np.float32))
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-5])
    with pytest.raises(FormatError, match="truncated"):
        fvec.read_vectors(path)


def test_trailing_garbage(tmp_path):
    path = str(tmp_path / "v.fvec")
    fvec.write_vectors(path, ["a"], np.ones((1, 3), dtype=np.float32))
    with open(path, "ab") as fh:
        fh.write(b"x")
    with pytest.raises(FormatError, match="trailing"):
        fvec.read_vectors(path)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "v.fvec")
    Path(path).write_bytes(b"NOPE 1 3 0\n")
    with pytest.raises(FormatError, match="header"):
        fvec.read_vectors(path)


def test_bad_version(tmp_path):
    path = str(tmp_path / "v.fvec")
    Path(path).write_bytes(b"FVEC 9 3 0\n")
    with pytest.raises(FormatError, match="version 9"):
        fvec.read_vectors(path)


def test_empty_id_rejected_on_write(tmp_path):
    path = str(tmp_path / "v.fvec")
    with pytest.raises(ValueError, match="non-empty"):
        fvec.write_vectors(path, [""], np.ones((1, 2), dtype=np.float32))


def test_overlong_id_rejected(tmp_path):
    path = str(tmp_path / "v.fvec")
    with pytest.raises(ValueError, match="too long"):
        fvec.write_vectors(path, ["x" * 70000], np.ones((1, 2), dtype=np.float32))


def test_ids_whose_length_fills_both_length_bytes_are_written_as_the_reference(tmp_path):
    ids, matrix = ["a" * 300, "b" * 0xFFFF, "c"], np.arange(6, dtype=np.float32).reshape(3, 2)
    want, got = tmp_path / "want.fvec", tmp_path / "got.fvec"
    write_vectors_by_record(str(want), ids, matrix)
    fvec.write_vectors(str(got), ids, matrix)
    assert got.read_bytes() == want.read_bytes()
    assert fvec.read_vectors(str(got))[0] == ids


def test_id_count_must_match_rows(tmp_path):
    path = str(tmp_path / "v.fvec")
    with pytest.raises(ValueError, match="2 ids for 1"):
        fvec.write_vectors(path, ["a", "b"], np.ones((1, 2), dtype=np.float32))


def test_bad_later_id_leaves_no_file(tmp_path):
    path = tmp_path / "v.fvec"
    with pytest.raises(ValueError, match="non-empty"):
        fvec.write_vectors(str(path), ["a", ""], np.ones((2, 2), dtype=np.float32))
    assert not path.exists()


def test_truncation_at_every_offset_is_a_format_error(tmp_path):
    path = tmp_path / "v.fvec"
    fvec.write_vectors(str(path), ["a", "bé"], np.arange(6, dtype=np.float32).reshape(2, 3))
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match="v.fvec"):
            fvec.read_vectors(str(path))


def test_record_count_beyond_the_file_is_a_format_error(tmp_path):
    # 26 bytes whose header declares 10^15 four-dimensional records
    path = tmp_path / "v.fvec"
    path.write_bytes(b"FVEC 1 4 1000000000000000\n")
    with pytest.raises(FormatError, match="truncated") as exc:
        fvec.read_vectors(str(path))
    assert str(path) in str(exc.value)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flipped_byte_is_a_format_error_or_the_same_shape(tmp_path, data):
    # .fvec holds no checksum: a flip inside an id or a value can load, but
    # never as another shape and never as another exception.
    path = tmp_path / "v.fvec"
    fvec.write_vectors(str(path), ["a", "bé"], np.arange(6, dtype=np.float32).reshape(2, 3))
    raw = path.read_bytes()
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    path.write_bytes(raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="xor")]) + raw[at + 1:])
    try:
        ids, matrix = fvec.read_vectors(str(path))
    except FormatError as exc:
        assert str(path) in str(exc)
    else:
        assert len(ids) == 2 and matrix.shape == (2, 3)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dim=st.integers(1, 1 << 40), count=st.integers(1 << 20, 1 << 60))
def test_absurd_header_counts_are_refused_before_allocating(tmp_path, dim, count):
    path = tmp_path / "v.fvec"
    path.write_bytes(f"FVEC 1 {dim} {count}\n".encode("ascii") + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated") as exc:
            fvec.read_vectors(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(exc.value) and peak < 1 << 16


def _records(ids, matrix):
    """Each record's length field, id bytes and value bytes, as a list of mutable parts."""
    return [[struct.pack("<H", len(raw)), raw, row.astype("<f4").tobytes()]
            for raw, row in zip((i.encode("utf-8") for i in ids), matrix)]


def _doctor(records, edit, data):
    """Apply one record-level fault to ``records`` in place; return bytes to append."""
    if edit == "trailing":
        return data.draw(st.binary(min_size=1, max_size=3), label="trailing")
    if not records:
        return b""
    i = data.draw(st.integers(0, len(records) - 1), label=f"{edit} record")
    if edit == "non-finite":
        values = bytearray(records[i][2])
        at = 4 * data.draw(st.integers(0, len(values) // 4 - 1), label="component")
        values[at : at + 4] = np.array([data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))], "<f4").tobytes()
        records[i][2] = bytes(values)
    elif edit == "empty id":
        records[i][:2] = [struct.pack("<H", 0), b""]
    elif i + 1 < len(records):  # a character split across the ids of records i and i + 1
        joined = records[i][1] + records[i + 1][1]
        inside = [at for at in range(1, len(joined)) if joined[at] & 0xC0 == 0x80]
        if inside:
            at = data.draw(st.sampled_from(inside), label="split at")
            for r, raw in ((i, joined[:at]), (i + 1, joined[at:])):
                records[r][:2] = [struct.pack("<H", len(raw)), raw]
    return b""


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_blocked_codec_equals_the_record_by_record_reference(tmp_path, monkeypatch, data):
    # Mixed id lengths with multi-byte UTF-8, zero records, blocks of a few bytes up to the whole file
    # (one ending where the id length changes), then record faults, a cut and a flipped byte.
    dim = data.draw(st.integers(1, 3), label="dim")
    ids = data.draw(st.lists(st.text(st.sampled_from("ab\x00é€😀"), min_size=1, max_size=3), max_size=10),
                    label="ids")
    floats = st.floats(width=32, allow_nan=False, allow_infinity=False)
    matrix = np.array(data.draw(st.lists(floats, min_size=len(ids) * dim, max_size=len(ids) * dim), label="values"),
                      dtype=np.float32).reshape(len(ids), dim)
    want, got = tmp_path / "want.fvec", tmp_path / "got.fvec"
    records = _records(ids, matrix)
    starts = np.cumsum([0] + [sum(map(len, r)) for r in records]).tolist()
    edges = [starts[i] for i in range(1, len(records)) if len(records[i][1]) != len(records[i - 1][1])]
    block = data.draw(st.integers(1, starts[-1] + 2) | (st.sampled_from(edges) if edges else st.nothing()),
                      label="block")
    monkeypatch.setattr(fvec, "_BLOCK", block)
    write_vectors_by_record(str(want), ids, matrix)
    fvec.write_vectors(str(got), ids, matrix)
    assert got.read_bytes() == want.read_bytes()

    tail = b"".join(_doctor(records, edit, data) for edit in data.draw(
        st.lists(st.sampled_from(["non-finite", "empty id", "split", "trailing"]), max_size=3), label="edits"))
    head = f"FVEC 1 {dim} {len(records)}\n".encode("ascii")
    raw = head + b"".join(b"".join(r) for r in records) + tail
    rarely = st.sampled_from([False, False, False, True])
    if data.draw(rarely, label="cut"):
        raw = raw[: data.draw(st.integers(0, len(raw) - 1), label="cut at")]
    if data.draw(rarely, label="flip") and len(raw) > len(head):  # header faults take the same path as before
        at = data.draw(st.integers(len(head), len(raw) - 1), label="flip at")
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="xor")]) + raw[at + 1 :]
    got.write_bytes(raw)
    try:
        expected = read_vectors_by_record(str(got))
    except FormatError as exc:
        with pytest.raises(FormatError) as caught:
            fvec.read_vectors(str(got))
        assert str(caught.value) == str(exc)
    else:
        found = fvec.read_vectors(str(got))
        assert found[0] == expected[0]
        assert found[1].dtype == expected[1].dtype and found[1].shape == expected[1].shape
        assert found[1].tobytes() == expected[1].tobytes()


@pytest.mark.parametrize("ids, matrix, message", [
    (["a", "b", "c"], np.zeros(3, dtype=np.float32), "expected a 2-d array of vectors, got shape (3,)"),
    (["a"], np.zeros((1, 0), dtype=np.float32), "vector dimensionality must be at least 1"),
], ids=["one-dimensional", "no-columns"])
def test_write_refuses_what_is_not_a_matrix_of_vectors(tmp_path, ids, matrix, message):
    path = tmp_path / "v.fvec"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fvec.write_vectors(str(path), ids, matrix)
    assert not path.exists()


def test_read_refuses_a_header_with_dim_0(tmp_path):
    path = tmp_path / "v.fvec"
    path.write_bytes(b"FVEC 1 0 0\n")
    with pytest.raises(FormatError, match="invalid header values dim=0 count=0$"):
        fvec.read_vectors(str(path))
