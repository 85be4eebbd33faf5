import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neartag import fvec
from neartag.errors import FormatError


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
