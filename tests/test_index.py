import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neartag import index as index_module
from neartag.errors import DimensionMismatch, EngineError, FormatError
from neartag.index import (
    _CRC,
    _HEADER,
    _SECTION,
    _SECTIONS,
    IndexConfig,
    VectorIndex,
    build_index_from_arrays,
    load_index,
    save_index,
)


from oracles import brute_force_knn


def make_index(ids, matrix, **cfg):
    matrix = np.asarray(matrix, dtype=np.float32)
    return build_index_from_arrays(ids, matrix, IndexConfig(dim=matrix.shape[1], **cfg))


# -- knn --------------------------------------------------------------------

def test_knn_three_point_example():
    ids = ["a", "b", "c"]
    matrix = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    index = make_index(ids, matrix)
    got = index.knn([0.9, 0.0], 2)
    assert [g[0] for g in got] == ["b", "a"]
    assert got[0][1] == pytest.approx(0.1, abs=1e-6)
    assert got[1][1] == pytest.approx(0.9, abs=1e-6)
    assert got == brute_force_knn(ids, index.vectors, [0.9, 0.0], 2)


def test_knn_query_equal_to_stored_vector_has_distance_zero():
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((20, 6)).astype(np.float32)
    index = make_index([f"v{i}" for i in range(20)], matrix)
    got = index.knn(matrix[7].astype(np.float64), 1)
    assert got[0] == ("v7", 0.0)


def test_knn_matches_oracle_on_seeded_instances():
    rng = np.random.default_rng(4)
    for trial in range(60):
        n = int(rng.integers(1, 300))
        dim = int(rng.choice([2, 16, 64]))
        k = int(rng.integers(1, 30))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        matrix = (rng.standard_normal((n, dim)) * scale).astype(np.float32)
        ids = [f"v{i:04d}" for i in range(n)]
        index = make_index(ids, matrix)
        query = rng.standard_normal(dim) * scale
        got = index.knn(query, k)
        expected = brute_force_knn(ids, matrix, query, k)
        assert [g[0] for g in got] == [e[0] for e in expected]
        assert [g[1] for g in got] == pytest.approx([e[1] for e in expected], rel=1e-12, abs=1e-300)


def test_knn_duplicate_vectors_tie_break_by_id():
    # 30 identical points; the k nearest must be the k smallest ids.
    ids = [f"p{i:02d}" for i in range(30)]
    rng = np.random.default_rng(5)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    matrix = np.ones((30, 4), dtype=np.float32)
    index = make_index(shuffled, matrix)
    got = index.knn(np.ones(4), 10)
    assert [g[0] for g in got] == sorted(ids)[:10]
    assert all(g[1] == 0.0 for g in got)


def test_knn_ordering_invariant():
    rng = np.random.default_rng(6)
    matrix = rng.standard_normal((100, 8)).astype(np.float32)
    index = make_index([f"v{i}" for i in range(100)], matrix)
    for _ in range(20):
        got = index.knn(rng.standard_normal(8), 25)
        for (id_a, d_a), (id_b, d_b) in zip(got, got[1:]):
            assert d_a <= d_b
            if d_a == d_b:
                assert id_a < id_b


def test_knn_k_larger_than_count_returns_all():
    index = make_index(["a", "b"], np.eye(2))
    assert len(index.knn([0.0, 0.0], 10)) == 2


def test_knn_k_zero_rejected():
    index = make_index(["a"], [[1.0]])
    with pytest.raises(ValueError, match="k must be"):
        index.knn([0.0], 0)


def test_knn_dim_mismatch():
    index = make_index(["a"], [[1.0, 2.0]])
    with pytest.raises(DimensionMismatch, match="3 vs 2"):
        index.knn([0.0, 0.0, 0.0], 1)


def test_knn_batch_matches_single_queries(monkeypatch):
    monkeypatch.setattr(index_module, "_CHUNK", 32)  # four chunks of 32 queries and one of 22
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((500, 16)).astype(np.float32)
    ids = [f"v{i:03d}" for i in range(500)]
    index = make_index(ids, matrix)
    queries = rng.standard_normal((150, 16))
    batched = index.knn_batch(queries, 12)
    for q, got in zip(queries, batched):
        assert got == index.knn(q, 12)


def test_knn_batch_of_one_is_one_knn_call(monkeypatch):
    # perfbench reads a lone query's search time off the spans of ``knn`` calls.
    rng = np.random.default_rng(9)
    index = make_index([f"v{i:03d}" for i in range(200)], rng.standard_normal((200, 8)))
    query = rng.standard_normal(8)
    want, calls = index.knn(query, 5), []
    real = VectorIndex.knn
    monkeypatch.setattr(VectorIndex, "knn", lambda self, q, k: calls.append(k) or real(self, q, k))
    assert index.knn_batch(query[None, :], 5) == [want]
    assert calls == [5]


def test_large_k_batch_works_in_a_few_score_tiles():
    # At k = 1,000 a tile holds about k groups, so the first tile pools most of its rows.
    # Its pooling temporaries and the trims once took about six tiles' worth of memory,
    # beyond the neighbour lists the call returns; gathered with int32 positions they take
    # about four.
    rng = np.random.default_rng(10)
    index = make_index([f"v{i:05d}" for i in range(20000)], rng.standard_normal((20000, 8)))
    queries = rng.standard_normal((256, 8))
    index.knn_batch(queries[:2], 3)  # the lazy caches, which the index keeps
    tracemalloc.start()
    try:
        found = index.knn_batch(queries, 1000)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(neighbors) for neighbors in found] == [1000] * 256
    assert peak - held <= 5 * 4 * index_module._TILE


def test_index_holds_no_float64_copy_of_the_vectors():
    rng = np.random.default_rng(8)
    index = make_index([f"v{i}" for i in range(300)], rng.standard_normal((300, 16)))
    index.knn_batch(rng.standard_normal((5, 16)), 7)
    held = [v for v in vars(index).values() if isinstance(v, np.ndarray)]
    assert all(a.dtype != np.float64 or a.size < index.vectors.size for a in held)


# -- build ------------------------------------------------------------------

def test_build_duplicate_id_named():
    with pytest.raises(ValueError, match="dup01"):
        make_index(["a", "dup01", "dup01"], np.zeros((3, 2)))


def test_build_empty_rejected():
    with pytest.raises(ValueError, match="zero vectors"):
        build_index_from_arrays([], np.zeros((0, 2), dtype=np.float32), IndexConfig(dim=2))


def test_build_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        make_index(["a"], [[np.inf, 0.0]])


def test_build_dim_mismatch_with_config():
    with pytest.raises(DimensionMismatch):
        build_index_from_arrays(["a"], np.zeros((1, 3), dtype=np.float32), IndexConfig(dim=2))


# -- perm-prefix mode -------------------------------------------------------

def clustered(rng, n_clusters=8, per=40, dim=16, sigma=0.1):
    protos = rng.standard_normal((n_clusters, dim)) * 3.0
    rows = np.concatenate([p + rng.standard_normal((per, dim)) * sigma for p in protos])
    ids = [f"v{i:04d}" for i in range(len(rows))]
    return ids, rows.astype(np.float32)


def test_perm_prefix_pivots_deterministic():
    rng = np.random.default_rng(8)
    ids, matrix = clustered(rng)
    a = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=5)
    b = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=5)
    assert np.array_equal(a.pivots, b.pivots)
    assert np.array_equal(a.assignments, b.assignments)


def test_perm_prefix_results_are_subset_of_data_and_ordered():
    rng = np.random.default_rng(9)
    ids, matrix = clustered(rng)
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4,
                       candidate_budget=50, rng_seed=1)
    got = index.knn(matrix[3].astype(np.float64), 10)
    assert len(got) == 10
    dists = [d for _, d in got]
    assert dists == sorted(dists)


def test_perm_prefix_recall_monotone_in_budget():
    rng = np.random.default_rng(10)
    ids, matrix = clustered(rng, n_clusters=10, per=60)
    exact = make_index(ids, matrix)
    queries = rng.standard_normal((20, 16)) * 3.0
    prev = -1.0
    for budget in (10, 40, 120, 600):
        index = make_index(ids, matrix, mode="perm-prefix", num_pivots=24, prefix_len=6,
                           candidate_budget=budget, rng_seed=2)
        hits = total = 0
        for q in queries:
            truth = {i for i, _ in exact.knn(q, 10)}
            got = {i for i, _ in index.knn(q, 10)}
            hits += len(truth & got)
            total += len(truth)
        recall = hits / total
        assert recall >= prev
        prev = recall
    assert prev == 1.0  # budget=600 covers the whole collection


def test_perm_prefix_budget_growth_gives_candidate_superset():
    rng = np.random.default_rng(11)
    ids, matrix = clustered(rng)
    cfg = dict(mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=3)
    index = make_index(ids, matrix, candidate_budget=30, **cfg)
    q = rng.standard_normal(16)
    small = index._perm_candidates(np.asarray(q, dtype=np.float64))
    big = make_index(ids, matrix, candidate_budget=90, **cfg)
    larger = big._perm_candidates(np.asarray(q, dtype=np.float64))
    assert set(small.tolist()) <= set(larger.tolist())


def test_index_loaded_at_a_budget_matches_one_built_at_it(tmp_path):
    rng = np.random.default_rng(13)
    ids, matrix = clustered(rng)
    cfg = dict(mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=3)
    path = str(tmp_path / "x.index")
    save_index(make_index(ids, matrix, candidate_budget=30, **cfg), path)
    queries = rng.standard_normal((12, 16))
    for budget in (60, 90, 320):
        loaded = load_index(path, IndexConfig(dim=16, candidate_budget=budget, **cfg))
        fresh = make_index(ids, matrix, candidate_budget=budget, **cfg)
        assert loaded.knn_batch(queries, 10) == fresh.knn_batch(queries, 10)
        assert [loaded.knn(q, 10) for q in queries] == [fresh.knn(q, 10) for q in queries]


def test_perm_prefix_k_over_budget_rejected():
    rng = np.random.default_rng(12)
    ids, matrix = clustered(rng)
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=8, prefix_len=2,
                       candidate_budget=5, rng_seed=0)
    with pytest.raises(ValueError, match="candidate_budget"):
        index.knn(matrix[0], 6)


def test_perm_prefix_num_pivots_over_count_rejected():
    with pytest.raises(ValueError, match="num_pivots"):
        make_index(["a", "b"], np.eye(2), mode="perm-prefix", num_pivots=5, prefix_len=2)


def test_index_config_validation():
    with pytest.raises(ValueError):
        IndexConfig(dim=0)
    with pytest.raises(ValueError):
        IndexConfig(dim=2, mode="fancy")
    with pytest.raises(ValueError):
        IndexConfig(dim=2, mode="perm-prefix", num_pivots=4, prefix_len=9)


# -- persistence ------------------------------------------------------------

def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(13)
    matrix = rng.standard_normal((80, 12)).astype(np.float32)
    ids = [f"v{i}" for i in range(80)]
    index = make_index(ids, matrix)
    path = str(tmp_path / "x.index")
    save_index(index, path)
    loaded = load_index(path, IndexConfig(dim=12))
    for _ in range(50):
        q = rng.standard_normal(12)
        assert loaded.knn(q, 9) == index.knn(q, 9)


def test_save_load_round_trip_perm(tmp_path):
    rng = np.random.default_rng(14)
    ids, matrix = clustered(rng)
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4,
                       candidate_budget=60, rng_seed=9)
    path = str(tmp_path / "x.index")
    save_index(index, path)
    loaded = load_index(path, IndexConfig(dim=16, mode="perm-prefix", candidate_budget=60))
    assert loaded.config.num_pivots == 16
    assert loaded.config.candidate_budget == 60
    assert np.array_equal(loaded.pivots, index.pivots)
    assert np.array_equal(loaded.assignments, index.assignments)
    assert loaded.pivots.dtype == np.float32 and loaded.assignments.dtype == np.int32
    for _ in range(20):
        q = rng.standard_normal(16)
        assert loaded.knn(q, 7) == index.knn(q, 7)


def test_save_is_byte_identical_per_build_seed(tmp_path):
    rng = np.random.default_rng(15)
    ids, matrix = clustered(rng)
    p1, p2 = str(tmp_path / "a.index"), str(tmp_path / "b.index")
    save_index(make_index(ids, matrix, mode="perm-prefix", num_pivots=8, prefix_len=3, rng_seed=4), p1)
    save_index(make_index(ids, matrix, mode="perm-prefix", num_pivots=8, prefix_len=3, rng_seed=4), p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_load_version_mismatch_is_loud(tmp_path):
    index = make_index(["a"], [[1.0, 2.0]])
    path = str(tmp_path / "x.index")
    save_index(index, path)
    raw = bytearray(Path(path).read_bytes())
    raw[4] = 99  # version field follows the 4-byte magic
    Path(path).write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="version 99"):
        load_index(path, IndexConfig(dim=2))


def test_load_dim_mismatch_is_loud(tmp_path):
    index = make_index(["a"], [[1.0, 2.0]])
    path = str(tmp_path / "x.index")
    save_index(index, path)
    with pytest.raises(EngineError, match="dimensionality 2"):
        load_index(path, IndexConfig(dim=3))


def test_load_truncated_is_loud(tmp_path):
    index = make_index(["a", "b"], np.ones((2, 4)))
    path = str(tmp_path / "x.index")
    save_index(index, path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-3])
    with pytest.raises(FormatError, match="truncated"):
        load_index(path, IndexConfig(dim=4))


def test_load_bad_magic(tmp_path):
    path = str(tmp_path / "x.index")
    Path(path).write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(FormatError, match="magic"):
        load_index(path, IndexConfig(dim=4))


def test_load_takes_candidate_budget_from_caller(tmp_path):
    rng = np.random.default_rng(16)
    ids, matrix = clustered(rng)
    cfg = dict(mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=9)
    index = make_index(ids, matrix, candidate_budget=1500, **cfg)
    path = str(tmp_path / "x.index")
    save_index(index, path)
    loaded = load_index(path, IndexConfig(dim=16, candidate_budget=70, **cfg))
    assert loaded.config.candidate_budget == 70
    queries = rng.standard_normal((20, 16)) * 3.0
    built = make_index(ids, matrix, candidate_budget=70, **cfg)
    assert loaded.knn_batch(queries, 10) == built.knn_batch(queries, 10)
    assert built.knn_batch(queries, 10) != index.knn_batch(queries, 10)


def test_save_overlong_id_raises_value_error_and_leaves_no_file(tmp_path):
    index = make_index(["a", "x" * 70000], np.ones((2, 2)))
    path = tmp_path / "x.index"
    with pytest.raises(ValueError, match="too long"):
        save_index(index, str(path))
    assert not path.exists()


def _layout(raw):
    """The header fields and section table entries of saved index bytes."""
    fields = list(_HEADER.unpack_from(raw))
    count = len(_SECTIONS) if fields[2] else 4  # mode code 1: perm-prefix
    return fields, [list(_SECTION.unpack_from(raw, _HEADER.size + i * _SECTION.size)) for i in range(count)]


def _repack(raw, fields, table):
    """``raw`` under a header built from ``fields`` and ``table``, with its checksum."""
    head = _HEADER.pack(*fields) + b"".join(_SECTION.pack(*entry) for entry in table)
    head += _CRC.pack(zlib.crc32(head))
    return head + raw[len(head):]


def _with_section(raw, name, data):
    """``raw`` with section ``name`` replaced by ``data`` of the same size, checksums updated."""
    fields, table = _layout(raw)
    entry = table[_SECTIONS.index(name)]
    assert len(data) == entry[1]
    entry[2] = zlib.crc32(data)
    return _repack(raw[:entry[0]] + data + raw[entry[0] + entry[1]:], fields, table)


def _patched(tmp_path, edit):
    """A saved two-row index, with its raw bytes passed through ``edit``."""
    path = tmp_path / "x.index"
    save_index(make_index(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]), str(path))
    path.write_bytes(edit(path.read_bytes()))
    return str(path)


def _small_index(tmp_path, mode="perm-prefix"):
    """A saved three-row index: its config, path and bytes."""
    cfg = IndexConfig(dim=3, mode=mode, num_pivots=2, prefix_len=2, candidate_budget=2)
    path = tmp_path / "x.index"
    save_index(build_index_from_arrays(["a", "bé", "c"], np.arange(9.0).reshape(3, 3), cfg), str(path))
    return cfg, path, path.read_bytes()


def test_load_rejects_nonfinite_component(tmp_path):
    nan = np.array([1.0, 2.0, 3.0, np.nan], dtype="<f4").tobytes()  # the last component
    path = _patched(tmp_path, lambda raw: _with_section(raw, "vectors", nan))
    with pytest.raises(FormatError, match="finite") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


def test_load_rejects_empty_id(tmp_path):
    offsets = np.array([0, 0, 2], dtype="<u4").tobytes()  # ids "" and "ab"
    path = _patched(tmp_path, lambda raw: _with_section(raw, "id offsets", offsets))
    with pytest.raises(FormatError, match="empty id") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


@pytest.mark.parametrize("mode", ["exact", "perm-prefix"])
def test_load_truncation_at_every_offset_is_a_format_error(tmp_path, mode):
    cfg, path, raw = _small_index(tmp_path, mode)
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match="x.index"):
            load_index(str(path), cfg)


@pytest.mark.parametrize("field", ["num_pivots", "prefix_len"])
def test_load_rejects_pivot_sizes_beyond_the_file(tmp_path, field):
    cfg, path, raw = _small_index(tmp_path)
    header, table = _layout(raw)
    header[{"num_pivots": 6, "prefix_len": 7}[field]] = 2 ** 32 - 1  # positions in _HEADER
    path.write_bytes(_repack(raw, header, table))
    with pytest.raises(FormatError, match="truncated") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("value", [99, 2, -1])
def test_load_rejects_prefix_assignment_outside_the_pivots(tmp_path, value):
    cfg, path, raw = _small_index(tmp_path)
    offset, size, _ = _layout(raw)[1][_SECTIONS.index("prefix assignments")]
    last = np.array([value], dtype="<i4").tobytes()  # the last assignment
    path.write_bytes(_with_section(raw, "prefix assignments", raw[offset : offset + size - 4] + last))
    with pytest.raises(FormatError, match="prefix assignment") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("prefix_len", [0, 3])
def test_load_rejects_prefix_len_outside_the_pivots(tmp_path, prefix_len):
    cfg, path, raw = _small_index(tmp_path)
    header, table = _layout(raw)
    header[7] = prefix_len  # position of prefix_len in _HEADER
    path.write_bytes(_repack(raw, header, table))
    with pytest.raises(FormatError, match="prefix length") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("blob", [b"aa", b"ba"], ids=["repeated", "out-of-order"])
def test_load_refuses_ids_that_do_not_strictly_increase(tmp_path, blob):
    path = _patched(tmp_path, lambda raw: _with_section(raw, "ids", blob))
    with pytest.raises(FormatError, match="strictly increase") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


def _with_max_norm(raw, value):
    header, table = _layout(raw)
    header[8] = value  # position of the largest row norm in _HEADER
    return _repack(raw, header, table)


@pytest.mark.parametrize("edit", [
    lambda raw: _with_section(raw, "norms", np.array([5.0, np.nan], dtype="<f4").tobytes()),
    lambda raw: _with_section(raw, "norms", np.array([-5.0, 25.0], dtype="<f4").tobytes()),
    lambda raw: _with_max_norm(raw, np.nan),
    lambda raw: _with_max_norm(raw, 4.9999),  # the rows' largest norm is 5
], ids=["nan-norm", "negative-norm", "nan-largest-norm", "low-largest-norm"])
def test_load_refuses_row_norms_that_are_nan_negative_or_above_the_largest(tmp_path, edit):
    path = _patched(tmp_path, edit)
    with pytest.raises(FormatError, match="row norm") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


def test_load_accepts_the_largest_norm_within_float32_rounding(tmp_path):
    path = _patched(tmp_path, lambda raw: _with_max_norm(raw, 5.0 * (1 - 2.0 ** -25)))
    assert load_index(path, IndexConfig(dim=2)).max_norm == 5.0 * (1 - 2.0 ** -25)


def test_load_refuses_a_version_1_file_with_the_rebuild_message(tmp_path):
    path = tmp_path / "x.index"
    header = struct.pack("<4sIBIqIIIQ", b"NTIX", 1, 0, 2, 0, 0, 0, 0, 1)  # the version-1 header, one row
    path.write_bytes(header + struct.pack("<H", 1) + b"a" + np.array([1.0, 2.0], dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="version 1 .*neartag build") as exc:
        load_index(str(path), IndexConfig(dim=2))
    assert str(path) in str(exc.value)


# -- the stored layout ------------------------------------------------------

def test_stored_norms_equal_a_fresh_float64_sum(tmp_path):
    rng = np.random.default_rng(17)
    matrix = rng.standard_normal((60, 7)) * rng.choice([1e-30, 1.0, 1e20], size=(60, 1))  # some overflow float32
    index = make_index([f"v{i}" for i in range(60)], matrix)
    save_index(index, str(tmp_path / "x.index"))
    loaded = load_index(str(tmp_path / "x.index"), IndexConfig(dim=7))
    fresh = np.einsum("ij,ij->i", loaded.vectors, loaded.vectors, dtype=np.float64)
    with np.errstate(over="ignore"):
        assert np.isinf(fresh.astype(np.float32)).any()
        assert loaded.norms.dtype == np.float32
        assert loaded.norms.tobytes() == fresh.astype(np.float32).tobytes()
    assert loaded.max_norm == float(np.sqrt(fresh.max())) == index.max_norm
    assert loaded.ids == sorted(loaded.ids) and np.array_equal(loaded.vectors, index.vectors)


def test_exact_build_from_shuffled_rows_writes_the_same_file(tmp_path):
    rng = np.random.default_rng(18)
    ids = [f"v{i}" for i in range(90)] + ["é", "ü1", "z\u0100"]
    matrix = rng.standard_normal((len(ids), 5)).astype(np.float32)
    order = rng.permutation(len(ids))
    save_index(make_index(ids, matrix), str(tmp_path / "a.index"))
    save_index(make_index([ids[i] for i in order], matrix[order]), str(tmp_path / "b.index"))
    assert (tmp_path / "a.index").read_bytes() == (tmp_path / "b.index").read_bytes()
    loaded = load_index(str(tmp_path / "b.index"), IndexConfig(dim=5))
    assert loaded.ids == sorted(ids)
    assert np.array_equal(loaded.vectors, matrix[np.argsort(np.array(ids, dtype=object))])


def test_perm_pivots_and_prefixes_come_from_the_input_order():
    # Pivots and prefixes are picked in input order and move with their
    # rows, so ids given out of order get the pivots and prefixes they had
    # before rows were stored in id order.
    rng = np.random.default_rng(19)
    _, matrix = clustered(rng)
    ids = [f"v{i}" for i in range(len(matrix))]  # "v10" sorts before "v2"
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=3)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    pivots = matrix[np.random.default_rng(3).choice(len(ids), size=16, replace=False)]
    assert order != list(range(len(ids))) and index.ids == [ids[i] for i in order]
    assert np.array_equal(index.vectors, matrix[order]) and np.array_equal(index.pivots, pivots)
    assert np.array_equal(index.assignments, index_module._assign_prefixes(matrix, pivots, 4)[order])


# -- corrupted files --------------------------------------------------------

_FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("mode", ["exact", "perm-prefix"])
@_FUZZ
@given(data=st.data())
def test_load_refuses_any_flipped_byte(tmp_path, mode, data):
    cfg, path, raw = _small_index(tmp_path, mode)
    at = data.draw(st.integers(0, len(raw) - 1), label="offset")
    flipped = raw[at] ^ data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(raw[:at] + bytes([flipped]) + raw[at + 1:])
    with pytest.raises(FormatError, match="x.index"):
        load_index(str(path), cfg)


@_FUZZ
@given(field=st.sampled_from(["dim", "count", "num_pivots", "prefix_len", *_SECTIONS]),
       value=st.integers(1 << 20, (1 << 32) - 1))
def test_load_refuses_absurd_sizes_before_allocating(tmp_path, field, value):
    _, path, raw = _small_index(tmp_path)
    header, table = _layout(raw)
    if field in _SECTIONS:
        table[_SECTIONS.index(field)][1] = value
    else:
        header[{"dim": 3, "count": 4, "num_pivots": 6, "prefix_len": 7}[field]] = value
    path.write_bytes(_repack(raw, header, table))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="x.index"):
            load_index(str(path), IndexConfig(dim=header[3], mode="perm-prefix"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
