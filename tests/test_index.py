from pathlib import Path

import numpy as np
import pytest

from neartag.errors import DimensionMismatch, EngineError, FormatError
from neartag.index import (
    _HEADER,
    IndexConfig,
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


def test_knn_batch_matches_single_queries():
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((500, 16)).astype(np.float32)
    ids = [f"v{i:03d}" for i in range(500)]
    index = make_index(ids, matrix)
    queries = rng.standard_normal((150, 16))
    batched = index.knn_batch(queries, 12, chunk=32)
    for q, got in zip(queries, batched):
        assert got == index.knn(q, 12)


def test_index_holds_no_float64_copy_of_the_vectors():
    rng = np.random.default_rng(8)
    index = make_index([f"v{i}" for i in range(300)], rng.standard_normal((300, 16)))
    index.knn_batch(rng.standard_normal((5, 16)), 7)
    held = [v for v in (*vars(index).values(), *vars(index._cache).values()) if isinstance(v, np.ndarray)]
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
    base = make_index(ids, matrix, mode="perm-prefix", num_pivots=24, prefix_len=6,
                      candidate_budget=10, rng_seed=2)
    exact = make_index(ids, matrix)
    queries = rng.standard_normal((20, 16)) * 3.0
    prev = -1.0
    for budget in (10, 40, 120, 600):
        view = base.with_candidate_budget(budget)
        hits = total = 0
        for q in queries:
            truth = {i for i, _ in exact.knn(q, 10)}
            got = {i for i, _ in view.knn(q, 10)}
            hits += len(truth & got)
            total += len(truth)
        recall = hits / total
        assert recall >= prev
        prev = recall
    assert prev == 1.0  # budget=600 covers the whole collection


def test_perm_prefix_budget_growth_gives_candidate_superset():
    rng = np.random.default_rng(11)
    ids, matrix = clustered(rng)
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4,
                       candidate_budget=30, rng_seed=3)
    q = rng.standard_normal(16)
    index._ensure_caches()
    small = index._perm_candidates(np.asarray(q, dtype=np.float64))
    big = index.with_candidate_budget(90)
    big._ensure_caches()
    larger = big._perm_candidates(np.asarray(q, dtype=np.float64))
    assert set(small.tolist()) <= set(larger.tolist())


def test_budget_view_shares_caches_and_matches_fresh_index():
    rng = np.random.default_rng(13)
    ids, matrix = clustered(rng)
    cfg = dict(mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=3)
    base = make_index(ids, matrix, candidate_budget=30, **cfg)
    early = base.with_candidate_budget(60)  # made before any cache exists
    queries = rng.standard_normal((12, 16))
    early.knn(queries[0], 5)
    cache = base._cache
    norms, rank = cache.norms, cache.id_rank
    assert norms is not None and rank is not None
    for budget in (60, 90, 320):
        view = base.with_candidate_budget(budget)
        fresh = make_index(ids, matrix, candidate_budget=budget, **cfg)
        assert view.knn_batch(queries, 10) == fresh.knn_batch(queries, 10)
        assert [view.knn(q, 10) for q in queries] == [fresh.knn(q, 10) for q in queries]
        # querying the view built no per-row arrays of its own
        assert view._cache is cache and cache.norms is norms and cache.id_rank is rank


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
    view = index.with_candidate_budget(70)
    assert loaded.knn_batch(queries, 10) == view.knn_batch(queries, 10)
    assert view.knn_batch(queries, 10) != index.knn_batch(queries, 10)


def test_save_overlong_id_raises_value_error_and_leaves_no_file(tmp_path):
    index = make_index(["a", "x" * 70000], np.ones((2, 2)))
    path = tmp_path / "x.index"
    with pytest.raises(ValueError, match="too long"):
        save_index(index, str(path))
    assert not path.exists()


def _patched(tmp_path, edit):
    """A saved two-row index, with its raw bytes passed through ``edit``."""
    path = tmp_path / "x.index"
    save_index(make_index(["a", "b"], [[1.0, 2.0], [3.0, 4.0]]), str(path))
    path.write_bytes(edit(path.read_bytes()))
    return str(path)


def test_load_rejects_nonfinite_component(tmp_path):
    path = _patched(tmp_path, lambda raw: raw[:-4] + np.array([np.nan], dtype="<f4").tobytes())
    with pytest.raises(FormatError, match="finite") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


def test_load_rejects_empty_id(tmp_path):
    head = _HEADER.size  # the first record: u16 id length 1, then b"a"
    path = _patched(tmp_path, lambda raw: raw[:head] + b"\x00\x00" + raw[head + 3:])
    with pytest.raises(FormatError, match="empty id") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


@pytest.mark.parametrize("mode", ["exact", "perm-prefix"])
def test_load_truncation_at_every_offset_is_a_format_error(tmp_path, mode):
    cfg = IndexConfig(dim=3, mode=mode, num_pivots=2, prefix_len=2, candidate_budget=2)
    path = tmp_path / "x.index"
    save_index(build_index_from_arrays(["a", "bé", "c"], np.arange(9.0).reshape(3, 3), cfg), str(path))
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError, match="x.index"):
            load_index(str(path), cfg)


@pytest.mark.parametrize("field", ["num_pivots", "prefix_len"])
def test_load_rejects_pivot_sizes_beyond_the_file(tmp_path, field):
    cfg = IndexConfig(dim=3, mode="perm-prefix", num_pivots=2, prefix_len=2, candidate_budget=2)
    path = tmp_path / "x.index"
    save_index(build_index_from_arrays(["a", "b", "c"], np.arange(9.0).reshape(3, 3), cfg), str(path))
    raw = path.read_bytes()
    header = list(_HEADER.unpack(raw[:_HEADER.size]))
    header[{"num_pivots": 5, "prefix_len": 6}[field]] = 2 ** 32 - 1  # positions in _HEADER
    path.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size:])
    with pytest.raises(FormatError, match="truncated") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)


def _perm_index_bytes(tmp_path):
    cfg = IndexConfig(dim=3, mode="perm-prefix", num_pivots=2, prefix_len=2, candidate_budget=2)
    path = tmp_path / "x.index"
    save_index(build_index_from_arrays(["a", "b", "c"], np.arange(9.0).reshape(3, 3), cfg), str(path))
    return cfg, path, path.read_bytes()


@pytest.mark.parametrize("value", [99, 2, -1])
def test_load_rejects_prefix_assignment_outside_the_pivots(tmp_path, value):
    cfg, path, raw = _perm_index_bytes(tmp_path)
    path.write_bytes(raw[:-4] + np.array([value], dtype="<i4").tobytes())  # the last assignment
    with pytest.raises(FormatError, match="prefix assignment") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("prefix_len", [0, 3])
def test_load_rejects_prefix_len_outside_the_pivots(tmp_path, prefix_len):
    cfg, path, raw = _perm_index_bytes(tmp_path)
    header = list(_HEADER.unpack(raw[:_HEADER.size]))
    header[6] = prefix_len  # position of prefix_len in _HEADER
    path.write_bytes(_HEADER.pack(*header) + raw[_HEADER.size:])
    with pytest.raises(FormatError, match="prefix length") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)
