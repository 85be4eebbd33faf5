"""Exact search under inputs that stress its float32 ranking bound.

The exact index ranks rows in float32 and re-scores only the rows within
a proven slack of the k-th score, so every case here checks both public
methods against the float64 linear-scan oracle (ids exactly, distances
to 1e-12, as acceptance test 01 does) and ``knn_batch`` against ``knn``
row for row: duplicates, rows one float32 bit apart, a large common
offset, squared norms that overflow float32, subnormal vectors, ``k``
at or above the collection size, and query counts that do not fill the
last chunk.

Most cases shrink the index's query chunk, row tile and row group (the
``tiles`` fixture) so that a small collection spans many tiles: first
tiles with fewer rows than ``k``, ragged last tiles and groups, ties
across a tile boundary, pools trimmed before the last tile, and chunks
that shrink for a large ``k``.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_knn

from neartag import index as index_module
from neartag.index import IndexConfig, build_index_from_arrays


def shrink_tiles(mp, chunk, rows, group):
    """Rank ``chunk`` queries at a time, ``rows`` rows per tile for a full
    chunk (more for a smaller one), in groups of ``group`` rows."""
    mp.setattr(index_module, "_CHUNK", chunk)
    mp.setattr(index_module, "_TILE", chunk * rows)
    mp.setattr(index_module, "_GROUP", group)


@pytest.fixture
def tiles(monkeypatch):
    return lambda chunk, rows, group: shrink_tiles(monkeypatch, chunk, rows, group)


def check_exact(matrix, queries, k, ids=None):
    matrix = np.asarray(matrix, dtype=np.float32)
    if ids is None:
        ids = [f"v{i:05d}" for i in range(matrix.shape[0])]
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=matrix.shape[1]))
    singles = [index.knn(q, k) for q in queries]
    for q, got in zip(queries, singles):
        want = brute_force_knn(ids, matrix, q, k)
        assert [g[0] for g in got] == [w[0] for w in want]
        assert np.allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12, atol=1e-300)
    assert index.knn_batch(np.asarray(queries), k) == singles


def test_duplicate_rows_tie_by_id(tiles):
    tiles(chunk=4, rows=64, group=2)
    rng = np.random.default_rng(101)
    base = rng.standard_normal((40, 16)).astype(np.float32)
    matrix = base[rng.integers(0, 40, size=400)]
    ids = [f"d{i:04d}" for i in rng.permutation(400)]
    queries = np.concatenate([matrix[:5].astype(np.float64), rng.standard_normal((6, 16))])
    check_exact(matrix, queries, 25, ids=ids)
    # Row b's d² is one ulp below row a's, and their roots are one float: a ranks first.
    query = [float.fromhex("0x1.37e8f2fee9faep-2"), float.fromhex("0x1.aa3f4340269f9p-2")]
    check_exact([[0.3, 0.0], [0.0, 0.7]], np.array([query, query]), 2, ids=["b", "a"])


def test_rows_one_float32_bit_apart(tiles):
    tiles(chunk=2, rows=16, group=2)
    rng = np.random.default_rng(102)
    v = rng.standard_normal(32).astype(np.float32)
    rows = [v]
    for j in range(32):
        for direction in (np.inf, -np.inf):
            row = v.copy()
            row[j] = np.nextafter(row[j], np.float32(direction))
            rows.append(row)
    matrix = np.stack(rows * 3)  # each row three times over, too
    queries = np.stack([v.astype(np.float64), v + 1e-7 * rng.standard_normal(32),
                        v + 0.5 * rng.standard_normal(32)])
    for k in (1, 7, 64, 150):
        check_exact(matrix, queries, k)


def test_large_common_offset(tiles):
    tiles(chunk=4, rows=256, group=8)
    rng = np.random.default_rng(103)
    matrix = (1e4 + 0.05 * rng.standard_normal((3000, 64))).astype(np.float32)
    queries = 1e4 + 0.05 * rng.standard_normal((9, 64))
    check_exact(matrix, queries, 30)


def test_squared_norms_overflow_float32(tiles):
    rng = np.random.default_rng(104)
    matrix = (1e20 * rng.standard_normal((500, 16))).astype(np.float32)
    assert not np.isfinite(np.einsum("ij,ij->i", matrix, matrix)).all()
    queries = 1e20 * rng.standard_normal((5, 16))
    tiles(chunk=3, rows=40, group=4)
    check_exact(matrix, queries, 10)
    # one huge row among ordinary ones; one query sits on it
    mixed = rng.standard_normal((300, 16)).astype(np.float32)
    mixed[17] = 3e19
    queries = np.concatenate([mixed[17:18].astype(np.float64), rng.standard_normal((4, 16))])
    tiles(chunk=2, rows=48, group=4)
    check_exact(mixed, queries, 12)


def test_subnormal_vectors(tiles):
    tiles(chunk=2, rows=40, group=2)
    rng = np.random.default_rng(105)
    matrix = (1e-41 * rng.standard_normal((400, 8))).astype(np.float32)
    assert np.abs(matrix).max() < np.finfo(np.float32).tiny
    queries = 1e-41 * rng.standard_normal((5, 8))
    check_exact(matrix, queries, 20)


@pytest.mark.parametrize("k", [29, 30, 31, 500])
def test_k_at_or_above_count(tiles, k):
    tiles(chunk=2, rows=4, group=2)  # the first tile holds fewer rows than k
    rng = np.random.default_rng(106)
    matrix = rng.standard_normal((30, 4))
    check_exact(matrix, rng.standard_normal((3, 4)), k)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_query_count_not_a_multiple_of_chunk(tiles, chunk):
    tiles(chunk=chunk, rows=50, group=2)  # the last chunk's tiles are wider
    rng = np.random.default_rng(107)
    matrix = rng.standard_normal((800, 24))
    check_exact(matrix, rng.standard_normal((67, 24)), 15)


SCALES = st.sampled_from(["unit", "tiny", "subnormal", "offset", "huge"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 80), dim=st.integers(1, 40),
       k=st.integers(1, 90), num_queries=st.integers(1, 9), chunk=st.integers(1, 5),
       rows=st.integers(1, 24), group=st.integers(1, 6), scale=SCALES, duplicates=st.booleans())
def test_exact_matches_oracle_hypothesis(seed, count, dim, k, num_queries, chunk, rows, group,
                                         scale, duplicates):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count + num_queries, dim))
    raw = {
        "unit": raw,
        "tiny": 1e-30 * raw,
        "subnormal": 1e-42 * raw,
        "offset": 1e4 + 0.01 * raw,
        "huge": 1e20 * raw,
    }[scale]
    matrix = raw[:count].astype(np.float32)
    if duplicates and count > 1:
        matrix[count // 2:] = matrix[: count - count // 2]
    queries = raw[count:]
    queries[0] = matrix[rng.integers(0, count)]  # one query sits on a stored row
    with pytest.MonkeyPatch.context() as mp:
        shrink_tiles(mp, chunk, rows, group)
        check_exact(matrix, queries, k)


def test_ragged_last_tile_and_group(tiles):
    tiles(chunk=3, rows=22, group=4)  # six groups a tile, the last two of 3 rows
    rng = np.random.default_rng(109)
    matrix = rng.standard_normal((101, 6))  # 4 tiles of 22 rows, then 13
    check_exact(matrix, np.concatenate([matrix[95:], rng.standard_normal((4, 6))]), 5)


def test_duplicates_straddle_a_tile_boundary(tiles):
    tiles(chunk=2, rows=5, group=2)  # tiles of 5 rows for two queries, 10 for one
    rng = np.random.default_rng(110)
    matrix = rng.standard_normal((30, 4)).astype(np.float32)
    matrix[5] = matrix[4]
    matrix[10] = matrix[11] = matrix[9]
    ids = [f"d{i:02d}" for i in range(30, 0, -1)]  # later rows have smaller ids
    queries = np.concatenate([matrix[[4, 9, 10]], rng.standard_normal((3, 4))]).astype(np.float64)
    for k in (1, 2, 3, 4):
        check_exact(matrix, queries, k, ids=ids)


def test_chunk_mixes_finite_and_infinite_slack(tiles):
    tiles(chunk=4, rows=32, group=4)
    rng = np.random.default_rng(111)
    matrix = 1e16 * rng.standard_normal((120, 8))
    huge = 1e19 * rng.standard_normal((3, 8))  # float32 may overflow: every row is kept
    queries = np.concatenate([1e16 * rng.standard_normal((5, 8)), huge])[[0, 5, 1, 2, 6, 3, 7, 4]]
    index = build_index_from_arrays([f"v{i}" for i in range(120)], matrix, IndexConfig(dim=8))
    slack = index_module._rank_slack(8, index.max_norm, np.linalg.norm(queries, axis=1))
    assert np.isinf(slack[:4]).any() and np.isfinite(slack[:4]).any()
    check_exact(matrix, queries, 7)


def test_pool_is_trimmed_before_the_last_tile(tiles, monkeypatch):
    tiles(chunk=3, rows=8, group=2)  # a pool of 24 entries is a tile's worth
    calls = {"_candidates": 0, "_trim": 0}  # each scan ends in one trim

    def counted(name):
        real = getattr(index_module, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(index_module, name, counted(name))
    rng = np.random.default_rng(112)
    check_exact(rng.standard_normal((200, 5)), rng.standard_normal((6, 5)), 4)
    assert calls["_trim"] > calls["_candidates"] > 0


def test_large_k_shrinks_the_chunk_to_a_tile_of_k_groups(tiles, monkeypatch):
    """With fewer than k groups a tile, a query's limit stays infinite and
    it pools the whole tile, so chunks shrink until a tile holds k groups."""
    tiles(chunk=8, rows=64, group=4)  # 16 groups a tile for a full chunk
    blocks = []
    real = index_module._candidates
    monkeypatch.setattr(index_module, "_candidates",
                        lambda block, *a: blocks.append(len(block)) or real(block, *a))
    rng = np.random.default_rng(115)
    check_exact(rng.standard_normal((300, 4)), rng.standard_normal((8, 4)), 40)
    assert blocks == [1] * 8 + [3, 3, 2]  # lone knn queries, then 512 // (4 * 40) = 3 a chunk


def test_overflow_chunk_memory_is_per_query(tiles):
    """A chunk of queries whose slack is infinite keeps every row without
    ranking, so its peak is one query's re-scoring, not a chunk of scores."""
    count = 4000
    tiles(chunk=64, rows=count, group=16)  # one tile of chunk x count scores, were they ranked
    rng = np.random.default_rng(113)
    index = build_index_from_arrays([f"v{i}" for i in range(count)], rng.standard_normal((count, 2)),
                                    IndexConfig(dim=2))
    queries = 1e20 * rng.standard_normal((64, 2))

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    index.knn(queries[0], 3)  # build the lazy caches outside the measurement
    one = peak(lambda: index.knn(queries[0], 3))
    chunk = peak(lambda: index.knn_batch(queries, 3))
    assert chunk < 2 * one


@pytest.mark.parametrize("mode", ["exact", "perm-prefix"])
def test_threads_share_one_index(tiles, mode):
    """Four threads querying one fresh index, caches unbuilt, get the serial answers."""
    tiles(chunk=8, rows=500, group=16)
    rng = np.random.default_rng(108)
    matrix = rng.standard_normal((3000, 32)).astype(np.float32)
    ids = [f"v{i:05d}" for i in rng.permutation(3000)]
    cfg = IndexConfig(dim=32, mode=mode, num_pivots=16, prefix_len=4, candidate_budget=400)
    index = build_index_from_arrays(ids, matrix, cfg)
    queries = rng.standard_normal((40, 32))
    fresh = build_index_from_arrays(ids, matrix, cfg)
    want_batch = fresh.knn_batch(queries, 20)
    want_single = [fresh.knn(q, 20) for q in queries[:10]]

    results, errors = [None] * 4, []
    barrier = threading.Barrier(4)

    def worker(slot):
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                batch = index.knn_batch(queries, 20)
                single = [index.knn(q, 20) for q in queries[:10]]
                assert batch == want_batch and single == want_single
            results[slot] = True
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert results == [True] * 4
