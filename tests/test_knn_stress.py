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
that shrink for a large ``k``. The perm-prefix re-rank, which scores its
candidate rows in gathered blocks, is checked against the same oracle
over each query's candidates, with blocks of a few rows that run ragged
across tiles.

A batch of more than one chunk is split over worker threads; the ``ways``
fixture sets how many by the usable CPUs and the BLAS thread variables,
as a process would find them, and the split cases check the split batch
against the batch ranked on one thread. A lone query over a large enough
store cuts each tile's product by rows over the same threads, and the
lone cases check it against one thread and the linear-scan oracle.
"""

import os
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_knn

from neartag import index as index_module
from neartag.index import IndexConfig, VectorIndex, build_index_from_arrays


def shrink_tiles(mp, chunk, rows, group, gather=index_module._GATHER):
    """Rank ``chunk`` queries at a time, ``rows`` rows per tile for a full
    chunk (more for a smaller one), in groups of ``group`` rows, and
    gather a row subset ``gather`` float32 values of rows at a time."""
    mp.setattr(index_module, "_CHUNK", chunk)
    mp.setattr(index_module, "_TILE", chunk * rows)
    mp.setattr(index_module, "_GROUP", group)
    mp.setattr(index_module, "_GATHER", gather)


@pytest.fixture
def tiles(monkeypatch):
    return lambda chunk, rows, group: shrink_tiles(monkeypatch, chunk, rows, group)


def set_cpus(mp, cpus, **blas):
    """Give the process ``cpus`` usable CPUs and only the BLAS thread variables in ``blas``."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in index_module._BLAS_THREAD_VARS:
        mp.delenv(var, raising=False)
    for var, value in blas.items():
        mp.setenv(var, value)


@pytest.fixture
def ways(monkeypatch):
    """Let an exact batch rank on up to ``cpus`` threads: that many CPUs, one BLAS thread."""
    return lambda cpus: set_cpus(monkeypatch, cpus, OPENBLAS_NUM_THREADS="1")


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
    return index


def check_split(ways, matrix, queries, k, cpus, ids=None) -> int:
    """check_exact on one thread, then the batch split over ``cpus`` CPUs equals it and each
    ``knn``; returns how many threads ranked the split batch."""
    ways(1)
    index = check_exact(matrix, queries, k, ids)
    serial = index.knn_batch(queries, k)
    ways(cpus)
    names, real = set(), index_module._candidates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(index_module, "_candidates", lambda *a: names.add(threading.current_thread().name) or real(*a))
        assert index.knn_batch(queries, k) == serial
    return len(names)


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


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 90), dim=st.integers(1, 12),
       budget=st.integers(1, 100), below=st.integers(0, 2), pivots=st.integers(1, 12),
       prefix=st.integers(1, 4), block=st.integers(1, 7), rows=st.integers(1, 30), group=st.integers(1, 6),
       offset=st.booleans(), duplicates=st.booleans())
def test_perm_rerank_matches_the_oracle_over_its_candidates(seed, count, dim, budget, below, pivots, prefix,
                                                            block, rows, group, offset, duplicates):
    """A perm query scores its candidates in blocks of ``block`` rows within tiles of
    ``rows`` rows, both ragged; its lists equal the linear scan over those candidates,
    and, at a budget of every row, the exact index's lists."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count + 5, dim))
    if offset:
        raw = 1e4 + 0.01 * raw
    matrix = raw[:count].astype(np.float32)
    if duplicates and count > 1:
        matrix[count // 2:] = matrix[: count - count // 2]
    queries = raw[count:]
    queries[0] = matrix[rng.integers(0, count)]  # one query sits on a stored row
    ids = [f"v{i:03d}" for i in rng.permutation(count)]  # rows are stored in id order
    pivots = min(pivots, count)
    cfg = IndexConfig(dim=dim, mode="perm-prefix", num_pivots=pivots, prefix_len=min(prefix, pivots),
                      candidate_budget=budget)
    k = max(1, budget - below)  # at and just under the budget, and past the row count when it is larger
    with pytest.MonkeyPatch.context() as mp:
        shrink_tiles(mp, 1, rows, group, gather=block * dim)  # a perm query ranks alone: tiles of ``rows``
        index = build_index_from_arrays(ids, matrix, cfg)
        singles = [index.knn(q, k) for q in queries]
        for q, got in zip(queries, singles):
            cand = index._perm_candidates(q)
            want = brute_force_knn([index.ids[i] for i in cand], index.vectors[cand], q, k)
            assert [g[0] for g in got] == [w[0] for w in want]
            assert np.allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12, atol=1e-300)
        assert index.knn_batch(queries, k) == singles
        every = build_index_from_arrays(ids, matrix, replace(cfg, candidate_budget=max(budget, count)))
        exact = build_index_from_arrays(ids, matrix, IndexConfig(dim=dim)).knn_batch(queries, k)
        assert every.knn_batch(queries, k) == [every.knn(q, k) for q in queries] == exact


def test_ragged_last_tile_and_group(tiles):
    tiles(chunk=3, rows=22, group=4)  # six groups a tile, the last two of 3 rows
    rng = np.random.default_rng(109)
    matrix = rng.standard_normal((101, 6))  # 4 tiles of 22 rows, then 13
    check_exact(matrix, np.concatenate([matrix[95:], rng.standard_normal((4, 6))]), 5)


def test_rows_past_a_short_tile_are_never_pooled(tiles, monkeypatch):
    """A tile's last group can run past its rows; those cells are NaN, so a query
    whose limit is still infinite pools every row of the tile and nothing more."""
    tiles(chunk=2, rows=36, group=16)  # a lone query's tiles: 72 rows in 80 cells, then 28 in 32
    pools = []
    real = index_module._trim
    monkeypatch.setattr(index_module, "_trim", lambda pool, *a: pools.extend(pool) or real(pool, *a))
    rng = np.random.default_rng(116)
    check_exact(rng.standard_normal((100, 3)), rng.standard_normal((2, 3)), 10)  # 10 > 5 groups a tile
    _, rows, scores = (np.concatenate(part) for part in zip(*pools))
    assert rows.max() < 100 and np.isfinite(scores).all()


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


def test_batch_with_a_query_whose_doubled_components_overflow_float32():
    """-2q of the second query overflows float32: its slack is infinite, so it
    keeps every row, while the ordinary query beside it is ranked as usual."""
    rng = np.random.default_rng(112)
    matrix = rng.standard_normal((50, 4)).astype(np.float32)
    ids = [f"v{i:02d}" for i in range(50)]
    queries = np.array([rng.standard_normal(4), [3e38, 0.5, -0.5, 1.0]])
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=4))
    got = index.knn_batch(queries, 10)
    for q, hits in zip(queries, got):
        assert [h[0] for h in hits] == [w[0] for w in brute_force_knn(ids, matrix, q, 10)]


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


def test_large_k_shrinks_the_chunk_to_a_tile_of_k_groups(tiles, ways, monkeypatch):
    """With fewer than k groups a tile, a query's limit stays infinite and
    it pools the whole tile, so chunks shrink until a tile holds k groups;
    split two ways, each worker's tile of half the scores still does."""
    tiles(chunk=8, rows=64, group=4)  # 16 groups a tile for a full chunk
    calls = []  # (queries, tile) per chunk
    real = index_module._candidates
    monkeypatch.setattr(index_module, "_candidates",
                        lambda block, *a: calls.append((len(block), a[4])) or real(block, *a))
    rng = np.random.default_rng(115)
    matrix, queries = rng.standard_normal((300, 4)), rng.standard_normal((8, 4))
    ways(1)  # one thread, so the chunks come in order
    index = check_exact(matrix, queries, 40)
    assert calls == [(1, 512)] * 8 + [(3, 512), (3, 512), (2, 512)]  # lone knn queries, then 512 // 160
    calls.clear()
    ways(2)  # three chunks: two shares of 4 queries, each in chunks of 256 // 160 = 1
    index.knn_batch(queries, 40)
    assert sorted(calls) == [(1, 256)] * 8


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

    index.knn(queries[0], 3)  # a first call, so that only each call's own scratch is traced
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


@pytest.mark.parametrize("cpus, threads", [(2, 2), (3, 3), (16, 8)], ids=["two", "three", "more-cpus-than-chunks"])
def test_split_batch_equals_the_serial_batch(tiles, ways, cpus, threads):
    """30 queries in 8 chunks of 4, the last of 2: W is the CPUs, or the chunks past them."""
    tiles(chunk=4, rows=40, group=2)
    rng = np.random.default_rng(117)
    matrix = rng.standard_normal((300, 6)).astype(np.float32)
    matrix[150:] = matrix[:150]  # every row twice: ties by id
    assert check_split(ways, matrix, rng.standard_normal((30, 6)), 9, cpus) == threads


def test_split_keeps_ties_across_share_and_chunk_boundaries(tiles, ways):
    """Two ways, 31 queries: shares 0-14 and 15-30, each in chunks of 2. The same query
    sits on both sides of a worker's chunk boundary (13 | 14) and of the share boundary
    (14 | 15), on a row stored three times."""
    tiles(chunk=4, rows=30, group=2)
    rng = np.random.default_rng(118)
    matrix = rng.standard_normal((200, 5)).astype(np.float32)
    matrix[[60, 120]] = matrix[7]
    ids = [f"d{i:03d}" for i in rng.permutation(200)]
    queries = rng.standard_normal((31, 5))
    queries[13:17] = matrix[7]
    assert check_split(ways, matrix, queries, 4, 2, ids=ids) == 2
    got = build_index_from_arrays(ids, matrix, IndexConfig(dim=5)).knn_batch(queries, 4)
    assert got[13] == got[14] == got[15] == got[16]


def test_split_shrinks_each_share_for_a_large_k(tiles, ways):
    tiles(chunk=8, rows=64, group=4)  # a serial chunk of 3 queries at k = 40, a worker's of 1
    rng = np.random.default_rng(119)
    assert check_split(ways, rng.standard_normal((300, 4)), rng.standard_normal((11, 4)), 40, 2) == 2


def test_split_chunks_mix_finite_and_infinite_slack(tiles, ways):
    tiles(chunk=4, rows=32, group=4)
    rng = np.random.default_rng(111)
    matrix = 1e16 * rng.standard_normal((120, 8))
    queries = np.concatenate([1e16 * rng.standard_normal((7, 8)), 1e19 * rng.standard_normal((5, 8))])
    queries = queries[rng.permutation(12)]
    index = build_index_from_arrays([f"v{i}" for i in range(120)], matrix, IndexConfig(dim=8))
    slack = index_module._rank_slack(8, index.max_norm, np.linalg.norm(queries, axis=1))
    # Two ways: the first share's three chunks of 2 queries each hold both kinds, as does a serial chunk of 4.
    assert all(np.isinf(s).any() and np.isfinite(s).any() for s in (slack[0:2], slack[2:4], slack[4:6], slack[:4]))
    assert check_split(ways, matrix, queries, 7, 2) == 2


@pytest.mark.parametrize("cpus, blas, want", [
    (2, {}, 1),
    (2, {"OPENBLAS_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "2"}, 1),
    (2, {"OMP_NUM_THREADS": "1"}, 2),
    (2, {"OPENBLAS_NUM_THREADS": "auto"}, 1),
    (4, {"OPENBLAS_NUM_THREADS": " 2 threads"}, 2),
    (4, {"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4),
    (2, {"OPENBLAS_NUM_THREADS": "8"}, 1),
], ids=["unset", "openblas-1", "openblas-2-on-2", "omp-1-alone", "non-integer", "leading-integer",
        "zero-is-unset", "capped-at-the-cpus"])
def test_the_ways_are_the_usable_cpus_over_the_blas_threads(monkeypatch, cpus, blas, want):
    set_cpus(monkeypatch, cpus, **blas)
    assert index_module._search_ways() == want
    rng = np.random.default_rng(120)
    matrix = rng.standard_normal((8193, 2))  # one row more than a full chunk's tile
    index = build_index_from_arrays([f"v{i}" for i in range(8193)], matrix, IndexConfig(dim=2))
    assert [index._ways(n, 5) for n in (1, 256, 257, 2560)] == [1, 1, min(2, want), want]
    small = build_index_from_arrays([f"v{i}" for i in range(8192)], matrix[:8192], IndexConfig(dim=2))
    assert small._ways(2560, 5) == 1
    # A lone query's tile is cut into ranges of at least 2^21 float32 values: two here, whatever the CPUs.
    large = build_index_from_arrays([f"v{i}" for i in range(16384)], np.zeros((16384, 256)), IndexConfig(dim=256))
    assert large._ways(1, 5) == min(2, want)


def test_the_cpu_count_stands_in_for_a_missing_affinity_call(monkeypatch):
    set_cpus(monkeypatch, 1, OPENBLAS_NUM_THREADS="1")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert index_module._search_ways() == 3


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_share_that_raises_raises_in_the_caller_and_leaves_no_thread(tiles, ways, monkeypatch, where):
    tiles(chunk=2, rows=20, group=2)
    ways(3)
    rng = np.random.default_rng(121)
    index = build_index_from_arrays([f"v{i}" for i in range(100)], rng.standard_normal((100, 4)), IndexConfig(dim=4))
    real = index_module._candidates

    def candidates(*args):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise RuntimeError(f"fault in the {where}'s share")
        return real(*args)

    monkeypatch.setattr(index_module, "_candidates", candidates)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"fault in the {where}'s share"):
        index.knn_batch(rng.standard_normal((12, 4)), 3)
    assert threading.active_count() == before


def test_split_lists_come_in_query_order_whatever_order_the_shares_end(tiles, ways, monkeypatch):
    """The caller's share, the first, waits for every other thread to end before it returns."""
    tiles(chunk=2, rows=20, group=2)
    rng = np.random.default_rng(122)
    index = build_index_from_arrays([f"v{i}" for i in range(100)], rng.standard_normal((100, 4)), IndexConfig(dim=4))
    queries = rng.standard_normal((12, 4))
    ways(1)
    serial = index.knn_batch(queries, 5)
    ways(3)
    before, real = threading.active_count(), VectorIndex._topk

    def topk(self, *args):
        out = real(self, *args)
        deadline = time.monotonic() + 30
        while threading.current_thread() is threading.main_thread() and threading.active_count() > before:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return out

    monkeypatch.setattr(VectorIndex, "_topk", topk)
    assert index.knn_batch(queries, 5) == serial


def test_split_batch_scratch_is_one_tile(ways):
    """Two workers each take half a tile, so the split batch peaks no higher than one thread's."""
    rng = np.random.default_rng(123)
    index = build_index_from_arrays([f"v{i:05d}" for i in range(20000)], rng.standard_normal((20000, 8)),
                                    IndexConfig(dim=8))
    queries = rng.standard_normal((512, 8))
    index.knn_batch(queries[:2], 3)  # a first call, so that only the batch's own scratch is traced

    def peak():
        tracemalloc.start()
        try:
            found = index.knn_batch(queries, 70)
            held, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return found, top - held

    ways(1)
    serial, one = peak()
    ways(2)
    split, two = peak()
    assert split == serial
    assert two < 1.15 * one, (two, one)


def cut_counts(monkeypatch) -> list[int]:
    """The ``cuts`` of each tile product a lone query cuts by rows, recorded as they happen."""
    counts, real = [], index_module._cut_product
    monkeypatch.setattr(index_module, "_cut_product", lambda *a: counts.append(a[3]) or real(*a))
    return counts


@pytest.mark.parametrize("cpus", [2, 3, 8])
def test_a_lone_query_cut_by_rows_equals_one_thread_and_the_oracle(tiles, ways, monkeypatch, cpus):
    """1,003 rows, which none of 2, 3 and 8 divide, in lone tiles of 160: six full tiles and a
    ragged one of 43, each cut into ``cpus`` ranges; the store holds 37 ranges of 160 values."""
    tiles(chunk=4, rows=40, group=2)
    rng = np.random.default_rng(124)
    matrix = rng.standard_normal((1003, 6)).astype(np.float32)
    matrix[500:510] = matrix[:10]  # ties by id
    ids = [f"v{i:05d}" for i in rng.permutation(1003)]
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=6))
    queries = np.concatenate([rng.standard_normal((6, 6)), matrix[:3]])
    ways(cpus)
    assert index._ways(1, 9) == cpus
    counts = cut_counts(monkeypatch)
    split = [index.knn(q, 9) for q in queries]  # first, so no earlier call left these scores in a buffer
    assert counts == [cpus] * 7 * len(queries)
    ways(1)
    assert [index.knn(q, 9) for q in queries] == split
    for q, got in zip(queries, split):
        want = brute_force_knn(ids, matrix, q, 9)
        assert [g[0] for g in got] == [w[0] for w in want]
        assert np.allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_row_stored_three_times_across_a_range_cut_keeps_id_order(tiles, ways, cpus):
    """One lone tile of 160 rows cut into ranges at 160 // cpus (the store holds five ranges of
    160 values): the row's copies sit just before, at and just after the first cut, so each
    range ranks some of them."""
    tiles(chunk=4, rows=40, group=2)
    rng = np.random.default_rng(125)
    matrix = rng.standard_normal((160, 5)).astype(np.float32)
    cut = 160 // cpus
    matrix[[cut - 1, cut + 1]] = matrix[cut]
    ids = [f"v{i:03d}" for i in range(160)]
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=5))
    ways(cpus)
    got = index.knn(matrix[cut], 5)
    assert [h for h, _ in got[:3]] == ids[cut - 1 : cut + 2] and [d for _, d in got[:3]] == [0.0] * 3
    assert [h for h, _ in got] == [w for w, _ in brute_force_knn(ids, matrix, matrix[cut], 5)]


def test_a_lone_query_over_a_small_store_or_in_perm_mode_runs_on_one_thread(ways, monkeypatch):
    """A lone query's ranges hold at least 2^21 float32 values each, and a store of at most
    8,192 rows (a full chunk's tile) ranks on one thread whatever its dim: 8,192 x 1,024 and
    16,384 x 128 make one range, 16,384 x 256 two. A perm query ranks its gathered candidates
    on one thread however large the store."""
    ways(2)
    rng = np.random.default_rng(126)
    ids = [f"v{i:05d}" for i in range(16384)]
    counts = cut_counts(monkeypatch)
    for rows, dim, want in [(8192, 1024, 1), (16384, 128, 1), (16384, 256, 2)]:
        matrix = rng.standard_normal((rows, dim), dtype=np.float32)
        index = build_index_from_arrays(ids[:rows], matrix, IndexConfig(dim=dim))
        assert index._ways(1, 5) == want
        assert index.knn(matrix[7], 5)[0] == (ids[7], 0.0)
        assert counts == ([2] if want == 2 else [])
    perm = build_index_from_arrays(ids, matrix, IndexConfig(dim=256, mode="perm-prefix", num_pivots=16, prefix_len=4,
                                                            candidate_budget=500))
    assert perm._ways(1, 5) == 1
    assert perm.knn(matrix[7], 5)[0] == (ids[7], 0.0)
    assert counts == [2]


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_row_range_that_raises_raises_in_the_caller_and_leaves_no_thread(tiles, ways, monkeypatch, where):
    tiles(chunk=2, rows=20, group=2)
    ways(3)
    rng = np.random.default_rng(127)
    index = build_index_from_arrays([f"v{i}" for i in range(100)], rng.standard_normal((100, 4)), IndexConfig(dim=4))
    assert index._ways(1, 3) == 3
    real = np.matmul

    def matmul(*args, **kwargs):
        if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
            raise RuntimeError(f"fault in the {where}'s range")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", matmul)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"fault in the {where}'s range"):
        index.knn(rng.standard_normal(4), 3)
    assert threading.active_count() == before


def test_threads_making_lone_queries_on_one_index_each_cut_by_rows(tiles, ways):
    """Four threads, each making lone queries cut two ways, get the oracle's lists."""
    tiles(chunk=4, rows=40, group=4)
    ways(2)
    rng = np.random.default_rng(128)
    matrix = rng.standard_normal((1500, 8)).astype(np.float32)
    matrix[700:720] = matrix[:20]
    ids = [f"v{i:05d}" for i in range(1500)]
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=8))
    assert index._ways(1, 12) == 2
    queries = np.concatenate([rng.standard_normal((8, 8)), matrix[:4]])
    want = [brute_force_knn(ids, matrix, q, 12) for q in queries]
    results, errors = [None] * 4, []
    barrier = threading.Barrier(4)

    def worker(slot):
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                for q, hits in zip(queries, want):
                    got = index.knn(q, 12)
                    assert [g[0] for g in got] == [w[0] for w in hits]
                    assert np.allclose([g[1] for g in got], [w[1] for w in hits], rtol=1e-12)
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


def test_a_lone_query_cut_by_rows_keeps_one_tile_of_scratch(ways):
    """The ranges write into the call's one score tile, so two of them peak no higher than one."""
    rng = np.random.default_rng(129)
    index = build_index_from_arrays([f"v{i:05d}" for i in range(20000)],
                                    rng.standard_normal((20000, 256), dtype=np.float32), IndexConfig(dim=256))
    queries = rng.standard_normal((2, 256))
    index.knn(queries[0], 3)  # a first call, so that only the query's own scratch is traced

    def peak():
        tracemalloc.start()
        try:
            found = index.knn(queries[1], 70)
            held, top = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return found, top - held

    ways(1)
    serial, one = peak()
    ways(2)
    assert index._ways(1, 70) == 2
    split, two = peak()
    assert split == serial
    assert two < 1.15 * one, (two, one)
