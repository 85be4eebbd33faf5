"""Exact search under inputs that stress its float32 ranking bound.

The exact index ranks rows in float32 and re-scores only the rows within
a proven slack of the k-th score, so every case here checks both public
methods against the float64 linear-scan oracle (ids exactly, distances
to 1e-12, as acceptance test 01 does) and ``knn_batch`` against ``knn``
row for row: duplicates, rows one float32 bit apart, a large common
offset, squared norms that overflow float32, subnormal vectors, ``k``
at or above the collection size, and query counts that do not fill the
last chunk.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_force_knn

from neartag.index import IndexConfig, build_index_from_arrays


def check_exact(matrix, queries, k, chunk=64, ids=None):
    matrix = np.asarray(matrix, dtype=np.float32)
    if ids is None:
        ids = [f"v{i:05d}" for i in range(matrix.shape[0])]
    index = build_index_from_arrays(ids, matrix, IndexConfig(dim=matrix.shape[1]))
    singles = [index.knn(q, k) for q in queries]
    for q, got in zip(queries, singles):
        want = brute_force_knn(ids, matrix, q, k)
        assert [g[0] for g in got] == [w[0] for w in want]
        assert np.allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12, atol=1e-300)
    assert index.knn_batch(np.asarray(queries), k, chunk=chunk) == singles


def test_duplicate_rows_tie_by_id():
    rng = np.random.default_rng(101)
    base = rng.standard_normal((40, 16)).astype(np.float32)
    matrix = base[rng.integers(0, 40, size=400)]
    ids = [f"d{i:04d}" for i in rng.permutation(400)]
    queries = np.concatenate([matrix[:5].astype(np.float64), rng.standard_normal((6, 16))])
    check_exact(matrix, queries, 25, chunk=4, ids=ids)


def test_rows_one_float32_bit_apart():
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
        check_exact(matrix, queries, k, chunk=2)


def test_large_common_offset():
    rng = np.random.default_rng(103)
    matrix = (1e4 + 0.05 * rng.standard_normal((3000, 64))).astype(np.float32)
    queries = 1e4 + 0.05 * rng.standard_normal((9, 64))
    check_exact(matrix, queries, 30, chunk=4)


def test_squared_norms_overflow_float32():
    rng = np.random.default_rng(104)
    matrix = (1e20 * rng.standard_normal((500, 16))).astype(np.float32)
    assert not np.isfinite(np.einsum("ij,ij->i", matrix, matrix)).all()
    queries = 1e20 * rng.standard_normal((5, 16))
    check_exact(matrix, queries, 10, chunk=3)
    # one huge row among ordinary ones; one query sits on it
    mixed = rng.standard_normal((300, 16)).astype(np.float32)
    mixed[17] = 3e19
    queries = np.concatenate([mixed[17:18].astype(np.float64), rng.standard_normal((4, 16))])
    check_exact(mixed, queries, 12, chunk=2)


def test_subnormal_vectors():
    rng = np.random.default_rng(105)
    matrix = (1e-41 * rng.standard_normal((400, 8))).astype(np.float32)
    assert np.abs(matrix).max() < np.finfo(np.float32).tiny
    queries = 1e-41 * rng.standard_normal((5, 8))
    check_exact(matrix, queries, 20, chunk=2)


@pytest.mark.parametrize("k", [29, 30, 31, 500])
def test_k_at_or_above_count(k):
    rng = np.random.default_rng(106)
    matrix = rng.standard_normal((30, 4))
    check_exact(matrix, rng.standard_normal((3, 4)), k, chunk=2)


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_query_count_not_a_multiple_of_chunk(chunk):
    rng = np.random.default_rng(107)
    matrix = rng.standard_normal((800, 24))
    check_exact(matrix, rng.standard_normal((67, 24)), 15, chunk=chunk)


SCALES = st.sampled_from(["unit", "tiny", "subnormal", "offset", "huge"])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 80), dim=st.integers(1, 40),
       k=st.integers(1, 90), num_queries=st.integers(1, 9), chunk=st.integers(1, 5),
       scale=SCALES, duplicates=st.booleans())
def test_exact_matches_oracle_hypothesis(seed, count, dim, k, num_queries, chunk, scale, duplicates):
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
    check_exact(matrix, queries, k, chunk=chunk)


@pytest.mark.parametrize("mode", ["exact", "perm-prefix"])
def test_threads_share_one_index(mode):
    """Four threads querying one fresh index, caches unbuilt, get the serial answers."""
    rng = np.random.default_rng(108)
    matrix = rng.standard_normal((3000, 32)).astype(np.float32)
    ids = [f"v{i:05d}" for i in rng.permutation(3000)]
    cfg = IndexConfig(dim=32, mode=mode, num_pivots=16, prefix_len=4, candidate_budget=400)
    index = build_index_from_arrays(ids, matrix, cfg)
    queries = rng.standard_normal((40, 32))
    fresh = build_index_from_arrays(ids, matrix, cfg)
    want_batch = fresh.knn_batch(queries, 20, chunk=8)
    want_single = [fresh.knn(q, 20) for q in queries[:10]]

    results, errors = [None] * 4, []
    barrier = threading.Barrier(4)

    def worker(slot):
        try:
            barrier.wait(timeout=30)
            for _ in range(3):
                batch = index.knn_batch(queries, 20, chunk=8)
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
