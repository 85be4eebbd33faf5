import os
import re
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from neartag import fvec, index as index_module
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


from oracles import brute_force_knn, perm_agreement_by_matrix, perm_candidates_by_matrix, pivot_prefixes_by_integers


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


@pytest.mark.parametrize("search, message", [
    (lambda index: index.knn([np.nan, 0.0], 1), "query vector must be finite"),
    (lambda index: index.knn_batch([[0.0, 0.0], [0.0, np.inf]], 1), "query vector must be finite"),
    (lambda index: index.knn([[0.0, 0.0]], 1), "query must be a 1-d vector"),
    (lambda index: index.knn_batch([0.0, 0.0], 1), "knn_batch expects a (num_queries, dim) array"),
], ids=["knn-nan", "knn_batch-inf", "knn-2d", "knn_batch-1d"])
def test_search_refuses_a_malformed_query(search, message):
    index = make_index(["a", "b"], np.eye(2))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        search(index)


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


def _batch_scratch_in_tiles(k):
    """The peak a 256-query batch at ``k`` over 20,000 x 8 rows takes above the neighbour
    lists it returns, in float32 score tiles; the lists' lengths come with it."""
    rng = np.random.default_rng(10)
    index = make_index([f"v{i:05d}" for i in range(20000)], rng.standard_normal((20000, 8)))
    queries = rng.standard_normal((256, 8))
    index.knn_batch(queries[:2], 3)  # a first call, so that only the batch's own scratch is traced
    found, _, extra = _traced(lambda: index.knn_batch(queries, k))
    return [len(neighbors) for neighbors in found], extra / (4 * index_module._TILE)


def test_large_k_batch_works_in_a_few_score_tiles():
    # At k = 1,000 a tile holds about k groups, so the first tile pools most of its rows.
    # Its pooling temporaries and the trims once took about six tiles' worth of memory,
    # beyond the neighbour lists the call returns; gathered with int32 positions, about
    # four; read through the (chunk, 16, w) view of a tile, 3.76.
    lengths, tiles = _batch_scratch_in_tiles(1000)
    assert lengths == [1000] * 256
    assert tiles <= 3.9


def test_batch_at_the_default_k_takes_little_more_than_a_score_tile():
    # At k = 70 a tile holds 512 groups, so the score tile itself is most of the peak:
    # 1.41 tiles when a tile's groups were read through flat offsets, 1.26 through the
    # (chunk, 16, w) view.
    lengths, tiles = _batch_scratch_in_tiles(70)
    assert lengths == [70] * 256
    assert tiles <= 1.3


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


@pytest.mark.parametrize("ids, rows, message", [
    (["a"], np.zeros((2, 2)), "expected (1, dim) vector array, got shape (2, 2)"),
    (["b", ""], np.zeros((2, 2)), "image id must be non-empty"),
], ids=["count-mismatch", "empty-id"])
def test_build_refuses_ids_that_do_not_fit_the_rows(ids, rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_index_from_arrays(ids, rows, IndexConfig(dim=2))


def test_build_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        make_index(["a"], [[np.inf, 0.0]])


def _traced(call):
    """``call()``, and the bytes it left allocated and its peak above those."""
    tracemalloc.start()
    try:
        out = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak - held


def test_build_makes_no_matrix_sized_temporary():
    # The finite check reads the row norms the build keeps, where a bool array of the
    # matrix took a byte a component; 21 bytes a row at 40,000 x 64 when this test landed.
    rng = np.random.default_rng(11)
    ids, matrix = [f"v{i:05d}" for i in range(40000)], rng.standard_normal((40000, 64)).astype(np.float32)
    _, _, extra = _traced(lambda: build_index_from_arrays(ids, matrix, IndexConfig(dim=64)))
    assert extra <= 24 * len(ids)


@pytest.mark.parametrize("shuffled, held_bound, peak_bound", [(True, 1.10, 1.35), (False, 0.05, 0.135)],
                         ids=["shuffled", "in-id-order"])
def test_an_unsorted_build_holds_one_sorted_copy_of_the_matrix(shuffled, held_bound, peak_bound):
    # Bytes held and peak, as shares of the caller's matrix, when this test landed: 1.050 and
    # 1.282 with the ids shuffled (the sorted copy the index keeps), 0.047 and 0.128 with the
    # same rows in id order (an id list and float32 norms). No benchmark corpus is unsorted.
    rng = np.random.default_rng(3)
    ids, matrix = [f"v{i:05d}" for i in range(20000)], rng.standard_normal((20000, 64)).astype(np.float32)
    if shuffled:
        ids = [ids[i] for i in rng.permutation(len(ids))]
    _, held, extra = _traced(lambda: build_index_from_arrays(ids, matrix, IndexConfig(dim=64)))
    assert held <= held_bound * matrix.nbytes
    assert held + extra <= peak_bound * matrix.nbytes


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
    assert np.array_equal(a.prefixes, b.prefixes)


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


# (pivots, prefix length) pairs at the edges: one, two, three and five bit words, prefixes on
# either side of 15, past which the key needs more than a byte, and pivot indices past a byte
# (uint16 columns). None: both drawn.
_PERM_SHAPES = [(1, 1), (16, 15), (16, 16), (40, 16), (64, 8), (65, 17), (128, 64), (130, 130), (300, 9), None]


@pytest.mark.parametrize("shape", _PERM_SHAPES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_perm_filter_equals_the_matrix_reference(shape, data):
    # Grid points give duplicate vectors and queries tied in pivot distance.
    if shape is None:
        num_pivots = data.draw(st.integers(1, 130), label="num_pivots")
        shape = num_pivots, data.draw(st.integers(1, num_pivots), label="prefix_len")
    num_pivots, prefix_len = shape
    count = num_pivots + data.draw(st.integers(0, 80), label="extra rows")
    dim = data.draw(st.integers(1, 3), label="dim")
    seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    matrix = rng.integers(-2, 3, size=(count, dim)).astype(np.float32)
    budget = data.draw(st.integers(1, count + 5), label="budget")
    index = make_index([f"v{i:03d}" for i in range(count)], matrix, mode="perm-prefix", num_pivots=num_pivots,
                       prefix_len=prefix_len, candidate_budget=budget, rng_seed=seed)
    queries = np.concatenate([matrix[rng.integers(0, count, size=3)], rng.integers(-3, 4, size=(3, dim))])
    for q in queries.astype(np.float64):
        got = index._perm_candidates(q)
        assert np.array_equal(got, perm_candidates_by_matrix(index, q))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefixes_equal_the_exact_integer_ranking(data):
    # Small-integer rows and pivots make every float64 distance exact, so each tie is a true
    # one: a grid of at most 5^3 points gives many, ties at the L-th place included, and pivots
    # drawn from it repeat. Up to 300 pivots take 16-bit columns and five bit words. Some row
    # counts pass the end of a build block (about 4 MiB of float64 rows and pivot distances).
    num_pivots = data.draw(st.integers(1, 300), label="num_pivots")
    prefix_len = data.draw(st.integers(1, num_pivots), label="prefix_len")
    dim = data.draw(st.integers(1, 3), label="dim")
    block = (1 << 22) // (8 * (dim + num_pivots))  # rows in a build block
    count = data.draw(st.integers(1, 64) | st.integers(block - 2, block + 64), label="rows")
    reach = data.draw(st.integers(1, 2), label="reach")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    matrix = rng.integers(-reach, reach + 1, size=(count, dim)).astype(np.float32)
    pivots = rng.integers(-reach, reach + 1, size=(num_pivots, dim)).astype(np.float32)
    piv = pivots.astype(np.float64)
    got = index_module._assign_prefixes(matrix, piv, np.einsum("ij,ij->i", piv, piv), prefix_len)
    assert got.dtype == (np.uint8 if num_pivots <= 256 else np.uint16)
    assert np.array_equal(got, pivot_prefixes_by_integers(matrix, pivots, prefix_len))


def test_a_stored_vector_as_a_query_gets_its_own_stored_prefix():
    # Far from the origin |x|^2 - 2 x.p + |p|^2 cancels the most digits; the query's prefix
    # comes from the rule that gave the rows theirs, so a row finds first the rows that share
    # its stored prefix, itself among them.
    rng = np.random.default_rng(22)
    count = 300
    matrix = 1e4 + rng.standard_normal((count, 16))
    index = make_index([f"v{i:03d}" for i in range(count)], matrix, mode="perm-prefix", num_pivots=16,
                       prefix_len=4, candidate_budget=count)
    for i, row in enumerate(index.vectors.astype(np.float64)):
        same = np.flatnonzero((index.prefixes == index.prefixes[:, [i]]).all(axis=0))
        assert i in same and set(index._perm_candidates(row)[: len(same)].tolist()) == set(same.tolist())


def _perm_index(matrix, budget, **cfg):
    return make_index([f"v{i:03d}" for i in range(len(matrix))], matrix, mode="perm-prefix",
                      candidate_budget=budget, **cfg)


def _perm_keys(index, q):
    """Per row, the filter's key agree * (L + 1) + shared, from the matrix reference."""
    agree, shared = perm_agreement_by_matrix(index, q)
    return agree * (index.config.prefix_len + 1) + shared


def test_perm_filter_takes_the_first_rows_when_every_row_ties_at_the_cut():
    matrix = np.tile([[1.0, -2.0, 0.5]], (40, 1))
    index = _perm_index(matrix, 7, num_pivots=5, prefix_len=3)
    for q in (matrix[0].astype(np.float64), np.array([3.0, 1.0, -1.0])):
        assert len(np.unique(_perm_keys(index, q))) == 1
        got = index._perm_candidates(q)
        assert np.array_equal(got, perm_candidates_by_matrix(index, q))
        assert np.array_equal(got, np.arange(7))


def test_perm_filter_fills_the_last_place_from_the_cut():
    # The budget is one more than the rows above a key that two rows or more share, so the
    # rows above the cut fill all places but one, and the first row at the cut takes it.
    rng = np.random.default_rng(23)
    _, matrix = clustered(rng)
    cfg = dict(num_pivots=16, prefix_len=4, rng_seed=4)
    keyed = _perm_index(matrix, 1, **cfg)
    for q in rng.standard_normal((6, 16)):
        keys = _perm_keys(keyed, q)
        values, counts = np.unique(keys, return_counts=True)
        cut = values[:-1][counts[:-1] >= 2][-1]
        budget = int(np.count_nonzero(keys > cut)) + 1
        index = _perm_index(matrix, budget, **cfg)
        got = index._perm_candidates(q)
        assert np.array_equal(got, perm_candidates_by_matrix(index, q))
        assert got[-1] == np.flatnonzero(keys == cut)[0]


@pytest.mark.parametrize("extra", [0, 1, 9])
def test_perm_filter_at_a_budget_of_every_row_orders_them_all(extra):
    rng = np.random.default_rng(24)
    _, matrix = clustered(rng, per=10)
    index = _perm_index(matrix, len(matrix) + extra, num_pivots=16, prefix_len=4)
    for q in np.concatenate([matrix[:2], rng.standard_normal((2, 16))]).astype(np.float64):
        got = index._perm_candidates(q)
        assert len(got) == len(matrix)
        assert np.array_equal(got, perm_candidates_by_matrix(index, q))


@pytest.mark.parametrize("budget", [1, 5, 6, 7, 20, 100])
def test_perm_filter_finds_a_cut_past_a_byte(budget):
    # At prefix 17 the key reaches 18^2 - 1 = 323, so it is two bytes wide. Row 0 as the query
    # gives its six copies that key, so up to a budget of 6 the cut's search passes 255.
    rng = np.random.default_rng(25)
    _, matrix = clustered(rng, per=20)
    matrix[1:6] = matrix[0]
    index = _perm_index(matrix, budget, num_pivots=20, prefix_len=17)
    stored = matrix[0].astype(np.float64)
    assert np.count_nonzero(_perm_keys(index, stored) == 18 * 18 - 1) >= 6  # row 0 and its copies
    for q in (stored, stored + rng.standard_normal(16) * 0.05):
        got = index._perm_candidates(q)
        assert np.array_equal(got, perm_candidates_by_matrix(index, q))


def test_prefix_columns_are_contiguous_when_built_and_when_loaded(tmp_path):
    # A column that strides by L entries (a transposed row-major matrix) made the first-column
    # scan take 20 times as long on desk.
    rng = np.random.default_rng(26)
    ids, matrix = clustered(rng)
    built = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4)
    path = str(tmp_path / "x.index")
    save_index(built, path)
    for index in (built, load_index(path, built.config)):
        assert index.prefixes.flags.c_contiguous


def test_perm_filter_scratch_is_about_ten_bytes_a_row():
    # Peak above the candidates returned: a byte key beside the bit words' common pivots, 8
    # bytes a row, and their popcount. 9.25 bytes a row when this test landed; 9.52 while a
    # stable argsort of every row took the key's head, and the returned view held that argsort.
    rng = np.random.default_rng(12)
    count = 20000
    index = make_index([f"v{i:05d}" for i in range(count)], rng.standard_normal((count, 64)), mode="perm-prefix",
                       num_pivots=64, prefix_len=8)
    queries = np.concatenate([index.vectors[:2], rng.standard_normal((6, 64))]).astype(np.float64)
    index._perm_candidates(queries[0])  # a first call, so that only the query's own scratch is traced
    for q in queries:
        got, held, extra = _traced(lambda: index._perm_candidates(q))
        assert extra + held - got.nbytes <= 9.3 * count


def test_perm_build_scratch_does_not_grow_with_the_row_count():
    # Prefixes go in blocks of about 4 MiB of float64 rows and pivot distances: the build's
    # peak above what it returns was 9.9 MiB at 20,000 and 9.7 MiB at 40,000 rows of dim 64
    # with 64 pivots when this test landed, where blocks sized by the pivot count alone took
    # 29.3 and 58.5 MiB. It reads 10.1 and 10.0 MiB since the build writes the prefix
    # columns directly: the same blocks, but no byte-column copy made after the peak and
    # counted among what the build returns. It reads 7.96 and 7.89 MiB since a block's
    # pivot distances are built in one buffer, not through two more of their size, and 6.99
    # and 6.92 MiB since each row's L + 1 nearest pivots are selected, not all P sorted.
    rng = np.random.default_rng(21)
    cfg = IndexConfig(dim=64, mode="perm-prefix", num_pivots=64, prefix_len=8)
    for count in (20000, 40000):
        ids, matrix = [f"v{i:05d}" for i in range(count)], rng.standard_normal((count, 64)).astype(np.float32)
        _, _, extra = _traced(lambda: build_index_from_arrays(ids, matrix, cfg))
        assert extra <= 7.3 * (1 << 20), count


def test_a_perm_index_holds_its_prefixes_once():
    # Above an exact build of the same rows: the pivots in float32 and in float64 with their
    # squared norms, and per row L prefix column entries and ceil(P / 64) bit words, with a
    # byte to spare. 16.1 bytes a row when this test landed; 48.1 while the index kept an
    # int32 prefix matrix beside byte columns copied from it. The float64 pivots and norms
    # (33,280 bytes here) are held since a query's prefix stopped converting them per call.
    rng = np.random.default_rng(27)
    count, num_pivots, prefix_len = 20000, 64, 8
    ids, matrix = [f"v{i:05d}" for i in range(count)], rng.standard_normal((count, 64)).astype(np.float32)
    cfg = IndexConfig(dim=64, mode="perm-prefix", num_pivots=num_pivots, prefix_len=prefix_len)
    _, exact, _ = _traced(lambda: build_index_from_arrays(ids, matrix, IndexConfig(dim=64)))
    index, perm, _ = _traced(lambda: build_index_from_arrays(ids, matrix, cfg))
    pivot_bytes = index.pivots.nbytes + index._pivots64.nbytes + index._pivot_norms.nbytes
    assert perm - exact <= (prefix_len + 8 * -(-num_pivots // 64) + 1) * count + pivot_bytes


def test_perm_query_scratch_is_a_few_bytes_a_row():
    # The filter holds a byte key beside one word-sized temporary at a time (the bit
    # words' common pivots): 10.4 bytes a row at 40,000 rows when this test landed, where
    # the filter over the assignment matrix took 92.2; 10.0 since the argsort of every row went.
    rng = np.random.default_rng(20)
    count = 40000
    index = make_index([f"v{i:05d}" for i in range(count)], rng.standard_normal((count, 16)), mode="perm-prefix",
                       num_pivots=64, prefix_len=8, candidate_budget=200)
    queries = rng.standard_normal((2, 16))
    index.knn(queries[0], 10)  # a first call, so that only the query's own scratch is traced
    _, _, extra = _traced(lambda: index.knn(queries[1], 10))
    assert extra <= 11 * count


def test_perm_query_at_a_large_budget_never_copies_its_candidates_whole():
    # Above what the call holds: the filter's 9.3 bytes a row, then, per candidate, its int64
    # row, float32 norm and float32 score, and one gathered block of rows (512 KiB, 13.1
    # bytes a row here). 21.4 bytes a row when this test landed; 136.5 while the re-rank copied
    # every candidate's row (128 of those bytes at budget 20,000 and dim 64) before its product.
    rng = np.random.default_rng(28)
    count = 40000
    index = make_index([f"v{i:05d}" for i in range(count)], rng.standard_normal((count, 64)), mode="perm-prefix",
                       num_pivots=64, prefix_len=8, candidate_budget=20000)
    queries = rng.standard_normal((3, 64))
    index.knn(queries[0], 10)  # a first call, so that only the query's own scratch is traced
    for q in queries[1:]:
        _, _, extra = _traced(lambda: index.knn(q, 10))
        assert extra <= 22 * count


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


@pytest.mark.parametrize("num_pivots, column_type", [(16, "uint8"), (300, "uint16")])
def test_save_load_round_trip_perm(tmp_path, num_pivots, column_type):
    rng = np.random.default_rng(14)
    ids, matrix = clustered(rng)  # 320 rows
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=num_pivots, prefix_len=4,
                       candidate_budget=60, rng_seed=9)
    path = str(tmp_path / "x.index")
    save_index(index, path)
    loaded = load_index(path, IndexConfig(dim=16, mode="perm-prefix", candidate_budget=60))
    assert loaded.config.num_pivots == num_pivots
    assert loaded.config.candidate_budget == 60
    assert np.array_equal(loaded.pivots, index.pivots)
    assert np.array_equal(loaded.prefixes, index.prefixes)
    assert loaded.pivots.dtype == np.float32 and loaded.prefixes.dtype == index.prefixes.dtype == column_type
    size = _layout(Path(path).read_bytes())[1][_SECTIONS.index("prefix columns")][1]
    assert size == len(ids) * 4 * np.dtype(column_type).itemsize
    queries = rng.standard_normal((20, 16))
    assert [loaded.knn(q, 7) for q in queries] == [index.knn(q, 7) for q in queries]
    assert loaded.knn_batch(queries, 7) == index.knn_batch(queries, 7)


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
    for version in (99, 2):  # 2: prefixes stored as an int32 (count, prefix_len) matrix
        raw[4] = version  # version field follows the 4-byte magic
        Path(path).write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=f"version {version} is not 3: run `neartag build` again") as exc:
            load_index(path, IndexConfig(dim=2))
        assert path in str(exc.value)


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


def _with_count(raw, count):
    header, table = _layout(raw)
    header[4] = count  # position of the vector count in _HEADER
    return _repack(raw, header, table)


@pytest.mark.parametrize("edit, mode, error, message", [
    (lambda raw: raw, "perm-prefix", EngineError, "index mode 'exact' does not match configured 'perm-prefix'"),
    (lambda raw: _with_count(raw, 0), "exact", FormatError, "index holds no vectors (count=0)"),
    (lambda raw: raw + b"\0", "exact", FormatError, "trailing data after the index payload (1 bytes)"),
], ids=["other-mode", "count-0", "trailing-byte"])
def test_load_refuses_a_header_that_does_not_fit(tmp_path, edit, mode, error, message):
    path = _patched(tmp_path, edit)
    with pytest.raises(error) as exc:
        load_index(path, IndexConfig(dim=2, mode=mode))
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("change", ["grown", "truncated"])
def test_load_refuses_a_file_that_changes_while_it_is_read(tmp_path, monkeypatch, change):
    # The size comes from fstat; the file then grows or shrinks before the read.
    cfg, path, raw = _small_index(tmp_path)
    fstat = os.fstat

    def fstat_then_change(fd):
        stat = fstat(fd)
        if change == "grown":
            path.write_bytes(raw + b"\0")
        else:
            os.truncate(path, len(raw) - 1)
        return stat

    monkeypatch.setattr(os, "fstat", fstat_then_change)
    with pytest.raises(FormatError, match="the file changed while it was read"):
        load_index(str(path), cfg)


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


@pytest.mark.parametrize("mode", ["exact", "perm-prefix"])
def test_load_refuses_a_negative_seed(tmp_path, mode):
    cfg, path, raw = _small_index(tmp_path, mode)
    header, table = _layout(raw)
    header[5] = -1  # position of the seed in _HEADER
    path.write_bytes(_repack(raw, header, table))
    with pytest.raises(FormatError) as exc:
        load_index(str(path), cfg)
    assert str(exc.value) == f"{path}: negative rng seed -1"


@pytest.mark.parametrize("value", [99, 2, 255])
def test_load_rejects_prefix_assignment_outside_the_pivots(tmp_path, value):
    cfg, path, raw = _small_index(tmp_path)
    offset, size, _ = _layout(raw)[1][_SECTIONS.index("prefix columns")]
    last = bytes([value])  # the last column's last row, a byte at 2 pivots
    path.write_bytes(_with_section(raw, "prefix columns", raw[offset : offset + size - 1] + last))
    with pytest.raises(FormatError, match="prefix assignment") as exc:
        load_index(str(path), cfg)
    assert str(path) in str(exc.value)


def test_load_rejects_a_prefix_that_repeats_a_pivot(tmp_path):
    # Each prefix is an argsort's head, so its pivots are distinct; a repeat would make
    # the bit-word count of shared pivots differ from a count over the prefix.
    cfg, path, raw = _small_index(tmp_path)
    offset, size, _ = _layout(raw)[1][_SECTIONS.index("prefix columns")]
    columns = np.frombuffer(raw[offset : offset + size], dtype=np.uint8).reshape(2, 3).copy()
    columns[:, 1] = columns[0, 1]  # row 1: its first pivot twice
    path.write_bytes(_with_section(raw, "prefix columns", columns.tobytes()))
    with pytest.raises(FormatError, match="prefix row 1 repeats a pivot") as exc:
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


@pytest.mark.parametrize("blob, record", [(b"a\xff", 1), (b"\xc3\xa9", 0)], ids=["bad-byte", "split-character"])
def test_load_names_the_first_id_that_is_not_utf8(tmp_path, blob, record):
    path = _patched(tmp_path, lambda raw: _with_section(raw, "ids", blob))
    with pytest.raises(FormatError, match=f"record {record} id is not valid UTF-8") as exc:
        load_index(path, IndexConfig(dim=2))
    assert path in str(exc.value)


def test_load_makes_no_matrix_sized_bool_array(tmp_path, monkeypatch):
    # The finite check goes a block of rows at a time; the rest is the id decode, 21.5 bytes
    # a row at 40,000 x 64 since it walks its offsets without a list of them (53.4 with
    # one), where a bool array of the matrix is 64.
    monkeypatch.setattr(fvec, "_BLOCK", 1 << 20)
    rng = np.random.default_rng(12)
    count, dim = 40000, 64
    path = str(tmp_path / "x.index")
    save_index(make_index([f"v{i:05d}" for i in range(count)], rng.standard_normal((count, dim))), path)
    _, _, extra = _traced(lambda: load_index(path, IndexConfig(dim=dim)))
    assert extra <= fvec._BLOCK // 4 + 22 * count


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
    # Pivots are drawn by input position, so ids given out of order get the
    # pivots they had before rows were stored in id order. Prefixes are
    # assigned over the id-ordered rows, so the last assertion checks that a
    # row's prefix does not depend on the block it was computed in (a BLAS
    # product may round differently in another block shape, which can only
    # reorder pivots tied to within that rounding).
    rng = np.random.default_rng(19)
    _, matrix = clustered(rng)
    ids = [f"v{i}" for i in range(len(matrix))]  # "v10" sorts before "v2"
    index = make_index(ids, matrix, mode="perm-prefix", num_pivots=16, prefix_len=4, rng_seed=3)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    pivots = matrix[np.random.default_rng(3).choice(len(ids), size=16, replace=False)]
    assert order != list(range(len(ids))) and index.ids == [ids[i] for i in order]
    assert np.array_equal(index.vectors, matrix[order]) and np.array_equal(index.pivots, pivots)
    piv = pivots.astype(np.float64)
    assert np.array_equal(index.prefixes,
                          index_module._assign_prefixes(matrix, piv, np.einsum("ij,ij->i", piv, piv), 4)[:, order])


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
