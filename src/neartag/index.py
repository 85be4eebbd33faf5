"""k-nearest-neighbor search over fixed-dimension feature vectors.

Two modes share one query interface and one exact top-k routine:

* ``exact``: full scan. A row's float32 score is ``|x|^2 - 2 x.q``,
  and every row within a proven slack of the k-th score (``_rank_slack``)
  is re-scored exactly in float64 by direct subtraction, so the answer
  equals a float64 linear scan. Queries go in chunks of up to 256
  (``_CHUNK``), and a chunk meets the store one row tile at a time: one
  float32 matrix product of ``_TILE // chunk`` rows (8,192 for a full
  chunk; the whole store for a lone query) into a scratch tile the call
  reuses, plus the row norms. A tile of n rows is read as one (chunk,
  16, w) view, w = ceil(n / 16): group i holds the 16 (``_GROUP``) rows
  i, i + w, ..., i + 15w, those at or past n NaN, which the group
  minimum (``fmin``) skips and no limit pools. A
  query keeps the k least group minima it has seen, and its running
  limit is fl32(k-th least minimum + slack). From each group whose
  minimum is at most that limit, it pools the rows that score at most
  the limit. That is exact: k group minima are the scores of k distinct
  rows, so the k-th least minimum is at least the k-th least score t,
  and it only falls from tile to tile, so every running limit is at
  least the final fl32(t + slack) and every row scoring at most that is
  pooled. After the last tile a query takes t from its pool and keeps
  the pooled rows at most fl32(t + slack); rounding to float32 is
  monotone, so those are exactly the rows scoring at most t + slack. A
  pool that outgrows a tile is trimmed the same way before the last
  tile, which is exact too: the k-th pooled score only falls towards t.
  Chunks shrink once k passes 512, so that a tile still holds k groups;
  with fewer, a query's limit stays infinite through the tile and it
  pools every row. A query whose slack or scores would not be finite in
  float32 keeps every row without ranking. Over more rows than a full
  chunk's tile (8,192), the search runs on up to usable CPUs // BLAS
  threads (``_search_ways``). A batch of more than one chunk is ranked on
  W = min(chunks, that) threads: W contiguous shares of the queries, each
  in chunks of ``_CHUNK // W`` queries (fewer for a large k) and tiles of
  ``_TILE // W`` scores, so the batch's scratch stays one tile's. A lone
  query cuts its tile's product into W = min(rows * dim // 2^21, that)
  contiguous row ranges, one a thread, so that each range holds at least
  2^21 float32 values (8 MiB) of rows; each writes straight into its own
  columns of the one score tile, and the group minima, the pool and the
  re-scoring then run on the calling thread as before. A range's product
  may round apart from the whole one, but the slack holds for any
  summation order, so the lists do not change. An unpinned BLAS threads
  each product itself, so W is then 1.
* ``perm-prefix``: an approximate filter. Each stored vector is
  described by the permutation prefix of its L nearest pivots; queries
  scan only the ``candidate_budget`` rows whose prefixes agree most
  with the query's own, then rank those exactly as above, scoring the
  candidates' rows where they lie: ``_GATHER`` float32 values (512 KiB)
  of rows are gathered at a time, each block's product written straight
  into the score tile, and no copy of all their rows is made. A row's
  agreement is the length of its exact positional match, ties broken
  by how many pivots the two prefixes share as sets, then by row. The
  index holds the prefixes as L contiguous columns of pivot indices
  (bytes, uint16 past 256 pivots), in memory as on file, and derives
  each row's pivot set from them as ceil(P / 64) uint64 bit words,
  word-major, P being the pivot count; about L + 8 ceil(P / 64) bytes
  a row. A query scans the first column, follows only the rows
  whose match is still running through the rest, and takes one
  ``bitwise_count`` of each word against its own prefix's, giving each
  row the key agree * (L + 1) + shared. It keeps the budget's head of
  that key in descending order, ties in row order: it finds the cut,
  the largest key at least the budget's rows reach, by a binary search
  of counts over the (L + 1)^2 key values, sorts only the rows above
  the cut, and fills the rest of the budget with the first rows at it.
  That is O(N L) byte, O(N ceil(P / 64)) word and O(N log L) count
  operations for N rows, and a sort of fewer rows than the budget.

Vectors are held only as float32, rows in id order, with their float32
squared norms and the largest norm computed once at build. Results
order by (distance, id ascending), which is (distance, row), so ties are
stable across runs and platforms. Indexes are immutable once built; any
number of threads may query one concurrently.

``build_index_from_arrays`` builds an index from ids and a (count, dim)
array, for instance the pair ``fvec.read_vectors`` returns.
``save_index`` writes one little-endian file: a header, a table of each
section's offset, size and ``zlib.crc32``, the crc of both, then the
sections at multiples of 64 bytes with zeros between (``_SECTIONS``; in
exact mode only the first four). ``load_index`` reads it with one
``readinto``, keeps views of that buffer and derives the bit words.
"""

from __future__ import annotations

import operator
import os
import re
import struct
import threading
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, EngineError, FormatError, check_count
from .fvec import _MAX_ID_BYTES, _all_finite, _decode_ids, _encode_ids, _replacing

MODE_EXACT = "exact"
MODE_PERM_PREFIX = "perm-prefix"

Neighbor = tuple[str, float]
NeighborList = list[Neighbor]

_INDEX_MAGIC = b"NTIX"
_INDEX_VERSION = 3
_HEADER = struct.Struct("<4sIIIQqIId")  # magic, version, mode, dim, count, seed, pivots, prefix, max norm
_SECTION = struct.Struct("<QQI")  # offset, size, zlib.crc32
_CRC = struct.Struct("<I")
_ALIGN = 64
_SECTIONS = ("id offsets", "ids", "vectors", "norms", "pivots", "prefix columns")

_U32 = 2.0 ** -24  # float32 unit roundoff
_U64 = 2.0 ** -53  # float64 unit roundoff
_TINY32 = 2.0 ** -149  # smallest float32 subnormal
_F32_SAFE_NORM = float(np.sqrt(np.finfo(np.float32).max, dtype=np.float64)) / 2.0

_CHUNK = 256  # queries ranked together
_TILE = 1 << 21  # float32 scores per tile: _TILE // (queries in the chunk) rows
_GROUP = 16  # rows per group in a tile
_GATHER = 1 << 17  # float32 values per gathered block of a row subset: 512 KiB, 512 rows at dim 256
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")  # the first set wins


@dataclass(frozen=True)
class IndexConfig:
    """Build- and query-time parameters for a VectorIndex."""

    dim: int
    mode: str = MODE_EXACT
    num_pivots: int = 64
    prefix_len: int = 8
    candidate_budget: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("dim", "num_pivots", "prefix_len", "candidate_budget"):
            check_count(name, getattr(self, name))
        check_count("rng_seed", self.rng_seed, low=0)
        if self.mode not in (MODE_EXACT, MODE_PERM_PREFIX):
            raise ValueError(f"unknown index mode {self.mode!r}")
        if self.prefix_len > self.num_pivots:
            raise ValueError(f"prefix_len must be in [1, num_pivots={self.num_pivots}], got {self.prefix_len}")


def _rank_slack(dim: int, max_norm: float, q_norms: np.ndarray) -> np.ndarray:
    """Per query, how far above the k-th float32 score a needed row can sit.

    A row's exact score s = |x|^2 - 2 x.q is computed as fl(n + g), with
    n = fl32(|x|^2), b = -2 fl32(q) and g = fl32(x.b). With u = 2^-24 and
    gamma_n = nu/(1 - nu), for any summation order: |n - |x|^2| <= gamma_D
    |x|^2; rounding q moves 2 x.q by at most 2u|x||q|; |g - x.b| <= gamma_D
    sum|x_j b_j| <= 2 gamma_D (1 + u)|x||q|; the add rounds by u(|n| + |g|).
    Summed, the error is at most E = gamma_{D+3} (M^2 + 2M|q|) for every
    row, M being the largest row norm. Underflow adds at most
    A = (D + 1)(1 + M) 2^-149, and the float64 re-scoring of sum (x - q)^2
    is off by at most gamma64_{D+2} (M + |q|)^2. Rows rank by the float64
    root of that, and two re-scored values with one root differ by at most
    4 u64 (1 + O(u64)) (M + |q|)^2, so e = gamma64_{D+5} (M + |q|)^2 covers
    both. With t the k-th smallest float32 score, k rows score at most t,
    so the k-th smallest exact score is at most t + E + A; a row of the
    re-scored top k (ties included) scores exactly at most 2e above that,
    so in float32 at most t + 2(E + A + e). The bound assumes no float32
    overflow: once M + 2|q| reaches half the root of the float32 maximum,
    every row is kept.
    """
    m, nu32, nu64 = max_norm, (dim + 3) * _U32, (dim + 5) * _U64
    err32 = nu32 / (1.0 - nu32) * (m * m + 2.0 * m * q_norms)
    err64 = nu64 / (1.0 - nu64) * (m + q_norms) ** 2
    slack = 2.0 * (err32 + (dim + 1) * (1.0 + m) * _TINY32 + err64)
    return np.where((m + 2.0 * q_norms < _F32_SAFE_NORM) & (nu32 < 0.5), slack, np.inf)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or ``os.cpu_count()`` where the
    platform has no ``sched_getaffinity``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _search_ways() -> int:
    """The threads an exact batch may rank on: the usable CPUs over the threads BLAS runs a
    product on. BLAS reads its count as C's ``atoi`` reads the first of ``_BLAS_THREAD_VARS``
    that gives a positive number, capped at the usable CPUs; with none, it takes them all."""
    cpus = _usable_cpus()
    for var in _BLAS_THREAD_VARS:
        lead = re.match(r"\s*[+-]?\d+", os.environ.get(var, ""))
        if lead and int(lead.group()) > 0:
            return cpus // min(int(lead.group()), cpus)
    return 1


def _threads(work, ways: int) -> None:
    """``work(i)`` for each i below ``ways``: 0 on this thread, each other on a thread started
    and joined here. A call's exception is raised here once every thread has ended."""
    errors: list[BaseException] = []

    def run(i: int) -> None:
        try:
            work(i)
        except BaseException as exc:  # raised on the calling thread
            errors.append(exc)

    threads = []
    try:
        for i in range(1, ways):
            thread = threading.Thread(target=run, args=(i,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _cut_product(neg2q: np.ndarray, rows: np.ndarray, out: np.ndarray, cuts: int) -> None:
    """``out = neg2q @ rows.T`` on ``cuts`` threads (``_threads``), each taking one contiguous
    range of the rows and writing its product straight into its own columns of ``out``."""
    ends = [len(rows) * i // cuts for i in range(cuts + 1)]

    def product(i: int) -> None:
        lo, hi = ends[i], ends[i + 1]
        np.matmul(neg2q, rows[lo:hi].T, out=out[:, lo:hi])

    _threads(product, cuts)


def _candidates(block: np.ndarray, base: np.ndarray, norms: np.ndarray, kk: int, slack: np.ndarray,
                tile: int, subset: np.ndarray | None = None, cuts: int = 1) -> list[np.ndarray]:
    """Per query of ``block``, in pool order, the rows of ``base`` (the
    positions in ``subset``, when given) whose float32 score is at most
    fl32(t + slack), t being the query's kk-th smallest score; every row
    for a query whose slack is infinite. ``norms`` holds the squared norms
    of those rows, in that order.

    The rows go by in tiles of about ``tile`` scores, each read as the
    (nq, _GROUP, w) view of the module docstring with a short tile padded
    by NaN, pooling the rows that can still make the cut; a pool that
    outgrows a tile is trimmed the way the last step trims it. A tile of ``base`` is one product over
    its contiguous rows, cut into ``cuts`` row ranges on as many threads (``_cut_product``) when
    ``cuts`` > 1. A tile of ``subset`` is gathered ``_GATHER``
    values of rows at a time, each block's product written straight into
    its columns of the tile, so the subset's rows are never copied whole.
    Every buffer belongs to this call, so threads may share the index.
    """
    nq, count = len(block), len(norms)
    live = np.isfinite(slack)
    if not live.any():
        return [np.arange(count)] * nq
    span = min(count, max(1, tile // nq))  # rows per tile
    width = -(-span // _GROUP)  # groups per tile
    neg2q = (block * -2.0).astype(np.float32)
    scores = np.empty((nq, _GROUP * width), dtype=np.float32)
    best = np.full((nq, kk + width), np.inf, dtype=np.float32)  # kk least minima so far, then a tile's
    cap = np.where(live, np.inf, np.nan).astype(np.float32)  # NaN: pool nothing
    pool, pooled, budget = [], 0, tile
    step = max(1, _GATHER // base.shape[1])  # subset rows gathered at a time
    for t0 in range(0, count, span):
        n = min(span, count - t0)
        w = -(-n // _GROUP)
        if subset is None and cuts == 1:
            np.matmul(neg2q, base[t0 : t0 + n].T, out=scores[:, :n])
        elif subset is None:
            _cut_product(neg2q, base[t0 : t0 + n], scores[:, :n], cuts)
        else:
            for b in range(0, n, step):
                e = min(b + step, n)
                np.matmul(neg2q, base[subset[t0 + b : t0 + e]].T, out=scores[:, b:e])
        scores[:, :n] += norms[t0 : t0 + n]
        scores[:, n : _GROUP * w] = np.nan  # past the tile's rows: fmin skips them, <= pools none
        groups = scores[:, : _GROUP * w].reshape(nq, _GROUP, w)  # groups[q, j, i] is row i + j*w
        m = np.fmin.reduce(groups, axis=1)
        best[:, kk : kk + w] = m
        best[:, : kk + w].partition(kk - 1, axis=1)
        limit = np.minimum((best[:, kk - 1] + slack).astype(np.float32), cap)
        # The groups under each query's limit; int32 suffices, as a tile holds at most _TILE scores.
        qi, gi = np.divmod(np.flatnonzero(m <= limit[:, None]).astype(np.int32), np.int32(w))
        got = groups[qi, :, gi]
        keep = np.flatnonzero(got <= limit[qi][:, None])
        pair, rows = np.divmod(keep, _GROUP)  # group gi's row j is gi + j*w, in place to keep the peak low
        rows *= w
        rows += gi[pair]
        rows += t0
        pool.append((qi[pair], rows, got.ravel()[keep]))
        pooled += len(pool[-1][0])
        if pooled > budget and t0 + n >= kk:  # a trim needs k rows seen
            qs, rs, ss, lim = _trim(pool, nq, kk, slack)
            pool, pooled, cap = [(qs, rs, ss)], len(qs), np.minimum(cap, lim)
            budget = max(tile, 2 * pooled)  # k rows a query can fill a tile: trim again at twice that
    qs, rs, _, _ = _trim(pool, nq, kk, slack)
    ends = np.searchsorted(qs, np.arange(nq + 1))
    return [rs[ends[r] : ends[r + 1]] if live[r] else np.arange(count) for r in range(nq)]


def _trim(pool: list[tuple], nq: int, kk: int, slack: np.ndarray) -> tuple:
    """Merge pooled (query, row, score) triples, grouped by query, keeping
    those at most fl32(t + slack), t being the query's kk-th pooled score;
    the limits themselves come last."""
    qs, rs, ss = (np.concatenate(part) for part in zip(*pool))
    order = np.argsort(qs, kind="stable")
    qs, rs, ss = qs[order], rs[order], ss[order]
    ends = np.searchsorted(qs, np.arange(nq + 1))
    limit = np.full(nq, np.nan, dtype=np.float32)
    for r in np.flatnonzero(np.isfinite(slack)):
        # Rounding is monotone: a float32 score is at most the float64
        # limit exactly when it is at most its rounding.
        limit[r] = np.float32(np.partition(ss[ends[r] : ends[r + 1]], kk - 1)[kk - 1] + slack[r])
    keep = ss <= limit[qs]
    return qs[keep], rs[keep], ss[keep], limit


class VectorIndex:
    """Immutable id-to-vector collection answering kNN queries."""

    def __init__(self, ids: list[str], vectors: np.ndarray, config: IndexConfig, norms: np.ndarray,
                 max_norm: float, pivots: np.ndarray | None = None, prefixes: np.ndarray | None = None):
        self.ids = ids  # strictly increasing
        self.vectors = vectors  # (count, dim) float32, row i holding ids[i]
        self.config = config
        self.norms = norms  # float32 squared row norms, summed in float64
        self.max_norm = max_norm  # the largest row norm, in float64
        self.pivots = pivots  # (num_pivots, dim) float32 in perm-prefix mode
        self.prefixes = prefixes  # (prefix_len, count) C-order columns of pivot indices, nearest first
        if pivots is not None:
            # Prefixes rank pivots in float64: the pivots and their squared norms, made once for
            # the stored rows at build, which passes no prefixes, and for every query.
            self._pivots64 = pivots.astype(np.float64)
            self._pivot_norms = np.einsum("ij,ij->i", self._pivots64, self._pivots64)
            if prefixes is None:
                self.prefixes = _assign_prefixes(vectors, self._pivots64, self._pivot_norms, config.prefix_len)
            # Bit p % 64 of word p // 64 is set when pivot p is in the row's prefix.
            self._words = np.zeros((-(-config.num_pivots // 64), len(ids)), dtype=np.uint64)
            for column in self.prefixes:
                bit, word_of = np.left_shift(np.uint64(1), column & 63, dtype=np.uint64), column >> 6
                for i, words in enumerate(self._words):
                    np.bitwise_or(words, bit, out=words, where=word_of == i)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.config.dim

    # -- ranking ----------------------------------------------------------

    def _topk(self, queries: np.ndarray, k: int, subset: np.ndarray | None = None,
              ways: int = 1, cuts: int = 1) -> list[NeighborList]:
        """Exact top-k by (distance, id) per query, over all rows or a row subset.

        Queries go in chunks of up to ``_CHUNK // ways``, fewer for a large
        k, and tiles of ``_TILE // ways`` scores (see the module docstring):
        ``ways`` > 1 ranks one share of a batch split that many ways, and
        ``cuts`` > 1 cuts each tile's product of all rows into that many row
        ranges, one a thread, for a lone query. Each
        query re-scores the rows ``_candidates`` finds for it in float64,
        ordered by (distance, row), which is (distance, id). The distance
        is the root of d², so rows whose d² differ by an ulp can tie. A
        subset's rows are scored block by block where they lie, never
        copied whole; only their float32 norms are gathered, 4 bytes a row.
        """
        norms = self.norms if subset is None else self.norms[subset]
        kk = min(k, len(norms))
        out: list[NeighborList] = []
        tile = max(1, _TILE // ways)
        step = min(max(1, _CHUNK // ways), max(1, tile // (_GROUP * kk)))  # a tile of k groups or more
        for start in range(0, len(queries), step):
            block = queries[start : start + step]
            with np.errstate(over="ignore", invalid="ignore"):
                slack = _rank_slack(self.config.dim, self.max_norm, np.sqrt(np.einsum("ij,ij->i", block, block)))
                pools = _candidates(block, self.vectors, norms, kk, slack, tile, subset, cuts)
            for q, cand in zip(block, pools):
                cand = cand if subset is None else subset[cand]
                diff = self.vectors[cand] - q
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                order = np.lexsort((cand, dist))[:kk]
                out.append(list(zip(map(self.ids.__getitem__, cand[order].tolist()), dist[order].tolist())))
        return out

    def _ways(self, count: int, k: int) -> int:
        """The threads an exact search of ``count`` queries at ``k`` ranks on, at most
        ``_search_ways()``: for a batch, one a chunk; for a lone query, whose tile's product is
        cut by rows, one a range of at least ``_TILE`` float32 values (8 MiB), as a thread costs
        about 0.1 ms to start and join and a product of 20,000 x 128 took 0.46 ms on one thread
        and 0.50 on two. 1 in perm-prefix mode, whose queries rank gathered candidate blocks, and
        over a store of at most a full chunk's tile of rows (8,192), where each query's
        re-scoring, which holds the GIL, outweighs the products: two threads were up to 1.4x
        slower there."""
        rows = len(self.ids)
        if self.config.mode != MODE_EXACT or rows <= _TILE // _CHUNK:
            return 1
        if count == 1:
            return max(1, min(rows * self.config.dim // _TILE, _search_ways()))
        chunk = min(_CHUNK, max(1, _TILE // (_GROUP * min(k, rows))))  # ``_topk``'s at one way
        return 1 if count <= chunk else min(-(-count // chunk), _search_ways())

    def _split(self, queries: np.ndarray, k: int, ways: int) -> list[NeighborList]:
        """``_topk`` of ``ways`` contiguous shares of a batch on as many threads (``_threads``),
        the lists in query order."""
        ends = [len(queries) * i // ways for i in range(ways + 1)]
        parts: dict[int, list[NeighborList]] = {}

        def rank(i: int) -> None:
            parts[i] = self._topk(queries[ends[i] : ends[i + 1]], k, None, ways)

        _threads(rank, ways)
        return [hits for i in range(ways) for hits in parts[i]]

    def _perm_candidates(self, q: np.ndarray) -> np.ndarray:
        radix = self.config.prefix_len + 1
        q_prefix = _assign_prefixes(q[None, :], self._pivots64, self._pivot_norms,
                                    self.config.prefix_len)[:, 0].tolist()
        # Primary key: length of the exact positional prefix match. That
        # alone is coarse (deep positions rarely match exactly), so break
        # ties by how many pivots the prefixes share as sets, which keeps
        # near neighbors whose permutations are slightly shuffled ahead of
        # unrelated vectors. Ties stay in row order, which is id order, so a
        # larger budget always extends the candidate list. One key ranks by
        # both: agree * (L + 1) + shared, at most (L + 1)^2 - 1.
        top = radix * radix - 1
        key = np.zeros(len(self.ids), dtype=np.min_scalar_type(top))
        q_words = np.zeros(len(self._words), dtype=np.uint64)
        for p in q_prefix:
            q_words[p >> 6] |= np.uint64(1) << np.uint64(p & 63)
        for words, q_word in zip(self._words, q_words):
            key += np.bitwise_count(words & q_word)
        run = None  # the rows whose prefix matches the query's so far
        for column, p in zip(self.prefixes, q_prefix):
            run = np.flatnonzero(column == p) if run is None else run[column[run] == p]
            key[run] += radix
        # The cut is the largest key that at least ``budget`` rows reach, found
        # by counting; the rows above it, fewer than the budget, are sorted by
        # key descending, then the first rows at it fill the budget in row
        # order. That is the head of a stable argsort of the whole key.
        budget = min(self.config.candidate_budget, len(self.ids))
        cut, high = 0, top
        while cut < high:
            mid = (cut + high + 1) // 2
            if np.count_nonzero(key >= mid) >= budget:
                cut = mid
            else:
                high = mid - 1
        above = np.flatnonzero(key > cut)
        above = above[np.argsort(top - key[above], kind="stable")]
        return np.concatenate((above, np.flatnonzero(key == cut)[: budget - len(above)]))

    def _search(self, queries: np.ndarray, k) -> list[NeighborList]:
        """Validate (num_queries, dim) queries and k, then run the top-k core."""
        if queries.shape[1] != self.config.dim:
            raise DimensionMismatch(f"vector lengths differ: {queries.shape[1]} vs {self.config.dim}")
        if not np.isfinite(queries).all():
            raise ValueError("query vector must be finite")
        check_count("k", k)
        if self.config.mode == MODE_PERM_PREFIX:
            if k > self.config.candidate_budget:
                raise ValueError(f"k={k} exceeds candidate_budget={self.config.candidate_budget}")
            return [self._topk(q[None, :], int(k), self._perm_candidates(q))[0] for q in queries]
        # ``_ways`` is 1 over a store of at most a full chunk's tile of rows: skip the call there.
        ways = self._ways(len(queries), k) if len(self.ids) > _TILE // _CHUNK else 1
        if ways == 1 or len(queries) == 1:
            return self._topk(queries, int(k), cuts=ways)
        return self._split(queries, int(k), ways)

    def knn(self, query, k: int) -> NeighborList:
        """The k nearest stored vectors, closest first, ties by ascending id."""
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1:
            raise ValueError("query must be a 1-d vector")
        return self._search(q[None, :], k)[0]

    def knn_batch(self, queries: np.ndarray, k: int) -> list[NeighborList]:
        """knn for many queries at once; identical per-query results.

        In exact mode up to 256 queries share each tile's matrix product,
        where a lone ``knn`` call takes a product per query, cut by rows over
        the CPUs BLAS leaves idle, and a batch of more than one chunk is
        split over those CPUs by queries (the module docstring's W), with
        the same lists either way. In perm-prefix
        mode each query is filtered and ranked on its own, as ``knn`` does,
        its candidates scored block by block and never copied whole.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("knn_batch expects a (num_queries, dim) array")
        if len(queries) == 1:  # a lone query's search is one ``knn`` call, as perfbench times it
            return [self.knn(queries[0], k)]
        return self._search(queries, k)


def _first_unordered(ids: list[str]) -> int:
    """The first row whose id is not above the one before it; 0 if ids strictly increase."""
    rising = list(map(operator.lt, ids, ids[1:]))
    return 0 if all(rising) else rising.index(False) + 1


def build_index_from_arrays(ids: list[str], matrix: np.ndarray, config: IndexConfig) -> VectorIndex:
    """Build an index from a (count, dim) array, storing its rows in id order.

    Rows in any other order cost a sort of the ids and a sorted copy of ``matrix`` (count x dim
    float32) beside the caller's. Perm-prefix pivots are drawn by input position; prefixes are
    assigned over the id-ordered rows."""
    if len(ids) == 0:
        raise ValueError("cannot build an index from zero vectors")
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError(f"expected ({len(ids)}, dim) vector array, got shape {matrix.shape}")
    if matrix.shape[1] != config.dim:
        raise DimensionMismatch(f"vector lengths differ: {matrix.shape[1]} vs {config.dim}")
    # A NaN or inf component makes its row's norm non-finite; a finite float32 squared cannot
    # overflow a float64 sum.
    norms = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
    if not np.isfinite(norms).all():
        raise ValueError("feature vectors must be finite (found nan or inf)")
    ids, rows = list(ids), matrix
    if _first_unordered(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = [ids[i] for i in order]
        if row := _first_unordered(ids):  # sorted, so a repeated id
            raise ValueError(f"duplicate image id {ids[row]!r}")
        rows, norms = matrix[order], norms[order]
    if not ids[0]:  # the least id
        raise ValueError("image id must be non-empty")

    pivots = None
    if config.mode == MODE_PERM_PREFIX:
        count = len(ids)
        if config.num_pivots > count:
            raise ValueError(f"num_pivots={config.num_pivots} exceeds vector count {count}")
        rng = np.random.default_rng(config.rng_seed)
        pivot_rows = rng.choice(count, size=config.num_pivots, replace=False)
        pivots = np.ascontiguousarray(matrix[pivot_rows])  # by input position
    with np.errstate(over="ignore"):
        return VectorIndex(ids, rows, config, norms.astype(np.float32), float(np.sqrt(norms.max())), pivots)


def _assign_prefixes(matrix: np.ndarray, piv: np.ndarray, pivot_norms: np.ndarray, prefix_len: int) -> np.ndarray:
    """Each row's prefix_len nearest pivot indices, nearest first, by |x|^2 - 2 x.p + |p|^2 in
    float64, ties to the lower pivot, as (prefix_len, rows) columns of the narrowest unsigned type
    (bytes up to 256 pivots): the one rule that ranks pivots, for the stored rows at build and for
    a query as a batch of one row. ``piv`` are the pivots in float64 and ``pivot_norms`` their
    squared norms, as a perm index holds them.

    A row's L + 1 nearest pivots are selected with ``argpartition`` and ordered by (distance,
    pivot): the first L of them are its prefix unless its L-th and (L + 1)-th distances are equal,
    when a tied pivot left out could be a lower one, so such a row takes the first L of a stable
    argsort of all P distances instead. At L = P every pivot is selected. A block holds rows x
    (dim + pivots) float64, the rows and their pivot distances: about 4 MiB."""
    count, take = matrix.shape[0], min(prefix_len + 1, len(piv))
    out = np.empty((prefix_len, count), dtype=np.min_scalar_type(len(piv) - 1))
    chunk = max(1, (1 << 22) // (8 * (piv.shape[1] + piv.shape[0])))
    for start in range(0, count, chunk):
        block = matrix[start : start + chunk].astype(np.float64)
        d2 = block @ piv.T  # |x|^2 - 2 x.p + |p|^2 in place, summed in that order; -2 scales exactly
        d2 *= -2.0
        d2 += np.einsum("ij,ij->i", block, block)[:, None]
        d2 += pivot_norms
        rows = np.arange(len(block))[:, None]
        near = np.argpartition(d2, take - 1, axis=1)[:, :take]
        near.sort(axis=1)  # by pivot, so that the stable sort by distance breaks ties to the lower
        dist = d2[rows, near]
        order = np.argsort(dist, axis=1, kind="stable")
        near = near[rows, order]
        if take > prefix_len:
            cut = dist[rows, order[:, prefix_len - 1 :]]  # the L-th and (L + 1)-th distances
            tied = np.flatnonzero(cut[:, 0] == cut[:, 1])
            near[tied] = np.argsort(d2[tied], axis=1, kind="stable")[:, :take]
        out[:, start : start + len(block)] = near[:, :prefix_len].T
    return out


_MODE_CODES = {MODE_EXACT: 0, MODE_PERM_PREFIX: 1}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def _aligned(pos: int) -> int:
    return -(-pos // _ALIGN) * _ALIGN


def save_index(index: VectorIndex, path: str) -> None:
    """Persist an index, norms, pivots and prefix columns included, so that a load
    derives only the bit words; ids a ``.fvec`` record cannot hold are refused."""
    cfg = index.config
    perm = cfg.mode == MODE_PERM_PREFIX
    offsets, blob = _encode_ids(index.ids)
    if (longest := np.diff(offsets).max()) > _MAX_ID_BYTES or offsets[-1] >= 1 << 32:
        raise ValueError(f"image id too long ({longest} bytes, limit {_MAX_ID_BYTES}), or ids over 4 GiB")
    arrays = [(offsets, "<u4"), (blob, np.uint8), (index.vectors, "<f4"), (index.norms, "<f4")]
    if perm:
        arrays += [(index.pivots, "<f4"), (index.prefixes, index.prefixes.dtype.newbyteorder("<"))]
    sections = [np.ascontiguousarray(a, dtype=t).reshape(-1).view(np.uint8) for a, t in arrays]
    starts = [_aligned(_HEADER.size + len(sections) * _SECTION.size + _CRC.size)]
    for data in sections:
        starts.append(_aligned(starts[-1] + data.size))
    head = _HEADER.pack(_INDEX_MAGIC, _INDEX_VERSION, _MODE_CODES[cfg.mode], cfg.dim, len(index.ids),
                        cfg.rng_seed, cfg.num_pivots if perm else 0, cfg.prefix_len if perm else 0,
                        index.max_norm)
    head += b"".join(_SECTION.pack(at, data.size, zlib.crc32(data)) for at, data in zip(starts, sections))
    head += _CRC.pack(zlib.crc32(head))
    with _replacing(path) as fh:
        fh.write(head)
        for at, data in zip(starts, sections):
            fh.write(bytes(at - fh.tell()))
            fh.write(data)


def load_index(path: str, config: IndexConfig, dim_source: str = "configured") -> VectorIndex:
    """Load an index saved by save_index, whose dim and mode must match ``config``.

    The candidate budget, a query-time setting, comes from ``config``. A
    dimensionality refusal names ``config.dim`` after ``dim_source``, the
    words saying where it came from ("the queries'", say).
    Every fault in the file, an older version included, raises FormatError
    naming ``path``; no size in it is used before it is checked.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size + _ALIGN, dtype=np.uint8)
        buf = buf[-buf.ctypes.data % _ALIGN :][:size]  # 64-byte aligned, as the sections are
        if fh.readinto(buf) != size or fh.read(1):
            raise FormatError("the file changed while it was read", path=path)
    if size < _HEADER.size:  # a version-1 file is never shorter
        raise FormatError("truncated index header", path=path)
    magic, version, mode_code, dim, count, seed, num_pivots, prefix_len, max_norm = _HEADER.unpack_from(buf)
    if magic != _INDEX_MAGIC:
        raise FormatError(f"not an index file (magic {magic!r})", path=path)
    if version != _INDEX_VERSION:
        raise FormatError(f"index version {version} is not {_INDEX_VERSION}: run `neartag build` again", path=path)
    if mode_code not in _CODE_MODES:
        raise FormatError(f"unknown index mode code {mode_code}", path=path)
    mode = _CODE_MODES[mode_code]
    perm = mode == MODE_PERM_PREFIX
    names = _SECTIONS if perm else _SECTIONS[:4]
    end = _HEADER.size + len(names) * _SECTION.size
    if size < end + _CRC.size:
        raise FormatError("truncated index header", path=path)
    if zlib.crc32(buf[:end]) != _CRC.unpack_from(buf, end)[0]:
        raise FormatError("index header checksum mismatch", path=path)
    if dim != config.dim:
        raise EngineError(f"{path}: index dimensionality {dim} does not match {dim_source} {config.dim}")
    if mode != config.mode:
        raise EngineError(f"{path}: index mode {mode!r} does not match configured {config.mode!r}")
    if count < 1:
        raise FormatError(f"index holds no vectors (count={count})", path=path)
    if seed < 0:
        raise FormatError(f"negative rng seed {seed}", path=path)
    width = np.min_scalar_type(num_pivots - 1).itemsize  # bytes a pivot index, as the build stores them
    want = (4 * (count + 1), None, 4 * count * dim, 4 * count, 4 * num_pivots * dim, width * count * prefix_len)
    end += _CRC.size
    if (need := end + sum(filter(None, want[: len(names)]))) > size:
        raise FormatError(f"truncated file: the header's counts need {need} bytes, it has {size}", path=path)
    if perm and not 1 <= prefix_len <= num_pivots:
        raise FormatError(f"prefix length {prefix_len} outside [1, num_pivots={num_pivots}]", path=path)
    sections = []
    for i, name in enumerate(names):
        offset, length, crc = _SECTION.unpack_from(buf, _HEADER.size + i * _SECTION.size)
        if (offset, length) != (_aligned(end), want[i] or length):
            raise FormatError(f"{name} section: {length} bytes at {offset}, expected {want[i] or length} "
                              f"at {_aligned(end)}", path=path)
        if offset + length > size:
            raise FormatError(f"truncated file: the {name} section ends at {offset + length}, past {size}", path=path)
        if buf[end:offset].any():
            raise FormatError(f"nonzero padding before the {name} section", path=path)
        sections.append(buf[offset : offset + length])
        if zlib.crc32(sections[-1]) != crc:
            raise FormatError(f"{name} section checksum mismatch", path=path)
        end = offset + length
    if size != end:
        raise FormatError(f"trailing data after the index payload ({size - end} bytes)", path=path)

    ids = _decode_ids(sections[0].view("<u4"), sections[1], path)
    if row := _first_unordered(ids):
        raise FormatError(f"ids must strictly increase: {ids[row]!r} follows {ids[row - 1]!r}", path=path)
    vectors = sections[2].view("<f4").reshape(count, dim)
    if not _all_finite(vectors):
        raise FormatError("feature vectors must be finite (found nan or inf)", path=path)
    pivots = prefixes = None
    if perm:
        pivots = sections[4].view("<f4").reshape(num_pivots, dim)
        prefixes = sections[5].view(f"<u{width}").reshape(prefix_len, count)
        if prefixes.max() >= num_pivots:
            raise FormatError(f"prefix assignment outside [0, num_pivots={num_pivots})", path=path)
    norms = sections[3].view("<f4")
    # A stored square is at most a relative 2^-24 above its float64 sum (inf past the float32
    # maximum, whose root is 2 * _F32_SAFE_NORM): the largest norm is at least (1 - 2^-24) * top.
    top = min(np.sqrt(norms.max(), dtype=np.float64), 2 * _F32_SAFE_NORM)
    if not (norms.min() >= 0 and max_norm >= top * (1 - _U32)):
        raise FormatError(f"row norms negative or nan, or the largest row norm {max_norm} below them", path=path)
    loaded = replace(config, rng_seed=seed, **dict(num_pivots=num_pivots, prefix_len=prefix_len) if perm else {})
    index = VectorIndex(ids, vectors, loaded, norms, max_norm, pivots, prefixes)
    # A prefix holds distinct pivots, so its bit words hold prefix_len set bits.
    if perm and len(row := np.flatnonzero(np.bitwise_count(index._words).sum(axis=0) != prefix_len)):
        raise FormatError(f"prefix row {row[0]} repeats a pivot", path=path)
    return index
