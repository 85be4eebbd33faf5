"""k-nearest-neighbor search over fixed-dimension feature vectors.

Two modes share one query interface and one exact top-k routine:

* ``exact``: full scan. A row's float32 score is ``|x|^2 - 2 x.q``,
  and every row within a proven slack of the k-th score (``_rank_slack``)
  is re-scored exactly in float64 by direct subtraction, so the answer
  equals a float64 linear scan. Queries go in chunks of up to 256
  (``_CHUNK``), and a chunk meets the store one row tile at a time: one
  float32 matrix product of ``_TILE // chunk`` rows (8,192 for a full
  chunk; the whole store for a lone query) into a scratch tile the call
  reuses, plus the row norms. Each tile splits into groups of 16
  (``_GROUP``) rows taken at a stride of a sixteenth of the tile. A
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
  float32, and every query once k reaches the row count, keeps every row
  without ranking.
* ``perm-prefix``: an approximate filter. Each stored vector is
  described by the permutation prefix of its nearest pivots; queries
  scan only the ``candidate_budget`` rows whose prefixes agree most
  with the query's own, then rank those exactly as above.

Vectors are held only as float32. Results order by (distance, id
ascending) so ties are stable across runs and platforms. Indexes are
immutable once built; any number of threads may query one concurrently.

``build_index_from_arrays`` builds an index from ids and a (count, dim)
array, for instance the pair ``fvec.read_vectors`` returns.
``save_index`` writes a binary header, the vectors as ``.fvec`` records
(``fvec.py`` holds the one record codec), then, in perm-prefix mode,
the pivots and prefix assignments; ``load_index`` reads them back.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionMismatch, EngineError, FormatError
from .fvec import _bytes_left, _read_records, _write_records

MODE_EXACT = "exact"
MODE_PERM_PREFIX = "perm-prefix"

Neighbor = tuple[str, float]
NeighborList = list[Neighbor]

_INDEX_MAGIC = b"NTIX"
_INDEX_VERSION = 1
_HEADER = struct.Struct("<4sIBIqIIIQ")  # magic, version, mode, dim, seed, pivots, prefix, budget, count

_U32 = 2.0 ** -24  # float32 unit roundoff
_U64 = 2.0 ** -53  # float64 unit roundoff
_TINY32 = 2.0 ** -149  # smallest float32 subnormal
_F32_SAFE_NORM = float(np.sqrt(np.finfo(np.float32).max, dtype=np.float64)) / 2.0

_CHUNK = 256  # queries ranked together
_TILE = 1 << 21  # float32 scores per tile: _TILE // (queries in the chunk) rows
_GROUP = 16  # rows per group in a tile


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
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.mode not in (MODE_EXACT, MODE_PERM_PREFIX):
            raise ValueError(f"unknown index mode {self.mode!r}")
        if self.mode == MODE_PERM_PREFIX:
            if self.num_pivots < 1:
                raise ValueError(f"num_pivots must be positive, got {self.num_pivots}")
            if not 1 <= self.prefix_len <= self.num_pivots:
                raise ValueError(
                    f"prefix_len must be in [1, num_pivots={self.num_pivots}], got {self.prefix_len}"
                )
            if self.candidate_budget < 1:
                raise ValueError(f"candidate_budget must be positive, got {self.candidate_budget}")


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
    is off by at most e = gamma64_{D+2} (M + |q|)^2. With t the k-th
    smallest float32 score, k rows score at most t, so the k-th smallest
    exact score is at most t + E + A; a row of the re-scored top k (ties
    included) scores exactly at most 2e above that, so in float32 at most
    t + 2(E + A + e). The bound assumes no float32 overflow: once M + 2|q|
    reaches half the root of the float32 maximum, every row is kept.
    """
    m, nu32, nu64 = max_norm, (dim + 3) * _U32, (dim + 2) * _U64
    err32 = nu32 / (1.0 - nu32) * (m * m + 2.0 * m * q_norms)
    err64 = nu64 / (1.0 - nu64) * (m + q_norms) ** 2
    slack = 2.0 * (err32 + (dim + 1) * (1.0 + m) * _TINY32 + err64)
    return np.where((m + 2.0 * q_norms < _F32_SAFE_NORM) & (nu32 < 0.5), slack, np.inf)


def _candidates(block: np.ndarray, base: np.ndarray, norms: np.ndarray, kk: int,
                slack: np.ndarray) -> list[np.ndarray]:
    """Per query of ``block``, in ascending order, the rows of ``base`` whose
    float32 score is at most fl32(t + slack), t being the query's kk-th
    smallest score; every row for a query whose slack is infinite.

    The rows go by in tiles, pooling the rows that can still make the cut
    (see the module docstring); a pool that outgrows a tile is trimmed
    the way the last step trims it. Every buffer belongs to this call, so
    threads may share the index.
    """
    nq, count = len(block), base.shape[0]
    live = np.isfinite(slack)
    if not live.any():
        return [np.arange(count)] * nq
    span = min(count, max(1, _TILE // nq))  # rows per tile
    width = -(-span // _GROUP)  # groups per tile: group i holds rows i, i + width, ...
    neg2q = (block * -2.0).astype(np.float32)
    scores = np.empty((nq, span), dtype=np.float32)
    gmin = np.empty((nq, width), dtype=np.float32)
    best = np.full((nq, kk + width), np.inf, dtype=np.float32)  # kk least minima so far, then a tile's
    cap = np.where(live, np.inf, np.nan).astype(np.float32)  # NaN: pool nothing
    steps = np.arange(_GROUP, dtype=np.int32)
    pool, pooled, budget = [], 0, _TILE
    for t0 in range(0, count, span):
        n = min(span, count - t0)
        w = -(-n // _GROUP)
        s, m = scores[:, :n], gmin[:, :w]
        np.matmul(neg2q, base[t0 : t0 + n].T, out=s)
        s += norms[t0 : t0 + n]
        np.copyto(m, s[:, :w])
        for lo in range(w, n, w):
            np.minimum(m[:, : n - lo], s[:, lo : lo + w], out=m[:, : n - lo])
        best[:, kk : kk + w] = m
        best[:, : kk + w].partition(kk - 1, axis=1)
        limit = np.minimum((best[:, kk - 1] + slack).astype(np.float32), cap)
        # The groups under each query's limit, and where their rows' scores sit in
        # ``scores``: int32 suffices, as a tile holds at most _TILE scores.
        qi, gi = np.divmod(np.flatnonzero(m <= limit[:, None]).astype(np.int32), np.int32(w))
        at = (qi * np.int32(span) + gi)[:, None] + w * steps  # group gi holds rows gi, gi + w, ...
        got = scores.ravel()[np.minimum(at, scores.size - 1, out=at)]
        ok = got <= limit[qi][:, None]
        ok &= steps < ((n - gi + w - 1) // w)[:, None]  # rows below n
        keep = np.flatnonzero(ok)
        qk = qi[keep // _GROUP]
        pool.append((qk, (at.ravel()[keep] - qk * np.int32(span)).astype(np.intp) + t0, got.ravel()[keep]))
        pooled += len(pool[-1][0])
        if pooled > budget and t0 + n >= kk:  # a trim needs k rows seen
            qs, rs, ss, lim = _trim(pool, nq, kk, slack)
            pool, pooled, cap = [(qs, rs, ss)], len(qs), np.minimum(cap, lim)
            budget = max(_TILE, 2 * pooled)  # k rows a query can fill a tile: trim again at twice that
    qs, rs, _, _ = _trim(pool, nq, kk, slack)
    ends = np.searchsorted(qs, np.arange(nq + 1))
    return [np.sort(rs[ends[r] : ends[r + 1]]) if live[r] else np.arange(count) for r in range(nq)]


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


@dataclass
class _QueryCache:
    """Lazy per-row arrays, built once under the lock and shared with budget views."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    norms: np.ndarray | None = None  # float32 squared row norms, summed in float64
    max_norm: float = 0.0
    id_rank: np.ndarray | None = None  # perm-prefix: each row's position in id order


class VectorIndex:
    """Immutable id-to-vector collection answering kNN queries."""

    def __init__(self, ids: list[str], vectors: np.ndarray, config: IndexConfig,
                 pivots: np.ndarray | None = None, assignments: np.ndarray | None = None):
        self.ids = ids
        self.vectors = vectors  # (count, dim) float32, canonical storage
        self.config = config
        self.pivots = pivots  # (num_pivots, dim) float32 in perm-prefix mode
        self.assignments = assignments  # (count, prefix_len) int32 pivot indices
        self._cache = _QueryCache()

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.config.dim

    def with_candidate_budget(self, candidate_budget: int) -> "VectorIndex":
        """A view scanning a different number of candidates (a perm-prefix
        query-time knob); it shares all arrays and lazy caches with this index."""
        cfg = replace(self.config, candidate_budget=candidate_budget)
        view = VectorIndex(self.ids, self.vectors, cfg, self.pivots, self.assignments)
        view._cache = self._cache
        return view

    # -- query-time caches ------------------------------------------------

    def _ensure_caches(self) -> _QueryCache:
        cache = self._cache
        if cache.norms is not None:
            return cache
        with cache.lock:
            if cache.norms is not None:
                return cache
            norms = np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64)
            cache.max_norm = float(np.sqrt(norms.max()))
            if self.config.mode == MODE_PERM_PREFIX:  # invert the id order
                cache.id_rank = np.argsort(sorted(range(len(self.ids)), key=self.ids.__getitem__))
            with np.errstate(over="ignore"):
                cache.norms = norms.astype(np.float32)  # publish last; readers gate on this
        return cache

    # -- ranking ----------------------------------------------------------

    def _topk(self, queries: np.ndarray, k: int, rows: np.ndarray | None = None) -> list[NeighborList]:
        """Exact top-k by (distance, id) per query, over all rows or a row subset.

        Queries go in chunks of up to ``_CHUNK``, fewer for a large k (see
        the module docstring). Each query re-scores the rows ``_candidates``
        finds for it, all of them once k reaches the row count, in float64,
        ordered by (d², id).
        """
        cache = self._ensure_caches()
        base = self.vectors if rows is None else self.vectors[rows]
        norms = cache.norms if rows is None else cache.norms[rows]
        count = base.shape[0]
        kk = min(k, count)
        out: list[NeighborList] = []
        step = min(_CHUNK, max(1, _TILE // (_GROUP * kk)))  # a tile of k groups or more
        for start in range(0, len(queries), step):
            block = queries[start : start + step]
            with np.errstate(over="ignore", invalid="ignore"):
                slack = np.full(len(block), np.inf) if kk == count else _rank_slack(
                    self.config.dim, cache.max_norm, np.sqrt(np.einsum("ij,ij->i", block, block)))
                pools = _candidates(block, base, norms, kk, slack)
            for q, cand in zip(block, pools):
                cand = cand if rows is None else rows[cand]
                diff = self.vectors[cand] - q
                d2 = np.einsum("ij,ij->i", diff, diff)
                cand_ids = np.array([self.ids[c] for c in cand.tolist()], dtype=object)
                order = np.lexsort((cand_ids, d2))[:kk]
                out.append(list(zip(cand_ids[order].tolist(), np.sqrt(d2[order]).tolist())))
        return out

    def _perm_candidates(self, q: np.ndarray) -> np.ndarray:
        diff = self.pivots.astype(np.float64) - q
        pivot_d2 = np.einsum("ij,ij->i", diff, diff)
        q_prefix = np.argsort(pivot_d2, kind="stable")[: self.config.prefix_len].astype(np.int32)
        # Primary key: length of the exact positional prefix match. That
        # alone is coarse (deep positions rarely match exactly), so break
        # ties by how many pivots the prefixes share as sets, which keeps
        # near neighbors whose permutations are slightly shuffled ahead of
        # unrelated vectors. Final id tie-break keeps the order total, so a
        # larger budget always extends the candidate list rather than
        # reshuffling it.
        agree = np.logical_and.accumulate(self.assignments == q_prefix, axis=1).sum(axis=1)
        shared = np.isin(self.assignments, q_prefix).sum(axis=1)
        order = np.lexsort((self._ensure_caches().id_rank, -shared, -agree))
        return order[: min(self.config.candidate_budget, len(self.ids))]

    def _search(self, queries: np.ndarray, k) -> list[NeighborList]:
        """Validate (num_queries, dim) queries and k, then run the top-k core."""
        if queries.shape[1] != self.config.dim:
            raise DimensionMismatch(f"vector lengths differ: {queries.shape[1]} vs {self.config.dim}")
        if not np.isfinite(queries).all():
            raise ValueError("query vector must be finite")
        if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
            raise ValueError(f"k must be an integer, got {k!r}")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if self.config.mode == MODE_PERM_PREFIX:
            if k > self.config.candidate_budget:
                raise ValueError(f"k={k} exceeds candidate_budget={self.config.candidate_budget}")
            return [self._topk(q[None, :], int(k), self._perm_candidates(q))[0] for q in queries]
        return self._topk(queries, int(k))

    def knn(self, query, k: int) -> NeighborList:
        """The k nearest stored vectors, closest first, ties by ascending id."""
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1:
            raise ValueError("query must be a 1-d vector")
        return self._search(q[None, :], k)[0]

    def knn_batch(self, queries: np.ndarray, k: int) -> list[NeighborList]:
        """knn for many queries at once; identical per-query results.

        In exact mode up to 256 queries share each tile's matrix product.
        On a 100k x 256 store with k = 70 and one BLAS thread of a 2-core
        Xeon, a batch took 1.03 ms a query (1.63 ms with 64-query products
        over the whole store and a pass over every score per query), and a
        lone ``knn`` call 14.3 ms.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("knn_batch expects a (num_queries, dim) array")
        if len(queries) == 1:  # a lone query's search is one ``knn`` call, as perfbench times it
            return [self.knn(queries[0], k)]
        return self._search(queries, k)


def build_index_from_arrays(ids: list[str], matrix: np.ndarray, config: IndexConfig) -> VectorIndex:
    """Build an index from a pre-assembled (count, dim) array."""
    if len(ids) == 0:
        raise ValueError("cannot build an index from zero vectors")
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError(f"expected ({len(ids)}, dim) vector array, got shape {matrix.shape}")
    if matrix.shape[1] != config.dim:
        raise DimensionMismatch(f"vector lengths differ: {matrix.shape[1]} vs {config.dim}")
    if not np.isfinite(matrix).all():
        raise ValueError("feature vectors must be finite (found nan or inf)")
    seen: set[str] = set()
    for image_id in ids:
        if not image_id:
            raise ValueError("image id must be non-empty")
        if image_id in seen:
            raise ValueError(f"duplicate image id {image_id!r}")
        seen.add(image_id)

    pivots = None
    assignments = None
    if config.mode == MODE_PERM_PREFIX:
        count = len(ids)
        if config.num_pivots > count:
            raise ValueError(f"num_pivots={config.num_pivots} exceeds vector count {count}")
        rng = np.random.default_rng(config.rng_seed)
        pivot_rows = rng.choice(count, size=config.num_pivots, replace=False)
        pivots = np.ascontiguousarray(matrix[pivot_rows])
        assignments = _assign_prefixes(matrix, pivots, config.prefix_len)
    return VectorIndex(list(ids), matrix, config, pivots, assignments)


def _assign_prefixes(matrix: np.ndarray, pivots: np.ndarray, prefix_len: int) -> np.ndarray:
    """Each row's prefix_len nearest pivot indices, nearest first.

    Pivot-distance ties resolve to the lower pivot index (stable sort).
    """
    piv = pivots.astype(np.float64)
    piv_norms = np.einsum("ij,ij->i", piv, piv)
    count = matrix.shape[0]
    out = np.empty((count, prefix_len), dtype=np.int32)
    chunk = max(1, (1 << 22) // max(1, piv.shape[0]))
    for start in range(0, count, chunk):
        block = matrix[start : start + chunk].astype(np.float64)
        d2 = np.einsum("ij,ij->i", block, block)[:, None] - 2.0 * (block @ piv.T) + piv_norms[None, :]
        order = np.argsort(d2, axis=1, kind="stable")
        out[start : start + len(block)] = order[:, :prefix_len]
    return out


_MODE_CODES = {MODE_EXACT: 0, MODE_PERM_PREFIX: 1}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


def save_index(index: VectorIndex, path: str) -> None:
    """Persist an index; loading the file reproduces identical answers.

    The container embeds dimensionality, mode, build seed, and (in
    perm-prefix mode) the pivot vectors and prefix assignments, so a
    load needs no rebuild work. After the binary header come the
    vectors as ``.fvec`` records (see ``fvec.py``); every id is checked
    before the file is opened.
    """
    cfg = index.config
    perm = cfg.mode == MODE_PERM_PREFIX
    header = _HEADER.pack(
        _INDEX_MAGIC, _INDEX_VERSION, _MODE_CODES[cfg.mode], cfg.dim, cfg.rng_seed,
        cfg.num_pivots if perm else 0,
        cfg.prefix_len if perm else 0,
        cfg.candidate_budget if perm else 0,
        len(index.ids),
    )
    trailer = b""
    if perm:
        trailer = (np.ascontiguousarray(index.pivots, dtype="<f4").tobytes()
                   + np.ascontiguousarray(index.assignments, dtype="<i4").tobytes())
    _write_records(path, header, index.ids, index.vectors, trailer)


def load_index(path: str, config: IndexConfig) -> VectorIndex:
    """Load an index saved by save_index, checking it against ``config``.

    The stored dimensionality and mode must match the caller's
    expectation; structural parameters (pivots, prefix length, build
    seed) come from the file itself. The candidate budget is a
    query-time setting and comes from ``config``; the budget stored in
    the file is not used.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise FormatError("truncated index header", path=path)
        magic, version, mode_code, dim, seed, num_pivots, prefix_len, _budget, count = _HEADER.unpack(raw)
        if magic != _INDEX_MAGIC:
            raise FormatError(f"not an index file (magic {magic!r})", path=path)
        if version != _INDEX_VERSION:
            raise FormatError(f"unsupported index version {version} (expected {_INDEX_VERSION})", path=path)
        if mode_code not in _CODE_MODES:
            raise FormatError(f"unknown index mode code {mode_code}", path=path)
        mode = _CODE_MODES[mode_code]
        if dim != config.dim:
            raise EngineError(
                f"{path}: index dimensionality {dim} does not match configured {config.dim}"
            )
        if mode != config.mode:
            raise EngineError(f"{path}: index mode {mode!r} does not match configured {config.mode!r}")
        if count < 1:
            raise FormatError(f"index holds no vectors (count={count})", path=path)
        perm = mode == MODE_PERM_PREFIX
        pbytes = num_pivots * dim * 4 if perm else 0
        abytes = count * prefix_len * 4 if perm else 0
        left = _bytes_left(fh)
        for what, size in (("pivots", pbytes), ("prefix assignments", abytes)):
            if size > left:
                raise FormatError(f"truncated file: {what} need {size} bytes, {left} remain", path=path)
        if perm and not 1 <= prefix_len <= num_pivots:
            raise FormatError(f"prefix length {prefix_len} outside [1, num_pivots={num_pivots}]", path=path)

        ids, matrix = _read_records(fh, path, count, dim)

        pivots = None
        assignments = None
        if perm:
            raw_piv = fh.read(pbytes)
            raw_asn = fh.read(abytes)
            if len(raw_piv) != pbytes or len(raw_asn) != abytes:
                raise FormatError("truncated pivot data", path=path)
            pivots = np.frombuffer(raw_piv, dtype="<f4").reshape(num_pivots, dim).copy()
            assignments = np.frombuffer(raw_asn, dtype="<i4").reshape(count, prefix_len).copy()
            if assignments.min() < 0 or assignments.max() >= num_pivots:
                raise FormatError(f"prefix assignment outside [0, num_pivots={num_pivots})", path=path)
        if fh.read(1):
            raise FormatError("trailing data after index payload", path=path)

    loaded_cfg = IndexConfig(
        dim=dim, mode=mode,
        num_pivots=num_pivots if perm else config.num_pivots,
        prefix_len=prefix_len if perm else config.prefix_len,
        candidate_budget=config.candidate_budget,
        rng_seed=seed,
    )
    return VectorIndex(ids, matrix, loaded_cfg, pivots, assignments)
