"""k-nearest-neighbor search over fixed-dimension feature vectors.

Two modes share one query interface and one exact top-k routine:

* ``exact``: full scan. A float32 matrix product over the float32 store
  ranks rows by ``|x|^2 - 2 x.q``; every row within a proven bound of the
  k-th score (``_rank_slack``) is re-scored exactly in float64 by direct
  subtraction, so the answer equals a float64 linear scan. When the
  bound or the scores would not be finite in float32, every row is kept.
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

    def _topk(self, queries: np.ndarray, k: int, rows: np.ndarray | None = None,
              chunk: int = 64) -> list[NeighborList]:
        """Exact top-k by (distance, id) per query, over all rows or a row subset,
        ranked in float32 into scratch buffers this call owns, re-scored in float64."""
        cache = self._ensure_caches()
        base = self.vectors if rows is None else self.vectors[rows]
        count = base.shape[0]
        kk = min(k, count)
        if kk < count:
            norms = cache.norms if rows is None else cache.norms[rows]
            scores = np.empty((min(chunk, len(queries)), count), dtype=np.float32)
            kth = np.empty(count, dtype=np.float32)
        out: list[NeighborList] = []
        for start in range(0, len(queries), chunk):
            block = queries[start : start + chunk]
            with np.errstate(over="ignore", invalid="ignore"):
                if kk < count:
                    ranked = scores[: len(block)]
                    np.matmul((block * -2.0).astype(np.float32), base.T, out=ranked)
                    ranked += norms
                    slack = _rank_slack(self.config.dim, cache.max_norm,
                                        np.sqrt(np.einsum("ij,ij->i", block, block)))
                for r, q in enumerate(block):
                    limit = np.float32(np.inf)  # inf: keep every row
                    if kk < count:
                        np.copyto(kth, ranked[r])
                        kth.partition(kk - 1)
                        # Rounding is monotone: a float32 score is at most the
                        # float64 limit exactly when it is at most its rounding.
                        limit = np.float32(kth[kk - 1] + slack[r])
                    cand = np.flatnonzero(ranked[r] <= limit) if np.isfinite(limit) else np.arange(count)
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

    def _search(self, queries: np.ndarray, k, chunk: int) -> list[NeighborList]:
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
        return self._topk(queries, int(k), chunk=chunk)

    def knn(self, query, k: int) -> NeighborList:
        """The k nearest stored vectors, closest first, ties by ascending id."""
        q = np.asarray(query, dtype=np.float64)
        if q.ndim != 1:
            raise ValueError("query must be a 1-d vector")
        return self._search(q[None, :], k, 1)[0]

    def knn_batch(self, queries: np.ndarray, k: int, chunk: int = 64) -> list[NeighborList]:
        """knn for many queries at once; identical per-query results.

        In exact mode whole chunks are ranked with one matrix product,
        which on a single core is several times faster than repeated
        matrix-vector products.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError("knn_batch expects a (num_queries, dim) array")
        if len(queries) == 1:  # a lone query's search is one ``knn`` call, as perfbench times it
            return [self.knn(queries[0], k)]
        return self._search(queries, k, chunk)


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
