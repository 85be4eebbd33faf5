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
``readinto`` and keeps views of that buffer.
"""

from __future__ import annotations

import operator
import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, EngineError, FormatError
from .fvec import _MAX_ID_BYTES, _replacing

MODE_EXACT = "exact"
MODE_PERM_PREFIX = "perm-prefix"

Neighbor = tuple[str, float]
NeighborList = list[Neighbor]

_INDEX_MAGIC = b"NTIX"
_INDEX_VERSION = 2
_HEADER = struct.Struct("<4sIIIQqIId")  # magic, version, mode, dim, count, seed, pivots, prefix, max norm
_SECTION = struct.Struct("<QQI")  # offset, size, zlib.crc32
_CRC = struct.Struct("<I")
_ALIGN = 64
_SECTIONS = ("id offsets", "ids", "vectors", "norms", "pivots", "prefix assignments")

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


class VectorIndex:
    """Immutable id-to-vector collection answering kNN queries."""

    def __init__(self, ids: list[str], vectors: np.ndarray, config: IndexConfig, norms: np.ndarray,
                 max_norm: float, pivots: np.ndarray | None = None, assignments: np.ndarray | None = None):
        self.ids = ids  # strictly increasing
        self.vectors = vectors  # (count, dim) float32, row i holding ids[i]
        self.config = config
        self.norms = norms  # float32 squared row norms, summed in float64
        self.max_norm = max_norm  # the largest row norm, in float64
        self.pivots = pivots  # (num_pivots, dim) float32 in perm-prefix mode
        self.assignments = assignments  # (count, prefix_len) int32 pivot indices

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.config.dim

    # -- ranking ----------------------------------------------------------

    def _topk(self, queries: np.ndarray, k: int, rows: np.ndarray | None = None) -> list[NeighborList]:
        """Exact top-k by (distance, id) per query, over all rows or a row subset.

        Queries go in chunks of up to ``_CHUNK``, fewer for a large k (see
        the module docstring). Each query re-scores the rows ``_candidates``
        finds for it, all of them once k reaches the row count, in float64,
        ordered by (distance, row), which is (distance, id). The distance is
        the root of d², so rows whose d² differ by an ulp can tie.
        """
        base = self.vectors if rows is None else self.vectors[rows]
        norms = self.norms if rows is None else self.norms[rows]
        count = base.shape[0]
        kk = min(k, count)
        out: list[NeighborList] = []
        step = min(_CHUNK, max(1, _TILE // (_GROUP * kk)))  # a tile of k groups or more
        for start in range(0, len(queries), step):
            block = queries[start : start + step]
            with np.errstate(over="ignore", invalid="ignore"):
                slack = np.full(len(block), np.inf) if kk == count else _rank_slack(
                    self.config.dim, self.max_norm, np.sqrt(np.einsum("ij,ij->i", block, block)))
                pools = _candidates(block, base, norms, kk, slack)
            for q, cand in zip(block, pools):
                cand = cand if rows is None else rows[cand]
                diff = self.vectors[cand] - q
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                order = np.lexsort((cand, dist))[:kk]
                out.append(list(zip(map(self.ids.__getitem__, cand[order].tolist()), dist[order].tolist())))
        return out

    def _perm_candidates(self, q: np.ndarray) -> np.ndarray:
        diff = self.pivots.astype(np.float64) - q
        pivot_d2 = np.einsum("ij,ij->i", diff, diff)
        q_prefix = np.argsort(pivot_d2, kind="stable")[: self.config.prefix_len].astype(np.int32)
        # Primary key: length of the exact positional prefix match. That
        # alone is coarse (deep positions rarely match exactly), so break
        # ties by how many pivots the prefixes share as sets, which keeps
        # near neighbors whose permutations are slightly shuffled ahead of
        # unrelated vectors. Ties stay in row order, which is id order, so a
        # larger budget always extends the candidate list.
        agree = np.logical_and.accumulate(self.assignments == q_prefix, axis=1).sum(axis=1)
        shared = np.isin(self.assignments, q_prefix).sum(axis=1)
        order = np.lexsort((-shared, -agree))
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


def _first_unordered(ids: list[str]) -> int:
    """The first row whose id is not above the one before it; 0 if ids strictly increase."""
    rising = list(map(operator.lt, ids, ids[1:]))  # one pass: 3.3 ms for 100k ids on a 2-core Xeon
    return 0 if all(rising) else rising.index(False) + 1


def build_index_from_arrays(ids: list[str], matrix: np.ndarray, config: IndexConfig) -> VectorIndex:
    """Build an index from a (count, dim) array, storing its rows in id order.

    Rows in any other order cost a sort of the ids and a sorted copy of ``matrix`` beside the
    caller's (100k x 256 shuffled, 2-core Xeon: +0.1 s, +98 MB peak). Perm-prefix pivots and prefixes are
    picked in input order, then move with their rows."""
    if len(ids) == 0:
        raise ValueError("cannot build an index from zero vectors")
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2 or matrix.shape[0] != len(ids):
        raise ValueError(f"expected ({len(ids)}, dim) vector array, got shape {matrix.shape}")
    if matrix.shape[1] != config.dim:
        raise DimensionMismatch(f"vector lengths differ: {matrix.shape[1]} vs {config.dim}")
    if not np.isfinite(matrix).all():
        raise ValueError("feature vectors must be finite (found nan or inf)")
    ids, order = list(ids), None
    if _first_unordered(ids):
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids = [ids[i] for i in order]
        if row := _first_unordered(ids):  # sorted, so a repeated id
            raise ValueError(f"duplicate image id {ids[row]!r}")
    if not ids[0]:  # the least id
        raise ValueError("image id must be non-empty")

    pivots = assignments = None
    if config.mode == MODE_PERM_PREFIX:
        count = len(ids)
        if config.num_pivots > count:
            raise ValueError(f"num_pivots={config.num_pivots} exceeds vector count {count}")
        rng = np.random.default_rng(config.rng_seed)
        pivot_rows = rng.choice(count, size=config.num_pivots, replace=False)
        pivots = np.ascontiguousarray(matrix[pivot_rows])
        assignments = _assign_prefixes(matrix, pivots, config.prefix_len)
    if order is not None:
        matrix = matrix[order]
        assignments = None if assignments is None else assignments[order]
    norms = np.einsum("ij,ij->i", matrix, matrix, dtype=np.float64)
    with np.errstate(over="ignore"):
        return VectorIndex(ids, matrix, config, norms.astype(np.float32), float(np.sqrt(norms.max())),
                           pivots, assignments)


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


def _aligned(pos: int) -> int:
    return -(-pos // _ALIGN) * _ALIGN


def save_index(index: VectorIndex, path: str) -> None:
    """Persist an index, norms, pivots and prefixes included, so that a load
    does no rebuild work; ids a ``.fvec`` record cannot hold are refused."""
    cfg = index.config
    perm = cfg.mode == MODE_PERM_PREFIX
    raw = [image_id.encode("utf-8") for image_id in index.ids]
    offsets = np.cumsum([0, *map(len, raw)])
    if (longest := np.diff(offsets).max()) > _MAX_ID_BYTES or offsets[-1] >= 1 << 32:
        raise ValueError(f"image id too long ({longest} bytes, limit {_MAX_ID_BYTES}), or ids over 4 GiB")
    arrays = [(offsets, "<u4"), (np.frombuffer(b"".join(raw), np.uint8), np.uint8),
              (index.vectors, "<f4"), (index.norms, "<f4")]
    if perm:
        arrays += [(index.pivots, "<f4"), (index.assignments, "<i4")]
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


def load_index(path: str, config: IndexConfig) -> VectorIndex:
    """Load an index saved by save_index, whose dim and mode must match ``config``.

    The candidate budget, a query-time setting, comes from ``config``.
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
        raise EngineError(f"{path}: index dimensionality {dim} does not match configured {config.dim}")
    if mode != config.mode:
        raise EngineError(f"{path}: index mode {mode!r} does not match configured {config.mode!r}")
    if count < 1:
        raise FormatError(f"index holds no vectors (count={count})", path=path)
    want = (4 * (count + 1), None, 4 * count * dim, 4 * count, 4 * num_pivots * dim, 4 * count * prefix_len)
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
    vectors = sections[2].view("<f4").reshape(count, dim)
    if not np.isfinite(vectors).all():
        raise FormatError("feature vectors must be finite (found nan or inf)", path=path)
    pivots = assignments = None
    if perm:
        pivots = sections[4].view("<f4").reshape(num_pivots, dim)
        assignments = sections[5].view("<i4").reshape(count, prefix_len)
        if assignments.min() < 0 or assignments.max() >= num_pivots:
            raise FormatError(f"prefix assignment outside [0, num_pivots={num_pivots})", path=path)
    norms = sections[3].view("<f4")
    # A stored square is at most a relative 2^-24 above its float64 sum (inf past the float32
    # maximum, whose root is 2 * _F32_SAFE_NORM): the largest norm is at least (1 - 2^-24) * top.
    top = min(np.sqrt(norms.max(), dtype=np.float64), 2 * _F32_SAFE_NORM)
    if not (norms.min() >= 0 and max_norm >= top * (1 - _U32)):
        raise FormatError(f"row norms negative or nan, or the largest row norm {max_norm} below them", path=path)
    loaded = replace(config, rng_seed=seed, **dict(num_pivots=num_pivots, prefix_len=prefix_len) if perm else {})
    return VectorIndex(ids, vectors, loaded, norms, max_norm, pivots, assignments)


def _decode_ids(offsets: np.ndarray, blob: np.ndarray, path: str) -> list[str]:
    """The ids between byte ``offsets`` of the UTF-8 ``blob``: non-empty and strictly increasing."""
    ends = offsets.astype(np.int64)
    if ends[0] != 0 or ends[-1] != blob.size or (np.diff(ends) <= 0).any():
        raise FormatError("empty id, or id offsets that do not rise from 0 to the ids' size", path=path)
    try:
        text = str(blob, "utf-8")
    except UnicodeDecodeError:
        raise FormatError("ids are not valid UTF-8", path=path) from None
    inner = (blob & 0xC0) == 0x80  # UTF-8 continuation bytes
    if inner[ends[:-1]].any():
        raise FormatError("an id offset falls inside a UTF-8 character", path=path)
    chars = (ends - np.searchsorted(np.flatnonzero(inner), ends)).tolist()  # offsets in ``text``
    ids = [text[a:b] for a, b in zip(chars, chars[1:])]
    if row := _first_unordered(ids):
        raise FormatError(f"ids must strictly increase: {ids[row]!r} follows {ids[row - 1]!r}", path=path)
    return ids
