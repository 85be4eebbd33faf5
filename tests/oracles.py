"""Independent reference implementations used to check the package.

Everything here is deliberately written differently from the package
code: brute-force scans, dense linear algebra, no shared helpers.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from neartag.analysis import AnalysisConfig, SynsetGraph, Weights
from neartag.errors import EngineError, FormatError
from neartag.evaluation import MetricsReport
from neartag.lexicon import RELATIONS, RelationType
from neartag.tsv import IdLists


def brute_force_knn(ids, matrix, query, k):
    """Direct float64 distances, sorted by (distance, id)."""
    diffs = matrix.astype(np.float64) - np.asarray(query, dtype=np.float64)
    dists = np.sqrt((diffs * diffs).sum(axis=1))
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))
    return [(ids[i], float(dists[i])) for i in order[: min(k, len(ids))]]


def perm_agreement_by_matrix(index, query) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the two counts the perm-prefix filter ranks by for one float64
    query, computed on the (count, prefix_len) matrix of the index's prefix columns
    with a running ``logical_and`` and ``isin``: the length of the exact positional
    match with the query's prefix, and how many pivots the two prefixes share."""
    diff = index.pivots.astype(np.float64) - query
    q_prefix = np.argsort(np.einsum("ij,ij->i", diff, diff), kind="stable")[: index.config.prefix_len]
    rows = index.prefixes.T
    agree = np.logical_and.accumulate(rows == q_prefix, axis=1).sum(axis=1)
    return agree, np.isin(rows, q_prefix).sum(axis=1)


def pivot_prefixes_by_integers(matrix, pivots, prefix_len) -> np.ndarray:
    """Each row's ``prefix_len`` nearest pivots for integer-valued rows and pivots, nearest
    first: ranked by the exact integer sum of (x - p)^2, ties to the lower pivot, with a
    two-key ``lexsort``, as (prefix_len, rows) columns, the layout of ``VectorIndex.prefixes``."""
    rows, points = np.asarray(matrix).astype(np.int64), np.asarray(pivots).astype(np.int64)
    assert np.array_equal(rows, matrix) and np.array_equal(points, pivots), "integer values only"
    dist = np.stack([((rows - point) ** 2).sum(axis=1) for point in points], axis=1)
    pivot = np.broadcast_to(np.arange(len(points)), dist.shape)
    return np.lexsort((pivot, dist), axis=1)[:, :prefix_len].T


def perm_candidates_by_matrix(index, query) -> np.ndarray:
    """The perm-prefix filter's candidate rows for one float64 query: the counts
    of ``perm_agreement_by_matrix`` ordered with a two-key ``lexsort``, as
    ``VectorIndex`` once did: the reference its array, order included, must equal."""
    agree, shared = perm_agreement_by_matrix(index, query)
    order = np.lexsort((-shared, -agree))
    return order[: min(index.config.candidate_budget, len(index.ids))]


def dense_fixed_point(graph: SynsetGraph, config: AnalysisConfig) -> np.ndarray:
    """Solve the stationary distribution of a one-query graph as a dense linear system.

    With M[u, v] the transition weight of u -> v and d the dangling
    indicator, the fixed point satisfies
        (I - (1 - alpha) (M^T + r d^T)) p = alpha r
    """
    n = len(graph.nodes)
    restart = np.array(graph.restart, dtype=float)
    edges = [(src, RELATIONS[rel], dst) for src, rel, dst in graph.edges.tolist()]

    out_weight = np.zeros(n)
    for src, rel, _dst in edges:
        out_weight[src] += config.lambdas.get(rel, 0.0)
    m = np.zeros((n, n))
    for src, rel, dst in edges:
        lam = config.lambdas.get(rel, 0.0)
        if lam > 0.0 and out_weight[src] > 0.0:
            m[src, dst] += lam / out_weight[src]
    dangling = (out_weight == 0.0).astype(float)

    a = m.T + np.outer(restart, dangling)
    system = np.eye(n) - (1.0 - config.alpha) * a
    return np.linalg.solve(system, config.alpha * restart)


def read_id_lists_by_line(path: str, item: str, known=None) -> dict[str, list[str]]:
    """``<id>\\t<item>(,<item>)*`` lines as {id: items}, one line at a time,
    as ``tsv.read_id_lists`` read them before it worked column-wise: the
    reference its results and errors must equal. Valid UTF-8 only."""
    lists: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            first = line[0]
            if first == "#" or (first.isspace() and (line.isspace() or line.lstrip().startswith("#"))):
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise FormatError(f"expected '<id>\\t<{item},{item},...>', got {len(parts)} tab-separated fields",
                                  path=path, line=lineno)
            key, field = parts
            if not key or key in lists:
                raise FormatError(f"duplicate image id {key!r}" if key else "empty image id", path=path, line=lineno)
            items = []
            for name in field.split(","):
                name = name.strip().lower()
                if not name:
                    raise FormatError(f"empty {item}", path=path, line=lineno)
                if known is not None and name not in known:
                    raise FormatError(f"unknown {item} {name!r}", path=path, line=lineno)
                items.append(name)
            lists[key] = list(dict.fromkeys(items))
    return lists


def id_lists_from_dict(records: dict[str, list[str]]) -> IdLists:
    """Columns over {id: distinct items}, as the reader gives them, built
    without the reader (a ``KeywordStore`` takes them)."""
    vocabulary = tuple(sorted({name for names in records.values() for name in names}))
    number = {name: i for i, name in enumerate(vocabulary)}
    items = [number[name] for names in records.values() for name in names]
    ptr = [0]
    for names in records.values():
        ptr.append(ptr[-1] + len(names))
    return IdLists(rows={key: r for r, key in enumerate(records)}, vocabulary=vocabulary,
                   items=np.array(items, dtype=np.intp), ptr=np.array(ptr, dtype=np.intp))


def read_lexicon_by_line(path: str) -> dict:
    """A lexicon file read one line at a time by README's rules, as plain
    values: ``synset_names`` and ``word_names`` sorted, ``senses`` {word:
    synsets by rank} and ``related`` {synset: (relation value, target)
    pairs, inverses added, ordered as ``Lexicon.related`` orders them}.
    The reference ``load_lexicon``'s results and errors must equal.
    Valid UTF-8 only."""
    mirror = {"hyper": ("hypernym", "hyponym"), "hypo": ("hyponym", "hypernym"),
              "mero": ("meronym", "holonym"), "holo": ("holonym", "meronym")}
    declared: list[str] = []
    senses: list[tuple[int, str, str, int]] = []  # line, word, synset, rank
    relations: list[tuple[int, str, str, str]] = []  # line, tag, from, to

    def fail(message, line=None):
        raise FormatError(message, path=path, line=line)

    def synset(token, line):
        if not token:
            fail("empty synset id", line)
        if "," in token or token.split() != [token]:
            fail(f"synset id {token!r} contains whitespace or a comma", line)
        return token

    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.removesuffix("\n")
            if not line.strip() or line.strip()[0] == "#":
                continue
            fields = line.split("\t")
            kind = fields[0]
            if kind == "S":
                if len(fields) != 3:
                    fail("S record needs '<id>\\t<lemma,lemma,...>'", lineno)
                name = synset(fields[1], lineno)
                if name in declared:
                    fail(f"duplicate synset {name!r}", lineno)
                if "" in [lemma.strip() for lemma in fields[2].split(",")]:
                    fail("empty lemma", lineno)
                declared.append(name)
            elif kind == "W":
                if len(fields) != 4:
                    fail("W record needs '<word>\\t<synset>\\t<rank>'", lineno)
                word = fields[1].strip().lower()
                if word == "":
                    fail("empty word", lineno)
                name = synset(fields[2], lineno)
                try:
                    rank = int(fields[3])
                except ValueError:
                    fail(f"sense rank {fields[3]!r} is not an integer", lineno)
                if rank <= 0:
                    fail(f"sense rank must be >= 1, got {rank}", lineno)
                senses.append((lineno, word, name, rank))
            elif kind == "R":
                if len(fields) != 4:
                    fail("R record needs '<tag>\\t<from>\\t<to>'", lineno)
                tag = fields[1].strip()
                if tag not in mirror:
                    fail(f"unknown relation tag {tag!r} (expected one of {sorted(mirror)})", lineno)
                relations.append((lineno, tag, synset(fields[2], lineno), synset(fields[3], lineno)))
            else:
                fail(f"unknown record type {kind!r} (expected S, W, or R)", lineno)

    by_rank: dict[str, dict[int, str]] = {}
    for lineno, word, name, rank in senses:
        if name not in declared:
            fail(f"word {word!r} references undeclared synset {name!r}", lineno)
        if rank in by_rank.get(word, {}):
            fail(f"duplicate sense rank {rank} for word {word!r}", lineno)
        by_rank.setdefault(word, {})[rank] = name
    for word, ranks in by_rank.items():
        if sorted(ranks) != list(range(1, len(ranks) + 1)):
            fail(f"sense ranks for word {word!r} must form 1..{len(ranks)}, got {sorted(ranks)}")
    related: dict[str, set[tuple[str, str]]] = {name: set() for name in declared}
    for lineno, tag, src, dst in relations:
        for end in (src, dst):
            if end not in declared:
                fail(f"relation references undeclared synset {end!r}", lineno)
        forward, backward = mirror[tag]
        related[src].add((forward, dst))
        related[dst].add((backward, src))
    order = [rel.value for rel in RELATIONS]
    return {"synset_names": sorted(declared), "word_names": sorted(by_rank),
            "senses": {word: [ranks[r] for r in sorted(ranks)] for word, ranks in by_rank.items()},
            "related": {name: sorted(pairs, key=lambda pair: (order.index(pair[0]), pair[1]))
                        for name, pairs in related.items()}}


def weights_from_lists(batch, names=None) -> Weights:
    """A stage's ``Weights`` from per-query (name, weight) lists, rows in the
    order given; ``names`` defaults to the sorted names the lists use."""
    rows = [(q, name, weight) for q, pairs in enumerate(batch) for name, weight in pairs]
    names = tuple(sorted({name for _q, name, _w in rows})) if names is None else tuple(names)
    number = {name: i for i, name in enumerate(names)}
    return Weights(owner=np.array([q for q, _name, _w in rows], dtype=np.intp),
                   item=np.array([number[name] for _q, name, _w in rows], dtype=np.intp),
                   weight=np.array([w for _q, _name, w in rows], dtype=np.float64),
                   names=names, queries=len(batch))


def weight_lists(weights: Weights):
    """Per query, its (name, weight) rows in order."""
    out = [[] for _ in range(weights.queries)]
    for q, item, weight in zip(weights.owner.tolist(), weights.item.tolist(), weights.weight.tolist()):
        out[q].append((weights.names[item], weight))
    return out


def one_query_graph(restart, edges, names=None) -> SynsetGraph:
    """A batch of one from a restart vector and (source, RelationType, target)
    node positions; node i is synset ``names[i]``, ``s<i>`` by default."""
    n = len(restart)
    names = tuple(f"s{i:04d}" for i in range(n)) if names is None else tuple(names)
    ordered = tuple(sorted(names))
    table = np.array([(a, RELATIONS.index(rel), b) for a, rel, b in edges], dtype=np.intp).reshape(-1, 3)
    return SynsetGraph(nodes=np.array([ordered.index(name) for name in names], dtype=np.intp),
                       owner=np.zeros(n, dtype=np.intp), restart=np.array(restart, dtype=float),
                       edges=table, names=ordered, queries=1)


def concatenate_graphs(graphs: list[SynsetGraph]) -> SynsetGraph:
    """One batch from one-query graphs, in order; the longest graph's names serve them all."""
    offsets = np.cumsum([0] + [len(g.nodes) for g in graphs])
    return SynsetGraph(
        nodes=np.concatenate([g.nodes for g in graphs]).astype(np.intp),
        owner=np.concatenate([np.full(len(g.nodes), q, dtype=np.intp) for q, g in enumerate(graphs)]),
        restart=np.concatenate([g.restart for g in graphs]).astype(float),
        edges=np.concatenate([g.edges + [off, 0, off] for g, off in zip(graphs, offsets)]).reshape(-1, 3),
        names=max((g.names for g in graphs), key=len, default=()), queries=len(graphs))


def random_graph(rng: np.random.Generator, max_nodes: int = 6, connected: bool = True):
    """A random small one-query SynsetGraph plus a matching AnalysisConfig.

    When ``connected`` the undirected skeleton is a spanning tree plus
    extra edges, so the graph is connected as criterion tests require.
    """
    n = int(rng.integers(1, max_nodes + 1))
    relations = list(RelationType)
    edges = []
    if connected and n > 1:
        order = rng.permutation(n)
        for i in range(1, n):
            a = int(order[i])
            b = int(order[int(rng.integers(0, i))])
            if rng.random() < 0.5:
                a, b = b, a
            edges.append((a, relations[int(rng.integers(0, 4))], b))
    extra = int(rng.integers(0, n * 2 + 1))
    for _ in range(extra):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a != b:
            edges.append((a, relations[int(rng.integers(0, 4))], b))
    edges = list(dict.fromkeys(edges))

    raw = rng.random(n) + 1e-3
    restart = raw / raw.sum()

    lambdas = {rel: float(rng.choice([0.0, 0.5, 1.0, 2.0], p=[0.1, 0.3, 0.4, 0.2])) for rel in RelationType}
    alpha = float(rng.uniform(0.1, 1.0))
    config = AnalysisConfig(alpha=alpha, lambdas=lambdas, tol=1e-12, max_iters=2000)
    return one_query_graph(restart, edges), config


def write_vectors_by_record(path: str, ids: list[str], matrix: np.ndarray) -> None:
    """A ``.fvec`` file written one record at a time, as ``fvec.write_vectors``
    wrote it before it worked in blocks: the bytes it must equal."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-d array of vectors, got shape {matrix.shape}")
    if len(ids) != matrix.shape[0]:
        raise ValueError(f"{len(ids)} ids for {matrix.shape[0]} vectors")
    if not np.isfinite(matrix).all():
        raise ValueError("feature vectors must be finite (found nan or inf)")
    count, dim = matrix.shape
    if dim < 1:
        raise ValueError("vector dimensionality must be at least 1")
    raw_ids = []
    for image_id in ids:
        if not image_id:
            raise ValueError("image id must be non-empty")
        raw = image_id.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError(f"image id too long ({len(raw)} bytes, limit {0xFFFF})")
        raw_ids.append(raw)
    data = np.ascontiguousarray(matrix, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(f"FVEC 1 {dim} {count}\n".encode("ascii"))
        for raw, row in zip(raw_ids, data):
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(row.tobytes())


def read_vectors_by_record(path: str) -> tuple[list[str], np.ndarray]:
    """A ``.fvec`` file read one record at a time, as ``fvec.read_vectors``
    read it before it worked in blocks: the reference its ids, matrix bytes
    and errors must equal. Faults come in record order (truncation, an
    empty id, an id that is not UTF-8), then non-finite values, then
    trailing data."""
    with open(path, "rb") as fh:
        header = fh.readline(128)
        if not header.endswith(b"\n"):
            raise FormatError("missing or overlong header line", path=path)
        fields = header[:-1].split(b" ")
        if len(fields) != 4 or fields[0] != b"FVEC":
            raise FormatError(f"bad header {header!r}, expected 'FVEC 1 <dim> <count>'", path=path)
        try:
            version, dim, count = (int(f) for f in fields[1:])
        except ValueError:
            raise FormatError(f"non-numeric header fields in {header!r}", path=path) from None
        if version != 1:
            raise FormatError(f"unsupported format version {version} (expected 1)", path=path)
        if dim < 1 or count < 0:
            raise FormatError(f"invalid header values dim={dim} count={count}", path=path)
        need = count * (2 + 4 * dim)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if need > left:
            raise FormatError(f"truncated file: {count} records of dim {dim} need at least {need} bytes, "
                              f"{left} remain", path=path)
        ids: list[str] = []
        matrix = np.empty((count, dim), dtype="<f4")
        for i in range(count):
            head = fh.read(2)
            if len(head) != 2:
                raise FormatError(f"truncated file in record {i}", path=path)
            (id_len,) = struct.unpack("<H", head)
            if id_len == 0:
                raise FormatError(f"record {i} has an empty id", path=path)
            raw = fh.read(id_len)
            if len(raw) != id_len or fh.readinto(matrix[i]) != dim * 4:
                raise FormatError(f"truncated file in record {i}", path=path)
            try:
                ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError:
                raise FormatError(f"record {i} id is not valid UTF-8", path=path) from None
        if count and not np.isfinite(matrix).all():
            raise FormatError("feature vectors must be finite (found nan or inf)", path=path)
        if fh.read(1):
            raise FormatError(f"trailing data after {count} records", path=path)
    return ids, matrix


def evaluate_per_concept(annotations, truth, concepts) -> MetricsReport:
    """``evaluation.evaluate`` in several passes: every check first, then
    the samples, then one scan of the evaluated samples per concept for
    its TP/FP/FN. The reference its reports and errors must equal, float
    for float, on annotations with distinct ids."""
    def f1(p, r):
        return 2.0 * p * r / (p + r) if (p + r) > 0.0 else 0.0

    for ann in annotations:
        seen = set()
        for name, _score in ann.ranked:
            if name not in concepts:
                raise EngineError(f"annotation {ann.id!r} references unknown concept {name!r}")
            if name in seen:
                raise EngineError(f"annotation {ann.id!r} ranks concept {name!r} twice")
            seen.add(name)
    for sample_id, names in truth.items():
        for name in names:
            if name not in concepts:
                raise EngineError(f"ground truth for {sample_id!r} references unknown concept {name!r}")

    predictions, ranked_lists = {}, {}
    missing = empty = 0
    for ann in annotations:
        if ann.id not in truth:
            missing += 1
            continue
        if not truth[ann.id]:
            empty += 1
            continue
        positive = [name for name, score in ann.ranked if score > 0.0]
        predictions[ann.id] = set(positive)
        ranked_lists[ann.id] = positive
    if not predictions:
        raise EngineError("no samples to evaluate (all annotations lacked usable ground truth)")

    p_sum = r_sum = f_sum = ap_sum = 0.0
    for sample_id, predicted in predictions.items():
        relevant = truth[sample_id]
        if predicted:
            hits = len(predicted & relevant)
            p, r = hits / len(predicted), hits / len(relevant)
        else:
            p = r = 0.0
        p_sum += p
        r_sum += r
        f_sum += f1(p, r)
        hits, total = 0, 0.0
        for i, name in enumerate(ranked_lists[sample_id], 1):
            if name in relevant:
                hits += 1
                total += hits / i
        ap_sum += total / len(relevant)
    count = len(predictions)

    per_concept = {}
    cp_sum = cr_sum = cf_sum = 0.0
    measured = 0
    for concept in sorted(concepts):
        tp = fp = fn = 0
        for sample_id, predicted in predictions.items():
            in_pred, in_truth = concept in predicted, concept in truth[sample_id]
            if in_pred and in_truth:
                tp += 1
            elif in_pred:
                fp += 1
            elif in_truth:
                fn += 1
        if tp + fn == 0 and fp == 0:
            per_concept[concept] = None
            continue
        p = tp / (tp + fp) if (tp + fp) > 0 else 0.0
        r = tp / (tp + fn) if (tp + fn) > 0 else 0.0
        per_concept[concept] = (p, r, f1(p, r))
        cp_sum += p
        cr_sum += r
        cf_sum += f1(p, r)
        measured += 1

    return MetricsReport(
        mp_s=p_sum / count, mr_s=r_sum / count, mf_s=f_sum / count, map_s=ap_sum / count,
        mp_c=cp_sum / measured if measured else 0.0,
        mr_c=cr_sum / measured if measured else 0.0,
        mf_c=cf_sum / measured if measured else 0.0,
        per_concept=per_concept,
        samples_evaluated=count,
        samples_missing_truth=missing,
        samples_empty_truth=empty,
        concepts_skipped=len(concepts) - measured,
    )
