"""End-to-end annotation: retrieve neighbors, analyze keywords, score concepts.

A concept is a named set of synsets; a query is an image feature plus
the candidate concept names the caller wants ranked. The annotator only
ever scores the given candidates (closed world).
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .analysis import (
    AnalysisConfig,
    NeighborWords,
    Weights,
    _find,
    _ints,
    _positions,
    _ranges,
    _take,
    build_graph,
    initial_synsets,
    propagate,
    rank_synsets,
    top_n,
    word_frequencies,
)
from .errors import EngineError, FormatError, check_count
from .fvec import _replacing
from .index import VectorIndex
from .keywords import KeywordStore
from .lexicon import Lexicon
from .tsv import id_error, read_id_lists, records, skipped

# Phase names: keys of annotate_batch's ``timings`` and rows of the CLI's timing table.
SIMILARITY_SEARCH = "similarity search"
KEYWORD_FETCH = "keyword fetch"
SEMANTIC_ANALYSIS = "semantic analysis"


@dataclass(frozen=True)
class ConceptDef:
    name: str
    synsets: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    id: str
    feature: np.ndarray
    candidates: tuple[str, ...]


@dataclass(frozen=True)
class Annotation:
    """Ranked (concept, score) pairs for one query.

    ``no_keyword_signal`` marks queries whose neighborhood produced no
    lexicon-matching keywords, in which case every candidate scored 0.
    ``converged`` is False when the walk stopped at ``max_iters`` first.
    Neither is written to annotation files.
    """

    id: str
    ranked: tuple[tuple[str, float], ...]
    no_keyword_signal: bool = False
    converged: bool = True


@dataclass(frozen=True)
class Dataset:
    """One searchable reference collection: an index plus its keywords."""

    index: VectorIndex
    keywords: KeywordStore


@dataclass(frozen=True)
class EngineParams:
    """Retrieval and output sizes around an AnalysisConfig."""

    k: int = 70
    m: int = 5
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self):
        check_count("k", self.k)
        check_count("m", self.m)


def load_concepts(path: str, lexicon: Lexicon) -> dict[str, ConceptDef]:
    """Concept definitions: lines ``C\\t<name>\\t<synset>(,<synset>)*``.

    Names are lowercased, must be unique and hold no comma (candidate
    lists and annotation files separate names with commas); every synset
    must exist in the lexicon.
    """
    concepts: dict[str, ConceptDef] = {}
    layout = "'C\\t<name>\\t<synset,synset,...>'"
    for lineno, (kind, name, synsets_field) in records(path, 3, layout):
        if kind != "C":
            raise FormatError(f"expected {layout}, got record type {kind!r}", path=path, line=lineno)
        name = name.strip().lower()
        if not name:
            raise FormatError("empty concept name", path=path, line=lineno)
        if "," in name:
            raise FormatError(f"concept name {name!r} holds a comma", path=path, line=lineno)
        if name in concepts:
            raise FormatError(f"duplicate concept {name!r}", path=path, line=lineno)
        synsets = []
        for token in synsets_field.split(","):
            token = token.strip()
            if not token:
                raise FormatError("empty synset id", path=path, line=lineno)
            if token not in lexicon:
                raise FormatError(f"concept {name!r} references undeclared synset {token!r}",
                                  path=path, line=lineno)
            synsets.append(token)
        concepts[name] = ConceptDef(name, tuple(dict.fromkeys(synsets)))
    return concepts


def load_candidate_lists(path: str, concepts: dict[str, ConceptDef] | None = None) -> dict[str, tuple[str, ...]]:
    """Per-query candidate concept names: lines ``<id>\\t<name>(,<name>)*``.

    When ``concepts`` is given, every name must be one of its keys.
    """
    return {qid: tuple(names) for qid, names in read_id_lists(path, "concept", concepts).items()}


def merge_neighbor_lists(per_dataset: list[list[tuple[str, float]]], k: int) -> list[tuple[int, str, float]]:
    """Merge per-dataset neighbor lists into one global top-k.

    Returns (dataset_position, id, distance) triples ordered by
    (distance, id); the dataset position says which keyword store owns
    the id.
    """
    merged = [
        (dist, image_id, pos)
        for pos, neighbors in enumerate(per_dataset)
        for image_id, dist in neighbors
    ]
    merged.sort()  # by (distance, id), one id at one distance in dataset order
    return [(pos, image_id, dist) for dist, image_id, pos in merged[:k]]


def gather_neighbor_words(neighbor_lists: list[list[list[tuple[str, float]]]], stores: list[KeywordStore],
                          k: int) -> tuple[NeighborWords, int]:
    """The keyword numbers of each query's merged top-k neighbours, in merged order.

    ``neighbor_lists`` holds one ``knn_batch`` result per store's dataset.
    Each query's lists are merged by ``merge_neighbor_lists``, which orders
    them by (distance, id), and words are numbered over the stores' joint
    sorted vocabulary. Neighbours missing from their keyword store are
    dropped and counted.
    """
    per_query = [merge_neighbor_lists(list(lists), k) for lists in zip(*neighbor_lists)]
    ids = [image_id for merged in per_query for _pos, image_id, _dist in merged]
    pos = _ints([p for merged in per_query for p, _id, _dist in merged])
    vocabulary = stores[0].vocabulary
    if any(store.vocabulary is not vocabulary and store.vocabulary != vocabulary for store in stores):
        vocabulary = tuple(sorted(set().union(*(store.vocabulary for store in stores))))
        number = {word: i for i, word in enumerate(vocabulary)}
    rows = np.full(len(ids), -1, dtype=np.intp)
    lo = np.zeros(len(ids), dtype=np.intp)
    count = np.zeros(len(ids), dtype=np.intp)
    for d, store in enumerate(stores):
        at = np.flatnonzero(pos == d)
        rows[at] = store.rows(ids if len(at) == len(ids) else [ids[i] for i in at.tolist()])
        at = at[rows[at] >= 0]
        lo[at] = store.ptr[rows[at]]
        count[at] = store.ptr[rows[at] + 1] - lo[at]
    found = np.flatnonzero(rows >= 0)
    owner = np.repeat(np.arange(len(per_query)), [len(neighbors) for neighbors in per_query])[found]
    rank = _positions(owner, len(per_query)) + 1
    pos, lo, count = pos[found], lo[found], count[found]
    entries = _ranges(lo, count)
    store_of = np.repeat(pos, count)
    word = np.empty(len(entries), dtype=np.intp)
    for d, store in enumerate(stores):
        at = np.flatnonzero(store_of == d)
        word[at] = store.words[entries[at]]
        if store.vocabulary is not vocabulary and store.vocabulary != vocabulary:
            word[at] = _ints([number[w] for w in store.vocabulary])[word[at]]
    words = NeighborWords(np.repeat(owner, count), np.repeat(rank, count), word, vocabulary, len(per_query))
    return words, len(ids) - len(found)


def score_concepts(ranked_synsets: Weights, concepts: dict[str, ConceptDef],
                   candidates: list[tuple[str, ...]]) -> Weights:
    """Score each query's candidate concepts as the max over their synsets' scores.

    ``candidates`` holds one tuple of concept names per query. Synsets
    absent from a query's ranked graph contribute 0. Returns every
    candidate, ordered per query by (score desc, name asc); the names are
    the candidates' sorted concept names.
    """
    ranked = ranked_synsets
    if unknown := set(chain.from_iterable(candidates)).difference(concepts):
        name = next(filter(unknown.__contains__, chain.from_iterable(candidates)))
        raise EngineError(f"unknown concept {name!r} in candidate list")
    names = sorted(set(chain.from_iterable(candidates)))
    number = dict(zip(names, range(len(names))))
    concept = _ints(list(map(number.__getitem__, chain.from_iterable(candidates))))
    owner = np.repeat(np.arange(len(candidates)), list(map(len, candidates)))
    # The candidates' concepts as a CSR of synset numbers, -1 for a synset the ranked names lack.
    members = [concepts[name].synsets for name in names]
    lens = _ints(list(map(len, members)))
    known, size = ranked.names, len(ranked.names)
    synsets = _ints([x if (x := bisect_left(known, sid)) < size and known[x] == sid else -1
                     for sid in chain.from_iterable(members)])
    # Each (query, candidate) pair's synsets, looked up in the query's ranked scores; -1 where it has none.
    count = lens[concept]
    wanted = synsets[_ranges((np.cumsum(lens) - lens)[concept], count)]
    at = np.where(wanted < 0, -1, _find(ranked.owner * size + ranked.item, np.repeat(owner, count) * size + wanted))
    values = np.append(ranked.weight, 0.0)[at]  # -1 reads the appended 0
    score = np.zeros(len(concept))
    some = np.flatnonzero(count > 0)
    if len(some):
        score[some] = np.maximum.reduceat(values, (np.cumsum(count) - count)[some])
    order = np.lexsort((concept, -score, owner))
    return Weights(owner[order], concept[order], score[order], tuple(names), len(candidates))


def select_top(scored: Weights, m: int) -> list[tuple[tuple[str, float], ...]]:
    """Each query's prediction: up to m positively scored concepts.

    ``scored`` is ordered as ``score_concepts`` orders it. Zero-score
    candidates are not padded in; a concept only enters the prediction on
    actual evidence. If nothing scored positive the first m candidates
    (alphabetical, all at 0) are returned so the output still has rows to
    inspect.
    """
    check_count("m", m)
    positive = scored.weight > 0.0
    any_positive = np.bincount(scored.owner[positive], minlength=scored.queries) > 0
    keep = (_positions(scored.owner, scored.queries) < m) & (positive | ~any_positive[scored.owner])
    top = _take(scored, np.flatnonzero(keep))
    bounds = np.searchsorted(top.owner, np.arange(scored.queries + 1)).tolist()
    pairs = list(zip([scored.names[i] for i in top.item.tolist()], top.weight.tolist()))
    return [tuple(pairs[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


def annotate_words(queries: list[Query], neighbor_words: NeighborWords, lexicon: Lexicon,
                   concepts: dict[str, ConceptDef], params: EngineParams) -> list[Annotation]:
    """The semantic stage: each query's neighbour keywords to a ranked annotation, for the whole
    batch at once. ``neighbor_words`` holds the queries' keywords in the order of ``queries``."""
    for query in queries:
        if not query.candidates:
            raise EngineError(f"query {query.id!r} has no candidate concepts")
        if len(set(query.candidates)) < len(query.candidates):
            name = next(name for i, name in enumerate(query.candidates) if name in query.candidates[:i])
            raise EngineError(f"query {query.id!r} lists candidate concept {name!r} twice")
    a = params.analysis
    weights = word_frequencies(neighbor_words, a.neighbor_weighting)
    candidates = initial_synsets(weights, lexicon, a.s)
    graph = build_graph(top_n(candidates, a.n), lexicon, a)
    walk = propagate(graph, a)
    scored = score_concepts(rank_synsets(graph, walk.scores), concepts, [q.candidates for q in queries])
    signal = np.bincount(candidates.owner, minlength=len(queries)) > 0
    return [Annotation(q.id, ranked, no_keyword_signal=not has, converged=done)
            for q, ranked, has, done in zip(queries, select_top(scored, params.m), signal.tolist(),
                                            walk.query_converged.tolist())]


# perfbench's annotator.from_words_self_ms and annotator.no_signal observe this function by name.
def annotate_from_words(query: Query, neighbor_words: list[tuple[str, list[str]]],
                        lexicon: Lexicon, concepts: dict[str, ConceptDef],
                        params: EngineParams) -> Annotation:
    """The semantic stage for one query's (image id, words) neighbour lists: ``annotate_words``
    on a batch of one."""
    return annotate_words([query], NeighborWords.from_lists([neighbor_words]), lexicon, concepts, params)[0]


def search_neighbor_words(queries: list[Query], datasets: list[Dataset], k: int,
                          timings: dict[str, list[float]] | None = None) -> NeighborWords:
    """The search stage: the queries' merged top-k neighbours' keywords, in query order, from one
    ``knn_batch`` per dataset and one ``gather_neighbor_words``. Seconds go to ``timings``: the search
    as ``SIMILARITY_SEARCH``, the merge and gather as ``KEYWORD_FETCH``."""
    if not datasets:
        raise EngineError("no dataset to search")
    if not queries:
        return NeighborWords.from_lists([])
    timings = {} if timings is None else timings
    features = np.stack([np.asarray(q.feature, dtype=np.float64) for q in queries])
    start = time.perf_counter()
    neighbor_lists = [ds.index.knn_batch(features, k) for ds in datasets]
    timings.setdefault(SIMILARITY_SEARCH, []).append(time.perf_counter() - start)
    start = time.perf_counter()
    words = gather_neighbor_words(neighbor_lists, [ds.keywords for ds in datasets], k)[0]
    timings.setdefault(KEYWORD_FETCH, []).append(time.perf_counter() - start)
    return words


def annotate_batch(queries: list[Query], datasets: list[Dataset], lexicon: Lexicon,
                   concepts: dict[str, ConceptDef], params: EngineParams,
                   timings: dict[str, list[float]] | None = None) -> list[Annotation]:
    """Annotate many queries; results are collated by ascending query id.

    Two batch phases: the search stage (``search_neighbor_words``) and the
    semantic stage (``annotate_words``), timed under ``SEMANTIC_ANALYSIS``.
    A query's annotation does not depend on the rest of its batch, nor on
    ``timings``."""
    if not queries:
        return []
    timings = {} if timings is None else timings
    ordered = sorted(queries, key=lambda q: q.id)
    words = search_neighbor_words(ordered, datasets, params.k, timings)
    start = time.perf_counter()
    out = annotate_words(ordered, words, lexicon, concepts, params)
    timings.setdefault(SEMANTIC_ANALYSIS, []).append(time.perf_counter() - start)
    return out


def annotate(query: Query, datasets: list[Dataset], lexicon: Lexicon,
             concepts: dict[str, ConceptDef], params: EngineParams) -> Annotation:
    """Annotate a single query image: ``annotate_batch`` on a batch of one."""
    return annotate_batch([query], datasets, lexicon, concepts, params)[0]


def write_annotations(path: str, annotations: list[Annotation]) -> None:
    """Write ``<id>\\t<name>:<score>,...`` lines, scores with 6 decimals.

    An annotation that ``read_annotations`` could not read back fails
    before any byte is written: one with no ranked concepts, an id given
    twice, holding a tab or a line end, starting with a byte-order mark
    or whose line would be skipped, or a ranked name that is empty or
    holds ``,``, a tab or a line end, or a score that is not finite.
    Output goes through a temp file and an atomic rename so a failure
    never leaves a partial file behind.
    """
    lines = []
    ids: set[str] = set()
    for ann in annotations:
        if skipped(ann.id) or ann.id.startswith("\ufeff") or "\t" in ann.id or "\r" in ann.id or "\n" in ann.id:
            raise EngineError(f"cannot write annotation id {ann.id!r} to {path}: it is blank, its first "
                              "non-blank character is '#', it starts with U+FEFF, or it holds a tab or a line end")
        if ann.id in ids:
            raise EngineError(f"cannot write annotation id {ann.id!r} to {path}: it is given twice")
        ids.add(ann.id)
        if not ann.ranked:
            raise EngineError(f"cannot write annotation {ann.id!r} to {path}: it ranks no concept")
        names, scores = zip(*ann.ranked)
        joined = "".join(names)
        if not all(names) or "," in joined or "\t" in joined or "\r" in joined or "\n" in joined:
            name = next(name for name in names if not name or set(name) & set(",\t\r\n"))
            raise EngineError(f"cannot write annotation {ann.id!r} to {path}: concept name {name!r}"
                              " is empty or holds ',', a tab or a line end")
        if not all(map(math.isfinite, scores)):
            raise EngineError(f"cannot write annotation {ann.id!r} to {path}: a score is not a finite number")
        ranked = ",".join(f"{name}:{score:.6f}" for name, score in ann.ranked)
        lines.append(f"{ann.id}\t{ranked}\n")
    with _replacing(path, binary=False) as fh:
        fh.writelines(lines)


def read_annotations(path: str) -> list[Annotation]:
    """Parse a file written by write_annotations."""
    annotations: list[Annotation] = []
    seen: set[str] = set()
    for lineno, (image_id, ranked_field) in records(path, 2, "'<id>\\t<name>:<score>,...'"):
        if not image_id or image_id in seen:
            raise id_error(image_id, path, lineno)
        seen.add(image_id)
        ranked = []
        for token in ranked_field.split(","):
            name, sep, score_text = token.rpartition(":")
            if not sep or not name:
                raise FormatError(f"malformed entry {token!r}", path=path, line=lineno)
            try:
                score = float(score_text)
            except ValueError:
                score = math.nan
            if not math.isfinite(score):  # write_annotations writes no nan or inf
                raise FormatError(f"malformed score in entry {token!r}", path=path, line=lineno)
            ranked.append((name, score))
        annotations.append(Annotation(image_id, tuple(ranked)))
    return annotations
