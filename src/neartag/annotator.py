"""End-to-end annotation: retrieve neighbors, analyze keywords, score concepts.

A concept is a named set of synsets; a query is an image feature plus
the candidate concept names the caller wants ranked. The annotator only
ever scores the given candidates (closed world).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .analysis import (
    AnalysisConfig,
    build_graph,
    initial_synsets,
    propagate,
    rank_synsets,
    top_n,
    word_frequencies,
)
from .errors import EngineError, FormatError
from .fvec import _replacing
from .index import VectorIndex
from .keywords import KeywordStore
from .lexicon import Lexicon
from .tsv import id_error, read_id_lists, records

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
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        if self.m < 1:
            raise ValueError(f"m must be at least 1, got {self.m}")


def load_concepts(path: str, lexicon: Lexicon) -> dict[str, ConceptDef]:
    """Concept definitions: lines ``C\\t<name>\\t<synset>(,<synset>)*``.

    Names are lowercased and must be unique; every synset must exist in
    the lexicon.
    """
    concepts: dict[str, ConceptDef] = {}
    layout = "'C\\t<name>\\t<synset,synset,...>'"
    for lineno, (kind, name, synsets_field) in records(path, 3, layout):
        if kind != "C":
            raise FormatError(f"expected {layout}, got record type {kind!r}", path=path, line=lineno)
        name = name.strip().lower()
        if not name:
            raise FormatError("empty concept name", path=path, line=lineno)
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
    merged.sort(key=lambda t: (t[0], t[1]))
    return [(pos, image_id, dist) for dist, image_id, pos in merged[:k]]


def gather_neighbor_words(merged: list[tuple[int, str, float]],
                          stores: list[KeywordStore]) -> tuple[list[tuple[str, list[str]]], int]:
    """Keyword lists for merged neighbors, preserving merged order.

    Neighbors missing from their keyword store are dropped and counted.
    Each run of neighbors from one dataset takes one store lookup.
    """
    entries: list[tuple[str, list[str]]] = []
    missing = 0
    for pos, run in groupby(merged, key=lambda t: t[0]):
        found, miss = stores[pos].words_for([image_id for _pos, image_id, _dist in run])
        missing += miss
        entries.extend(found)
    return entries, missing


def score_concepts(ranked_synsets: list[tuple[str, float]], concepts: dict[str, ConceptDef],
                   candidates) -> list[tuple[str, float]]:
    """Score each candidate concept as the max over its synsets' scores.

    Synsets absent from the ranked graph contribute 0. Returns every
    candidate, ordered by (score desc, name asc).
    """
    scores = dict(ranked_synsets)
    out = []
    for name in candidates:
        concept = concepts.get(name)
        if concept is None:
            raise EngineError(f"unknown concept {name!r} in candidate list")
        best = max((scores.get(sid, 0.0) for sid in concept.synsets), default=0.0)
        out.append((name, best))
    out.sort(key=lambda e: (-e[1], e[0]))
    return out


def select_top(scored: list[tuple[str, float]], m: int) -> list[tuple[str, float]]:
    """The final prediction: up to m positively scored concepts.

    Zero-score candidates are not padded in; a concept only enters the
    prediction on actual evidence. If nothing scored positive the first
    m candidates (alphabetical, all at 0) are returned so the output
    still has rows to inspect.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    positive = [entry for entry in scored if entry[1] > 0.0]
    if positive:
        return positive[:m]
    return scored[:m]


def annotate_from_words(query: Query, neighbor_words: list[tuple[str, list[str]]],
                        lexicon: Lexicon, concepts: dict[str, ConceptDef],
                        params: EngineParams) -> Annotation:
    """The semantic stage alone: neighbor keywords to a ranked annotation."""
    if not query.candidates:
        raise EngineError(f"query {query.id!r} has no candidate concepts")
    weights = word_frequencies(neighbor_words, params.analysis.neighbor_weighting)
    candidates = initial_synsets(weights, lexicon, params.analysis.s)
    if not candidates:
        scored = score_concepts([], concepts, query.candidates)
        return Annotation(query.id, tuple(select_top(scored, params.m)), no_keyword_signal=True)
    kept = top_n(candidates, params.analysis.n)
    graph = build_graph(kept, lexicon, params.analysis)
    result = propagate(graph, params.analysis)
    scored = score_concepts(rank_synsets(graph, result.scores), concepts, query.candidates)
    return Annotation(query.id, tuple(select_top(scored, params.m)), converged=result.converged)


def search_neighbor_words(queries: list[Query], datasets: list[Dataset], k: int,
                          timings: dict[str, list[float]] | None = None
                          ) -> Iterator[list[tuple[str, list[str]]]]:
    """The search stage: yields per query, in order, its merged top-k neighbors' (id, words), from one
    ``knn_batch`` per dataset. Each is gathered when taken: a whole batch's lists slow garbage collection.
    Seconds go to ``timings``: the search as ``SIMILARITY_SEARCH``, each gather as ``KEYWORD_FETCH``."""
    if not queries:
        return
    timings = {} if timings is None else timings
    features = np.stack([np.asarray(q.feature, dtype=np.float64) for q in queries])
    start = time.perf_counter()
    neighbor_lists = [ds.index.knn_batch(features, k) for ds in datasets]
    timings.setdefault(SIMILARITY_SEARCH, []).append(time.perf_counter() - start)
    stores = [ds.keywords for ds in datasets]
    for qi in range(len(queries)):
        start = time.perf_counter()
        merged = merge_neighbor_lists([lists[qi] for lists in neighbor_lists], k)
        words = gather_neighbor_words(merged, stores)[0]
        timings.setdefault(KEYWORD_FETCH, []).append(time.perf_counter() - start)
        yield words


def annotate_batch(queries: list[Query], datasets: list[Dataset], lexicon: Lexicon,
                   concepts: dict[str, ConceptDef], params: EngineParams,
                   timings: dict[str, list[float]] | None = None) -> list[Annotation]:
    """Annotate many queries; results are collated by ascending query id.

    One search stage (``search_neighbor_words``) for the batch, then ``annotate_from_words``
    per query, timed under ``SEMANTIC_ANALYSIS``. The annotations do not depend on ``timings``."""
    timings = {} if timings is None else timings
    ordered = sorted(queries, key=lambda q: q.id)
    out = []
    for query, words in zip(ordered, search_neighbor_words(ordered, datasets, params.k, timings)):
        start = time.perf_counter()
        out.append(annotate_from_words(query, words, lexicon, concepts, params))
        timings.setdefault(SEMANTIC_ANALYSIS, []).append(time.perf_counter() - start)
    return out


def annotate(query: Query, datasets: list[Dataset], lexicon: Lexicon,
             concepts: dict[str, ConceptDef], params: EngineParams) -> Annotation:
    """Annotate a single query image: ``annotate_batch`` on a batch of one."""
    return annotate_batch([query], datasets, lexicon, concepts, params)[0]


def write_annotations(path: str, annotations: list[Annotation]) -> None:
    """Write ``<id>\\t<name>:<score>,...`` lines, scores with 6 decimals.

    Output goes through a temp file and an atomic rename so a failure
    never leaves a partial file behind.
    """
    with _replacing(path, binary=False) as fh:
        for ann in annotations:
            ranked = ",".join(f"{name}:{score:.6f}" for name, score in ann.ranked)
            fh.write(f"{ann.id}\t{ranked}\n")


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
                raise FormatError(f"malformed score in entry {token!r}", path=path, line=lineno) from None
            ranked.append((name, score))
        annotations.append(Annotation(image_id, tuple(ranked)))
    return annotations
